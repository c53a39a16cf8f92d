"""Concurrency lockset checking for the service layer.

The service runs three kinds of concurrent code against the same
scheduler objects: the asyncio front end's connection handlers (whose
blocking scheduler calls run on executor threads), the schedulers' own
bookkeeping threads (``threading.Thread`` targets), and the worker
processes (``multiprocessing`` targets).  State they share must be
accessed under a consistent lock — CPython makes most single attribute
reads atomic, but torn multi-field reads (metrics snapshots, job
records mid-update) are real divergence bugs for a service whose
payloads must be byte-identical.

The pass:

1. finds the *thread roots*: ``do_*`` methods on HTTP handler classes
   (stdlib-style request handlers anywhere in the analyzed program),
   every resolvable ``Thread(target=...)`` / ``Process(target=...)``
   argument (including targets picked from tuples, ``a or b``
   fallbacks, and function-valued attributes), ``worker_main``, and
   ``asyncio.start_server(handler, ...)`` connection handlers (the
   cluster front end's per-connection tasks race its collector
   threads, so the event-bus state they share gets the same scrutiny);
2. walks every function body recording shared-state accesses — ``self``
   attribute chains and typed locals resolve to per-class, per-field
   keys (``SchedulerMetrics.submitted``), mutable module globals to
   dotted names — together with the locks *lexically* held at each
   access (``with self._lock:``);
3. propagates *caller-held* locks interprocedurally: a function's
   effective lockset is the intersection, over every call path from a
   root, of the locks held at the callsite (so a helper documented as
   "caller holds the lock" is analyzed that way);
4. reports every key that is reachable from two or more distinct roots,
   is written at least once, and whose accesses share no common lock.

Attributes holding synchronization primitives, accesses inside
``__init__``, and mutator calls on attributes that are themselves
program classes (their own methods get analyzed instead) are excluded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import Severity, Violation, WholeProgramRule, register
from repro.analysis.whole.graph import (
    CallGraph,
    FunctionInfo,
    _dotted_name,
    _FunctionScope,
)
from repro.analysis.whole.program import Program

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "put",
        "put_nowait",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "extend",
        "insert",
        "setdefault",
        "sort",
        "reverse",
        "set",
    }
)

READ = "read"
WRITE = "write"


@dataclass
class Access:
    """One shared-state access site."""

    key: str
    kind: str
    fn: str
    path: str
    line: int
    held: frozenset[str]


@dataclass
class _CallRecord:
    target: str
    held: frozenset[str]


class _BodyWalker(ast.NodeVisitor):
    """Collects accesses and lock-annotated callsites for one function."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo, path: str) -> None:
        self.graph = graph
        self.fn = fn
        self.path = path
        self.scope = _FunctionScope(graph, fn)
        self.held: frozenset[str] = frozenset()
        self.accesses: list[Access] = []
        self.calls: list[_CallRecord] = []
        self._record_accesses = fn.name not in ("__init__", "__new__")
        self._globals = graph.module_globals.get(fn.module, {})
        self._global_decls: set[str] = set()
        self._locals: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                self._global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                self._locals.add(node.id)
        args = getattr(fn.node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                self._locals.add(arg.arg)

    # -- lock scoping --------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        tokens = set()
        for item in node.items:
            token = self._lock_token(item.context_expr)
            if token is not None:
                tokens.add(token)
            else:
                self.visit(item.context_expr)
        outer = self.held
        self.held = outer | tokens
        for stmt in node.body:
            self.visit(stmt)
        self.held = outer

    def _lock_token(self, expr: ast.expr) -> str | None:
        """A stable name for a lock guarding a ``with`` block."""
        if isinstance(expr, ast.Attribute):
            receiver = self.scope.infer(expr.value)
            if receiver is not None and receiver.qualname is not None:
                return f"{receiver.qualname}.{expr.attr}"
            dotted = _dotted_name(expr)
            if dotted is not None and not dotted.startswith("self."):
                return self.graph._expand(dotted, self.fn.module)
            return None
        if isinstance(expr, ast.Name) and expr.id not in self._locals:
            return self.graph._expand(expr.id, self.fn.module)
        return None

    # -- accesses ------------------------------------------------------

    def _record(self, key: str | None, kind: str, line: int) -> None:
        if key is None or not self._record_accesses:
            return
        self.accesses.append(
            Access(
                key=key,
                kind=kind,
                fn=self.fn.qualname,
                path=self.path,
                line=line,
                held=self.held,
            )
        )

    def _attr_key(self, node: ast.Attribute) -> str | None:
        receiver = self.scope.infer(node.value)
        if receiver is not None and receiver.qualname is not None:
            if self.graph.is_sync_attr(receiver.qualname, node.attr):
                return None
            return f"{receiver.qualname}.{node.attr}"
        # ``GLOBAL.method(...)`` / ``GLOBAL.field`` on a module global.
        if isinstance(node.value, ast.Name):
            return self._global_key(node.value.id)
        # Cross-module global: ``mod_alias.GLOBAL``.
        dotted = _dotted_name(node)
        if dotted is not None and not dotted.startswith("self."):
            expanded = self.graph._expand(dotted, self.fn.module)
            owner, _, name = expanded.rpartition(".")
            if (
                owner in self.graph.module_globals
                and name in self.graph.module_globals[owner]
            ):
                return expanded
        return None

    def _target_key(self, node: ast.expr) -> str | None:
        """The shared-state key a store target mutates, if any."""
        if isinstance(node, ast.Attribute):
            return self._attr_key(node)
        if isinstance(node, ast.Subscript):
            return self._container_key(node.value)
        return None

    def _container_key(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            return self._attr_key(node)
        if isinstance(node, ast.Name):
            return self._global_key(node.id)
        return None

    def _global_key(self, name: str) -> str | None:
        if name in self._locals and name not in self._global_decls:
            return None
        if name in self._globals:
            return f"{self.fn.module}.{name}"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            key = self._target_key(target)
            if key is None and isinstance(target, ast.Name):
                if target.id in self._global_decls:
                    key = self._global_key(target.id)
            self._record(key, WRITE, node.lineno)
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self.visit(target.value)
                self.visit(target.slice)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        key = self._target_key(node.target)
        if key is None and isinstance(node.target, ast.Name):
            key = self._global_key(node.target.id)
        self._record(key, WRITE, node.lineno)
        self._record(key, READ, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(self._target_key(node.target), WRITE, node.lineno)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record(self._target_key(target), WRITE, node.lineno)
            if isinstance(target, ast.Subscript):
                self.visit(target.value)
                self.visit(target.slice)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record(self._attr_key(node), READ, node.lineno)
        # Recurse past pure chains only into computed parts, so one
        # chain yields one terminal access plus container accesses.
        value = node.value
        if isinstance(value, (ast.Subscript, ast.Call)):
            self.visit(value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._record(self._global_key(node.id), READ, node.lineno)

    def visit_Call(self, node: ast.Call) -> None:
        site = self.scope.resolve_call(node)
        program_targets = [
            target
            for target in site.targets
            if target in self.graph.functions
        ]
        for target in program_targets:
            self.calls.append(_CallRecord(target=target, held=self.held))
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
            and not program_targets
        ):
            key = self._container_key(node.func.value)
            self._record(key, WRITE, node.lineno)
        self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:  # nested defs: analyzed as part of parent
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def walk(self) -> None:
        body = getattr(self.fn.node, "body", [])
        for stmt in body:
            self.visit(stmt)


def _is_http_handler_class(graph: CallGraph, class_qual: str) -> bool:
    for entry in graph.mro(class_qual):
        info = graph.classes.get(entry)
        if info is None:
            continue
        if any(
            base.endswith("HTTPRequestHandler") for base in info.base_names
        ) or info.name.endswith("HTTPRequestHandler"):
            return True
    return False


def _name_refs(graph: CallGraph, fn: FunctionInfo, name: str) -> set[str]:
    """Function refs a local *name* may hold (assignments and
    tuple-loop bindings like ``for label, target in ((..., f), ...)``)."""
    refs: set[str] = set()
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            refs |= graph._function_refs(node.value, fn)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            for index, elt in enumerate(node.target.elts):
                if not (isinstance(elt, ast.Name) and elt.id == name):
                    continue
                if isinstance(node.iter, (ast.Tuple, ast.List)):
                    for item in node.iter.elts:
                        if isinstance(
                            item, (ast.Tuple, ast.List)
                        ) and index < len(item.elts):
                            refs |= graph._function_refs(item.elts[index], fn)
    return refs


def _target_refs(graph: CallGraph, fn: FunctionInfo, expr: ast.expr) -> set[str]:
    refs = graph._function_refs(expr, fn)
    if isinstance(expr, ast.Name):
        refs |= _name_refs(graph, fn, expr.id)
    elif (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and fn.class_qualname is not None
    ):
        for entry in graph.mro(fn.class_qualname):
            info = graph.classes.get(entry)
            if info is not None and expr.attr in info.attr_func_refs:
                refs |= info.attr_func_refs[expr.attr]
    return refs


def find_roots(graph: CallGraph) -> dict[str, str]:
    """Concurrent entry points: function qualname -> root kind."""
    roots: dict[str, str] = {}
    for class_qual, info in graph.classes.items():
        if not _is_http_handler_class(graph, class_qual):
            continue
        for name, method_qual in info.methods.items():
            if name.startswith("do_"):
                roots[method_qual] = "http-handler"
    for fn in graph.functions.values():
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            last = (dotted or "").rsplit(".", 1)[-1]
            if last == "start_server":
                # ``asyncio.start_server(handler, ...)``: the handler
                # coroutine runs as a per-connection task on the event
                # loop — a concurrent root exactly like a thread target
                # (the loop thread races the collector/HTTP threads).
                if node.args:
                    for ref in _target_refs(graph, fn, node.args[0]):
                        roots.setdefault(ref, "asyncio-handler")
                for keyword in node.keywords:
                    if keyword.arg == "client_connected_cb":
                        for ref in _target_refs(graph, fn, keyword.value):
                            roots.setdefault(ref, "asyncio-handler")
                continue
            if last not in ("Thread", "Process"):
                continue
            kind = "thread" if last == "Thread" else "worker-process"
            for keyword in node.keywords:
                if keyword.arg != "target":
                    continue
                for ref in _target_refs(graph, fn, keyword.value):
                    roots.setdefault(ref, kind)
    for fn in graph.functions.values():
        if fn.name == "worker_main":
            roots.setdefault(fn.qualname, "worker-process")
    return roots


@register
class ConcurrencyLocksetRule(WholeProgramRule):
    """State shared between service thread roots must have a common
    lock covering every access."""

    rule_id = "concurrency-lockset"
    description = (
        "state reachable from multiple thread roots (HTTP handlers, "
        "scheduler threads, workers) must be consistently locked"
    )
    severity = Severity.ERROR

    def check(self, program: Program) -> list[Violation]:
        graph = program.graph
        roots = find_roots(graph)
        if len(roots) < 2:
            return []

        walkers: dict[str, _BodyWalker] = {}
        for qual, fn in graph.functions.items():
            walker = _BodyWalker(graph, fn, program.modules[fn.module].path)
            walker.walk()
            walkers[qual] = walker

        # Interprocedural caller-held-lock propagation (intersection
        # over call paths, roots start with nothing held).
        effective: dict[str, frozenset[str]] = {
            qual: frozenset() for qual in roots
        }
        worklist = sorted(roots)
        while worklist:
            current = worklist.pop()
            held = effective[current]
            for record in walkers[current].calls:
                entering = held | record.held
                previous = effective.get(record.target)
                if previous is None:
                    effective[record.target] = entering
                    worklist.append(record.target)
                else:
                    merged = previous & entering
                    if merged != previous:
                        effective[record.target] = merged
                        worklist.append(record.target)

        # Which roots reach each function.
        edges = graph.edges()
        roots_of: dict[str, set[str]] = {}
        for root in roots:
            for qual in graph.reachable_from({root}, edges):
                roots_of.setdefault(qual, set()).add(root)

        by_key: dict[str, list[Access]] = {}
        for qual, walker in walkers.items():
            if qual not in effective:
                continue  # not reachable from any root
            base = effective[qual]
            for access in walker.accesses:
                by_key.setdefault(access.key, []).append(
                    Access(
                        key=access.key,
                        kind=access.kind,
                        fn=access.fn,
                        path=access.path,
                        line=access.line,
                        held=access.held | base,
                    )
                )

        violations: list[Violation] = []
        for key in sorted(by_key):
            accesses = by_key[key]
            touching_roots = sorted(
                {root for a in accesses for root in roots_of.get(a.fn, ())}
            )
            if len(touching_roots) < 2:
                continue
            if not any(a.kind == WRITE for a in accesses):
                continue
            common = frozenset.intersection(*(a.held for a in accesses))
            if common:
                continue
            witness = min(
                (a for a in accesses if not a.held),
                key=lambda a: (a.kind != WRITE, a.path, a.line),
            )
            violations.append(
                self._violation(
                    graph, key, witness, accesses, touching_roots, edges
                )
            )
        return violations

    def _violation(
        self, graph, key, witness, accesses, touching_roots, edges
    ) -> Violation:
        unlocked = sorted(
            {
                f"{a.kind} in {a.fn} ({a.path}:{a.line})"
                for a in accesses
                if not a.held
            }
        )
        trace = [f"unlocked {entry}" for entry in unlocked[:4]]
        for root in touching_roots[:2]:
            path = graph.shortest_path(root, {witness.fn}, edges)
            if path is None:
                path = graph.shortest_path(
                    root, {a.fn for a in accesses}, edges
                )
            if path is not None:
                trace.append("root path: " + " -> ".join(path))
        return Violation(
            rule_id=self.rule_id,
            severity=self.severity,
            path=witness.path,
            line=witness.line,
            col=0,
            message=(
                f"'{key}' is written and shared across "
                f"{len(touching_roots)} thread roots without a common "
                f"lock (unlocked {witness.kind} in {witness.fn})"
            ),
            trace=tuple(trace),
        )
