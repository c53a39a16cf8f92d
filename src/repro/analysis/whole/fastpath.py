"""Static verification of the ``fastpath_safe`` replay contract.

A cache manager that sets ``fastpath_safe = True`` promises that its
hit-path hooks are *pure cache effects*: compiled replay may batch and
reorder plain hits, so a hook that reaches logging, I/O, wall-clock or
arbitrary callbacks silently corrupts the equivalence between compiled
and interpreted replay (the contract the ``fastpath`` tests rely on).

This pass walks the transitive call closure of every hook of every
manager class claiming ``fastpath_safe``:

* calls that resolve to methods of the manager's own class hierarchy,
  or to module-level helpers of those classes' modules, are *internal*
  — the walk recurses into them;
* every other call must be named in :data:`ALLOWED_CALLS` (the declared
  pure-effect surface: cache mutators, effect-record constructors,
  order-safe builtins) or construct an exception.

Anything else is reported with the hook→call chain in the trace, so a
new policy cannot claim the compiled fast path without actually being
safe to replay there.
"""

from __future__ import annotations

from repro.analysis.core import Severity, Violation, WholeProgramRule, register
from repro.analysis.whole.program import Program

#: Hook methods compiled replay may invoke on a fastpath-safe manager.
HOOK_METHODS = frozenset(
    {
        "on_hit",
        "hit_resident",
        "hit_handler",
        "plain_hit_caches",
        "insert",
        "unmap_module",
        "pin",
        "unpin",
    }
)

#: The declared pure-effect allowlist: names a fastpath-safe hook may
#: call outside its own class hierarchy.
ALLOWED_CALLS = frozenset(
    {
        # CodeCache / arena mutators (pure simulated-cache effects).
        "touch",
        "touch_resident",
        "record_hits",
        "insert",
        "remove",
        "remove_module",
        "pin",
        "unpin",
        "find",
        "caches",
        "get",
        "traces",
        # Effect records and outcome containers.
        "Inserted",
        "Evicted",
        "Promoted",
        "AccessOutcome",
        # Order-safe builtins and containers.
        "append",
        "add",
        "extend",
        "len",
        "max",
        "min",
        "sorted",
        "sum",
        "all",
        "any",
        "abs",
        "isinstance",
        "frozenset",
        "tuple",
        "list",
        "dict",
        "int",
        "float",
        "str",
        "repr",
        "getattr",
        "hasattr",
        "setdefault",
        "values",
        "items",
        "keys",
    }
)

_EXCEPTION_SUFFIXES = ("Error", "Exception", "Violation", "Warning")


def _is_exception_name(name: str) -> bool:
    return name.endswith(_EXCEPTION_SUFFIXES) or name in (
        "KeyError",
        "ValueError",
        "TypeError",
        "RuntimeError",
        "AssertionError",
        "StopIteration",
    )


@register
class FastpathSafetyRule(WholeProgramRule):
    """Every ``fastpath_safe`` manager's hook closure stays inside its
    class hierarchy plus the pure-effect allowlist."""

    rule_id = "fastpath-safety"
    description = (
        "fastpath_safe cache managers may only reach pure-effect calls "
        "from their replay hooks"
    )
    severity = Severity.ERROR

    def check(self, program: Program) -> list[Violation]:
        graph = program.graph
        violations: list[Violation] = []
        for class_qual in sorted(graph.classes):
            if graph.flag_value(class_qual, "fastpath_safe") is not True:
                continue
            violations.extend(self._check_manager(program, graph, class_qual))
        return violations

    def _check_manager(self, program, graph, class_qual: str) -> list[Violation]:
        mro = set(graph.mro(class_qual))
        mro_modules = {
            graph.classes[entry].module
            for entry in mro
            if entry in graph.classes
        }
        manager_name = class_qual.rsplit(".", 1)[-1]
        violations: list[Violation] = []
        reported: set[tuple[str, int]] = set()
        for hook in sorted(HOOK_METHODS):
            root = graph.method_on(class_qual, hook)
            if root is None:
                continue
            stack: list[tuple[str, tuple[str, ...]]] = [(root, (root,))]
            seen = {root}
            while stack:
                qual, path = stack.pop()
                fn = graph.functions[qual]
                for call in fn.calls:
                    internal = [
                        target
                        for target in call.targets
                        if self._is_internal(graph, target, mro, mro_modules)
                    ]
                    if internal:
                        for target in internal:
                            if target not in seen:
                                seen.add(target)
                                stack.append((target, path + (target,)))
                        continue
                    if call.name in ALLOWED_CALLS or _is_exception_name(
                        call.name
                    ):
                        continue
                    key = (call.dotted, call.lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    module = program.modules[fn.module]
                    violations.append(
                        Violation(
                            rule_id=self.rule_id,
                            severity=self.severity,
                            path=module.path,
                            line=call.lineno,
                            col=0,
                            message=(
                                f"fastpath_safe manager {manager_name} "
                                f"reaches call '{call.dotted}' outside the "
                                f"pure-effect allowlist (from hook "
                                f"'{hook}')"
                            ),
                            trace=tuple(
                                f"{step} ({program.modules[graph.functions[step].module].path}:"
                                f"{graph.functions[step].lineno})"
                                for step in path
                            )
                            + (
                                f"call '{call.dotted}' ({module.path}:"
                                f"{call.lineno})",
                            ),
                        )
                    )
        return violations

    @staticmethod
    def _is_internal(graph, target: str, mro: set, mro_modules: set) -> bool:
        fn = graph.functions.get(target)
        if fn is None:
            return False
        if fn.class_qualname is not None:
            return fn.class_qualname in mro
        return fn.module in mro_modules
