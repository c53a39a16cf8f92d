"""The builtin cachelint rules.

Each rule encodes one invariant the reproduction's results depend on —
determinism of the simulator core, conformance of eviction policies to
the :class:`~repro.policies.base.CodeCache` contract, numeric hygiene
in the metrics layer.  See ``docs/analysis.md`` for the rationale and
examples of every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.core import FileContext, Rule, Severity, register
from repro.units import KB, MB

#: Modules whose direct use makes a simulation nondeterministic (or
#: dependent on wall-clock state).  Randomness must come from
#: :mod:`repro.rand`'s seeded substreams instead.
NONDETERMINISTIC_MODULES = frozenset(
    {"random", "time", "datetime", "secrets", "uuid"}
)

#: Concurrency primitives confined to :mod:`repro.service`.  The
#: simulator core is single-threaded by design — replay results must
#: not depend on interleaving — so worker pools, locks and queues may
#: only appear in the service layer.
CONCURRENCY_MODULES = frozenset(
    {"threading", "_thread", "multiprocessing", "concurrent", "queue", "asyncio"}
)

#: Byte-unit magic numbers that must be spelled via repro.units.
_BYTE_LITERALS = {
    KB: "KB",
    MB: "MB",
}


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _body_does_nothing(body: list[ast.stmt]) -> bool:
    """True when a handler body is only ``pass``/docstring/``...``."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


@register
class NoNondeterminismRule(Rule):
    """Simulation code must be reproducible from the master seed: no
    ``random``/``time``/``datetime``-family imports and no salted
    builtin ``hash()`` outside :mod:`repro.rand`."""

    rule_id = "no-nondeterminism"
    description = (
        "sim core must not import random/time/datetime or call builtin "
        "hash(); route randomness through repro.rand"
    )
    severity = Severity.ERROR
    # scheduler.py, client.py and profiling.py legitimately consume
    # wall-clock time (timeouts, backoff, polling, phase timings), and
    # the cluster serving layer (admission buckets, latency benchmarks)
    # is wall-clock territory end to end; none of them touch simulated
    # state.
    exempt_paths = (
        "*repro/rand.py",
        "*repro/service/scheduler.py",
        "*repro/service/client.py",
        "*repro/fastpath/profiling.py",
        "*repro/cluster/*",
    )

    def visit_Import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in NONDETERMINISTIC_MODULES:
                ctx.report(
                    self,
                    node,
                    f"import of nondeterministic module {alias.name!r}; "
                    "use the seeded streams in repro.rand",
                )

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if node.level == 0 and root in NONDETERMINISTIC_MODULES:
            ctx.report(
                self,
                node,
                f"import from nondeterministic module {root!r}; "
                "use the seeded streams in repro.rand",
            )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            ctx.report(
                self,
                node,
                "builtin hash() is salted per-process (PYTHONHASHSEED); "
                "use repro.rand.derive_seed for stable hashing",
            )


@dataclass(frozen=True)
class Boundary:
    """One package's private surface: what code outside it may not
    import or construct.

    Each mapping goes from the forbidden thing to the advice its report
    ends with.  Reports read ``"import of <subject> outside <owner>;
    <advice>"`` (``import from`` for a ``from`` import) and ``"direct
    <class> construction outside <owner>; <advice>"``.  Per import, the
    first match in the order roots, modules, names is reported.

    Attributes:
        rule_id: The rule's id.
        description: The rule's one-line description.
        owner: The package the surface belongs to, as the reports name it.
        exempt_paths: Files the rule never checks (the owner's own).
        roots: Top-level modules, matched on an import's first component.
        root_subject: How a root import is named in reports: ``{name}``
            is the imported module (its root for a ``from`` import),
            ``{root}`` its first component.
        modules: Modules matched on their full dotted name.
        names: Names imported ``from`` any ``repro.*`` module.
        constructors: Classes whose direct call is reported.
    """

    rule_id: str
    description: str
    owner: str
    exempt_paths: tuple[str, ...]
    roots: dict[str, str] = field(default_factory=dict)
    root_subject: str = "{root}"
    modules: dict[str, str] = field(default_factory=dict)
    names: dict[str, str] = field(default_factory=dict)
    constructors: dict[str, str] = field(default_factory=dict)


BOUNDARIES = (
    # The simulation core is single-threaded by design: a lock or worker
    # pool outside the service layer makes replay results depend on
    # interleaving and breaks the determinism contract.
    Boundary(
        rule_id="no-raw-concurrency",
        description=(
            "threading/multiprocessing/queue/concurrent/asyncio imports "
            "are confined to repro.service and repro.cluster; the "
            "simulation core stays single-threaded"
        ),
        owner="repro.service",
        exempt_paths=("*repro/service/*", "*repro/cluster/*"),
        roots=dict.fromkeys(
            CONCURRENCY_MODULES, "dispatch through the service layer"
        ),
        root_subject="concurrency module {name!r}",
    ),
    # The event-loop seam stays in the cluster front end (tightening the
    # row above, which also admits asyncio in repro.service); other
    # layers consume events through the streaming HTTP API or scheduler
    # listeners, never by publishing onto someone else's loop.
    Boundary(
        rule_id="cluster-api",
        description=(
            "asyncio imports and repro.cluster.events internals are "
            "confined to repro.cluster; other layers use the streaming "
            "HTTP API"
        ),
        owner="repro.cluster",
        exempt_paths=("*repro/cluster/*",),
        roots={
            "asyncio": "the event loop lives in the cluster front end only"
        },
        modules={
            "repro.cluster.events": "consume events via the streaming HTTP API"
        },
    ),
    # SharedPersistentCache mutators skip the group manager's attachment
    # and pin-claim bookkeeping, so a write from any other layer can
    # strand a process on evicted shared code.
    Boundary(
        rule_id="shared-cache-api",
        description=(
            "SharedPersistentCache construction/mutation is confined to "
            "repro.shared; other layers go through the cache group manager"
        ),
        owner="repro.shared",
        exempt_paths=("*repro/shared/*",),
        modules={
            "repro.shared.cache": "drive the shared cache through make_group"
        },
        names={
            "SharedPersistentCache": (
                "drive the shared cache through make_group"
            )
        },
        constructors={"SharedPersistentCache": "use make_group"},
    ),
    # Replay correctness depends on every column writer keeping the
    # packed arrays in lockstep, so other layers use the package root
    # (compile_log, ensure_compiled, the row iterators).  binary.py
    # decodes straight into packed columns (the sanctioned
    # serialization fast path), so it may construct the class.
    Boundary(
        rule_id="fastpath-api",
        description=(
            "repro.fastpath.compiled/replay imports and direct "
            "CompiledTraceLog construction are confined to repro.fastpath; "
            "other layers use the package-root API"
        ),
        owner="repro.fastpath",
        exempt_paths=("*repro/fastpath/*", "*repro/tracelog/binary.py"),
        modules=dict.fromkeys(
            ("repro.fastpath.compiled", "repro.fastpath.replay"),
            "use the repro.fastpath package-root API",
        ),
        constructors={
            "CompiledTraceLog": "use compile_log/ensure_compiled"
        },
    ),
    # The fleet scheduler's segment accounting, the distinct-workload
    # cursor sharing and the columnar replay loop are one coupled
    # mechanism whose equivalence to the per-record test oracle is
    # regression-pinned; other layers use the package root
    # (FleetWorkloads, FleetSimulator, stream_segments, churn_plan).
    Boundary(
        rule_id="fleet-api",
        description=(
            "repro.shared.fleet.scheduler/workloads/simulator imports and "
            "direct DistinctWorkload construction are confined to "
            "repro.shared.fleet; other layers use the package-root API"
        ),
        owner="repro.shared.fleet",
        exempt_paths=("*repro/shared/fleet/*",),
        modules=dict.fromkeys(
            (
                "repro.shared.fleet.scheduler",
                "repro.shared.fleet.workloads",
                "repro.shared.fleet.simulator",
            ),
            "use the repro.shared.fleet package-root API",
        ),
        constructors={
            "DistinctWorkload": (
                "use FleetWorkloads.from_specs or "
                "FleetWorkloads.from_process_workloads"
            )
        },
    ),
)


class BoundaryRule(Rule):
    """Reports imports and constructions that reach into another
    package's private surface.  Each row of :data:`BOUNDARIES` is
    registered as its own subclass, so every row keeps its own rule id,
    exempt paths and suppressions."""

    boundary: Boundary
    severity = Severity.ERROR

    def visit_Import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            self._check_module(ctx, node, "import of", alias.name, alias.name)

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        if node.level != 0:
            return
        module = node.module or ""
        root = module.split(".")[0]
        if self._check_module(ctx, node, "import from", module, root):
            return
        if module.startswith("repro."):
            for alias in node.names:
                advice = self.boundary.names.get(alias.name)
                if advice is not None:
                    self._report(ctx, node, f"import of {alias.name}", advice)
                    return

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        advice = self.boundary.constructors.get(name)
        if advice is not None:
            self._report(ctx, node, f"direct {name} construction", advice)

    def _check_module(
        self,
        ctx: FileContext,
        node: ast.AST,
        verb: str,
        module: str,
        shown: str,
    ) -> bool:
        """Report an import of *module* if it is private; *shown* is
        the ``{name}`` a root match reports.  True when reported."""
        boundary = self.boundary
        root = module.split(".")[0]
        if root in boundary.roots:
            subject = boundary.root_subject.format(name=shown, root=root)
            advice = boundary.roots[root]
        elif module in boundary.modules:
            subject, advice = module, boundary.modules[module]
        else:
            return False
        self._report(ctx, node, f"{verb} {subject}", advice)
        return True

    def _report(
        self, ctx: FileContext, node: ast.AST, what: str, advice: str
    ) -> None:
        ctx.report(self, node, f"{what} outside {self.boundary.owner}; {advice}")


for _boundary in BOUNDARIES:
    register(
        type(
            "".join(part.title() for part in _boundary.rule_id.split("-"))
            + "Rule",
            (BoundaryRule,),
            {
                "rule_id": _boundary.rule_id,
                "description": _boundary.description,
                "exempt_paths": _boundary.exempt_paths,
                "boundary": _boundary,
            },
        )
    )


@register
class PolicyApiRule(Rule):
    """Every ``CodeCache`` policy must implement the hook contract:
    define ``_allocate`` and ``policy_name``, and an overridden
    ``__init__`` must call ``super().__init__``."""

    rule_id = "policy-api"
    description = (
        "CodeCache subclasses must define _allocate and policy_name, "
        "and their __init__ must call super().__init__"
    )
    severity = Severity.ERROR
    include_paths = ("*policies/*.py",)
    exempt_paths = ("*policies/base.py", "*policies/__init__.py")

    def begin_file(self, ctx: FileContext) -> None:
        # Class names known (in this file) to derive from CodeCache,
        # so BaseX -> SubX chains are still checked.
        self._policy_classes: set[str] = set()

    def visit_ClassDef(self, ctx: FileContext, node: ast.ClassDef) -> None:
        base_names = {
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        }
        direct = "CodeCache" in base_names
        inherited = bool(base_names & self._policy_classes)
        if not direct and not inherited:
            return
        self._policy_classes.add(node.name)

        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        class_attrs = {
            target.id
            for stmt in node.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        } | {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        }

        if direct:
            if "_allocate" not in methods:
                ctx.report(
                    self,
                    node,
                    f"policy {node.name!r} does not override _allocate",
                )
            if "policy_name" not in class_attrs:
                ctx.report(
                    self,
                    node,
                    f"policy {node.name!r} does not set policy_name",
                )

        init = methods.get("__init__")
        if init is not None and not self._calls_super_init(init):
            ctx.report(
                self,
                init,
                f"{node.name}.__init__ does not call super().__init__ "
                "(the trace table and arena would be left unbuilt)",
            )

    @staticmethod
    def _calls_super_init(init: ast.FunctionDef) -> bool:
        for sub in ast.walk(init):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "__init__"
                and isinstance(sub.func.value, ast.Call)
                and isinstance(sub.func.value.func, ast.Name)
                and sub.func.value.func.id == "super"
            ):
                return True
        return False


@register
class FloatEqualityRule(Rule):
    """Miss rates, fractions and overhead ratios are floats; comparing
    them with ``==``/``!=`` against float literals is a rounding bug
    waiting to happen."""

    rule_id = "float-equality"
    description = (
        "no ==/!= comparisons against float literals; use math.isclose "
        "or an inequality guard"
    )
    severity = Severity.ERROR

    def visit_Compare(self, ctx: FileContext, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                ctx.report(
                    self,
                    node,
                    "equality comparison against a float literal; use "
                    "math.isclose or an inequality guard",
                )
                return


@register
class BareExceptRule(Rule):
    """Swallowed exceptions hide simulator corruption; handlers must
    name a specific type and actually do something."""

    rule_id = "bare-except"
    description = (
        "no bare `except:` and no `except Exception: pass`-style "
        "swallowing outside errors.py"
    )
    severity = Severity.ERROR
    exempt_paths = ("*repro/errors.py",)

    def visit_ExceptHandler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "hides corruption; name the exception type",
            )
            return
        names = []
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for entry in types:
            if isinstance(entry, ast.Name):
                names.append(entry.id)
            elif isinstance(entry, ast.Attribute):
                names.append(entry.attr)
        if {"Exception", "BaseException"} & set(names) and _body_does_nothing(
            node.body
        ):
            ctx.report(
                self,
                node,
                f"`except {' | '.join(names)}` with an empty body swallows "
                "every error; handle or re-raise",
            )


@register
class UnitsHygieneRule(Rule):
    """Byte arithmetic must go through :mod:`repro.units` (KB/MB
    constants and helpers) instead of repeating 1024 magic numbers."""

    rule_id = "units-hygiene"
    description = (
        "byte arithmetic must use repro.units (KB/MB) rather than raw "
        "1024/1048576 literals"
    )
    severity = Severity.WARNING
    exempt_paths = ("*repro/units.py",)

    def visit_BinOp(self, ctx: FileContext, node: ast.BinOp) -> None:
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, int)
                and not isinstance(operand.value, bool)
                and operand.value in _BYTE_LITERALS
            ):
                ctx.report(
                    self,
                    node,
                    f"magic byte constant {operand.value}; use "
                    f"repro.units.{_BYTE_LITERALS[operand.value]}",
                )
                return


@register
class MutableDefaultRule(Rule):
    """A mutable default argument is shared across calls — in a
    simulator that aliases state across runs and silently breaks
    replay determinism."""

    rule_id = "mutable-default"
    description = "no mutable default arguments (list/dict/set literals or calls)"
    severity = Severity.ERROR

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
    )

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        self._check(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check(ctx, node)

    def visit_Lambda(self, ctx: FileContext, node: ast.Lambda) -> None:
        self._check(ctx, node)

    def _check(
        self, ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            if self._is_mutable(default):
                name = getattr(node, "name", "<lambda>")
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in {name}(); default to "
                    "None and construct inside the body",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._MUTABLE_CALLS
        )


@register
class ScenariosDeterminismRule(Rule):
    """Scenario search must replay bit-for-bit from ``(seed, name)``:
    calibration walks and fuzz campaigns are institutionalized as
    content-addressed artifacts whose recorded outcomes are re-checked
    forever after, so a stray wall-clock read in an objective or a
    privately-constructed RNG silently breaks every future replay.
    Randomness enters :mod:`repro.scenarios` only through
    :func:`repro.rand.substream` handles passed down the call tree."""

    rule_id = "scenarios-determinism"
    description = (
        "repro.scenarios must not read wall clocks, construct Random "
        "objects, or reseed streams; derive all randomness via "
        "repro.rand.substream"
    )
    severity = Severity.ERROR
    include_paths = ("*repro/scenarios/*",)

    #: Callable names that read ambient time (module functions and
    #: datetime classmethods alike — matched as bare names or
    #: attributes, so ``time.monotonic()`` and ``datetime.now()`` both
    #: trip).
    _CLOCK_CALLS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "localtime",
            "gmtime",
            "now",
            "today",
            "utcnow",
        }
    )

    #: RNG constructors; scenario code takes streams as arguments
    #: (ultimately from repro.rand.substream) instead of building them.
    _RNG_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name in self._CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"wall-clock call {name}() in repro.scenarios; objectives "
                "and mutators must depend only on (seed, profile)",
            )
        elif name in self._RNG_CONSTRUCTORS:
            ctx.report(
                self,
                node,
                f"direct {name}() construction in repro.scenarios; take a "
                "stream from repro.rand.substream instead",
            )
        elif name == "seed" and isinstance(func, ast.Attribute):
            ctx.report(
                self,
                node,
                "reseeding a stream in repro.scenarios breaks substream "
                "independence; derive a fresh substream instead",
            )
