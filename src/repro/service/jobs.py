"""Content-addressed simulation job specifications.

A :class:`JobSpec` describes one unit of simulation work precisely
enough that two identical submissions are the *same job*: the job id is
a stable SHA-256 content address over the spec's canonical JSON form
(the same hashing discipline as :func:`repro.rand.derive_seed`, so ids
never depend on process state or ``PYTHONHASHSEED``).  The result store
memoizes finished payloads under that id, which is what lets repeated
figure regenerations skip re-simulating.

Four job kinds cover the service's consumers:

* ``experiment`` — regenerate one paper artifact (``figure-9``, …)
  exactly as :func:`repro.experiments.runner.run_all` would.
* ``sweep-point`` — one (benchmark, layout, threshold) cell of the
  Section 6.1 sweep grid, the fine-grained unit ``sweep --jobs N``
  fans out.
* ``replay`` — replay a recorded trace log (shipped by path, or inline
  as base64 of the RTL2 binary format) against one cache manager.
* ``shared-mix`` — one (mix, process count, sharing policy) cell of
  the cross-process shared-cache table, the unit ``run shared
  --jobs N`` fans out.
* ``fleet-cell`` — one (mix, process count, sharing policy) cell of
  the fleet scaling curve, replayed through the streaming fleet
  stack (the unit ``run fleet --jobs N`` fans out).  Reuses the
  shared-mix fields, so adding the kind left every existing job id
  untouched.
* ``scenario`` — replay one registered adversarial scenario (a row of
  the scenario regression table, the unit ``run scenarios --jobs N``
  fans out).
* ``calibrate`` — one inverse-synthesis run fitting a profile to a
  scenario target (the CLI's ``calibrate`` verb, submittable to a
  server).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from repro.analysis.sanitizer import DEFAULT_STRIDE
from repro.core.config import GenerationalConfig, PromotionMode
from repro.errors import ConfigError
from repro.shared.fleet import DEFAULT_QUANTUM, SCHEDULES
from repro.shared.policy import MIX_KINDS, POLICY_VARIANTS

#: Bump when the job/payload wire format changes incompatibly; part of
#: the content address, so old store blobs are never misread.
#: v2: shared-mix jobs, provenance keys (seed/config_digest) in every
#: payload.
#: v3: scenario and calibrate jobs (scenario/target/budget/tolerance
#: fields).
JOB_FORMAT = 3

#: The supported job kinds.
JOB_KINDS = (
    "experiment",
    "sweep-point",
    "replay",
    "shared-mix",
    "fleet-cell",
    "scenario",
    "calibrate",
)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of simulation work.

    Attributes:
        kind: One of :data:`JOB_KINDS`.
        experiment_id: Paper artifact id (``experiment`` jobs).
        seed: Master seed for workload synthesis.
        scale_multiplier: Extra scale divisor on profile defaults.
        subset: Benchmark-name restriction (``--quick``'s subset).
        sweep_benchmark: Benchmark the ``sweep`` experiment uses.
        benchmark: Benchmark name (``sweep-point`` jobs).
        manager: ``"generational"`` or ``"unified"``.
        nursery: Nursery fraction (generational sweep points/replays).
        probation: Probation fraction.
        persistent: Persistent fraction.
        threshold: Promotion threshold.
        promotion_mode: ``"on-hit"``/``"on-eviction"``; derived from
            the threshold when None (the sweep's convention).
        capacity: Total cache budget in bytes; when None the worker
            applies the paper's baseline sizing rule.
        log_path: Path to a recorded trace log (``replay`` jobs).
        log_inline: Base64 RTL2 bytes of a trace log (``replay`` jobs).
        sanitize: Run the replay under the invariant sanitizer.
        sanitize_stride: Events between sanitizer sweeps.
        mix: Process-mix kind (``shared-mix`` jobs).
        processes: Number of concurrent processes (``shared-mix``).
        policy: Sharing policy variant (``shared-mix``).
        schedule: Interleaving schedule (``shared-mix``).
        quantum: Records per scheduling turn (``shared-mix``).
        scenario: Registered scenario name (``scenario`` jobs).
        target: Scenario-target dict to fit (``calibrate`` jobs).
        budget: Candidate-evaluation budget (``calibrate`` jobs).
        tolerance: Convergence tolerance (``calibrate`` jobs).
    """

    kind: str = "experiment"
    experiment_id: str | None = None
    seed: int = 42
    scale_multiplier: float = 1.0
    subset: tuple[str, ...] | None = None
    sweep_benchmark: str = "word"
    benchmark: str | None = None
    manager: str = "generational"
    nursery: float | None = None
    probation: float | None = None
    persistent: float | None = None
    threshold: int | None = None
    promotion_mode: str | None = None
    capacity: int | None = None
    log_path: str | None = None
    log_inline: str | None = None
    sanitize: bool = False
    sanitize_stride: int = DEFAULT_STRIDE
    mix: str | None = None
    processes: int | None = None
    policy: str | None = None
    schedule: str = "round-robin"
    quantum: int = DEFAULT_QUANTUM
    scenario: str | None = None
    target: dict | None = None
    budget: int | None = None
    tolerance: float | None = None

    def validate(self) -> None:
        """Check cross-field consistency.

        Raises:
            ConfigError: on any invalid or inconsistent combination.
        """
        if self.kind not in JOB_KINDS:
            raise ConfigError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )
        if self.scale_multiplier <= 0:
            raise ConfigError(
                f"scale multiplier must be > 0, got {self.scale_multiplier}"
            )
        if self.sanitize_stride < 1:
            raise ConfigError(
                f"sanitizer stride must be >= 1, got {self.sanitize_stride}"
            )
        if self.kind == "experiment":
            if not self.experiment_id:
                raise ConfigError("experiment jobs need an experiment_id")
        elif self.kind == "sweep-point":
            if not self.benchmark:
                raise ConfigError("sweep-point jobs need a benchmark")
            self._validate_manager()
        elif self.kind in ("shared-mix", "fleet-cell"):
            if self.mix not in MIX_KINDS:
                raise ConfigError(
                    f"{self.kind} jobs need a mix from {MIX_KINDS}, got "
                    f"{self.mix!r}"
                )
            if self.processes is None or self.processes < 2:
                raise ConfigError(
                    f"{self.kind} jobs need processes >= 2, got {self.processes}"
                )
            if self.policy not in POLICY_VARIANTS:
                raise ConfigError(
                    f"{self.kind} jobs need a policy from {POLICY_VARIANTS}, "
                    f"got {self.policy!r}"
                )
            if self.schedule not in SCHEDULES:
                raise ConfigError(
                    f"{self.kind} jobs need a schedule from {SCHEDULES}, got "
                    f"{self.schedule!r}"
                )
            if self.quantum < 1:
                raise ConfigError(
                    f"{self.kind} quantum must be >= 1, got {self.quantum}"
                )
        elif self.kind == "scenario":
            if not self.scenario:
                raise ConfigError("scenario jobs need a scenario name")
        elif self.kind == "calibrate":
            if not self.benchmark:
                raise ConfigError(
                    "calibrate jobs need a benchmark (the base profile)"
                )
            if self.target is None:
                raise ConfigError("calibrate jobs need a target dict")
            # Surface malformed targets at submission time, not on a
            # worker.  Imported lazily: repro.scenarios replays through
            # the experiment layer, so a module-level import would
            # cycle.
            from repro.scenarios.targets import ScenarioTarget

            ScenarioTarget.from_dict(self.target)
            if self.budget is not None and self.budget < 1:
                raise ConfigError(
                    f"calibration budget must be >= 1, got {self.budget}"
                )
            if self.tolerance is not None and self.tolerance <= 0:
                raise ConfigError(
                    f"calibration tolerance must be > 0, got {self.tolerance}"
                )
        else:  # replay
            given = [p for p in (self.log_path, self.log_inline) if p]
            if len(given) != 1:
                raise ConfigError(
                    "replay jobs need exactly one of log_path or log_inline"
                )
            self._validate_manager()

    def _validate_manager(self) -> None:
        if self.manager not in ("generational", "unified"):
            raise ConfigError(
                f"manager must be 'generational' or 'unified', got "
                f"{self.manager!r}"
            )
        if self.manager == "generational":
            missing = [
                name
                for name in ("nursery", "probation", "persistent", "threshold")
                if getattr(self, name) is None
            ]
            if missing:
                raise ConfigError(
                    f"generational jobs need layout fields {missing}"
                )
            # Surface fraction/threshold errors at submission time.
            self.generational_config()
        if self.capacity is not None and self.capacity < 3:
            raise ConfigError(f"capacity {self.capacity} is too small")

    def generational_config(self) -> GenerationalConfig:
        """The :class:`GenerationalConfig` this spec describes.

        The promotion mode defaults to the sweep's convention: a
        threshold of 1 promotes on-hit, anything larger on-eviction.
        """
        if self.promotion_mode is not None:
            try:
                mode = PromotionMode(self.promotion_mode)
            except ValueError as exc:
                raise ConfigError(
                    f"unknown promotion mode {self.promotion_mode!r}; choose "
                    f"from {[m.value for m in PromotionMode]}"
                ) from exc
        else:
            mode = (
                PromotionMode.ON_HIT
                if self.threshold == 1
                else PromotionMode.ON_EVICTION
            )
        return GenerationalConfig(
            nursery_fraction=self.nursery,
            probation_fraction=self.probation,
            persistent_fraction=self.persistent,
            promotion_threshold=self.threshold,
            promotion_mode=mode,
        )

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form (tuples become lists)."""
        data = asdict(self)
        if data["subset"] is not None:
            data["subset"] = list(data["subset"])
        return data


#: Field names a spec dict may carry, for wire validation.
_SPEC_FIELDS = frozenset(f.name for f in fields(JobSpec))


def spec_from_dict(data: dict[str, object]) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its dict form.

    Raises:
        ConfigError: on unknown fields or invalid combinations.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"job spec must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - _SPEC_FIELDS)
    if unknown:
        raise ConfigError(
            f"unknown job spec field(s) {unknown}; known fields are "
            f"{sorted(_SPEC_FIELDS)}"
        )
    payload = dict(data)
    if payload.get("subset") is not None:
        payload["subset"] = tuple(payload["subset"])
    try:
        spec = JobSpec(**payload)
    except TypeError as exc:
        raise ConfigError(f"malformed job spec: {exc}") from exc
    spec.validate()
    return spec


def canonical_json(data: object) -> str:
    """Deterministic JSON: sorted keys, minimal separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def job_id(spec: JobSpec) -> str:
    """The content address of *spec*.

    Stable across processes and sessions: two specs with equal fields
    always map to the same id, and any field change (including the
    sanitizer switches, which change what a run verifies) produces a
    different one.
    """
    body = f"repro-job-v{JOB_FORMAT}:{canonical_json(spec.to_dict())}"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"j{digest[:31]}"
