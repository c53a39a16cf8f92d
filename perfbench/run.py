"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval-warm --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  Every
iteration runs in a fresh interpreter (``perfbench/child.py``) with the
``REPRO_*`` switches removed and private stores under
``.bench_build/perfbench``; the first run in a checkout fills the warm
artifact store there, with the program under test.

``--trace 0`` repeats the timed phase until ``--seconds`` have been
measured (at least once) and reports the end-to-end metrics as medians;
set-up is also measured in extra set-up-only interpreters.  ``--trace
1`` runs the workload once untraced and once with layer spans, and
reports the per-layer metrics of the traced run.  The last line of
standard output is one JSON object; the lines before it report every
end-to-end metric of the workload by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

from harness import (
    Tally,
    child_env,
    count_drift,
    fastpath_metrics,
    median,
    write_json_atomic,
)
from service import job_tally, service_e2e, service_layers

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("eval-warm", "characterize-cold", "shared-mix", "service-mix")

#: Set-up-only interpreters per run, on top of each timed iteration's.
SETUP_SAMPLES = 6
#: A run ends within this many seconds; preparing a checkout may add
#: up to PREPARE_BUDGET.
RUN_BUDGET = 170.0
PREPARE_BUDGET = 700.0


class BenchError(RuntimeError):
    """A child interpreter failed; the run reports no result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checkout:
    """The program's sources and the benchmark's private work area."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_build" / "perfbench"
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.declared = json.loads((root / "BENCHMARK.json").read_text())

    def fingerprint(self) -> str:
        """Digest of the program and benchmark sources; warm state is
        reused only by the code that built it."""
        digest = hashlib.sha256()
        for path in sorted([*self.src.rglob("*.py"), *BENCH.glob("*.py")]):
            digest.update(str(path.relative_to(self.root)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()[:20]

    def spawn(self, cfg: dict, deadline: float) -> dict:
        """Run one child interpreter to completion; returns its output
        with ``setup_s`` measured from the moment it was started."""
        run_dir = self.work / "runs" / uuid.uuid4().hex
        run_dir.mkdir(parents=True)
        try:
            cfg = {**cfg, "run_dir": str(run_dir), "run_id": run_dir.name}
            cfg["out"] = str(run_dir / "out.json")
            config = run_dir / "config.json"
            config.write_text(json.dumps(cfg))
            started = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(config)],
                env=child_env(os.environ, self.src, run_dir),
                stdout=sys.stderr,
                start_new_session=True,
            )
            try:
                code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The child's own processes (cluster workers) share its
                # session; none may outlive the run.
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait()
            if code != 0:
                raise BenchError(f"{cfg['mode']} child failed (exit {code})")
            out = json.loads(Path(cfg["out"]).read_text())
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if "ready_at" in out:
            out["setup_s"] = out["ready_at"] - started
        return out

    def prepare(self) -> Path:
        """The warm state for this code: built by the first run."""
        state = self.work / "state" / self.fingerprint()
        if (state / "ready").exists():
            return state
        shutil.rmtree(state.parent, ignore_errors=True)
        (state / "warm").mkdir(parents=True)
        self.spawn(
            {"mode": "prepare", "warm": str(state / "warm"), "state": str(state)},
            time.monotonic() + PREPARE_BUDGET,
        )
        (state / "ready").write_text("")
        return state


def check_counts(state: Path, workload: str, outputs: list[dict], expected: dict) -> list[str]:
    """Exact-count checks of every iteration.

    Modelled counts must equal the values recorded with the benchmark.
    Implementation counts (plans, artifact hits) must equal those the
    first run of the same code observed in this checkout.
    """
    problems = []
    reference_path = state / f"counts-{workload}.json"
    for out in outputs:
        for key in count_drift(out.get("modelled", {}), expected.get("counts", {})):
            problems.append(f"modelled count {key} drifted")
        implementation = {
            key: value for key, value in out.get("implementation", {}).items() if value is not None
        }
        if not reference_path.exists():
            write_json_atomic(reference_path, implementation)
        reference = json.loads(reference_path.read_text())
        for key in count_drift(implementation, reference):
            problems.append(f"implementation count {key} drifted")
    return problems


def tally_of(out: dict) -> Tally:
    if "jobs" in out:
        return job_tally(out["jobs"])
    return Tally(out["attempted"], out["failed"], dict(out["reasons"]))


def timed(checkout: Checkout, state: Path, args) -> tuple[dict, dict, list, Tally]:
    """``--trace 0``: end-to-end metrics over repeated iterations."""
    began = time.monotonic()
    deadline = began + RUN_BUDGET
    base = {"workload": args.workload, "seed": args.seed, "trace": False, "state": str(state),
            "warm": str(state / "warm"), "expected": checkout.expected.get(args.workload, {})}
    setups = [checkout.spawn({**base, "mode": "setup"}, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    outputs = []
    while True:
        started = time.monotonic()
        outputs.append(checkout.spawn({**base, "mode": "run"}, deadline))
        measured = sum(out["wall_s"] for out in outputs)
        cost = time.monotonic() - started
        if measured >= args.seconds or time.monotonic() + cost > deadline - 5.0:
            break
    setups += [out["setup_s"] for out in outputs]
    metrics = {
        "wall_s": median([out["wall_s"] for out in outputs]),
        "setup_s": median(setups),
        "peak_rss_mb": median([out["peak_rss_mb"] for out in outputs]),
        "sim_records_per_s": median([out["records"] / out["wall_s"] for out in outputs]),
    }
    tally = Tally()
    for out in outputs:
        tally.merge(tally_of(out))
    report = {"failed_frac": tally.failed_frac, "iterations": len(outputs), "setups": len(setups)}
    if args.workload == "service-mix":
        jobs = [job for out in outputs for job in out["jobs"]]
        report.update(service_e2e(jobs, sum(out["wall_s"] for out in outputs)))
    return metrics, report, outputs, tally


def traced(checkout: Checkout, state: Path, args) -> tuple[dict, dict, list, Tally]:
    """``--trace 1``: one untraced and one traced iteration."""
    deadline = time.monotonic() + RUN_BUDGET
    base = {"workload": args.workload, "seed": args.seed, "mode": "run", "state": str(state),
            "warm": str(state / "warm"), "expected": checkout.expected.get(args.workload, {})}
    plain = checkout.spawn({**base, "trace": False}, deadline)
    out = checkout.spawn({**base, "trace": True}, deadline)
    if "jobs" in out:
        layers = {
            **service_layers(out["jobs"], out["store"], out["admission"]),
            **fastpath_metrics(out["fastpath"], {}),
            "service.compute_ms": out["compute_ms"],
            "cachesim.records_replayed": out["records"],
        }
    else:
        layers = dict(out["layers"])
    layers["trace.overhead_frac"] = (out["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    layers["trace.unspanned_frac"] = out["unspanned_frac"]
    tally = tally_of(plain)
    tally.merge(tally_of(out))
    report = {"digests_match_untraced": plain.get("digests") == out.get("digests")}
    write_json_atomic(checkout.work / f"spans-{args.workload}.json", out["spans"])
    return layers, report, [plain, out], tally


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    # A run stopped from outside still stops its children (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checkout = Checkout(root)
    shutil.rmtree(checkout.work / "runs", ignore_errors=True)
    try:
        state = checkout.prepare()
        measure = traced if args.trace else timed
        measured, report, outputs, tally = measure(checkout, state, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = check_counts(state, args.workload, outputs, checkout.expected.get(args.workload, {}))
    problems += [f"{count} x {reason}" for reason, count in sorted(tally.reasons.items())
                 if reason.startswith(("digest-", "payload-mismatch"))]
    if report.get("digests_match_untraced") is False:
        problems.append("traced tables differ from untraced tables")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in checkout.declared[kind]:
        # A layer the workload does not exercise, or a counter the
        # program no longer keeps, reads 0 and is listed as unmeasured.
        value = measured.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    report["unmeasured"] = [name for name in metrics if name not in measured]
    print_report(args, metrics, report, tally, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def print_report(args, metrics: dict, report: dict, tally: Tally, problems: list) -> None:
    """Human-readable lines: every metric by name and unit."""
    counts = f" iterations={report['iterations']} setups={report['setups']}" if not args.trace else ""
    print(f"# {args.workload} seed={args.seed} trace={args.trace}{counts}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'failed_frac':40s} {report['failed_frac']:>16.6g} fraction")
        if "jobs_per_s" in report:
            tail = report["job_latency_tail"]
            if report["job_latency_p50_ms"] is not None:
                print(f"{'job_latency_p50_ms':40s} {report['job_latency_p50_ms']:>16.6g} ms")
            if tail is not None:
                print(f"{'job_latency_tail_ms':40s} {tail.value:>16.6g} ms"
                      f"  (p{tail.percentile:g} of {tail.samples} samples, {tail.beyond} beyond)")
            print(f"{'jobs_per_s':40s} {report['jobs_per_s']:>16.6g} jobs/s")
            print(f"{'retention_404':40s} {report['retention_404']:>16d} count"
                  "  (known defect: 404 after the job's record left completed_retention;"
                  " recovered by resubmitting)")
    if report["unmeasured"]:
        print(f"unmeasured (reported as 0): {', '.join(report['unmeasured'])}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed: {count} x {reason}")
    for problem in problems:
        print(f"INCORRECT: {problem}")


if __name__ == "__main__":
    sys.exit(main())
