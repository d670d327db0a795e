"""Run one benchmark workload against the frogpr sources and print its metrics.

    python3 bench/run.py --workload recover-small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from the
``src/`` directory beside this one, never from an installed copy, and the
run fails when that directory holds no ``frogpr``. Load is a closed loop:
one client in one process, each operation starting when the previous one
returns. BLAS and OpenMP get one thread unless the environment sets them.

``--trace 0`` sets up SETUPS times and reports the median as ``setup_s``;
a set-up imports frogpr, builds the workload's inputs and runs one warm-up
operation. It then runs whole rounds of operations until ``--seconds``
have passed and reports the end-to-end metrics of BENCHMARK.json. Their
times are scaled to the reference host's quiet speed by a calibration loop
run between rounds (see CALIBRATION_REF_S); the raw times and the measured
machine speed are on the report line.
``--trace 1`` sets up twice, once with spans around every layer (spans.py),
runs each round on both copies in turn, reports the per-layer metrics and
the tracing overhead (traced time over untraced time, minus one), and
writes the spans to ``.bench_work/`` when it ends.

Output: one report line ``{"report": {...}}`` (environment, sample counts,
``op_tail_ms`` and its percentile, ``ops_failed_frac``, the first failure),
then the result line with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# op_tail_ms is the highest of these with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# Residuals are floored here before taking digits, so an exact match reads
# as 16 digits instead of infinity.
RESIDUAL_FLOOR = 1e-16
# The shared host's speed drifts by up to a factor of two within minutes,
# which would swamp any change to the program. calibration() times a fixed
# loop of interpreter and small-array numpy work, like the program's own
# mix, next to every round and set-up; each end-to-end time is multiplied
# by CALIBRATION_REF_S over that time, so it reads as on the reference host
# at its quiet speed. The report line keeps the raw times.
CALIBRATION_REF_S = 9.0e-4  # quiet median of calibration() between rounds, Intel Xeon KVM guest

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "equiv_residual_digits": "digits",
    "verify_residual_digits": "digits",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Loop:
    outcomes: list
    latencies: list[float]  # seconds, one per operation
    scales: list[float]  # CALIBRATION_REF_S / calibration time, one per operation
    elapsed: float  # seconds spent in operations
    ref_elapsed: float  # the same, each round scaled

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def scaled_latencies(self) -> list[float]:
        return [t * scale for t, scale in zip(self.latencies, self.scales)]


def import_frogpr():
    """Import the ``frogpr`` package afresh, so each set-up pays the import.

    Dropping the cached modules also drops any tracing wrappers an earlier
    phase installed on them.
    """
    for name in [m for m in sys.modules if m == "frogpr" or m.startswith("frogpr.")]:
        del sys.modules[name]
    fp = importlib.import_module("frogpr")
    importlib.import_module("frogpr.cli")
    return fp


def calibration() -> float:
    """Median seconds of three passes of a fixed loop: the machine's speed."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 48)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(200):
            np.exp(1j * v)
            table[i % 97] = table.get(i % 97, 0) + sum(k * k for k in range(20)) + int(v @ v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def set_up(workload, seed: int, workdir: Path, tracer: spans.Tracer | None = None):
    """Import the program, build the workload's inputs, run operation 0."""
    fp = import_frogpr()
    if tracer is not None:
        tracer.install()
    state = workload.setup(fp, seed, workdir)
    return state, workload.op(state, 0)


def timed_loop(workload, states: list, seconds: float, tracer: spans.Tracer | None = None) -> list[Loop]:
    """Run whole rounds until ``seconds`` have passed; return one Loop per state.

    With several states (copies of the program, such as one untraced and
    one traced) each round runs the same operations once per state, in
    alternating order, so drift in the machine's speed hits them alike.
    A round's scale comes from the calibrations just before and after it.
    """
    runs = [([], [], [], [0.0, 0.0]) for _ in states]
    j = 1
    start = time.perf_counter()
    before = calibration()
    while True:
        order = list(zip(states, runs))
        if j // len(workload.round) % 2:
            order.reverse()
        round_times = []
        for state, (outcomes, latencies, _, _) in order:
            round_start = time.perf_counter()
            for op in range(j, j + len(workload.round)):
                if tracer is not None:
                    tracer.op = op
                t0 = time.perf_counter()
                outcomes.append(workload.op(state, op))
                latencies.append(time.perf_counter() - t0)
            round_times.append(time.perf_counter() - round_start)
        after = calibration()
        scale = 2.0 * CALIBRATION_REF_S / (before + after)
        for (_, (_, _, scales, elapsed)), round_time in zip(order, round_times):
            scales.extend([scale] * len(workload.round))
            elapsed[0] += round_time
            elapsed[1] += round_time * scale
        before = after
        j += len(workload.round)
        if time.perf_counter() - start >= seconds:
            return [Loop(o, lat, sc, el[0], el[1]) for o, lat, sc, el in runs]


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of op_tail_ms, or None with too few samples."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def digits(residuals) -> float:
    """-log10 of the worst residual; 0 when no operation produced one."""
    worst = max((r for r in residuals if r is not None), default=None)
    return 0.0 if worst is None else -math.log10(max(worst, RESIDUAL_FLOOR))


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    """setup_times: (seconds, scale) per set-up."""
    return {
        "setup_s": statistics.median(t * scale for t, scale in setup_times),
        "ops_per_s": (len(loop.outcomes) - loop.failed) / loop.ref_elapsed,
        "op_p50_ms": statistics.median(loop.scaled_latencies) * 1e3,
        "equiv_residual_digits": digits(o.equiv_residual for o in loop.outcomes),
        "verify_residual_digits": digits(o.verify_residual for o in loop.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
    }


def execute(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Set up, time and check one workload; return (report, result)."""
    report = {
        "workload": workload.name,
        "why": workload.why,
        "round": [f"({n},{l})" for n, l in workload.round],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop: one client, one process, one operation at a time",
        "environment": environment(),
    }
    if trace:
        plain_state, warm = set_up(workload, seed, workdir)
        tracer = spans.Tracer()
        traced_state, traced_warm = set_up(workload, seed, workdir, tracer)
        plain, traced = timed_loop(workload, [plain_state, traced_state], seconds, tracer)
        warmups, loops = [warm, traced_warm], [plain, traced]
        layers = spans.layer_metrics(tracer.spans, len(traced.outcomes))
        layers["trace.op_s"] = (statistics.fmean(traced.latencies), "s/op")
        layers["trace.overhead"] = (traced.elapsed / plain.elapsed - 1.0, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        report["spans"] = str(WORK / f"spans-{workload.name}-{seed}.jsonl")
        tracer.write(report["spans"])
    else:
        setup_times, warmups = [], []
        before = calibration()
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            state, warm = set_up(workload, seed, workdir)
            elapsed = time.perf_counter() - t0
            after = calibration()
            setup_times.append((elapsed, 2.0 * CALIBRATION_REF_S / (before + after)))
            warmups.append(warm)
            before = after
        (plain,) = timed_loop(workload, [state], seconds)
        loops = [plain]
        values = end_to_end(plain, setup_times)
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END_UNITS.items()}
        report["raw"] = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "ops_per_s": (len(plain.outcomes) - plain.failed) / plain.elapsed,
            "op_p50_ms": statistics.median(plain.latencies) * 1e3,
        }

    attempted = sum(len(loop.outcomes) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    failures = [o.reason for o in warmups + [o for loop in loops for o in loop.outcomes] if not o.ok]
    report["samples"] = [len(loop.outcomes) for loop in loops]
    report["machine_speed"] = plain.ref_elapsed / plain.elapsed
    percentile, latency = tail(plain.scaled_latencies) or (None, None)
    report["op_tail_ms"] = {
        "value": None if latency is None else latency * 1e3,
        "unit": "ms",
        "percentile": percentile,
        "samples": len(plain.latencies),
    }
    report["ops_failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    report["warmup_failures"] = sum(not w.ok for w in warmups)
    report["first_failure"] = failures[0] if failures else None
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frogpr" / "__init__.py").is_file():
        print(f"error: no frogpr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports numpy, after the thread settings

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = execute(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
