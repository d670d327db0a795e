"""The benchmark's workloads: inputs drawn from a seed, one operation, its check.

A workload repeats a fixed round of operations, one per entry of ``round``,
each at a measurement geometry (N, L). Every input of every operation comes
from the run's seed, so the same seed gives the same inputs; the program
receives only those generated inputs. Each operation checks the program's
outputs and returns an ``Outcome`` instead of raising, so a wrong answer or
a library error is counted as a failed operation.

The workloads reach the program only through module attributes looked up
at call time (``fp.recovery.recover``, not a reference taken at import), so
the tracer in ``spans.py`` can wrap each layer where its caller finds it.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# An operation fails when the recovered signal is not group-equivalent to
# the true one within EQUIV_TOL, or when the recovery's own verification
# residual reaches RESIDUAL_TOL (both as in acceptance criterion 2), or when
# the true spectrum misses its own measurement file by TRUE_VERIFY_TOL.
EQUIV_TOL = 1e-6
RESIDUAL_TOL = 1e-6
TRUE_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class Outcome:
    """Result of one checked operation."""

    ok: bool
    equiv_residual: float | None = None
    verify_residual: float | None = None
    reason: str = ""


class CliFailure(Exception):
    """A ``frogpr`` command exited with a nonzero status."""


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _slot(round_: tuple, j: int) -> tuple[tuple[int, int], int]:
    """Geometry of operation j, and how many earlier operations used it."""
    pos = j % len(round_)
    geometry = round_[pos]
    return geometry, (j // len(round_)) * round_.count(geometry) + round_[:pos].count(geometry)


def _generic_signal(fp, n: int, rng: np.random.Generator) -> np.ndarray:
    """Analytic signal kept away from the recovery's degenerate cases.

    Same floors as acceptance criterion 2: boundary and early coefficients
    bounded away from zero relative to the largest one, and the two boundary
    moduli separated. On these inputs no operation is expected to fail.
    """
    while True:
        z = fp.analytic.random_analytic_signal(n, rng)
        mods = np.abs(np.fft.fft(z))
        scale = mods.max()
        if (
            min(mods[0], mods[n // 2], mods[1]) >= 0.1 * scale
            and mods[2] >= 0.05 * scale
            and abs(mods[0] - mods[n // 2]) >= 0.05 * scale
        ):
            return z


@dataclass(frozen=True)
class RecoverWorkload:
    """One operation: synthesize the planned entries, recover, compare.

    ``frog_measurements_time`` on the plan's 3N/2 + 1 pairs, ``recover``
    with that plan, then ``equivalent_up_to_group`` against the true signal.
    """

    name: str
    why: str
    round: tuple[tuple[int, int], ...]
    pool: int  # distinct signals per geometry, cycled by the timed loop

    def setup(self, fp, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, self.name)
        geometries = {}
        for n, l in dict.fromkeys(self.round):
            params = fp.frog.FrogParams(n, l)
            plan = fp.frog.plan_indices(params)
            signals = [_generic_signal(fp, n, rng) for _ in range(self.pool)]
            geometries[(n, l)] = (params, plan, plan.pairs(), signals)
        return {"fp": fp, "geometries": geometries}

    def op(self, state: dict, j: int) -> Outcome:
        fp = state["fp"]
        (n, l), k = _slot(self.round, j)
        params, plan, pairs, signals = state["geometries"][(n, l)]
        z = signals[k % self.pool]
        try:
            meas = fp.frog.frog_measurements_time(z, params, pairs)
            result = fp.recovery.recover(meas, plan)
            report = fp.ambiguity.equivalent_up_to_group(result.signal, z, tol=EQUIV_TOL)
        except (fp.FrogprError, ValueError) as exc:
            return Outcome(False, reason=f"({n},{l}) op {j}: {type(exc).__name__}: {exc}")
        eq, ver = report.residual, result.verification_residual
        ok = report.equivalent and eq < EQUIV_TOL and ver < RESIDUAL_TOL
        reason = "" if ok else f"({n},{l}) op {j}: equivalence {eq:.2e}, verification {ver:.2e}"
        return Outcome(ok, eq, ver, reason)


def _cli(fp, argv: list[str]) -> str:
    """Run ``frogpr`` in process; return its stdout report or raise CliFailure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fp.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    if code != 0:
        raise CliFailure(f"frogpr {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


@dataclass(frozen=True)
class MeasureIoWorkload:
    """One operation: the CLI's forward path and the files it writes.

    ``frogpr generate``, ``frogpr measure`` on the full grid and with
    ``--plan-only``; ``load_measurements`` of both files, checked against
    each other and by ``verify_solution`` of the true spectrum; then
    ``frogpr check-equiv`` against a copy moved by a seeded group element.
    """

    name: str
    why: str
    round: tuple[tuple[int, int], ...]
    pool: int  # distinct (CLI seed, group element) inputs per geometry

    def setup(self, fp, seed: int, workdir: Path) -> dict:
        rng = _rng(seed, self.name)
        geometries = {}
        for n, l in dict.fromkeys(self.round):
            plan = fp.frog.plan_indices(fp.frog.FrogParams(n, l))
            inputs = [
                (
                    int(rng.integers(2**31)),
                    fp.ambiguity.GroupElement(
                        int(rng.choice([-1, 1])), int(rng.integers(n)), bool(rng.integers(2))
                    ),
                )
                for _ in range(self.pool)
            ]
            geometries[(n, l)] = (plan.pairs(), inputs)
        files = {key: str(workdir / f"{key}.json") for key in ("signal", "grid", "plan", "copy")}
        return {"fp": fp, "geometries": geometries, "files": files}

    def op(self, state: dict, j: int) -> Outcome:
        fp, f = state["fp"], state["files"]
        (n, l), k = _slot(self.round, j)
        pairs, inputs = state["geometries"][(n, l)]
        cli_seed, element = inputs[k % self.pool]
        where = f"({n},{l}) op {j}"
        try:
            _cli(fp, ["generate", "--n", str(n), "--seed", str(cli_seed), "--out", f["signal"]])
            _cli(fp, ["measure", f["signal"], "--l", str(l), "--out", f["grid"]])
            _cli(fp, ["measure", f["signal"], "--l", str(l), "--plan-only", "--out", f["plan"]])
            grid = fp.jsonio.load_measurements(f["grid"])
            planned = fp.jsonio.load_measurements(f["plan"])
            z = fp.jsonio.load_signal(f["signal"])
            verify = fp.recovery.verify_solution(np.fft.fft(z), grid)
            fp.jsonio.save_signal(f["copy"], fp.ambiguity.apply_element(element, z))
            report = json.loads(_cli(fp, ["check-equiv", f["signal"], f["copy"]]))
        except (CliFailure, fp.FrogprError, ValueError, OSError) as exc:
            return Outcome(False, reason=f"{where}: {type(exc).__name__}: {exc}")
        equiv = report["equivalence"]["residual"]
        if not grid.is_full_grid():
            return Outcome(False, equiv, verify, f"{where}: full-grid file is not a full grid")
        if sorted(planned.entries) != pairs or any(
            planned.entries[p] != grid.entries[p] for p in pairs
        ):
            return Outcome(False, equiv, verify, f"{where}: plan file disagrees with the grid")
        ok = verify < TRUE_VERIFY_TOL and equiv < EQUIV_TOL
        reason = "" if ok else f"{where}: verification {verify:.2e}, equivalence {equiv:.2e}"
        return Outcome(ok, equiv, verify, reason)


# Why each workload exists. Shares of operation time are those measured at
# the commit that introduced this benchmark.
WORKLOADS = {
    w.name: w
    for w in (
        RecoverWorkload(
            name="recover-small",
            why=(
                "acceptance criterion 2's geometries in equal blocks: polish ~85%, "
                "equivalence search ~12%; median lands in the (20,3) block, the "
                "tail in the (64,11) block"
            ),
            round=((12, 1), (16, 3), (20, 3), (32, 5), (64, 11)),
            pool=256,
        ),
        RecoverWorkload(
            name="recover-large",
            why=(
                "N=256: the Gauss-Newton polish is >=99% of each operation and its "
                "super-linear cost in N shows against recover-small; equivalence, IO "
                "and A1 are <=2%"
            ),
            # Only (256,11): a (512,31) operation takes 10 s, which leaves too
            # few operations in a run for a steady median.
            round=((256, 11),),
            pool=32,
        ),
        MeasureIoWorkload(
            name="measure-io",
            why=(
                "forward and file path without recovery: CLI generate/measure, "
                "0.2-1.2 MB JSON written and parsed, check-equiv; the polish does "
                "no work here"
            ),
            # Three (256,11) per (1024,31): median in the small block, tail in
            # the large one.
            round=((256, 11), (256, 11), (256, 11), (1024, 31)),
            pool=32,
        ),
    )
}
