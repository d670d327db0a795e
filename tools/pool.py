"""Outcome pool: fixed-seed recovery inputs, and what `recover` makes of each.

    python tools/pool.py                # run the pool, print the outcome counts
    python tools/pool.py --against REV  # run it here and at REV, print what moved

The pool holds exact generic signals at (12,1) .. (256,11) and three at
(1024,31); signals whose |s_0| is 1e-2 .. 1e-4 of max|s|; multiplicative
noise of sigma 1e-9 .. 1e-4 on every measured entry, recovered at tol 1e-6
and 1e-2; plan-only and full grids of each; grids with one planned entry
dropped; and full grids with one off-plan entry corrupted. Every signal and
every noise draw comes from a fixed seed. The inputs are built once, by this
checkout's frogpr, and every checkout recovers the same inputs.

An outcome is either the SHA-256 of the result's bytes (spectrum and signal)
with the exact repr of its verification residual, or the error's class,
message, stage, residual and tol. A numpy RuntimeWarning counts as an error.
Result bytes depend on the machine, numpy and BLAS, so only runs on one
machine compare.

Each checkout's frogpr also makes outcomes of its own, whose result bytes
are a SHA-256: 1,600 sampler draws (`random_analytic_signal` at 200 seeds
for each N in DRAWN, and 200 of the acceptance suite's generic signals), the
11 README files of the CLI commands in README, written by its
`frogpr.cli.main` (a command that fails ends the run), and its public
surface (each name of `frogpr.__all__`, sorted, with the `__module__` and
`__qualname__` of the object it binds).

--against checks REV out with `git worktree` in a temporary directory, runs
the pool in this checkout and in REV's at the same time, one process each,
and prints every input whose outcome moved, how many moved by what moved
(class or stage, message, result bytes, tol, or the residual alone), and the
counts per outcome class; a moved draw, README file or export counts under
result bytes. It exits 1 when any input moved, the residual alone included,
and 0 when none did, also when its reader stops reading early (`| head`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

EXACT = [(12, 1), (16, 3), (20, 3), (32, 5), (64, 11), (128, 9), (256, 11)]
NOISY = [(16, 3), (20, 3), (32, 5), (64, 11), (128, 9)]
SIGMAS = [1e-9, 1e-7, 1e-6, 1e-5, 1e-4]
TOLS = [1e-6, 1e-2]
SMALL_S0 = [(20, 3), (64, 11), (256, 11)]
RATIOS = [1e-2, 1e-3, 1e-4]
# The sampler draws: random_analytic_signal at 200 seeds for each N of DRAWN,
# and 200 generic signals, of the N of GENERIC in turn.
DRAWN = [12, 16, 20, 32, 64, 256, 1024]
GENERIC = [12, 16, 20, 32, 64]
# The README's CLI files, with those of (64, 11), whose polish has an affine
# window, and a full (256, 11) grid, whose 6,144 rows the reader takes in two
# blocks: each file and the command that writes it, without its --out.
README = [
    ("sig.json", ["generate", "--n", "16", "--seed", "7"]),
    ("meas.json", ["measure", "sig.json", "--l", "3", "--plan-only"]),
    ("grid.json", ["measure", "sig.json", "--l", "3"]),
    ("rec.json", ["recover", "meas.json"]),
    ("recg.json", ["recover", "grid.json"]),
    ("sig64.json", ["generate", "--n", "64", "--seed", "7"]),
    ("meas64.json", ["measure", "sig64.json", "--l", "11", "--plan-only"]),
    ("rec64.json", ["recover", "meas64.json"]),
    ("sig256.json", ["generate", "--n", "256", "--seed", "7"]),
    ("grid256.json", ["measure", "sig256.json", "--l", "11"]),
    ("recg256.json", ["recover", "grid256.json"]),
]

# What moved in an outcome, by the fields that differ: a move counts under the
# first group here whose fields differ, so "residual only" is a move of the
# residual and of nothing else.
MOVES = (
    ("class or stage", ("class", "stage")),
    ("message", ("message",)),
    ("result bytes", ("bytes",)),
    ("tol", ("tol",)),
    ("residual only", ("residual",)),
)


def build(frogpr) -> list[tuple[str, int, int, np.ndarray, float]]:
    """The pool's inputs (name, N, L, measurement grid, tol), from fixed seeds."""
    from frogpr.selftest import _generic_even_signal

    pool = []

    def grids(z, n, l) -> dict[str, np.ndarray]:
        """The plan-only and the full grid of z, NaN where nothing was measured."""
        params = frogpr.FrogParams(n, l)
        out = {}
        for kind, rows in (("plan", frogpr.plan_indices(params).rows), ("full", None)):
            meas = frogpr.frog_measurements_time(z, params, rows)
            out[kind] = np.full((n, params.r), np.nan)
            out[kind][tuple(meas.rows.T)] = meas.values
        return out

    for n, l in EXACT:
        for seed in range(3):
            z = _generic_even_signal(n, np.random.default_rng([1, n, seed]))
            for kind, grid in grids(z, n, l).items():
                pool.append((f"exact/{kind}/{n}x{l}/seed{seed}", n, l, grid, 1e-6))
    for seed in range(3):
        z = _generic_even_signal(1024, np.random.default_rng([1, 1024, seed]))
        grid = grids(z, 1024, 31)["plan"]
        pool.append((f"exact/plan/1024x31/seed{seed}", 1024, 31, grid, 1e-6))

    for n, l in SMALL_S0:
        for ratio in RATIOS:
            for seed in range(2):
                s = frogpr.dft(_generic_even_signal(n, np.random.default_rng([2, n, seed])))
                s[0] = ratio * np.abs(s).max() * np.sign(s[0].real)
                for kind, grid in grids(frogpr.idft(s), n, l).items():
                    name = f"small_s0/{kind}/{n}x{l}/{ratio:.0e}/seed{seed}"
                    pool.append((name, n, l, grid, 1e-6))

    for n, l in NOISY:
        for sigma in SIGMAS:
            for seed in range(10):
                rng = np.random.default_rng([3, n, seed])
                z = _generic_even_signal(n, rng)
                for kind, grid in grids(z, n, l).items():
                    noisy = grid * (1.0 + sigma * rng.standard_normal(grid.shape))
                    for tol in TOLS:
                        name = f"noise/{kind}/{n}x{l}/{sigma:.0e}/seed{seed}/tol{tol:.0e}"
                        pool.append((name, n, l, noisy, tol))

    for n, l in [(16, 3), (64, 11)]:
        for seed in range(2):
            rng = np.random.default_rng([4, n, seed])
            both = grids(_generic_even_signal(n, rng), n, l)
            planned = ~np.isnan(both["plan"])
            # One off-plan entry of the full grid off by 0.1%, and one
            # planned entry missing from each grid.
            corrupt = both["full"].copy()
            off = np.argwhere(~planned)
            corrupt[tuple(off[rng.integers(len(off))])] *= 1.001
            pool.append((f"corrupt/full/{n}x{l}/seed{seed}", n, l, corrupt, 1e-6))
            on = np.argwhere(planned)
            drop = tuple(on[rng.integers(len(on))])
            for kind, grid in both.items():
                grid[drop] = np.nan
                pool.append((f"dropped/{kind}/{n}x{l}/seed{seed}", n, l, grid, 1e-6))
    return pool


def outcome(frogpr, n: int, l: int, grid: np.ndarray, tol: float) -> dict:
    """What recover makes of one input: its result's digest or its error's fields.

    The set holds the grid's cells that are not NaN, built through the
    constructor, which every revision of frogpr accepts.
    """
    k, m = np.nonzero(~np.isnan(grid))
    entries = dict(zip(zip(k.tolist(), m.tolist()), grid[k, m].tolist()))
    meas = frogpr.FrogMeasurements(frogpr.FrogParams(n, l), entries)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = frogpr.recover(meas, tol=tol)
    except Exception as exc:  # every failure is an outcome to record
        return {
            "class": type(exc).__name__,
            "message": str(exc),
            "stage": getattr(exc, "stage", None),
            "residual": repr(getattr(exc, "residual", None)),
            "tol": repr(getattr(exc, "tol", None)),
        }
    digest = hashlib.sha256()
    for part in (result.spectrum, result.signal):
        digest.update(part.tobytes())
    return {
        "class": "recovered",
        "bytes": digest.hexdigest(),
        "residual": repr(result.verification_residual),
    }


def _made(cls: str, data: bytes) -> dict:
    """The outcome of a draw or a file: its class and the SHA-256 of its bytes."""
    return {"class": cls, "bytes": hashlib.sha256(data).hexdigest()}


def draws() -> dict[str, dict]:
    """The outcome of each sampler draw of the imported frogpr, by name."""
    from frogpr.analytic import random_analytic_signal
    from frogpr.selftest import _generic_even_signal

    outs = {}
    for n in DRAWN:
        for seed in range(200):
            z = random_analytic_signal(n, np.random.default_rng([n, seed]))
            outs[f"draw/{n}/seed{seed}"] = _made("drawn", z.tobytes())
    for seed in range(200):
        n = GENERIC[seed % len(GENERIC)]
        z = _generic_even_signal(n, np.random.default_rng(seed))
        outs[f"draw/generic/{n}/seed{seed}"] = _made("drawn", z.tobytes())
    return outs


def readme_files(out: Path) -> dict[str, dict]:
    """The outcome of each README file, by name, that the imported frogpr's CLI writes
    into the directory out; a command that fails or warns ends the run."""
    from frogpr.cli import main

    outs = {}
    for name, command in README:
        argv = [str(out / a) if a.endswith(".json") else a for a in command]
        argv += ["--out", str(out / name)]
        with (
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()) as err,
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        if code:
            sys.exit(f"frogpr {' '.join(command)} exited {code}: {err.getvalue().strip()}")
        outs[f"readme/{name}"] = _made("written", (out / name).read_bytes())
    return outs


def surface(frogpr) -> dict[str, dict]:
    """The outcome of the imported frogpr's public names: each name of __all__, sorted,
    with the __module__ and __qualname__ of the object it binds (None for a string)."""
    exports = [
        [name, *(getattr(getattr(frogpr, name), attr, None) for attr in ("__module__", "__qualname__"))]
        for name in sorted(frogpr.__all__)
    ]
    return {"surface/frogpr": _made("exported", json.dumps(exports).encode())}


def label(out: dict) -> str:
    """The outcome's class, with the stage bucket (A1, tail, verify) of a refusal."""
    stage = out.get("stage")
    if stage is None:
        return out["class"]
    return f"{out['class']} at {'tail' if isinstance(stage, int) else stage}"


def brief(out: dict) -> str:
    """One line for an outcome."""
    if "bytes" in out:
        residual = f" {out['residual']}" if "residual" in out else ""
        return f"{out['class']}{residual} [{out['bytes'][:12]}]"
    return f"{label(out)}: {out['message']} (residual {out['residual']}, tol {out['tol']})"


def moved(before: dict, after: dict) -> list[str]:
    """The names, in pool order, of the inputs whose outcomes differ."""
    return [name for name in after if before.get(name) != after[name]]


def what_moved(before: dict, after: dict) -> str:
    """The MOVES group under which an input's moved outcome counts."""
    return next(kind for kind, fields in MOVES if any(before.get(f) != after.get(f) for f in fields))


def summary(before: dict, after: dict, names: list[str]) -> str:
    """How many of the moved inputs moved by each MOVES group, in MOVES order."""
    tally = Counter(what_moved(before[name], after[name]) for name in names)
    return ", ".join(f"{kind} {tally[kind]}" for kind, _ in MOVES)


def counts(*runs: dict) -> list[tuple[str, ...]]:
    """Rows (class, count in each run), classes sorted by name."""
    tallies = [Counter(map(label, run.values())) for run in runs]
    classes = sorted(set().union(*tallies))
    return [(c, *(str(t[c]) for t in tallies)) for c in classes]


def _run(src: str, inputs: str) -> None:
    """Recover every input of the file, draw the samples, digest the public surface and
    write the README files with the frogpr under src; print the outcomes as JSON."""
    sys.path.insert(0, src)
    import frogpr

    if not Path(frogpr.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"frogpr was imported from {frogpr.__file__}, not from {src}")
    names = json.loads(Path(inputs).with_suffix(".json").read_text())
    started = time.perf_counter()
    outs = {}
    with np.load(inputs) as grids:
        for i, (name, n, l, tol) in enumerate(names):
            outs[name] = outcome(frogpr, n, l, grids[f"grid{i}"], tol)
    outs.update(draws())
    outs.update(surface(frogpr))
    with tempfile.TemporaryDirectory(prefix="frogpr-readme-") as out:
        outs.update(readme_files(Path(out)))
    json.dump({"seconds": time.perf_counter() - started, "outcomes": outs}, sys.stdout)


def _outcomes(srcs: dict[str, Path], inputs: Path) -> dict[str, dict]:
    """Run the pool with each checkout's frogpr at once, one process each, BLAS on one thread."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = {
        name: subprocess.Popen(
            [sys.executable, __file__, "--run", str(src), str(inputs)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        for name, src in srcs.items()
    }
    outs = {name: proc.communicate()[0] for name, proc in procs.items()}
    for name, proc in procs.items():
        if proc.returncode:
            sys.exit(f"the pool run of {name} exited {proc.returncode}")
    return {name: json.loads(out) for name, out in outs.items()}


def _git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"git {args[0]}: {done.stderr.strip()}")
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--run", nargs=2, metavar=("SRC", "INPUTS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:
        _run(*args.run)
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    import frogpr

    with tempfile.TemporaryDirectory(prefix="frogpr-pool-") as tmp:
        pool = build(frogpr)
        inputs = Path(tmp, "inputs.npz")
        np.savez(inputs, **{f"grid{i}": grid for i, (_, _, _, grid, _) in enumerate(pool)})
        meta = [(name, n, l, tol) for name, n, l, _, tol in pool]
        inputs.with_suffix(".json").write_text(json.dumps(meta))
        srcs = {"here": ROOT / "src"}
        if args.against is None:
            runs = _outcomes(srcs, inputs)
        else:
            rev = _git("rev-parse", "--short", args.against)
            tree = Path(tmp, "tree")
            _git("worktree", "add", "--detach", "--quiet", str(tree), rev)
            try:
                runs = _outcomes({rev: tree / "src", **srcs}, inputs)
            finally:
                _git("worktree", "remove", "--force", str(tree))

    times = ", ".join(f"{name} {run['seconds']:.1f} s" for name, run in runs.items())
    outcomes = [run["outcomes"] for run in runs.values()]
    kinds = Counter(name.split("/")[0] for name in outcomes[0])
    names = moved(*outcomes) if len(outcomes) == 2 else []
    try:
        made = f"{kinds['draw']} draws, {kinds['readme']} README files, {kinds['surface']} public surface"
        print(f"pool: {len(pool)} inputs, {made}; {times}")
        if args.against is not None:
            print(f"moved: {len(names)} ({summary(*outcomes, names)})")
        for name in names:
            print(f"  {name}")
            for run, outs in zip(runs, outcomes):
                print(f"    {run}: {brief(outs[name])}")
        print(f"  {'class':<48}" + "".join(f" {run:>9}" for run in runs))
        for cls, *tally in counts(*outcomes):
            print(f"  {cls:<48}" + "".join(f" {n:>9}" for n in tally))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped reading (`| head`): the rest of the report, and
        # what the exit would flush, go to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
