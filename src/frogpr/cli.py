"""Command-line front end.

Subcommands: generate | measure | recover | check-equiv | selftest.
Exit status: 0 success, 1 domain refusal / inequivalence / failed self-test,
2 usage or parse error. A handler returns its exit code and the fields of
its run report, or raises; main alone times and writes the report and maps
an error to a message and a code (UnsupportedGeometryError to "refused: ..."
and 1).
Output files are deterministic for identical commands, seeds, and inputs;
run reports (stdout JSON, written by json.dumps with shortest round-trip
floats) additionally carry wall-clock timing, and a report value that is
not finite is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .ambiguity import equivalent_up_to_group
from .analytic import is_analytic, random_analytic_signal
from .errors import FrogprError, UnsupportedGeometryError
from .frog import FrogParams, frog_measurements_time, plan_indices
from .jsonio import (
    load_measurements,
    load_signal,
    save_measurements,
    save_signal,
)
from .recovery import recover
from .selftest import format_line, run_all
from .spectral import dft

__all__ = ["main"]


def _emit(
    command: str,
    started: float,
    inputs: dict,
    outputs: dict,
    residuals: dict,
    equivalence=None,
) -> None:
    doc = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "residuals": residuals,
        "equivalence": equivalence,
        "elapsed_ms": (time.perf_counter() - started) * 1000.0,
    }
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _cmd_generate(args) -> tuple[int, dict]:
    if args.n < 2 or args.n % 2 != 0:
        raise ValueError(f"--n must be an even integer >= 2, got {args.n}")
    rng = np.random.default_rng(args.seed)
    z = random_analytic_signal(args.n, rng)
    s = dft(z)
    report = is_analytic(s)
    save_signal(args.out, z, s)
    return 0, dict(
        inputs={"n": args.n, "seed": args.seed},
        outputs={"signal": str(args.out)},
        residuals={"analyticity_max_violation": report.max_violation},
    )


def _cmd_measure(args) -> tuple[int, dict]:
    z = load_signal(args.signal)
    params = FrogParams(z.size, args.l)
    indices = plan_indices(params).rows if args.plan_only else None
    meas = frog_measurements_time(z, params, indices)
    save_measurements(args.out, meas)
    return 0, dict(
        inputs={
            "signal": str(args.signal),
            "n": params.N,
            "l": params.L,
            "plan_only": bool(args.plan_only),
        },
        outputs={"measurements": str(args.out)},
        residuals={},
    )


def _cmd_recover(args) -> tuple[int, dict]:
    meas = load_measurements(args.measurements)
    result = recover(meas, tol=args.tol)
    save_signal(args.out, result.signal, result.spectrum)
    return 0, dict(
        inputs={
            "measurements": str(args.measurements),
            "n": meas.params.N,
            "l": meas.params.L,
            "tol": args.tol,
        },
        outputs={"signal": str(args.out)},
        residuals={"verification_residual": result.verification_residual},
    )


def _cmd_check_equiv(args) -> tuple[int, dict]:
    a = load_signal(args.a)
    b = load_signal(args.b)
    report = equivalent_up_to_group(a, b, tol=args.tol)
    best = report.best_element
    return 0 if report.equivalent else 1, dict(
        inputs={"a": str(args.a), "b": str(args.b), "tol": args.tol},
        outputs={},
        residuals={"equivalence_residual": report.residual},
        equivalence={
            "equivalent": report.equivalent,
            "residual": report.residual,
            "best_element": {
                "rotation_sign": best.rotation_sign,
                "translation": best.translation,
                "reflected": best.reflected,
            },
        },
    )


def _cmd_selftest(args) -> tuple[int, dict]:
    results = run_all()
    for res in results:
        print(format_line(res))
    npass = sum(res.passed for res in results)
    print(f"{npass}/{len(results)} criteria passed")
    return 0 if npass == len(results) else 1, dict(
        inputs={},
        outputs={},
        residuals={f"criterion_{res.number}": 1.0 if res.passed else 0.0 for res in results},
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="frogpr",
        description=(
            "Synthesize FROG intensity measurements of analytic signals and "
            "recover signals from them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random analytic signal")
    g.add_argument("--n", type=int, required=True, help="signal length (even)")
    g.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    g.add_argument("--out", required=True, help="output signal JSON path")

    m = sub.add_parser("measure", help="synthesize measurements of a signal")
    m.add_argument("signal", help="input signal JSON path")
    m.add_argument("--l", type=int, required=True, help="delay stride L")
    m.add_argument(
        "--plan-only",
        action="store_true",
        help="write only the 3N/2+1 planned entries instead of the full grid",
    )
    m.add_argument("--out", required=True, help="output measurement JSON path")

    r = sub.add_parser("recover", help="recover a signal from measurements")
    r.add_argument("measurements", help="input measurement JSON path")
    r.add_argument("--out", required=True, help="output signal JSON path")
    r.add_argument("--tol", type=float, default=1e-6, help="recovery tolerance")

    c = sub.add_parser("check-equiv", help="compare two signals up to ambiguity")
    c.add_argument("a", help="first signal JSON path")
    c.add_argument("b", help="second signal JSON path")
    c.add_argument("--tol", type=float, default=1e-6, help="equivalence tolerance")

    sub.add_parser("selftest", help="run the acceptance criteria")
    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "measure": _cmd_measure,
    "recover": _cmd_recover,
    "check-equiv": _cmd_check_equiv,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    """Run one command and write its run report; the one place an exception becomes a
    message and an exit code."""
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, report = _HANDLERS[args.command](args)
        _emit(args.command, started, **report)
        return code
    except UnsupportedGeometryError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except FrogprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse input file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
