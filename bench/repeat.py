"""Run one workload over several seeds and summarize each metric.

    python3 bench/repeat.py --workload recover-small --seeds 1-10 [--trace 0] [--out FILE]

Each seed is one run of bench/run.py for BENCHMARK.json's run_seconds
(or --seconds), one after another. For every metric it prints the median,
the first and third quartiles as statistics.quantiles(values, n=4) gives
them, and the spread: the distance between the quartiles as a share of the
median. With --out it adds the summary for this workload to a JSON file;
bench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """'1-10' or '3,5,8' -> list of seeds."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, metric in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs, report = [], None
    for seed in args.seeds:
        command = [
            sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        runs.append(result)
        values = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:12.6g} {s['unit']:10s} spread {s['spread']}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("environment", report["environment"])
        doc.setdefault("workloads", {})[args.workload + (" traced" if args.trace else "")] = {
            "seeds": args.seeds,
            "seconds": seconds,
            "correct": all(run["correct"] for run in runs),
            "metrics": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
