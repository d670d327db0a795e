"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a wrapper
at the module attribute where its caller looks it up, so nothing in the
program changes. A span records its name, start, end, the span it was
called from and the operation it belongs to; spans stay in memory until
``write`` dumps them when the run ends. ``layer_metrics`` turns the spans
of the timed loop into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def _entry_count(args, result) -> int:
    return len(result.entries)


def _cli_command(args) -> str:
    return "cli." + args[0][0].replace("-", "_")


# (module, attribute, span name or a function of the call's arguments that
# gives it, amount recorded with the span). A function is wrapped at every
# module that looks it up, and only there, so no call is counted twice; the
# stage-3 alias solve_two_circles_scaled counts as circles.two, and the
# metric stays if the alias goes.
LAYERS = (
    ("frogpr.recovery", "recover", "recovery.recover", None),
    ("frogpr.recovery", "recover_z0", "recovery.z0", None),
    ("frogpr.recovery", "recover_tail", "recovery.tail", None),
    ("frogpr.recovery", "verify_solution", "recovery.verify", None),
    ("frogpr.recovery", "circles_common_point", "circles.common_point", None),
    ("frogpr.recovery", "solve_three_circles", "circles.three", None),
    ("frogpr.recovery", "solve_two_circles_real", "circles.two", None),
    ("frogpr.recovery", "solve_two_circles_scaled", "circles.two", None),
    ("frogpr.recovery", "frog_grid_freq", "frog.grid_freq", None),
    ("frogpr.recovery", "plan_indices", "frog.plan", None),
    ("frogpr.circles", "solve_three_circles", "circles.three", None),
    ("frogpr.frog", "plan_indices", "frog.plan", None),
    ("frogpr.frog", "frog_measurements_time", "frog.measure", _entry_count),
    ("frogpr.frog", "frog_grid_time", "frog.grid_time", None),
    ("frogpr.ambiguity", "equivalent_up_to_group", "ambiguity.equiv", None),
    ("frogpr.jsonio", "save_signal", "jsonio.save", _file_size),
    ("frogpr.jsonio", "save_measurements", "jsonio.save", _file_size),
    ("frogpr.jsonio", "load_signal", "jsonio.load", _file_size),
    ("frogpr.jsonio", "load_measurements", "jsonio.load", _file_size),
    ("frogpr.analytic", "random_analytic_signal", "analytic.signal", None),
    ("frogpr.cli", "main", _cli_command, None),
    ("frogpr.cli", "make_analytic", "analytic.signal", None),
    ("frogpr.cli", "is_analytic", "analytic.signal", None),
    ("frogpr.cli", "plan_indices", "frog.plan", None),
    ("frogpr.cli", "frog_measurements_time", "frog.measure", _entry_count),
    ("frogpr.cli", "equivalent_up_to_group", "ambiguity.equiv", None),
    ("frogpr.cli", "save_signal", "jsonio.save", _file_size),
    ("frogpr.cli", "save_measurements", "jsonio.save", _file_size),
    ("frogpr.cli", "load_signal", "jsonio.load", _file_size),
    ("frogpr.cli", "load_measurements", "jsonio.load", _file_size),
)


class Tracer:
    """Spans of one process, kept in memory.

    Each span is (name, start, end, parent index or -1, op, amount); ``op``
    is the index of the timed-loop operation or "setup".
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every layer of the currently imported ``frogpr`` modules."""
        for module, attr, name, amount in LAYERS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is not None:
                setattr(sys.modules[module], attr, self._wrap(fn, name, amount))

    def _wrap(self, fn, name, amount):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args) if callable(name) else name
                size = amount(args, result) if amount and returned else 0
                spans[index] = (label, start, end, parent, self.op, size)

        return traced

    def write(self, path) -> None:
        """Dump the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "amount")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Per-layer metrics: seconds, calls, self seconds and amounts per timed-loop
# operation, except analytic.signal.s, which is the analytic layer's time
# in one set-up (where the workloads draw their signals).
TIMED = (
    "recovery.recover", "recovery.tail", "recovery.z0", "recovery.verify",
    "circles.common_point", "circles.three", "circles.two",
    "frog.plan", "frog.measure", "frog.grid_time", "frog.grid_freq",
    "ambiguity.equiv", "jsonio.save", "jsonio.load",
    "cli.generate", "cli.measure", "cli.check_equiv",
)
COUNTED = (
    "recovery.recover", "recovery.tail", "circles.common_point", "circles.three",
    "circles.two", "frog.grid_freq", "ambiguity.equiv",
)
AMOUNTS = {
    "frog.entries_consumed": ("frog.measure", "entries/op"),
    "jsonio.bytes_written": ("jsonio.save", "bytes/op"),
    "jsonio.bytes_read": ("jsonio.load", "bytes/op"),
}


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans: name -> (value, unit)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    amount = defaultdict(float)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    setup_total = defaultdict(float)
    for name, start, end, parent, op, size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op, size) in enumerate(spans):
        if op == "setup":
            setup_total[name] += end - start
            continue
        total[name] += end - start
        calls[name] += 1
        amount[name] += size
        self_time[name] += end - start - child_time[index]
    per_op = 1.0 / max(ops, 1)
    out = {f"{name}.s": (total[name] * per_op, "s/op") for name in TIMED}
    out.update({f"{name}.calls": (calls[name] * per_op, "calls/op") for name in COUNTED})
    out["recovery.tail.self_s"] = (self_time["recovery.tail"] * per_op, "s/op")
    out["recovery.branches_per_recovery"] = (
        calls["recovery.tail"] / calls["recovery.recover"] if calls["recovery.recover"] else 0.0,
        "ratio",
    )
    for metric, (name, unit) in AMOUNTS.items():
        out[metric] = (amount[name] * per_op, unit)
    cli_self = sum(t for name, t in self_time.items() if name.startswith("cli."))
    out["cli.self_s"] = (cli_self * per_op, "s/op")
    out["analytic.signal.s"] = (setup_total["analytic.signal"], "s")
    return out
