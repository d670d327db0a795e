"""Tests of the benchmark itself, on tiny geometries.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, Outcome

sys.path.insert(0, str(run.ROOT / "src"))

TINY_ROUND = ((12, 1), (16, 3), (16, 3), (20, 3))
REPORT_LINE_METRICS = ("op_tail_ms", "ops_failed_frac")


@pytest.fixture(autouse=True)
def _restore_frogpr():
    """set_up re-imports frogpr; give later tests back the modules they imported."""
    saved = {k: v for k, v in sys.modules.items() if k == "frogpr" or k.startswith("frogpr.")}
    yield
    for name in [m for m in sys.modules if m == "frogpr" or m.startswith("frogpr.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], round=TINY_ROUND, pool=3)


def _declared(kind):
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_benchmark_json_names_every_workload_with_its_reason():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    report, result = run.execute(_tiny(name), seed=5, seconds=0.6, trace=trace, workdir=tmp_path)
    assert result["correct"], report["first_failure"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    for metric in REPORT_LINE_METRICS:
        assert report[metric]["unit"] and report[metric]["value"] is not None
    assert report["op_tail_ms"]["percentile"] is not None
    assert report["samples"][-1] >= 11
    assert {"machine", "python", "numpy", "blas", "threads", "nproc"} <= set(report["environment"])


def test_same_seed_same_inputs(tmp_path):
    workload = _tiny("recover-small")
    first, _ = run.set_up(workload, 11, tmp_path)
    second, _ = run.set_up(workload, 11, tmp_path)
    third, _ = run.set_up(workload, 12, tmp_path)
    key = (16, 3)
    assert all((a == b).all() for a, b in zip(first["geometries"][key][3], second["geometries"][key][3]))
    assert not (first["geometries"][key][3][0] == third["geometries"][key][3][0]).all()


def test_corrupted_measurements_count_as_a_failed_operation(tmp_path):
    workload = _tiny("recover-small")
    state, warm = run.set_up(workload, 3, tmp_path)
    assert warm.ok
    frog = state["fp"].frog
    measure = frog.frog_measurements_time
    corrupted = []

    def corrupt_once(z, params, pairs):
        meas = measure(z, params, pairs)
        if not corrupted:
            key = next(p for p in pairs if p[0] == 2 and p[1] > 0)
            meas.entries[key] *= 1.5
            corrupted.append(key)
        return meas

    frog.frog_measurements_time = corrupt_once
    (loop,) = run.timed_loop(workload, [state], seconds=0.05)
    assert corrupted
    assert loop.failed == 1 and len(loop.outcomes) > 1
    assert not loop.outcomes[0].ok and loop.outcomes[0].reason


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    workload = _tiny("recover-small")
    tracer = spans.Tracer()
    state, _ = run.set_up(workload, 2, tmp_path, tracer)
    (loop,) = run.timed_loop(workload, [state], seconds=0.05, tracer=tracer)
    names = {s[0] for s in tracer.spans}
    assert {"recovery.recover", "recovery.tail", "circles.three", "analytic.signal"} <= names
    tails = [i for i, s in enumerate(tracer.spans) if s[0] == "recovery.tail" and s[4] != "setup"]
    assert all(tracer.spans[tracer.spans[i][3]][0] == "recovery.recover" for i in tails)
    layers = spans.layer_metrics(tracer.spans, len(loop.outcomes))
    assert 0 < layers["recovery.tail.self_s"][0] < layers["recovery.tail.s"][0]
    assert layers["recovery.recover.calls"][0] == 1.0
    tracer.write(tmp_path / "spans.jsonl")
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "op", "amount"}


def test_times_are_scaled_by_the_calibration():
    outcomes = [Outcome(True, 1e-12, 1e-13), Outcome(True, 1e-11, 0.0), Outcome(False)]
    loop = run.Loop(outcomes, [0.01, 0.02, 0.03], [2.0] * 3, elapsed=0.06, ref_elapsed=0.12)
    values = run.end_to_end(loop, [(0.5, 2.0), (0.4, 2.0), (0.9, 1.0)])
    assert values["op_p50_ms"] == pytest.approx(40.0)
    assert values["ops_per_s"] == pytest.approx(2 / 0.12)
    assert values["setup_s"] == pytest.approx(0.9)
    assert values["equiv_residual_digits"] == pytest.approx(11.0)
    assert values["verify_residual_digits"] == pytest.approx(13.0)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 15) is None
    assert run.tail([float(i) for i in range(20)])[0] == 50.0
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0


def test_refuses_a_tree_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "recover-small", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
