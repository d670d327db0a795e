"""Command-line flows: exit codes, determinism, JSON run reports."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from frogpr import (
    dft,
    equivalent_up_to_group,
    is_analytic,
    load_measurements,
    load_signal,
    random_analytic_signal,
    save_measurements,
    save_signal,
)
import frogpr
from frogpr import cli
from frogpr.analytic import AnalyticityReport
from frogpr.cli import main
from frogpr.recovery import recover
from frogpr.selftest import CriterionResult

_REPORT_KEYS = ["command", "inputs", "outputs", "residuals", "equivalence", "elapsed_ms"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out):
    doc = json.loads(out)
    assert "command" in doc and "elapsed_ms" in doc
    return doc


def _generate(capsys, tmp_path, name="sig.json", n=16, seed=7):
    path = tmp_path / name
    code, out, err = _run(capsys, ["generate", "--n", str(n), "--seed", str(seed), "--out", str(path)])
    assert code == 0, err
    return path, _report(out)


def _measure(capsys, tmp_path, sig, l=3, name="meas.json", plan_only=False):
    path = tmp_path / name
    argv = ["measure", str(sig), "--l", str(l), "--out", str(path)]
    if plan_only:
        argv.insert(1, "--plan-only")
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return path, _report(out)


def test_generate_writes_analytic_signal(capsys, tmp_path):
    path, report = _generate(capsys, tmp_path)
    assert report["command"] == "generate"
    assert report["residuals"]["analyticity_max_violation"] < 1e-9
    z = load_signal(path)
    assert z.size == 16
    assert is_analytic(dft(z)).is_analytic


def test_generate_is_deterministic_per_seed(capsys, tmp_path):
    p1, _ = _generate(capsys, tmp_path, "a.json", seed=3)
    p2, _ = _generate(capsys, tmp_path, "b.json", seed=3)
    p3, _ = _generate(capsys, tmp_path, "c.json", seed=4)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()


def test_generate_draws_again_below_the_genericity_floor(capsys, tmp_path):
    # At N = 2 the first draw of seed 3133832 has |s_0| = 4.5e-7 max|s|,
    # below the library sampler's 1e-6 floor: generate draws again, as
    # random_analytic_signal does, and writes a generic signal.
    path, _ = _generate(capsys, tmp_path, n=2, seed=3133832)
    z = load_signal(path)
    assert np.array_equal(z, random_analytic_signal(2, np.random.default_rng(3133832)))
    mods = np.abs(dft(z))
    assert min(mods[0], mods[1]) >= 1e-6 * mods.max()


def test_generate_rejects_odd_length(capsys, tmp_path):
    code, _, err = _run(capsys, ["generate", "--n", "9", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert err == "error: --n must be an even integer >= 2, got 9\n"
    assert not (tmp_path / "x.json").exists()


def test_measure_full_grid_and_plan_only(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    full, _ = _measure(capsys, tmp_path, sig, l=3, name="full.json")
    doc = json.loads(full.read_text())
    assert doc["N"] == 16 and doc["L"] == 3
    assert len(doc["entries"]) == 16 * 6  # full N x r grid
    planned, _ = _measure(capsys, tmp_path, sig, l=3, name="plan.json", plan_only=True)
    assert len(json.loads(planned.read_text())["entries"]) == 3 * 16 // 2 + 1 == 25


def test_readme_files_keep_their_bytes(capsys, tmp_path):
    # The README's commands write these exact files up to the measurements;
    # their arithmetic does not pass through BLAS. A recovered file's last
    # bits hang on the BLAS kernel (the polish's products and solves), so
    # here recovery from the planned entries, again from them, and from the
    # full grid write one file; `tools/pool.py --against REV` compares the
    # README files with those of REV on one machine.
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:12]

    sig, _ = _generate(capsys, tmp_path, "sig.json", n=16, seed=7)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, name="meas.json", plan_only=True)
    grid, _ = _measure(capsys, tmp_path, sig, l=3, name="grid.json")
    assert digest(sig) == "0fca9d758801"
    assert digest(meas) == "d3ad857a73f6"
    assert digest(grid) == "66bb838c2617"
    recovered = set()
    for src, name in ((meas, "rec.json"), (meas, "rec2.json"), (grid, "recg.json")):
        code, _, err = _run(capsys, ["recover", str(src), "--out", str(tmp_path / name)])
        assert code == 0, err
        recovered.add((tmp_path / name).read_bytes())
    assert len(recovered) == 1
    # (64, 11) is the first geometry whose polish has an affine window
    # (k = 31): its plan and its full grid recover alike too, to a signal
    # equivalent to the one measured.
    sig, _ = _generate(capsys, tmp_path, "sig64.json", n=64, seed=7)
    recovered = set()
    for plan_only in (True, False):
        meas, _ = _measure(capsys, tmp_path, sig, l=11, name="meas64.json", plan_only=plan_only)
        code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "rec64.json")])
        assert code == 0, err
        recovered.add((tmp_path / "rec64.json").read_bytes())
    assert len(recovered) == 1
    code, _, err = _run(capsys, ["check-equiv", str(sig), str(tmp_path / "rec64.json")])
    assert code == 0, err


def test_measure_rejects_invalid_stride(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    code, _, err = _run(capsys, ["measure", str(sig), "--l", "0", "--out", str(tmp_path / "m.json")])
    assert code == 2 and err == "error: L must be in [1, N=16], got 0\n"
    code, _, err = _run(capsys, ["measure", str(sig), "--l", "17", "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_measure_plan_only_refuses_unplannable_geometry(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)  # N = 16, L = 5 -> r = 4 < 5
    code, _, err = _run(
        capsys,
        ["measure", "--plan-only", str(sig), "--l", "5", "--out", str(tmp_path / "m.json")],
    )
    assert code == 1
    assert err == "refused: r=ceil(N/L)=4 < 5 (too few delay steps to plan)\n"
    assert not (tmp_path / "m.json").exists()


def test_recover_round_trip_and_determinism(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    out1 = tmp_path / "rec1.json"
    code, out, err = _run(capsys, ["recover", str(meas), "--out", str(out1)])
    assert code == 0, err
    report = _report(out)
    assert report["residuals"]["verification_residual"] < 1e-9
    assert "sign_branch" not in report
    recovered = load_signal(out1)
    original = load_signal(sig)
    assert equivalent_up_to_group(recovered, original, tol=1e-6).equivalent

    out2 = tmp_path / "rec2.json"
    code, _, _ = _run(capsys, ["recover", str(meas), "--out", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_recover_refuses_even_stride_measurements(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=2)
    code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "refused" in err and "even" in err


def test_recover_refuses_six_l_geometry(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path, n=18)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "refused" in err and "6L" in err
    assert not (tmp_path / "r.json").exists()
    # recover checks tol before the geometry, so a bad --tol is a usage
    # error there too: exit 2, not a refusal.
    argv = ["recover", str(meas), "--out", str(tmp_path / "r.json"), "--tol", "-1"]
    code, _, err = _run(capsys, argv)
    assert code == 2 and err == "error: tol must be finite and positive, got -1.0\n"
    assert not (tmp_path / "r.json").exists()


def test_a_1024_sample_signal_round_trips_and_recovers(capsys, tmp_path):
    # A signal file read back and written again, with the spectrum of the
    # values read, has the same bytes, and so has the full grid of
    # (1024, 31), the benchmark's largest geometry. The plan's entries
    # recover the signal, which the windowed polish keeps to seconds.
    sig, _ = _generate(capsys, tmp_path, n=1024)
    z = load_signal(sig)
    save_signal(tmp_path / "again.json", z, dft(z))
    assert (tmp_path / "again.json").read_bytes() == sig.read_bytes()
    grid, _ = _measure(capsys, tmp_path, sig, l=31, name="grid.json")
    save_measurements(tmp_path / "again.json", load_measurements(grid))
    assert (tmp_path / "again.json").read_bytes() == grid.read_bytes()
    meas, _ = _measure(capsys, tmp_path, sig, l=31, plan_only=True)
    code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "rec.json")])
    assert code == 0, err
    code, _, err = _run(capsys, ["check-equiv", str(sig), str(tmp_path / "rec.json")])
    assert code == 0, err


@pytest.mark.parametrize("factor", [1e-8, 1e50])
def test_a_tiny_or_huge_signal_recovers_with_nothing_on_stderr(capsys, tmp_path, factor):
    # Recovery does not depend on the signal's scale.
    sig, _ = _generate(capsys, tmp_path)
    scaled = tmp_path / "scaled.json"
    save_signal(scaled, factor * load_signal(sig))
    meas, _ = _measure(capsys, tmp_path, scaled, l=3, plan_only=True)
    code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "rec.json")])
    assert code == 0 and err == ""
    code, _, err = _run(capsys, ["check-equiv", str(scaled), str(tmp_path / "rec.json")])
    assert code == 0, err


@pytest.mark.parametrize("plan_only", [False, True])
def test_measure_refuses_a_signal_whose_entries_overflow(capsys, tmp_path, plan_only):
    # The entries of 1e200 times a signal pass float's range: refused by name
    # for the full grid and the plan alike, with no numpy warning (which the
    # suite raises), and no output file is written.
    sig, _ = _generate(capsys, tmp_path)
    big = tmp_path / "big.json"
    save_signal(big, 1e200 * load_signal(sig))
    out = tmp_path / "m.json"
    argv = ["measure", str(big), "--l", "3", "--out", str(out)] + ["--plan-only"] * plan_only
    code, stdout, err = _run(capsys, argv)
    assert code == 2 and stdout == ""
    assert err == "error: entry (0, 0) has invalid value inf\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "value,message",
    [
        (None, "measurements missing required entries [(5, 0)]"),
        (-1.0, "entry (5, 0) has invalid value -1.0"),
        (float("inf"), "entry (5, 0) has invalid value inf"),
    ],
    ids=["missing", "negative", "infinite"],
)
def test_recover_names_a_missing_or_invalid_planned_entry(capsys, tmp_path, value, message):
    # The plan's entry (5, 0) dropped, or set to -1 or to infinity (which
    # json writes as Infinity): a usage error, and no output file is written.
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    doc = json.loads(meas.read_text())
    at = next(i for i, entry in enumerate(doc["entries"]) if entry[:2] == [5, 0])
    if value is None:
        del doc["entries"][at]
    else:
        doc["entries"][at][2] = value
    meas.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_recover_refuses_an_empty_set_of_a_huge_geometry_before_reading_it(capsys, tmp_path):
    # (2e7, 2e7) has r = 1 < 5 delay steps: refused with exit 1 from the
    # geometry alone.
    path = tmp_path / "huge.json"
    path.write_text('{"N": 20000000, "L": 20000000, "entries": []}')
    code, _, err = _run(capsys, ["recover", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert err.startswith("refused: r=ceil(N/L)=1 < 5 (too few delay steps to plan); L=20000000 is even")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_recover_names_the_missing_entries_of_an_empty_huge_set(capsys, tmp_path):
    # (2^40, 1) and (2^62, 1) are in the recovery domain; recover plans only
    # the rows that name the set's first missing pairs, a usage error (exit
    # 2). At 2^62 the planner's congruences pass int64 (an OverflowError
    # traceback there).
    for n in (2**40, 2**62):
        path = tmp_path / "big.json"
        path.write_text(f'{{"N": {n}, "L": 1, "entries": []}}')
        code, _, err = _run(capsys, ["recover", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert err == "error: measurements missing required entries [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]\n"
        assert not (tmp_path / "r.json").exists()


def test_recover_refuses_a_geometry_past_the_int64_index_range(capsys, tmp_path):
    path = tmp_path / "past.json"
    path.write_text('{"N": 9223372036854775808, "L": 1, "entries": []}')
    code, _, err = _run(capsys, ["recover", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert err == "error: N=9223372036854775808 exceeds the int64 index range\n"
    assert not (tmp_path / "r.json").exists()


def test_recover_reports_corrupted_measurements(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    doc = json.loads(meas.read_text())
    doc["entries"][-1][2] *= 3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["recover", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_recover_refuses_a_corrupted_entry_off_the_plan(capsys, tmp_path):
    # Recovery solves from the planned entries and verifies every entry,
    # so a full grid with one bad entry off the plan is refused.
    sig, _ = _generate(capsys, tmp_path)
    grid, _ = _measure(capsys, tmp_path, sig, l=3, name="grid.json")
    meas = load_measurements(grid)
    meas[0, 2] = 100.0 * meas[0, 2] + 5.0
    save_measurements(grid, meas)
    code, _, err = _run(capsys, ["recover", str(grid), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert err.startswith("error: verification residual ")
    assert not (tmp_path / "r.json").exists()


def test_check_equiv_accepts_group_equivalent_signals(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    code, out, _ = _run(capsys, ["check-equiv", str(sig), str(sig)])
    assert code == 0
    doc = _report(out)
    assert doc["equivalence"]["equivalent"] is True
    assert doc["equivalence"]["best_element"] == {
        "rotation_sign": 1,
        "translation": 0,
        "reflected": False,
    }


def test_check_equiv_rejects_different_signals(capsys, tmp_path):
    a, _ = _generate(capsys, tmp_path, "a.json", seed=1)
    b, _ = _generate(capsys, tmp_path, "b.json", seed=2)
    code, out, _ = _run(capsys, ["check-equiv", str(a), str(b)])
    assert code == 1
    assert _report(out)["equivalence"]["equivalent"] is False


def test_tolerance_flag_decides_check_equiv(capsys, tmp_path):
    a, _ = _generate(capsys, tmp_path, "a.json", seed=1)
    b, _ = _generate(capsys, tmp_path, "b.json", seed=2)
    # A huge tolerance turns inequivalence into a pass, a tiny one back.
    code, _, _ = _run(capsys, ["check-equiv", str(a), str(b), "--tol", "10"])
    assert code == 0
    code, _, _ = _run(capsys, ["check-equiv", str(a), str(b), "--tol", "1e-9"])
    assert code == 1


def test_bad_tolerances_are_usage_errors_and_write_nothing(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    out = tmp_path / "rec.json"
    for bad in ("inf", "-1", "0", "nan"):
        code, stdout, err = _run(capsys, ["recover", str(meas), "--out", str(out), "--tol", bad])
        assert code == 2, bad
        assert "tol must be finite and positive" in err
        assert stdout == "" and not out.exists()
    code, stdout, err = _run(capsys, ["check-equiv", str(sig), str(sig), "--tol", "nan"])
    assert code == 2 and "tol must be finite and >= 0" in err and stdout == ""


def test_malformed_and_missing_inputs_are_usage_errors(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = _run(capsys, ["measure", str(broken), "--l", "1", "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "parse" in err
    code, _, err = _run(capsys, ["recover", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_oversized_json_integers_are_usage_errors(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    doc = json.loads(meas.read_text())
    doc["entries"][3][2] = 10**400
    meas.write_text(json.dumps(doc))
    doc = json.loads(sig.read_text())
    doc["values"][5][1] = 10**400
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for argv, where in (
        (["recover", str(meas), "--out", str(out)], "'entries'[3]"),
        (["measure", str(big), "--l", "3", "--out", str(out)], "'values'[5]"),
        (["check-equiv", str(sig), str(big)], "'values'[5]"),
    ):
        code, stdout, err = _run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and where in err and "too large" in err
        assert stdout == "" and not out.exists()


def test_selftest_reporting_and_exit_codes(capsys, monkeypatch):
    fake = [
        CriterionResult(1, "alpha", True, "fine", 0.01),
        CriterionResult(2, "beta", False, "broken", 0.02),
    ]
    monkeypatch.setattr("frogpr.selftest.run_all", lambda: fake)
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 1
    assert "criterion 1 PASS alpha" in out
    assert "criterion 2 FAIL beta" in out
    assert "1/2 criteria passed" in out
    assert json.loads(out[out.index("{\n"):])["residuals"] == {"criterion_1": 1.0, "criterion_2": 0.0}

    monkeypatch.setattr("frogpr.selftest.run_all", lambda: fake[:1])
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert "1/1 criteria passed" in out


def _python(*args, cwd):
    """Run python with args in a fresh interpreter on this frogpr, a numpy
    RuntimeWarning an error."""
    src = os.path.dirname(os.path.dirname(frogpr.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_the_selftest_passes_under_python_O(tmp_path):
    # python -O strips assert statements; the CLI's selftest passes without them.
    done = _python("-O", "-m", "frogpr.cli", "selftest", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "8/8 criteria passed" in done.stdout


# The peak resident set of the process's own address space (VmHWM), in MB.
# Its ru_maxrss would not do: Linux carries the larger peak of the process
# that started it across exec, and under pytest that is the suite's, about
# 100 MB.
_PEAK_MB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]) / 1024"


@pytest.mark.parametrize(
    "script,entries,bound,grid",
    [
        # The one-line file of an empty (2e7, 2e7) set: a set is its entries
        # (a dense (N, r) grid took 160 MB).
        (
            "open('huge.json', 'w').write('{\"N\": 20000000, \"L\": 20000000, \"entries\": []}')\n"
            "from frogpr import jsonio\n"
            f"print(len(jsonio.load_measurements('huge.json')), {_PEAK_MB})\n",
            0,
            100,
            None,
        ),
        # The full (1024, 3) grid.json the test writes: read a block of rows
        # at a time, it peaks at 67 MB (the whole document's rows, 114 MB).
        (
            "from frogpr import jsonio\n"
            f"print(len(jsonio.load_measurements('grid.json')), {_PEAK_MB})\n",
            350_208,
            90,
            (1024, 3),
        ),
        # Planned synthesis computes only the delays the plan reads: generate
        # and a plan-only measure at (4096, 1) in one process write the 6,145
        # planned entries (the whole grid's synthesis took about 800 MB).
        (
            "import json\n"
            "from frogpr.cli import main\n"
            "assert main(['generate', '--n', '4096', '--seed', '7', '--out', 'sig.json']) == 0\n"
            "assert main(['measure', 'sig.json', '--l', '1', '--plan-only', '--out', 'meas.json']) == 0\n"
            f"print(len(json.load(open('meas.json'))['entries']), {_PEAK_MB})\n",
            6145,
            400,
            None,
        ),
    ],
    ids=["empty-2e7-set-load", "full-grid-load", "plan-4096-generate-measure"],
)
def test_a_fresh_process_keeps_its_own_peak_rss_in_bounds(tmp_path, script, entries, bound, grid):
    if grid is not None:  # the full grid.json of geometry grid, written here
        z = random_analytic_signal(grid[0], np.random.default_rng(710))
        save_measurements(tmp_path / "grid.json", frogpr.frog_measurements_time(z, frogpr.FrogParams(*grid)))
    done = _python("-c", script, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    count, peak = done.stdout.splitlines()[-1].split()
    assert int(count) == entries
    assert float(peak) < bound, f"peak RSS {float(peak):.0f} MB"


def test_only_selftest_loads_the_acceptance_suite(tmp_path):
    # In a fresh interpreter, generate, measure, recover and check-equiv
    # leave frogpr.selftest unimported.
    script = """
import sys
from frogpr.cli import main
out = sys.argv[1]
for argv in (
    ["generate", "--n", "16", "--seed", "7", "--out", out + "/sig.json"],
    ["measure", out + "/sig.json", "--l", "3", "--plan-only", "--out", out + "/meas.json"],
    ["recover", out + "/meas.json", "--out", out + "/rec.json"],
    ["check-equiv", out + "/sig.json", out + "/rec.json"],
):
    assert main(argv) == 0, argv
print("frogpr.selftest" in sys.modules)
"""
    done = _python("-c", script, str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_selftest_has_one_configuration(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--quick"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --quick" in capsys.readouterr().err


def test_every_report_has_its_keys_in_order(capsys, tmp_path, monkeypatch):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    fake = [CriterionResult(1, "alpha", True, "fine", 0.01)]
    monkeypatch.setattr("frogpr.selftest.run_all", lambda: fake)
    for argv in (
        ["generate", "--n", "16", "--seed", "7", "--out", str(tmp_path / "g.json")],
        ["measure", str(sig), "--l", "3", "--out", str(tmp_path / "m.json")],
        ["recover", str(meas), "--out", str(tmp_path / "r.json")],
        ["check-equiv", str(sig), str(tmp_path / "r.json")],
        ["selftest"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        # The selftest prints its lines before the report.
        text = out[out.index("{\n"):]
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert list(doc) == _REPORT_KEYS, argv
        assert doc["command"] == argv[0]
        # check-equiv exits 0 for equivalent signals alone.
        assert doc["equivalence"] is None or doc["equivalence"]["equivalent"] is True


def test_reports_carry_the_tolerance_used(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    rec = str(tmp_path / "r.json")
    for argv, tol in (
        (["recover", str(meas), "--out", rec], 1e-6),
        (["check-equiv", str(sig), rec], 1e-6),
        (["recover", str(meas), "--out", rec, "--tol", "0.5"], 0.5),
        (["check-equiv", str(sig), rec, "--tol", "0.001"], 0.001),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        assert _report(out)["inputs"]["tol"] == tol, argv
        assert f'"tol": {tol!r}' in out, argv


def test_recover_report_carries_the_recovered_residual(capsys, tmp_path):
    sig, _ = _generate(capsys, tmp_path)
    meas, _ = _measure(capsys, tmp_path, sig, l=3, plan_only=True)
    code, out, err = _run(capsys, ["recover", str(meas), "--out", str(tmp_path / "r.json")])
    assert code == 0, err
    expected = recover(load_measurements(meas)).verification_residual
    assert _report(out)["residuals"]["verification_residual"] == expected


def test_emit_writes_plain_json_with_round_trip_numbers(capsys):
    cli._emit("x", 0.0, {"b": 1.5, "a": [1, 2, 3]}, {"flag": True, "name": "x"}, {"v": 0.1 + 0.2})
    text = capsys.readouterr().out
    assert text.endswith("}\n") and not text.endswith("\n\n")
    doc = json.loads(text)
    # Insertion order, true and null, and the same values back.
    assert list(doc) == _REPORT_KEYS and list(doc["inputs"]) == ["b", "a"]
    assert doc["inputs"] == {"b": 1.5, "a": [1, 2, 3]}
    assert doc["outputs"] == {"flag": True, "name": "x"}
    assert doc["residuals"] == {"v": 0.1 + 0.2}
    assert doc["equivalence"] is None and '"equivalence": null' in text
    assert '"flag": true' in text


def test_emit_round_trips_17_digit_doubles(capsys):
    values = [np.pi, 1.0 / 3.0, 1e-300, 5e300, 0.1 + 0.2, 1e-6, -0.0, np.float64(2.5)]
    cli._emit("x", 0.0, {}, {}, {"v": values})
    text = capsys.readouterr().out
    # Shortest round-trip form, the same doubles and signs back.
    assert "1e-06" in text
    doc = json.loads(text)
    assert doc["residuals"]["v"] == values
    assert [np.signbit(v) for v in doc["residuals"]["v"]] == [np.signbit(v) for v in values]


def test_emit_refuses_non_finite_values(capsys):
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(ValueError):
            cli._emit("x", 0.0, {}, {}, {"v": bad})
        with pytest.raises(ValueError):
            cli._emit("x", 0.0, {"tol": None}, {}, {}, equivalence={"residual": bad})
    assert capsys.readouterr().out == ""


def test_a_non_finite_report_value_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("frogpr.cli.is_analytic", lambda s: AnalyticityReport(True, float("nan")))
    code, out, err = _run(capsys, ["generate", "--n", "16", "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


def test_argparse_contract():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
