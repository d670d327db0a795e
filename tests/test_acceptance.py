"""Acceptance gate: the eight shipped criteria, one test per criterion.

Each test runs its criterion at the stated tolerances via the same engine
the CLI selftest uses, prints the one-line verdict to the terminal (past
pytest's capture), and asserts the pass flag. The criteria are:

  1  worked four-sample example reproduced to 5e-4, from an input that
     rounds to the printed one, in under a millisecond
  2  100 generic recoveries per geometry, equivalent to 1e-6, from
     3N/2 + 1 entries, within the time budget
  3  all 4N ambiguity elements (and real translations for odd lengths)
     preserve the measurement grid to 1e-8
  4  a non-integer translation of an even-length signal moves some entry
     by more than 1e-3 of itself in at least 99/100 trials
  5  3000 planted circle-system instances solved to 1e-8 with the
     promised conjugate structure
  6  admissible index plans exist and validate for every r in 5..64
  7  swapped boundary moduli are rejected (> 1e-3) while group variants
     verify (< 1e-8), 100/100
  8  the even-stride probe is infeasible for off-true leading
     coefficients (>= 99/100) and feasible at the true one

Criterion 1's inputs are printed to four decimals, and its outputs are not
reachable to 5e-4 from them taken as exact (~6e-4 off). It fits an input to
the six references and requires that input to round to the printed one
(within 5e-5) and every value at it to lie within the unchanged 5e-4.
"""

from frogpr.selftest import format_line, run_criterion


def _run_criterion(number, capsys):
    result = run_criterion(number)
    with capsys.disabled():
        print(f"\n{format_line(result)}")
    assert result.passed, format_line(result)


def test_criterion_01_example_reproduction(capsys):
    _run_criterion(1, capsys)


def test_criterion_02_end_to_end_recovery(capsys):
    _run_criterion(2, capsys)


def test_criterion_03_ambiguity_invariance(capsys):
    _run_criterion(3, capsys)


def test_criterion_04_translation_sensitivity(capsys):
    _run_criterion(4, capsys)


def test_criterion_05_solver_oracles(capsys):
    _run_criterion(5, capsys)


def test_criterion_06_index_plan_validity(capsys):
    _run_criterion(6, capsys)


def test_criterion_07_modulus_rigidity(capsys):
    _run_criterion(7, capsys)


def test_criterion_08_even_stride_infeasibility(capsys):
    _run_criterion(8, capsys)
