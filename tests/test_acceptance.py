"""Acceptance gate: the eight shipped criteria, one test per criterion.

Each test runs its criterion at the stated tolerances via the same engine
the CLI selftest uses, prints the one-line verdict to the terminal (past
pytest's capture), and asserts the pass flag and the shape of the measured
line, so that each pass line still carries its numbers. The criteria are:

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

import re

from frogpr.selftest import format_line, run_criterion

# A number as the pass lines print it, to three significant digits.
E = r"\d\.\d\de[+-]\d\d"


def _run_criterion(number, capsys, line):
    """Run criterion number, print its line, and assert that it passed with a
    measured line that fully matches the regex line."""
    result = run_criterion(number)
    with capsys.disabled():
        print(f"\n{format_line(result)}")
    assert result.passed, format_line(result)
    assert re.fullmatch(line, result.details), format_line(result)


def test_criterion_01_example_reproduction(capsys):
    _run_criterion(
        1,
        capsys,
        rf"6/6 values within 5e-4 \(fitted input max\|x\*-x\|={E}, worst \S+ deviates {E}, "
        rf"core runtime \d+\.\d{{3}}ms\)",
    )


def test_criterion_02_end_to_end_recovery(capsys):
    _run_criterion(
        2,
        capsys,
        rf"500/500 recoveries group-equivalent \(worst equivalence residual {E}, "
        rf"worst verification {E}\) in \d+\.\ds",
    )


def test_criterion_03_ambiguity_invariance(capsys):
    _run_criterion(
        3,
        capsys,
        rf"worst relative deviation {E} over 4N elements x 50 even signals, "
        rf"{E} over 10 real translations x 50 odd signals",
    )


def test_criterion_04_translation_sensitivity(capsys):
    _run_criterion(
        4,
        capsys,
        rf"(99|100)/100 translations changed an entry by > 1e-3 of itself "
        rf"\(smallest observed change {E}\)",
    )


def test_criterion_05_solver_oracles(capsys):
    _run_criterion(5, capsys, rf"3000 planted instances, worst relative error {E}")


def test_criterion_06_index_plan_validity(capsys):
    _run_criterion(6, capsys, r"959 plans validated, r coverage 5\.\.64")


def test_criterion_07_modulus_rigidity(capsys):
    _run_criterion(
        7,
        capsys,
        rf"100/100 swapped spectra rejected \(smallest residual {E}\); "
        rf"400/400 group variants below 1e-8 \(worst {E}\)",
    )


def test_criterion_08_even_stride_infeasibility(capsys):
    _run_criterion(
        8,
        capsys,
        r"(99|100)/100 generic trial coefficients infeasible; "
        r"true coefficient feasible under both signs in 100/100 trials",
    )
