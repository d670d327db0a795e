"""Recover even-length analytic signals from FROG intensity measurements.

The library covers the forward map (measurement synthesis by the time-domain
definition, from a signal or from a spectrum), the measurement ambiguity
group, closed-form circle solvers, a deterministic measurement-index planner,
and the staged recovery pipeline, plus an acceptance self-test and a small
CLI (``frogpr``).
"""

from .ambiguity import (
    EquivalenceReport,
    GroupElement,
    apply_element,
    equivalent_up_to_group,
    group_elements,
    reflect,
    rotate,
    translate,
)
from .analytic import (
    AnalyticityReport,
    is_analytic,
    make_analytic,
    random_analytic_signal,
)
from .circles import solve_three_circles, solve_two_circles_real
from .errors import (
    DegenerateSignalError,
    FrogprError,
    InconsistentMeasurementsError,
    NoSolutionError,
    SingularConfigurationError,
    UnsupportedGeometryError,
)
from .frog import (
    FrogMeasurements,
    FrogParams,
    MeasurementIndexPlan,
    frog_measurements_freq,
    frog_measurements_time,
    plan_indices,
)
from .jsonio import (
    load_measurements,
    load_signal,
    save_measurements,
    save_signal,
)
from .recovery import (
    RecoveryResult,
    even_l_infeasibility_probe,
    recover,
    verify_solution,
)
from .spectral import as_signal, dft, idft

__version__ = "0.1.0"

__all__ = [
    "AnalyticityReport",
    "DegenerateSignalError",
    "EquivalenceReport",
    "FrogMeasurements",
    "FrogParams",
    "FrogprError",
    "GroupElement",
    "InconsistentMeasurementsError",
    "MeasurementIndexPlan",
    "NoSolutionError",
    "RecoveryResult",
    "SingularConfigurationError",
    "UnsupportedGeometryError",
    "apply_element",
    "as_signal",
    "dft",
    "equivalent_up_to_group",
    "even_l_infeasibility_probe",
    "frog_measurements_freq",
    "frog_measurements_time",
    "group_elements",
    "idft",
    "is_analytic",
    "load_measurements",
    "load_signal",
    "make_analytic",
    "plan_indices",
    "random_analytic_signal",
    "recover",
    "reflect",
    "rotate",
    "save_measurements",
    "save_signal",
    "solve_three_circles",
    "solve_two_circles_real",
    "translate",
    "verify_solution",
    "__version__",
]
