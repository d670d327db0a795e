"""Recover even-length analytic signals from FROG intensity measurements.

The library covers the forward map (measurement synthesis by the time-domain
definition, from a signal or from a spectrum), the measurement ambiguity
group, closed-form circle solvers, a deterministic measurement-index planner,
and the staged recovery pipeline, plus an acceptance self-test and a small
CLI (``frogpr``). The package exports each module's ``__all__``; the CLI and
the self-test stay in their own modules.
"""

from . import ambiguity, analytic, circles, errors, frog, jsonio, recovery, spectral
from .ambiguity import *
from .analytic import *
from .circles import *
from .errors import *
from .frog import *
from .jsonio import *
from .recovery import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    *ambiguity.__all__, *analytic.__all__, *circles.__all__, *errors.__all__,
    *frog.__all__, *jsonio.__all__, *recovery.__all__, *spectral.__all__,
    "__version__",
]
