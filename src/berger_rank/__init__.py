"""Certified Mordell-Weil rank verdicts for Jacobians of the curves
f(x) = t g(y) along the prime-power towers k(t^(1/p^r)).

Everything is exact: rational polynomial arithmetic, subresultant
resultants and discriminants, finite-field factorization for Frobenius
cycle types, replayable Galois certificates, and the genus / dimension /
rank formulas.  The ``berger-rank`` console script exposes the same
operations as subcommands.

The public names are those listed in each module's ``__all__``.
"""

from .errors import *
from .exact_poly import *
from .modp_factor import *
from .galois_cert import *
from .jacobian_invariants import *
from .morse_scan import *
from .rank_engine import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *exact_poly.__all__,
    *modp_factor.__all__,
    *galois_cert.__all__,
    *jacobian_invariants.__all__,
    *morse_scan.__all__,
    *rank_engine.__all__,
]
