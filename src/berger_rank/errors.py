"""Exception hierarchy shared by all berger_rank modules.

Two families matter to callers:

* ``InputError`` subclasses: the caller handed us something malformed or out
  of scope.  The CLI maps these to exit code 1.
* ``InternalCheckError`` subclasses: a self-check that should be impossible
  to trip has tripped, so the library refuses to return a value.  The CLI
  maps these to exit code 2.  They indicate a bug, not bad input.
"""

__all__ = [
    "BergerRankError",
    "InputError",
    "InternalCheckError",
    "PolySyntaxError",
    "MultiVariableError",
    "NonRationalCoefficient",
    "DivisionByZeroPoly",
    "ZeroPolynomialError",
    "ConstantPolynomialError",
    "ZeroInput",
    "DenominatorDivisibleByP",
    "NotSquarefree",
    "InvalidInput",
    "FactorizationIncomplete",
    "ParityBug",
    "DimensionSumMismatch",
    "DiscSquareInconsistency",
    "PatternReplayMismatch",
]


class BergerRankError(Exception):
    """Base class for every exception raised by this package."""


class InputError(BergerRankError):
    """Invalid or out-of-scope user input."""


class PolySyntaxError(InputError):
    """Polynomial text that does not match the grammar."""


class MultiVariableError(InputError):
    """Two distinct variable symbols in a context that allows one."""


class NonRationalCoefficient(InputError):
    """A coefficient that cannot be represented as an exact rational."""


class DivisionByZeroPoly(InputError):
    """Polynomial division with a zero divisor."""


class ZeroPolynomialError(InputError):
    """An operation (resultant, ...) applied to the zero polynomial."""


class ConstantPolynomialError(InputError):
    """Discriminant of a polynomial of degree < 1."""


class ZeroInput(InputError):
    """Integer squarefree part of 0 requested."""


class FactorizationIncomplete(BergerRankError):
    """Integer factorization budget exhausted before a full factorization.

    Raised when rho's step budget runs out, or at once on a cofactor of
    over 2,048 bits after trial division.  Deliberately not an InputError:
    the input was fine, we just refuse to guess.  No Galois verdict, rank
    hypothesis, scan membership or disjoint pair depends on factoring.  Only
    display fields degrade: ``poly-disc`` omits the squarefree part and
    factors, and a scan row's ``quad_tag`` is None.  No command lets it
    escape, so it never sets an exit code.
    """


class DenominatorDivisibleByP(InputError):
    """Reduction mod p of a rational whose denominator p divides."""


class NotSquarefree(InputError):
    """A squarefree precondition failed (repeated factor detected)."""


class InvalidInput(InputError):
    """Rank-engine input outside the validated domain."""


class InternalCheckError(BergerRankError):
    """An internal consistency assertion failed; results are not trusted."""


class ParityBug(InternalCheckError):
    """A dimension or genus formula produced a non-integer."""


class DimensionSumMismatch(InternalCheckError):
    """New-part dimensions do not sum to the total Jacobian dimension."""


class DiscSquareInconsistency(InternalCheckError):
    """Square discriminant together with an odd observed cycle type."""


class PatternReplayMismatch(InternalCheckError):
    """A certificate's stored pattern or witness does not replay."""
