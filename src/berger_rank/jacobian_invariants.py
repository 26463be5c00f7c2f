"""Genus, dimension, and layer bookkeeping for the tower construction.

Everything here is exact integer arithmetic on the numerical invariants of
the two curve families the rank engine reasons about:

* the plane curve cut out by f(x) = t * g(y) over the rational function
  field in t, with deg f = m and deg g = n, and
* the superelliptic curves z^d = f(x) whose Jacobians J_{f,d} decompose
  into "new at level e" isogeny factors J^(f,e) as e runs over divisors.

For a prime-power layer q = p^r the dimension bookkeeping is:

    dim J_{f,q}   = (m-1)(q-1)/2 - (gcd(q,m)-1)/2
    dim J^(f,q)   = (m-1)phi(q)/2   if q does not divide m
                    (m-2)phi(q)/2   if q divides m
    J_{f,q}       ~  product of J^(f,p^i) for i = 1..r   (up to isogeny)

so the new-part dimensions over i = 1..r must sum to dim J_{f,q}.  The sum
is re-checked on every ``decomposition_table`` call; a mismatch raises
``DimensionSumMismatch`` because it would mean one of the formulas above was
transcribed wrong, and no downstream rank statement could be trusted.
``ParityBug`` plays the same role for the division by two.

The constant

    c2(m, n, d) = (m-1)(n-1) + gcd(m, n, d) - 1

is the inhomogeneous term of the rank formula at layer d and is periodic in
d with period dividing lcm(m, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import DimensionSumMismatch, InvalidInput, MultiVariableError, ParityBug
from .exact_poly import UniPoly, discriminant, factor_int, is_prime

__all__ = [
    "MAX_LAYER_BITS",
    "TowerLayer",
    "CurvePair",
    "DecompositionTable",
    "euler_phi",
    "berger_genus",
    "dim_superelliptic",
    "dim_new_part",
    "c2",
    "decomposition_table",
]

# Cap on r * bit_length(p), checked before any layer q = p^r is built: it
# bounds the size of q (about 1,233 decimal digits, under Python's 4,300-digit
# limit on int-to-str conversion) and the cost of a table over its layers.
MAX_LAYER_BITS = 4096


def _check_layer_bits(p: int, r: int) -> None:
    if r * p.bit_length() > MAX_LAYER_BITS:
        raise InvalidInput(
            f"layer {p}^{r} is too large: r * bit_length(p) = "
            f"{r * p.bit_length()} exceeds {MAX_LAYER_BITS}"
        )


def euler_phi(q: int) -> int:
    """Euler's totient, from ``factor_int`` (FactorizationIncomplete on budget)."""
    if q < 1:
        raise InvalidInput("euler_phi needs q >= 1")
    out = 1
    for p, e in factor_int(q).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def berger_genus(m: int, n: int) -> int:
    """Genus of the smooth model of f(x) = t g(y): ((m-1)(n-1) - gcd(m,n) + 1)/2."""
    if m < 2 or n < 2:
        raise InvalidInput("berger_genus needs m, n >= 2")
    num = (m - 1) * (n - 1) - gcd(m, n) + 1
    if num % 2:
        raise ParityBug(f"genus numerator {num} is odd for (m, n) = ({m}, {n})")
    return num // 2


def _check_prime_power(q: int) -> tuple[int, int]:
    """Return (p, r) with q = p^r, r >= 1."""
    factors = factor_int(q) if q >= 2 else {}
    if len(factors) != 1:
        raise InvalidInput(f"{q} is not a prime power > 1")
    [(p, r)] = factors.items()
    return p, r


def dim_superelliptic(m: int, q: int) -> int:
    """dim of the Jacobian of z^q = f(x), deg f = m, f squarefree."""
    if m < 2 or q < 1:
        raise InvalidInput("dim_superelliptic needs m >= 2 and q >= 1")
    num = (m - 1) * (q - 1) - (gcd(q, m) - 1)
    if num % 2:
        raise ParityBug(f"dimension numerator {num} is odd for (m, q) = ({m}, {q})")
    return num // 2


def dim_new_part(m: int, q: int) -> int:
    """dim of the new isogeny factor at prime-power level q > 1."""
    if m < 2:
        raise InvalidInput("dim_new_part needs m >= 2")
    p, r = _check_prime_power(q)
    factor = (m - 2) if m % q == 0 else (m - 1)
    num = factor * (p - 1) * p ** (r - 1)  # phi(q)
    if num % 2:
        raise ParityBug(f"new-part numerator {num} is odd for (m, q) = ({m}, {q})")
    return num // 2


def c2(m: int, n: int, d: int) -> int:
    """The layer-d constant (m-1)(n-1) + gcd(m, n, d) - 1."""
    if m < 2 or n < 2 or d < 1:
        raise InvalidInput("c2 needs m, n >= 2 and d >= 1")
    return (m - 1) * (n - 1) + gcd(gcd(m, n), d) - 1


@dataclass(frozen=True)
class TowerLayer:
    """One layer of the p-power tower: d = q = p^r (r = 0 is the base)."""

    p: int
    r: int
    q: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")
        if self.r < 0:
            raise InvalidInput("tower exponent r must be >= 0")
        _check_layer_bits(self.p, self.r)
        object.__setattr__(self, "q", self.p ** self.r)


@dataclass(frozen=True)
class CurvePair:
    """Validated (f, g) input pair; degrees m > 1 and n >= 2, both squarefree."""

    f: UniPoly
    g: UniPoly

    def __post_init__(self):
        for name, poly in (("f", self.f), ("g", self.g)):
            if poly.degree is None or poly.degree < 2:
                raise InvalidInput(f"{name} must have degree >= 2")
        if self.f.var == self.g.var:
            raise MultiVariableError(
                f"f and g must use distinct variables, both use {self.f.var!r}"
            )
        for name, poly in (("f", self.f), ("g", self.g)):
            if discriminant(poly) == 0:
                raise InvalidInput(f"{name} = {poly} is not squarefree")

    @property
    def m(self) -> int:
        return self.f.degree  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return self.g.degree  # type: ignore[return-value]

    @property
    def genus(self) -> int:
        return berger_genus(self.m, self.n)


@dataclass(frozen=True)
class DecompositionTable:
    """New-part dimensions of J_{f,q} for q = p^1 .. p^r, plus the total."""

    m: int
    p: int
    r: int
    rows: tuple[tuple[int, int, int], ...]  # (i, p^i, dim of new part)
    total: int


def decomposition_table(m: int, p: int, r: int) -> DecompositionTable:
    """Tabulate the isogeny decomposition and re-check the dimension sum."""
    if m < 2:
        raise InvalidInput("decomposition_table needs m >= 2")
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if r < 0:
        raise InvalidInput("decomposition_table needs r >= 0")
    _check_layer_bits(p, r)
    rows = tuple((i, p ** i, dim_new_part(m, p ** i)) for i in range(1, r + 1))
    total = dim_superelliptic(m, p ** r)
    if sum(row[2] for row in rows) != total:
        raise DimensionSumMismatch(
            f"new parts {[row[2] for row in rows]} do not sum to dim {total} "
            f"for (m, p, r) = ({m}, {p}, {r})"
        )
    return DecompositionTable(m=m, p=p, r=r, rows=rows, total=total)
