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

from math import gcd

from ._record import DERIVED, Record
from .errors import DimensionSumMismatch, InvalidInput, ParityBug
from .exact_poly import _perfect_power, _proved_prime

__all__ = [
    "MAX_LAYER_BITS",
    "TowerLayer",
    "DecompositionTable",
    "berger_genus",
    "dim_superelliptic",
    "dim_new_part",
    "c2",
    "decomposition_table",
]

# Cap on max(r, 1) * bit_length(p), checked before any layer q = p^r is built
# and before p is tested for primality: it bounds the size of p and q (about
# 1,233 decimal digits, under Python's 4,300-digit limit on int-to-str
# conversion), the cost of that test, and the cost of a table over the layers.
MAX_LAYER_BITS = 4096


def _check_layer_bits(p: int, r: int) -> None:
    bits = max(r, 1) * p.bit_length()
    if bits > MAX_LAYER_BITS:
        # a p over the cap is not printed: it may pass the int-to-str limit
        base = p if p.bit_length() <= MAX_LAYER_BITS else f"<{p.bit_length()}-bit p>"
        raise InvalidInput(
            f"layer {base}^{r} is too large: max(r, 1) * bit_length(p) = "
            f"{bits} exceeds {MAX_LAYER_BITS}"
        )


def berger_genus(m: int, n: int) -> int:
    """Genus of the smooth model of f(x) = t g(y): ((m-1)(n-1) - gcd(m,n) + 1)/2."""
    if m < 2 or n < 2:
        raise InvalidInput("berger_genus needs m, n >= 2")
    num = (m - 1) * (n - 1) - gcd(m, n) + 1
    if num % 2:
        raise ParityBug(f"genus numerator {num} is odd for (m, n) = ({m}, {n})")
    return num // 2


def _check_prime_power(q: int) -> tuple[int, int]:
    """Return (p, r) with q = p^r, r >= 1.  q is not factored: perfect-power
    roots are taken until the base is prime or is no perfect power."""
    p, r = q, 1
    while not _proved_prime(p):
        power = _perfect_power(p, p.bit_length()) if p >= 2 else None
        if power is None:
            raise InvalidInput(f"{q} is not a prime power > 1")
        p, k = power
        r *= k
    return p, r


def dim_superelliptic(m: int, q: int) -> int:
    """dim of the Jacobian of z^q = f(x), deg f = m, f squarefree."""
    if m < 2 or q < 1:
        raise InvalidInput("dim_superelliptic needs m >= 2 and q >= 1")
    num = (m - 1) * (q - 1) - (gcd(q, m) - 1)
    if num % 2:
        raise ParityBug(f"dimension numerator {num} is odd for (m, q) = ({m}, {q})")
    return num // 2


def _new_part_dim(m: int, p: int, r: int) -> int:
    """dim of the new isogeny factor at level q = p^r, r >= 1, p prime."""
    q = p ** r
    factor = (m - 2) if m % q == 0 else (m - 1)
    num = factor * (p - 1) * p ** (r - 1)  # phi(q)
    if num % 2:
        raise ParityBug(f"new-part numerator {num} is odd for (m, q) = ({m}, {q})")
    return num // 2


def dim_new_part(m: int, q: int) -> int:
    """dim of the new isogeny factor at prime-power level q > 1."""
    if m < 2:
        raise InvalidInput("dim_new_part needs m >= 2")
    if q.bit_length() > MAX_LAYER_BITS:  # Q is named, not printed, and no p claimed
        raise InvalidInput(
            f"layer Q is too large: bit_length(Q) = {q.bit_length()} "
            f"exceeds {MAX_LAYER_BITS}"
        )
    return _new_part_dim(m, *_check_prime_power(q))


def c2(m: int, n: int, d: int) -> int:
    """The layer-d constant (m-1)(n-1) + gcd(m, n, d) - 1."""
    if m < 2 or n < 2 or d < 1:
        raise InvalidInput("c2 needs m, n >= 2 and d >= 1")
    return (m - 1) * (n - 1) + gcd(gcd(m, n), d) - 1


class TowerLayer(Record):
    """One layer of the p-power tower: d = q = p^r (r = 0 is the base)."""

    p: int
    r: int
    q: int = DERIVED

    def __post_init__(self):
        if self.r < 0:
            raise InvalidInput("tower exponent r must be >= 0")
        _check_layer_bits(self.p, self.r)
        if not _proved_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")
        object.__setattr__(self, "q", self.p ** self.r)

    @classmethod
    def _of_prime(cls, p: int, r: int) -> TowerLayer:
        """The layer over a p the caller has proved prime, for an r >= 0 it
        has checked against the layer cap: p is not tested again."""
        layer = object.__new__(cls)
        for name, value in (("p", p), ("r", r), ("q", p**r)):
            object.__setattr__(layer, name, value)
        return layer


class DecompositionTable(Record):
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
    if r < 0:
        raise InvalidInput("decomposition_table needs r >= 0")
    q = TowerLayer(p, r).q
    rows = tuple((i, p ** i, _new_part_dim(m, p, i)) for i in range(1, r + 1))
    total = dim_superelliptic(m, q)
    if sum(row[2] for row in rows) != total:
        raise DimensionSumMismatch(
            f"new parts {[row[2] for row in rows]} do not sum to dim {total} "
            f"for (m, p, r) = ({m}, {p}, {r})"
        )
    return DecompositionTable(m=m, p=p, r=r, rows=rows, total=total)
