"""Squarefree factor-degree patterns over prime fields.

A ``PrimePoly`` is a polynomial over F_p: the prime p plus ascending residue
coefficients with no trailing zeros, mirroring the UniPoly layout.  p must be
an actual prime that fits in a machine word; constructing with anything else
raises ValueError up front, because every algorithm below silently assumes
field arithmetic.

``degree_pattern`` returns the multiset of irreducible factor degrees of a
squarefree input, the data Dedekind's criterion turns into Frobenius cycle
types.  It is computed by distinct-degree factorization: gcd of the input
with x^(p^i) - x separates the degree-i part, and the factor count of each
part is its degree divided by i.  Repeated factors are a caller error, not a
fallback: p dividing disc(f) must be excluded upstream, so a non-squarefree
input raises ``NotSquarefree``.

The powers x^(p^i) mod f come from the Frobenius matrix (Berlekamp's
Q-matrix): its rows x^(p*j) mod f, j < deg f, are built once per (f, p), and
since h^p = h(x^p) over F_p, each step h -> h^p is a linear combination of
the rows (von zur Gathen and Shoup, Comput. Complexity 2, 1992).  All
products mod f go through one kernel, ``_ModRing``: an element is packed
into a single int by Kronecker substitution with slots wide enough that
sums of products never carry, so a product is one big-int multiplication
plus one reduction pass against a packed table of x^(n+k) mod f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DenominatorDivisibleByP, NotSquarefree
from .exact_poly import UniPoly, is_prime

__all__ = [
    "PrimePoly",
    "DegreePattern",
    "reduce_mod_p",
    "degree_pattern",
    "distinct_degree_components",
]

DegreePattern = tuple[int, ...]  # sorted ascending, sums to the degree

_MACHINE_WORD = 1 << 63


@dataclass(frozen=True)
class PrimePoly:
    """Dense polynomial over F_p; coeffs ascending, trailing zeros stripped."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not (2 <= self.p < _MACHINE_WORD) or not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not a machine-word prime")
        cs = tuple(c % self.p for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return " + ".join(terms) + f"  (mod {self.p})"


def reduce_mod_p(a: UniPoly, p: int) -> PrimePoly:
    """Reduce rational coefficients mod p; denominators must be units."""
    out = []
    for c in a.coeffs:
        if c.denominator % p == 0:
            raise DenominatorDivisibleByP(
                f"coefficient {c} has denominator divisible by {p}"
            )
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return PrimePoly(p, tuple(out))


# -- raw tuple arithmetic over F_p ----------------------------------------------
# Internal helpers work on plain tuples to skip dataclass overhead in loops.


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _sub(a: tuple, b: tuple, p: int) -> tuple:
    n = max(len(a), len(b))
    return _trim(
        [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    )


def _divmod(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    if len(rem) - 1 < db:
        return (), _trim(rem)
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        q = c * inv % p
        quot[k - db] = q
        for j in range(db + 1):
            rem[k - db + j] = (rem[k - db + j] - q * b[j]) % p
    return _trim(quot), _trim(rem[:db])


def _mod(a: tuple, b: tuple, p: int) -> tuple:
    return _divmod(a, b, p)[1]


def _monic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _gcd(a: tuple, b: tuple, p: int) -> tuple:
    while b:
        a, b = b, _mod(a, b, p)
    return _monic(a, p)


def _derivative(a: tuple, p: int) -> tuple:
    return _trim([k * a[k] % p for k in range(1, len(a))])


# -- packed multiplication mod a fixed monic f ----------------------------------
# The one multiplication kernel.  An element of F_p[x]/(f), deg f = n, is one
# int: coefficient i sits in bits [i*w, (i+1)*w) (Kronecker substitution).
# With 2**w > 2n(p-1)**2 no slot of a product of two reduced elements, nor of
# a sum of up to 2n products of residues, carries into its neighbour, so one
# big-int operation does the whole convolution and each slot is read back and
# reduced mod p on its own.


class _ModRing:
    """F_p[x]/(f) for monic f of degree n >= 1, elements packed into ints."""

    __slots__ = ("p", "n", "w", "mask", "low", "table")

    def __init__(self, f: tuple, p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        self.w = (n * (p - 1) ** 2).bit_length() + 1
        self.mask = (1 << self.w) - 1
        self.low = (1 << (self.w * n)) - 1
        # table[k] = x^(n+k) mod f, k < n - 1: where a product's high slots go
        row = [-c % p for c in f[:-1]]
        self.table = []
        for _ in range(n - 1):
            self.table.append(self.pack(row))
            top = row[-1]
            row = [(s - top * c) % p for s, c in zip([0] + row[:-1], f)]

    def pack(self, cs) -> int:
        w, v = self.w, 0
        for c in reversed(cs):
            v = (v << w) | c
        return v

    def unpack(self, v: int, count: int) -> list[int]:
        """The first count slots of v, each reduced mod p."""
        w, mask, p = self.w, self.mask, self.p
        return [((v >> (w * i)) & mask) % p for i in range(count)]

    def mul(self, a: int, b: int) -> int:
        """a * b mod f for packed reduced a, b."""
        prod = a * b
        acc = prod & self.low
        high = self.unpack(prod >> (self.w * self.n), self.n - 1)
        for c, t in zip(high, self.table):
            if c:
                acc += c * t
        return self.pack(self.unpack(acc, self.n))

    def pow(self, base: int, exp: int) -> int:
        result = 1
        while exp:
            if exp & 1:
                result = self.mul(result, base)
            exp >>= 1
            if exp:
                base = self.mul(base, base)
        return result

    def frobenius_rows(self) -> list[int]:
        """Packed x^(p*j) mod f for j < n (the Berlekamp Q-matrix rows).

        Over F_p, h(x)^p = h(x^p), so h^p mod f = sum_j h_j * rows[j].
        """
        xp = self.pow(self.pack((0, 1)), self.p)
        rows = [1, xp]
        for _ in range(self.n - 2):
            rows.append(self.mul(rows[-1], xp))
        return rows


def _check_squarefree(a: PrimePoly) -> tuple:
    """Return the monic coefficient tuple, raising NotSquarefree if needed."""
    if a.degree is None or a.degree < 1:
        raise ValueError("degree pattern needs degree >= 1")
    cs = _monic(a.coeffs, a.p)
    d = _derivative(cs, a.p)
    if not d:
        raise NotSquarefree(f"{a} has zero derivative, hence a repeated factor")
    if len(_gcd(cs, d, a.p)) > 1:
        raise NotSquarefree(f"{a} has a repeated factor mod {a.p}")
    return cs


def distinct_degree_components(a: PrimePoly) -> list[tuple[int, PrimePoly]]:
    """[(d, product of all irreducible factors of degree d)], d ascending."""
    p = a.p
    rest = _check_squarefree(a)
    n = len(rest) - 1
    if n == 1:
        return [(1, PrimePoly(p, rest))]
    # h = x^(p^d) stays reduced mod the original f; since rest divides f,
    # gcd(h - x, rest) is the same as with h reduced mod rest
    ring = _ModRing(rest, p)
    rows = ring.frobenius_rows()
    x = (0, 1)
    h = list(x)
    out = []
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = ring.unpack(sum(c * row for c, row in zip(h, rows) if c), n)
        g = _gcd(_sub(h, x, p), rest, p)
        if len(g) > 1:
            out.append((d, PrimePoly(p, g)))
            rest, r = _divmod(rest, g, p)
            assert not r
    if len(rest) > 1:
        out.append((len(rest) - 1, PrimePoly(p, rest)))
    return out


def degree_pattern(a: PrimePoly) -> DegreePattern:
    """Sorted multiset of irreducible factor degrees of squarefree a."""
    pattern: list[int] = []
    for d, comp in distinct_degree_components(a):
        deg = comp.degree or 0
        assert deg % d == 0
        pattern.extend([d] * (deg // d))
    return tuple(sorted(pattern))
