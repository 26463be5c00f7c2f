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
input raises ``NotSquarefree``.  No gcd(f, f') is taken for that: the
degree-i part divides x^(p^i) - x, so it is squarefree, and a repeated
factor of degree i shows as a common factor of that part and what is left
after dividing it out, tested at step i; one of a degree beyond the last
step would leave more degree than the loop's stop allows.

The powers x^(p^i) mod f come from the Frobenius matrix (Berlekamp's
Q-matrix): its rows x^(p*j) mod f, j < deg f, are built once per (f, p), and
since h^p = h(x^p) over F_p, each step h -> h^p is a linear combination of
the rows (von zur Gathen and Shoup, Comput. Complexity 2, 1992).  All
products mod f go through one kernel, ``_ModRing``: an element is packed
into a single int by Kronecker substitution with slots wide enough that
sums of products never carry, so a product is one big-int multiplication
plus a long division by f, one big-int multiply-add per high slot, and the
low slots are reduced mod p all at once by Barrett's reduction over
alternate slots, a fixed number of big-int operations with no per-slot
loop.  x^p itself starts from a monomial, so for p < deg f it costs no
product.  The gcds of Euclid's algorithm compute remainders only, on lists
in place, and stop at the first nonzero constant remainder.
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
        if type(c) is not int:
            if c.denominator % p == 0:
                raise DenominatorDivisibleByP(
                    f"coefficient {c} has denominator divisible by {p}"
                )
            c = c.numerator * pow(c.denominator, -1, p)
        out.append(c)
    return PrimePoly(p, tuple(out))  # which reduces every coefficient mod p


# -- raw tuple arithmetic over F_p ----------------------------------------------
# Internal helpers work on plain tuples to skip dataclass overhead in loops.


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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


def _monic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _gcd(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd by Euclid on remainders only: no quotient is built."""
    a, b = list(a), list(b)
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
        # a <- a mod b in place: b is monic, so slot k is cleared by
        # subtracting a[k] * x^(k-db) * b; slots >= db are dropped after
        db = len(b) - 1
        tail = b[:db]
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k]
            if c:
                i = k - db
                for bj in tail:
                    a[i] = (a[i] - c * bj) % p
                    i += 1
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        if len(a) == 1:  # a nonzero constant remainder: coprime
            return (1,)
        a, b = b, a
    return _monic(tuple(a), p)


# -- packed multiplication mod a fixed monic f ----------------------------------
# The one multiplication kernel.  An element of F_p[x]/(f), deg f = n, is one
# int: coefficient i sits in bits [i*w, (i+1)*w) (Kronecker substitution).
# A product of two reduced elements is reduced by long division from the top:
# for k = 2n-2 .. n, the top slot c = slot k mod p is cleared and c times
# x^(k-n) * (x^n mod f) is added, from a precomputed shifted copy of -f.
# Every slot starts below n(p-1)**2 and gains at most (n-1)(p-1)**2 from the
# division, so with 2**w > 2n(p-1)**2 no slot carries into its neighbour:
# one big-int operation does each convolution or subtraction.  The same bound
# covers a sum of up to 2n products of residues.
#
# The n low slots are then reduced mod p all at once (Barrett, CRYPTO '86),
# with no per-slot loop: the even and the odd slots are split into 2w-bit
# windows, so that a window holds s < 2**w with w zero bits above it.  With
# m = 2**w // p, each window's q = (s*m) >> w is below 2**w and within one
# of s // p, so r = s - q*p lies in [0, 2p); adding 2**w - p to every window
# sets bit w exactly where r >= p, and that bit, times p, is subtracted.
# No window's value leaves [0, 2**(2w)), so the windows never interact.


class _ModRing:
    """F_p[x]/(f) for monic f of degree n >= 1, elements packed into ints."""

    __slots__ = ("p", "n", "w", "mask", "low", "negf", "m", "even", "ones", "lift")

    def __init__(self, f: tuple, p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        w = self.w = (n * (p - 1) ** 2).bit_length() + 1
        self.mask = (1 << w) - 1
        self.low = (1 << (w * n)) - 1
        # Barrett constants over the (n + 1) // 2 windows of 2w bits
        self.m = (1 << w) // p
        self.ones = sum(1 << (2 * w * i) for i in range((n + 1) // 2))
        self.even = self.ones * self.mask
        self.lift = self.ones * ((1 << w) - p)
        # negf[j] = x^j * (x^n mod f): what x^(n+j) reduces to, for the slots
        # n .. 2n-2 of a product and slot n of an element shifted by x
        top = self.pack([-c % p for c in f[:-1]])
        self.negf = [top << (self.w * j) for j in range(max(n - 1, 1))]

    def pack(self, cs) -> int:
        w, v = self.w, 0
        for c in reversed(cs):
            v = (v << w) | c
        return v

    def unpack(self, v: int, count: int) -> list[int]:
        """The first count slots of v, each reduced mod p."""
        w, mask, p = self.w, self.mask, self.p
        return [((v >> (w * i)) & mask) % p for i in range(count)]

    def reduce(self, v: int) -> int:
        """v with each of its n slots reduced mod p; every slot below 2**w."""
        w, p, m, even = self.w, self.p, self.m, self.even
        ones, lift = self.ones, self.lift
        lo = v & even
        hi = (v >> w) & even
        lo -= (((lo * m) >> w) & even) * p
        hi -= (((hi * m) >> w) & even) * p
        lo -= (((lo + lift) >> w) & ones) * p
        hi -= (((hi + lift) >> w) & ones) * p
        return lo | (hi << w)

    def mul(self, a: int, b: int) -> int:
        """a * b mod f for packed reduced a, b."""
        acc = a * b
        w, n, p, negf = self.w, self.n, self.p, self.negf
        for k in range(2 * n - 2, n - 1, -1):
            kw = k * w
            top = acc >> kw  # slot k; the slots above it are already clear
            if top:
                acc = (acc & ((1 << kw) - 1)) + (top % p) * negf[k - n]
        return self.reduce(acc)

    def x_pow(self, e: int) -> int:
        """Packed x^e mod f for e >= 0.

        Starts from the monomial x^e0, e0 the longest prefix of e's bits
        whose value is below n, so e < n costs no product; each remaining
        bit squares, and a set bit then shifts by one slot and reduces the
        top slot against x^n mod f.
        """
        n, w = self.n, self.w
        j = e.bit_length()
        while j and e >> (j - 1) < n:
            j -= 1
        h = 1 << (w * (e >> j))
        for i in range(j - 1, -1, -1):
            h = self.mul(h, h)
            if e >> i & 1:
                h <<= w
                top = h >> (w * n)  # a reduced slot, so already below p
                if top:
                    h = self.reduce((h & self.low) + top * self.negf[0])
        return h

    def frobenius_rows(self) -> list[int]:
        """Packed x^(p*j) mod f for j < n (the Berlekamp Q-matrix rows).

        Over F_p, h(x)^p = h(x^p), so h^p mod f = sum_j h_j * rows[j].
        """
        xp = self.x_pow(self.p)
        rows = [1, xp]
        for _ in range(self.n - 2):
            rows.append(self.mul(rows[-1], xp))
        return rows


def _components(a: PrimePoly) -> list[tuple[int, tuple]]:
    """[(d, monic coefficient tuple of the degree-d part)], d ascending.

    Raises NotSquarefree when a has a repeated factor.
    """
    p = a.p
    if a.degree is None or a.degree < 1:
        raise ValueError("degree pattern needs degree >= 1")
    rest = _monic(a.coeffs, p)
    n = len(rest) - 1
    if n == 1:
        return [(1, rest)]
    # h = x^(p^d) stays reduced mod the original f; since rest divides f,
    # gcd(h - x, rest) is the same as with h reduced mod rest
    ring = _ModRing(rest, p)
    rows = ring.frobenius_rows()
    h = [0, 1]
    out = []
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = ring.unpack(sum(c * row for c, row in zip(h, rows) if c), n)
        g = _gcd(_trim([h[0], (h[1] - 1) % p, *h[2:]]), rest, p)
        if len(g) > 1:
            out.append((d, g))
            rest, r = _divmod(rest, g, p)
            assert not r
            # The squarefree check, with no gcd(f, f'): g divides x^(p^d) - x,
            # so g is squarefree.  A repeated factor of degree k <= the last
            # step is still in rest at step k (no earlier g holds it), so
            # after rest /= g it divides both g and rest, and this test at
            # step k catches it.  One of degree k beyond the last step d would
            # leave deg rest >= 2k >= 2(d + 1), contradicting the loop's stop.
            if len(_gcd(rest, g, p)) > 1:
                raise NotSquarefree(f"{a} has a repeated factor of degree {d}")
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return out


def distinct_degree_components(a: PrimePoly) -> list[tuple[int, PrimePoly]]:
    """[(d, product of all irreducible factors of degree d)], d ascending."""
    return [(d, PrimePoly(a.p, g)) for d, g in _components(a)]


def degree_pattern(a: PrimePoly) -> DegreePattern:
    """Sorted multiset of irreducible factor degrees of squarefree a."""
    pattern: list[int] = []
    for d, g in _components(a):
        deg = len(g) - 1
        assert deg % d == 0
        pattern.extend([d] * (deg // d))
    return tuple(sorted(pattern))
