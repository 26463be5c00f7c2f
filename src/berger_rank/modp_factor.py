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

A caller that knows disc(F) for an integer lift F of the input, with p not
dividing it, may pass it and so end the loop early.  Such an input is
squarefree, so the check above is skipped.  For odd p, Stickelberger's
theorem (Swan, Pacific J. Math. 12, 1962) fixes the parity of the number r
of irreducible factors: r = n (mod 2) iff disc(F) is a square mod p, read
by Euler's criterion.  Before step d + 1, every factor left in ``rest`` has
degree above d, so if deg rest = m < 3(d + 1) there are one or two of them,
and the parity says which.  One factor ends the loop; two factors end it
when m <= 2d + 3, since the smaller then has degree d + 1; otherwise the
loop goes on.  p = 2 is excluded: every unit of F_2 is a square, so the
Legendre symbol carries no parity there, and the loop runs in full.

For small fields the first step needs no x^p: while p (deg f + 1) <= 250
(``_ROOT_SCAN_BOUND``), the roots of f are found by Horner's rule at every
residue (``_roots``), and the degree-1 part is their product, which is
gcd(x^p - x, f) itself; it is divided out and checked for a repeated root
as a gcd step's part is.  That scan costs at most 250 Horner steps, less
than x^p and the gcd it stands in for, and often ends the loop, with the
parity, before any product mod f is taken.  ``_roots`` is also the
rational-root search's root finder (``galois_cert``).

The powers x^(p^i) mod f come from the Frobenius matrix (Berlekamp's
Q-matrix): its rows x^(p*j) mod f, j < deg f, are built at most once per
(f, p), and since h^p = h(x^p) over F_p, each step h -> h^p is a linear
combination of the rows (von zur Gathen and Shoup, Comput. Complexity 2,
1992).  The ring is built at the first gcd step, on what is left of f
then, and the rows beyond x^p only at step 2: step 1's h is x^p, which
is also the second row, so a loop that stops after step 1, or before any
gcd step, makes none of the others.  All products mod f go through
one kernel, ``_ModRing``: an element is packed into a single int by
Kronecker substitution with slots wide enough that sums of products never
carry, so a product is one big-int multiplication plus a long division by
f, one big-int multiply-add per high slot, and the low slots are reduced
mod p all at once by Barrett's reduction over alternate slots, a fixed
number of big-int operations with no per-slot loop.  The kernel's slot
width and Barrett constants depend on (deg f, p) alone, so they are built
once per process, in a cache of at most 256 entries, and a new ring only
packs f.  A scan certifies many polynomials of one degree at the same small
primes, so most of its rings find their constants there.  x^p itself
starts from a monomial, so for p < deg f it costs no product.  The gcds of
Euclid's algorithm compute remainders only, on lists in place, and stop at
the first nonzero constant remainder.

At p = 2 the same loop runs on bitmasks, as distinct-degree factorization
over F_2 classically is (von zur Gathen and Gerhard, Modern Computer
Algebra, Section 14.2): a polynomial is one int whose bit i is its
coefficient of x^i.  Squaring is additive in characteristic 2,
(sum x^i)^2 = sum x^(2i), so the whole Frobenius step h -> h^2 spreads h's
bits apart (bin(h) read in base 4) and needs no product and no Q-matrix.
Addition is XOR, so nothing carries and no step reduces anything mod p: a
remainder step, in reducing h^2 mod f, in Euclid's gcd and in the exact
division rest / g, clears the top bit with one shift and one XOR.  The
packed kernel keeps every odd p, and stays the tests' reference at p = 2.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import Record
from .errors import DenominatorDivisibleByP, NotSquarefree
from .exact_poly import UniPoly, is_prime

__all__ = [
    "PrimePoly",
    "DegreePattern",
    "reduce_mod_p",
    "degree_pattern",
]

DegreePattern = tuple[int, ...]  # sorted ascending, sums to the degree

_MACHINE_WORD = 1 << 63


class PrimePoly(Record):
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

    def __str__(self) -> str:
        return f"{UniPoly(self.coeffs)}  (mod {self.p})" if self.coeffs else "0"


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
# Internal helpers work on plain tuples, so the loops skip PrimePoly's
# construction and checks.


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _divmod(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
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


# The cache holds at most 256 entries; each is four ints of n*w bits, as
# large as four packed elements of its ring.
@lru_cache(maxsize=256)
def _ring_constants(n: int, p: int) -> tuple[int, ...]:
    """(w, mask, low, m, ones, even, lift) for a ``_ModRing`` of degree n mod p."""
    w = (n * (p - 1) ** 2).bit_length() + 1
    mask = (1 << w) - 1
    # Barrett constants over the (n + 1) // 2 windows of 2w bits
    ones = sum(1 << (2 * w * i) for i in range((n + 1) // 2))
    return w, mask, (1 << (w * n)) - 1, (1 << w) // p, ones, ones * mask, ones * ((1 << w) - p)


class _ModRing:
    """F_p[x]/(f) for monic f of degree n >= 1, elements packed into ints.

    Nothing here divides by a residue, so any modulus p >= 2 works: galois_cert
    lifts a Frobenius in (Z/p^N)[x]/(f) with the same products."""

    __slots__ = ("p", "n", "w", "mask", "low", "negf", "m", "even", "ones", "lift")

    def __init__(self, f: tuple, p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        self.w, self.mask, self.low, self.m, self.ones, self.even, self.lift = (
            _ring_constants(n, p)
        )
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

    def frobenius_rows(self, xp: int) -> list[int]:
        """Packed x^(p*j) mod f for j < n (the Berlekamp Q-matrix rows),
        from xp = x^p mod f.

        Over F_p, h(x)^p = h(x^p), so h^p mod f = sum_j h_j * rows[j].
        """
        rows = [1, xp]
        for _ in range(self.n - 2):
            rows.append(self.mul(rows[-1], xp))
        return rows


def degree_pattern(
    a: PrimePoly, disc: int | None = None, parts: list | None = None
) -> DegreePattern:
    """Sorted multiset of irreducible factor degrees of squarefree a.

    Raises NotSquarefree when a has a repeated factor.  ``disc``, if given,
    is the discriminant of an integer lift of a (same degree) and must be
    prime to p, else ValueError; for odd p its Legendre symbol gives the
    parity of the factor count, which ends the loop once at most two
    factors are left (Stickelberger; see the module docstring).  A list
    given as ``parts`` receives the loop's distinct-degree parts, (d, k, g)
    for k factors of degree d with product g, ascending: the parity then
    ends the loop only where it leaves whole parts.  A of degree 1 has
    none.

    For p = 2 the loop runs on bitmasks (``_pattern_f2``): there the
    Frobenius step h -> h^2 is a squaring, which only spreads h's bits
    apart, and no step reduces anything mod p, since coefficients add by
    XOR.  It gives the same pattern, parts and NotSquarefree message as the
    packed loop, which keeps every odd p.
    """
    if a.degree is None or a.degree < 1:
        raise ValueError("degree pattern needs degree >= 1")
    if disc is not None and disc % a.p == 0:
        raise ValueError(f"discriminant {disc} is not prime to {a.p}")
    if a.degree == 1:
        return (1,)
    return (_pattern_f2 if a.p == 2 else _pattern)(a, disc, parts)


# While p (deg f + 1) Horner steps stay within this many, ``_pattern``'s first
# step scans the residues for roots: cheaper than the gcd with x^p - x that it
# stands in for, with x^p and the ring that gcd needs (measured at deg f = 5-9).
_ROOT_SCAN_BOUND = 250


def _roots(cs: tuple, p: int) -> list[int]:
    """The distinct roots in F_p, ascending, of the polynomial with ascending
    residue coefficients cs, by Horner's rule at every residue."""
    rev, out = cs[::-1], []
    for r in range(p):
        v = 0
        for c in rev:
            v = v * r + c
        if v % p == 0:
            out.append(r)
    return out


def _pattern(a: PrimePoly, disc: int | None, parts: list | None) -> DegreePattern:
    """``degree_pattern``'s loop over the packed kernel, for any p and
    deg a >= 2 with disc, if given, prime to p."""
    p = a.p
    rest = _monic(a.coeffs, p)
    n = len(rest) - 1
    # the parity of r, the number of irreducible factors, or None if unknown
    r_odd = None
    if disc is not None and p != 2:
        r_odd = (n % 2 == 1) == (pow(disc, (p - 1) // 2, p) == 1)
    # h = x^(p^d) stays reduced mod the ring's f, rest at the first gcd step;
    # since every later rest divides it, gcd(h - x, rest) is the same as
    # with h reduced mod rest
    ring = None
    rows: list[int] = []  # the Q-matrix rows, made when a step first needs them
    h = [0, 1]
    pattern: list[int] = []
    d = 0
    while (m := len(rest) - 1) >= 2 * (d + 1):
        # every factor of rest has degree > d, so below 3(d + 1) it has one
        # or two, and the parity of r says which; two with m <= 2d + 3 can
        # only be of degrees d + 1 and m - d - 1
        if r_odd is not None and m < 3 * (d + 1):
            if (len(pattern) % 2 == 0) == r_odd:
                break
            if m == 2 * d + 2 or m == 2 * d + 3 and parts is None:
                pattern += [d + 1, m - d - 1]
                if parts is not None:
                    parts.append((d + 1, 2, rest))
                return tuple(pattern)
            # two factors of degrees d + 1 and d + 2 are split by one more
            # step when the parts are asked for
        d += 1
        if d == 1 and p * (n + 1) <= _ROOT_SCAN_BOUND:
            # the degree-1 part, the product of x - r over the roots
            g = [1]
            for r in _roots(rest, p):
                g = [0, *g]  # g * (x - r)
                for j in range(len(g) - 1):
                    g[j] = (g[j] - r * g[j + 1]) % p
            g = tuple(g)
        else:
            if ring is None:  # the first gcd step, on what is left of f
                ring = _ModRing(rest, p)
                rows = [1, ring.x_pow(p)]  # x^p, the second row
                if d == 2:  # the root scan took step 1: h = x^p
                    h = ring.unpack(rows[1], ring.n)
            if d == 2:
                rows = ring.frobenius_rows(rows[1])
            h = ring.unpack(sum(c * row for c, row in zip(h, rows) if c), ring.n)
            g = _gcd(_trim([h[0], (h[1] - 1) % p, *h[2:]]), rest, p)
        if len(g) > 1:
            deg = len(g) - 1
            assert deg % d == 0
            pattern += [d] * (deg // d)
            if parts is not None:
                parts.append((d, deg // d, g))
            rest, r = _divmod(rest, g, p)
            assert not r
            # The squarefree check, with no gcd(f, f'): g divides x^(p^d) - x,
            # so g is squarefree.  A repeated factor of degree k <= the last
            # step is still in rest at step k (no earlier g holds it), so
            # after rest /= g it divides both g and rest, and this test at
            # step k catches it.  One of degree k beyond the last step d would
            # leave deg rest >= 2k >= 2(d + 1), contradicting the loop's stop.
            # p prime to disc already proves a squarefree.
            if disc is None and len(_gcd(rest, g, p)) > 1:
                raise NotSquarefree(f"{a} has a repeated factor of degree {d}")
    if len(rest) > 1:
        pattern.append(len(rest) - 1)
        if parts is not None:
            parts.append((len(rest) - 1, 1, rest))
    return tuple(pattern)


# -- F_2[x] on bitmasks ----------------------------------------------------------
# Bit i of an int is the coefficient of x^i.  A remainder step clears the top
# bit of the dividend by XORing the divisor shifted up to it; bin() and base-4
# int() are exempt from the interpreter's int-to-str digit limit.


def _gcd_f2(a: int, b: int) -> int:
    """gcd by Euclid, remainders only; a nonzero constant remainder ends it."""
    while b > 1:
        db = b.bit_length()
        while (k := a.bit_length() - db) >= 0:
            a ^= b << k
        a, b = b, a
    return 1 if b else a


def _square_f2(h: int, f: int) -> int:
    """h^2 mod f: one degree step of the F_2 loop."""
    h, df = int(bin(h)[2:], 4), f.bit_length()
    while (k := h.bit_length() - df) >= 0:
        h ^= f << k
    return h


def _coeffs_f2(g: int) -> tuple[int, ...]:
    return tuple(map(int, reversed(bin(g)[2:])))


def _pattern_f2(a: PrimePoly, disc: int | None, parts: list | None) -> DegreePattern:
    """``_pattern``'s loop at p = 2 on bitmasks, step for step (no parity
    is read at p = 2, so it always runs in full)."""
    f = rest = int("".join(map(str, reversed(a.coeffs))), 2)
    h = 2  # x^(2^d) mod f
    pattern: list[int] = []
    d = 0
    while rest.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        h = _square_f2(h, f)
        g = _gcd_f2(h ^ 2, rest)
        if g > 1:
            k = (g.bit_length() - 1) // d
            pattern += [d] * k
            if parts is not None:
                parts.append((d, k, _coeffs_f2(g)))
            # rest /= g, exact: each step clears rest's top bit into q
            q, dg = 0, g.bit_length()
            while (s := rest.bit_length() - dg) >= 0:
                rest ^= g << s
                q |= 1 << s
            rest = q
            if disc is None and _gcd_f2(g, rest) > 1:  # as in _pattern
                raise NotSquarefree(f"{a} has a repeated factor of degree {d}")
    if rest > 1:
        pattern.append(m := rest.bit_length() - 1)
        if parts is not None:
            parts.append((m, 1, _coeffs_f2(rest)))
    return tuple(pattern)


def _irreducible_factors(a: PrimePoly, parts: list | None = None) -> list[tuple]:
    """The monic irreducible factors of the squarefree a, ascending by
    degree, then by coefficients.

    They come from a's distinct-degree parts: ``parts`` as
    ``degree_pattern`` left them, else those of a full pass of its loop.
    Only a part with several factors is split, by Cantor and Zassenhaus's
    equal-degree splitting (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 14.8): for a random a, gcd(a^((p^d - 1)/2) - 1, g),
    or for p = 2 gcd(a + a^2 + ... + a^(2^(d-1)), g), is a proper factor of
    g with probability about 1/2.  The factors are unique, so the choice of
    a changes only the time.
    """
    if not parts:
        parts = []
        degree_pattern(a, None, parts)
    out: list[tuple] = []
    for d, count, g in parts:
        out += sorted(_equal_degree_split(g, d, a.p)) if count > 1 else [g]
    return out


def _equal_degree_split(g: tuple, d: int, p: int) -> list[tuple]:
    """The monic irreducible factors of g, a product of distinct ones of
    degree d over F_p."""
    n = len(g) - 1
    if n == d:
        return [g]
    ring = _ModRing(g, p)
    e = (p**d - 1) // 2
    state = n  # a fixed pseudo-random sequence (Knuth's MMIX constants)
    while True:
        coeffs = []
        for _ in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            coeffs.append((state >> 32) % p)
        a = ring.pack(coeffs)
        b = a
        if p == 2:  # the trace of a down to F_2, slot by slot 0 or 1
            power = a
            for _ in range(d - 1):
                power = ring.mul(power, power)
                b += power
            b = ring.unpack(ring.reduce(b), n)
        else:  # a^e, a square root of 1 at each factor where a is a unit
            for i in range(e.bit_length() - 2, -1, -1):
                b = ring.mul(b, b)
                if e >> i & 1:
                    b = ring.mul(b, a)
            b = ring.unpack(b, n)
            b[0] = (b[0] - 1) % p
        u = _gcd(_trim(b), g, p)
        if 1 < len(u) < len(g):
            rest = _divmod(g, u, p)[0]
            return _equal_degree_split(u, d, p) + _equal_degree_split(rest, d, p)
