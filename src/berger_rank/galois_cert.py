"""Certified Galois-group verdicts from factor-degree patterns.

For a squarefree f over Q of degree m >= 2, reducing mod a prime p that
divides neither disc(f) nor the leading coefficient gives a factor-degree
pattern equal to the cycle type of a Frobenius element of Gal(f) acting on
the roots (Dedekind).  Observations are taken at the usable primes in
ascending order.  ``sample_cycle_types`` collects them for every usable p up
to a bound; ``certify_galois`` feeds them, as they come, to a fixed set of
classical permutation-group rules and stops at the first prime where the
observations so far prove a verdict, so the bound is only a cap:

  R-trans      some pattern is {m}, so the group is transitive.
  R-trans2     the subset-sum degree sets of all patterns intersect in
               {0, m}, so f is irreducible, so the group is transitive.
  R-irreducible  f has no factor of a degree <= m/2 that every pattern
               allows, by one p-adic factor search, so f is irreducible
               (see below).
  R-primitive  a transitive group is primitive when it keeps no system of
               blocks of size s for any s | m, 1 < s < m, so at once when
               m is prime.  A pattern rules out s when no element of the
               stabiliser Sym(s) wr Sym(m/s) of such a system has it as
               cycle type (see ``_keeps_blocks``).
  R-jordan     an isolated prime part L = 2, 3 < m or L <= m - 3.  A part L
               is isolated when no other part is a multiple of it; raising
               the element to the lcm of the other parts leaves an L-cycle.
  R-maximal    5 <= m <= 12, and each maximal primitive group of degree m
               without Alt(m), 13 in all (``_MAXIMAL_PRIMITIVE``; Sims
               1970, Dixon and Mortimer, Permutation Groups, 1996,
               Appendix B), lacks some observed pattern as a cycle type.
               Every primitive group without Alt(m) lies in one of them,
               so this stands in for a Jordan element; one seen first
               fires R-jordan instead.
  R-sign       transitive + primitive + Jordan element (or R-maximal): the
               group contains Alt(m) (Jordan; Wielandt, Finite Permutation
               Groups, Thms 13.3 and 13.9), so a nonsquare disc proves
               Sym(m) and a square disc proves Alt(m).
  R-alt3       transitive, m = 3 and a square disc: the group lies in
               Alt(3), and Alt(3) is its only transitive subgroup, so the
               group is Alt(3).  No Jordan element exists at m = 3.

The verdict is sound, never complete: ``Inconclusive`` only ever means "not
proved with these observations", and enlarging the prime bound can only
strengthen it.  The rules only ask whether a pattern has been observed, so
the engine looks at each distinct pattern once and keeps the few facts the
rules read: the firing that proves transitivity (R-trans2, whose primes are
all the observations, is built at the end), the factor degrees every
pattern allows as one bitmask, the open block sizes, the maximal groups
not yet ruled out and a Jordan element or R-maximal.
The verdict and the rules fired are built once, when the sampling ends.
Stopping at the first proof is sound.  The good primes come from one stream
(``_good_primes``) of primes sieved a segment at a time, so a certificate
that stops early sieves no further whatever its bound.  Bounds
above ``MAX_PRIME_BOUND`` raise ``InvalidInput`` before the prime sieve is
allocated.  A square discriminant together with an odd observed pattern is
mathematically impossible, so that combination raises
``DiscSquareInconsistency`` and aborts rather than returning anything.  The
guard sees only the observations a certificate holds, so on a proven
certificate it covers the primes up to the proving prime, not the bound.

A factor search.  A factor of f over Q of degree d shows as a subset sum d
at every good prime, so f is irreducible exactly when it has no factor of a
degree d <= m/2 among the subset sums common to every pattern.  The engine,
given f's integer model, searches it once, and only when a miss completes
the proof: no block size is open, a Jordan element (or R-maximal) is in
hand, and transitivity is the one fact missing.  The search
(``_small_factor``) is Zassenhaus's, at the first observed prime p.  It
splits f mod p into its irreducible factors, reusing the distinct-degree
parts ``degree_pattern`` formed there and splitting a part only when it
holds several factors.  It lifts each factor that a subset of the right
degree sum holds by Newton's iteration to p^N (``_factor_lifts``), and
rejects each such subset, as soon as the precision allows, by the sum of
its roots (which lie within Cauchy's bound of an integer next to their
mean), by its constant term (which divides lc f(0)) or by Mignotte's bound
on its coefficients, before the ``factor`` witness's own check, one
division over Q (``_is_factor``), accepts it.  The factors mod p are
unique, so the search is complete: a miss proves f irreducible.  It runs
only when p divides neither lc nor disc, which replay checks by one
gcd mod p; it also answers "unknown", which proves nothing, at no prime,
above ``MAX_PRIME_BOUND``, or past ``_FACTOR_SEARCH_SUBSETS`` subsets, so
it trusts no observation.  A miss proves transitivity (R-irreducible); a
hit is a ``factor`` witness.  Certification, replay and the CLI reach it
through the one engine, so a certificate cut short by R-irreducible
re-derives on replay, also when rebuilt without its witness.  The scan's
rational-root search (``_rational_roots``) lifts each root mod p by the
same Newton step and keeps a root a/b when one integer Horner pass finds
b^m f(a/b) = sum c_k a^k b^(m-k) = 0.

The negative side has four witnesses, each of which ends the sampling and
leaves the verdict ``Inconclusive``.

A factor.  A monic g over Q with g | f and 1 <= deg g < m makes f
reducible and Gal(f) intransitive; the check is one division f % g over
Q.

A decomposition.  If f = G(H) with deg G, deg H >= 2, the roots of f fall
into the blocks {a : H(a) = b}, so Gal(f) is imprimitive or intransitive
and contains no Alt(m), m >= 4.  These blocks have size s = deg H, so only
a size that no pattern has ruled out can decompose.  f is searched for such
a decomposition (Kozen-Landau, J. Symb. Comp. 7, 1989): for each s the
right factor H of degree s, monic with H(0) = 0, is unique and is read off
an r-th root of the reversed f, r = m/s.  The screen of s divides only by
lc, by r and by the n < 2s, so it is sound at every good prime p >= 2s not
dividing r.  Each size is screened once, mod the first such prime, reusing
that prime's reduction, if no pattern below it has ruled the size out: so
f(x^2) of degree 16 is screened at p = 5 when 5 is good, not above 16.  A
miss mod p proves that no decomposition with that s exists (see
``_decomposition``).  For an s that passes, H is read off the root over Q,
and the H-adic division of the integer model, run over Z after x -> x/D, D
the common denominator of H, gives f = G(H) exactly; the certificate then
holds it as its witness, whose check composes G(H) by Horner's rule and
compares it with f.  Nothing is screened once every size is ruled out, and
never for a prime m.

A Dickson form, the one witness a prime m can have.  D_m(x, alpha) is the
Dickson polynomial, D_m(u + alpha/u, alpha) = u^m + (alpha/u)^m, so
alpha = 0 gives x^m and T_m = 2^(m-1) D_m(x, 1/4).  If f = lc (D_m(x - b,
alpha) - a) is squarefree, its roots are b + z^k v + alpha z^(-k)/v over
the m-th roots of unity z, and every element of Gal(f) maps k to
+-(c k + e), so Gal(f) lies in AGL(1, Z/m), of order m phi(m) < m!/2 for
m >= 4, and contains no Alt(m).  (By Fried's proof of Schur's conjecture,
Michigan Math. J. 17, 1970, x^m and D_m are exactly the prime-degree shapes
with solvable monodromy.)  For a prime m >= 5, before any prime is sampled,
``_dickson_form`` tests f for this form exactly; a hit is the witness,
and nothing is sampled.  A composite m is left to the
decomposition screen: x^m = (x^s)^(m/s) and D_m = D_(m/s)(D_s(x, alpha),
alpha^s).

An automorphism.  If theta in Q[x] has deg theta < m, theta != x and
f | f(theta), then for an irreducible f, theta(alpha) is a second root in
Q(alpha), so Q(alpha) has an automorphism other than the identity and the
stabiliser of a root is not self-normalizing in Gal(f); in Sym(m) and
Alt(m), m >= 4, it is.  A reducible f has an intransitive group.  Either
way Gal(f) contains no Alt(m).  The check is one composition mod f, by
Horner's rule over Z with pseudo-remainders (see ``_is_automorphism``).  Two
powers of a Frobenius are lifted, each by Newton's iteration in
(Z/p^N)[x]/(F), F the integer model made monic mod p^N, with ``_ModRing``
products mod p^N, from the factor search's inverse mod p (``_inverse``); a
certificate lifts one of them at most.  In a regular action every element
has all its cycles of one length, so once the first
``_AUTOMORPHISM_STREAK`` (4) good patterns are all homogeneous, (k, ...,
k), the Frobenius x^p mod (p, f) at the first of them with k >= 2 is lifted
(Acciaro and Kluners, Math. Comp. 68, 1999: for an abelian Q(alpha) it is
an automorphism).  Otherwise, at the first inert prime p, where the pattern
is (m), Q(alpha) tensor Q_p is the unramified field of degree m, so
Aut(Q(alpha)) embeds in its Frobenius's cyclic group of order m: if a prime
l divides |Aut(Q(alpha))|, the Frobenius to the power m/l is a global
automorphism, and lifting x^(p^(m/l)) finds it.  Such an automorphism
permutes the roots in l-cycles and commutes with every Frobenius, so l is a
block size no pattern has ruled out, and every pattern seen admits such a
permutation commuting with it: each cycle length L prime to l comes in a
number of cycles that l divides (see ``_commutes_with_shift``).  Once
``_INERT_GATE`` (8) patterns are in, each such l is tried; this finds
alpha -> -1/alpha, say, in a field whose group keeps blocks of size 2 (an
index-2 subfield, so a quadratic, Galois, extension on top) and has no
decomposition.  At each p^N, theta is rebuilt by rational reconstruction,
screened mod the other good primes seen and checked exactly.  A miss is
told by an explicit bound: for an automorphism theta, c h, c = lc(F) and
h = F' theta mod F, has integer coefficients of size at most m C(m-1,
(m-1)/2) ||F||_2^2, read in the symmetric range with 8 bits to spare; one
out of range ends the search.  The lift stops at
2^``_AUTOMORPHISM_MAX_BITS`` (2048), whatever the input's height (see
``_automorphism``).

A certificate holds at most one ``Witness(kind, values)``.  The table
``WITNESSES`` maps each kind to its exact check, the formula it proves and
its value names; replay and the CLI read every kind through it.
Without a witness, an ``Inconclusive`` certificate holds every usable prime
up to the bound.

Sampling passes the model's discriminant to ``degree_pattern``, which may
then end its degree loop early by the parity of the factor count
(Stickelberger).  A ``GaloisCertificate`` stores the observations, fired
rules and any witness, and ``replay_certificate`` re-checks the witness
and re-runs the rule engine on the stored observations (no
re-sampling) to confirm the recorded verdict; a deep replay also recomputes
every pattern without the discriminant, by the full loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from functools import cache
from fractions import Fraction
from itertools import compress, islice, takewhile

from ._record import Record
from .errors import (
    DiscSquareInconsistency,
    InvalidInput,
    NotSquarefree,
    PatternReplayMismatch,
)
from .exact_poly import (
    UniPoly,
    _cleared,
    _kronecker_product,
    _exact,
    _shift_facts,
    discriminant,
    integer_model,
    is_prime,
    primes_up_to,
    rational_is_square,
)
from .modp_factor import (
    DegreePattern,
    PrimePoly,
    _divmod,
    _gcd,
    _irreducible_factors,
    _ModRing,
    _monic,
    _roots,
    _trim,
    degree_pattern,
    reduce_mod_p,
)

__all__ = [
    "GaloisVerdict",
    "CycleTypeObservation",
    "RuleFiring",
    "GaloisCertificate",
    "Witness",
    "sample_cycle_types",
    "certify_galois",
    "replay_certificate",
    "DEFAULT_PRIME_BOUND",
    "MAX_PRIME_BOUND",
]

DEFAULT_PRIME_BOUND = 200
# A prime sieve segment of up to prime_bound bytes may be allocated, so
# larger bounds are rejected before any work is done.
MAX_PRIME_BOUND = 10**6


class GaloisVerdict(Enum):
    PROVEN_SYMMETRIC = "ProvenSymmetric"
    PROVEN_ALTERNATING = "ProvenAlternating"
    INCONCLUSIVE = "Inconclusive"


class CycleTypeObservation(Record):
    """Factor-degree pattern of f mod p, i.e. a Frobenius cycle type."""

    p: int
    pattern: DegreePattern


class RuleFiring(Record):
    rule: str
    primes: tuple[int, ...]  # observations the rule consumed
    detail: str = ""


class Witness(Record):
    """Values whose exact check ``WITNESSES[kind]`` proves that Gal(f) has no Alt(m)."""

    kind: str
    values: tuple


class GaloisCertificate(Record):
    polynomial: UniPoly
    disc: Fraction
    disc_is_square: bool
    observations: tuple[CycleTypeObservation, ...]
    rules_fired: tuple[RuleFiring, ...]
    verdict: GaloisVerdict
    witness: Witness | None = None  # ends the sampling, verdict Inconclusive


def sample_cycle_types(
    f: UniPoly, prime_bound: int
) -> tuple[CycleTypeObservation, ...]:
    """Cycle-type observations at every prime p <= bound with good reduction.

    Good reduction means p divides neither the discriminant nor the leading
    coefficient of the primitive integer model of f, so the pattern mod p is
    squarefree and has full degree.
    """
    _check_prime_bound(prime_bound)
    if f.degree is None or f.degree < 1:
        raise InvalidInput("cycle types need degree >= 1")
    model, model_disc, _ = _model_and_disc(f)
    return tuple(
        CycleTypeObservation(a.p, degree_pattern(a, model_disc))
        for a in _good_reductions(model, model_disc, prime_bound)
    )


def _model_and_disc(f: UniPoly) -> tuple[UniPoly, int, Fraction]:
    """The primitive integer model of f, its discriminant, an integer, and
    disc(f) (``exact_poly._shift_facts``)."""
    (facts,) = _shift_facts(f, (0,))
    if facts is None:
        raise NotSquarefree(f"{f} has a repeated root")
    return facts


_FIRST_PRIMES = tuple(primes_up_to(DEFAULT_PRIME_BOUND))


def _primes() -> Iterator[int]:
    """Every prime, ascending, sieved one segment at a time: the primes up to
    ``DEFAULT_PRIME_BOUND``, sieved once, then those in (b, 2b] for b =
    200, 400, ..., so a certificate that stops at a small prime sieves
    nothing whatever its bound."""
    yield from _FIRST_PRIMES
    low = DEFAULT_PRIME_BOUND
    while True:
        sieve = bytearray([1]) * low  # low + 1 .. 2 low; every base prime is below low
        for p in primes_up_to(math.isqrt(2 * low)):
            start = -(low + 1) % p
            sieve[start::p] = bytes(len(range(start, low, p)))
        yield from compress(range(low + 1, 2 * low + 1), sieve)
        low *= 2


def _good_primes(model: UniPoly, model_disc: int) -> Iterator[int]:
    """Every prime dividing neither lc(model) nor its discriminant
    ``model_disc``, ascending; sampling and the scan's root search use it."""
    bad = model_disc * model.leading_coefficient
    return (p for p in _primes() if bad % p)


def _good_reductions(
    model: UniPoly, model_disc: int, prime_bound: int
) -> Iterator[PrimePoly]:
    """The model mod each good prime <= bound, ascending (``_good_primes``).
    It is an integer lift of its reduction, of full degree at a good p, so
    its discriminant lets ``degree_pattern`` stop early."""
    for p in takewhile(lambda p: p <= prime_bound, _good_primes(model, model_disc)):
        yield reduce_mod_p(model, p)


# -- p-adic lifting ---------------------------------------------------------
# One Newton step, inverse mod p and rational reconstruction for every lift.


def _value_and_slope(cs, r: int, q: int) -> tuple[int, int]:
    """(F(r), F'(r)) mod q, F the polynomial with ascending coefficients cs,
    by one Horner pass."""
    value = slope = 0
    for c in reversed(cs):
        slope = (slope * r + value) % q
        value = (value * r + c) % q
    return value, slope


def _inverse(a: tuple, g: tuple, p: int) -> list[int]:
    """a^-1 mod (p, g), g monic and prime to a over F_p, by the extended
    Euclidean algorithm, one quotient term at a time, keeping only a's
    cofactor: s_i a = r_i mod g."""
    r0, r1, s0, s1 = list(g), list(a), [0], [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):  # r0 -= c x^k r1, s0 -= c x^k s1
            c, k = r0[-1] * inv % p, len(r0) - len(r1)
            for j, v in enumerate(r1, k):
                r0[j] = (r0[j] - c * v) % p
            s0 += [0] * (len(s1) + k - len(s0))
            for j, v in enumerate(s1, k):
                s0[j] = (s0[j] - c * v) % p
            while r0 and not r0[-1]:
                r0.pop()
        r0, r1, s0, s1 = r1, r0, s1, s0
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _factor_lifts(cs: tuple, g: tuple, p: int, top: int) -> Iterator[list[int]]:
    """For q = p^2, p^4, ..., up to q >= top, a power of p, the monic G
    with G = g mod p that divides F mod q: F is the integer polynomial with
    ascending coefficients cs, whose leading coefficient p does not divide,
    and g is a monic irreducible factor of F mod p that F' mod p is prime
    to.

    Newton's iteration for a factor: if G_j = G mod p^j, then F = (G -
    G_j) H mod G_j, and F' = G_j' H mod (p^j, G_j), so G = G_j + F G_j' /
    F' mod (p^(2j), G_j), a quotient in the ring (Z/p^(2j))[x]/(G_j) in
    which F = 0 mod p^j, so W, the inverse of F' it divides by, need only
    be right mod p^j; it starts mod p by Euclid's algorithm and keeps up
    by W <- W (2 - F' W).  For deg g = 1, G = x - r, this is r <- r -
    F(r) / F'(r), run on integers.  Otherwise an element of the ring is
    packed into one int, a slot of b bits per coefficient, and reduced
    mod G_j from the top slot down, one multiple of x^d mod G_j a slot,
    but mod q only in that top slot: no slot of a product of two reduced
    elements, or of F mod G_j, reaches q^4 d^3 < 2^b before it is read.
    """
    d, m = len(g) - 1, len(cs) - 1
    q = p
    if d == 1:  # the root r = -g_0 of x - r, and w = 1 / F'(r)
        r = -g[0] % p
        w = pow(_value_and_slope(cs, r, p)[1], -1, p)
        while q < top:
            q *= q
            value, slope = _value_and_slope(cs, r, q)
            if q > p * p:
                w = w * (2 - slope * w) % q
            r = (r - value * w) % q
            yield [-r % q, 1]
        return

    def pack(values) -> int:
        v = 0
        for c in reversed(values):
            v = v << b | c
        return v

    def reduce(v: int, k: int) -> int:
        """v, of slots 0 .. k, mod G_j, whose x^d is ``tail``."""
        for k in range(k, d - 1, -1):
            kb = k * b
            t = (v >> kb) % q
            v = (v & ((1 << kb) - 1)) + (t * tail << (kb - d * b))
        return v

    def unpack(v: int) -> list[int]:
        return [(v >> (b * i) & mask) % q for i in range(d)]

    slopes = [j * c for j, c in enumerate(cs)][1:]
    G, w = list(g), None
    while True:
        b = 4 * (q.bit_length() + d.bit_length())  # bits a slot
        mask = (1 << b) - 1
        tail = pack([-c % q for c in G[:d]])
        if w is None:  # q = p: W by Euclid's algorithm
            w = _inverse(_trim(unpack(reduce(pack([c % p for c in slopes]), m - 1))), g, p)
        else:
            inv = pack(w)
            if q > p * p:  # W was right mod q^(1/4); now mod q^(1/2)
                slope = reduce(pack([c % q for c in slopes]), m - 1)
                near = unpack(reduce(slope * inv, 2 * d - 2))
                twice = pack([(2 - near[0]) % q] + [-c % q for c in near[1:]])
                w = unpack(reduce(inv * twice, 2 * d - 2))
                inv = pack(w)
            value = reduce(pack([c % q for c in cs]), m)
            derivative = pack([j * c % q for j, c in enumerate(G)][1:])
            step = reduce(reduce(value * derivative, 2 * d - 2) * inv, 2 * d - 2)
            G = [(c + v) % q for c, v in zip(G, unpack(step))] + [1]
            yield G
        if q >= top:
            return
        q *= q


def _rational(u: int, q: int, bound: int, den_bound: int) -> tuple[int, int] | None:
    """(r, s), s > 0 and gcd(r, s) = 1, with r/s = u mod q, |r| <= bound
    and s <= den_bound, unique when 2 bound den_bound < q, by the extended
    Euclidean algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, Theorem 5.26); None when there is none."""
    r0, r1, s0, s1 = q, u % q, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if not 0 < s1 <= den_bound or math.gcd(r1, s1) != 1:
        return None
    return r1, s1


# -- witnesses -------------------------------------------------------------


def _root(terms: list, r: int, count: int, divide, a: list) -> list:
    """Extend a, the leading coefficients of the r-th root with a[0] = 1 of
    the series 1 + sum c x^k over the pairs (k, c) of ``terms`` (k >= 1,
    ascending), to ``count`` of them, by Miller's recurrence for powers of a
    series: n r a_n = sum_k (k (r + 1) - n r) c_k a_(n-k).  ``divide(acc,
    n)`` divides by n r in the coefficient field."""
    for n in range(len(a), count):
        acc = 0
        for k, c in terms:
            if k > n:
                break
            acc += (k * (r + 1) - n * r) * c * a[n - k]
        a.append(divide(acc, n))
    return a


def _decomposition(
    f: UniPoly, model: UniPoly, a: PrimePoly, sizes: list[int]
) -> Witness | None:
    """A witness f = G(H) with deg H in ``sizes`` (ascending divisors s of
    m, 1 < s < m), deg G >= 2 and H monic with H(0) = 0, or None when f has
    no such decomposition; ``model`` is f's integer model and a is it mod a
    good prime p with p >= 2s and p not dividing m/s for every s in
    ``sizes``.

    For s | m, r = m/s, and F(x) = x^m f(1/x) / lc(f) = 1 + f_1 x + ...,
    f = G(H) gives F^(1/r) = R + (g/r) x^s + O(x^(2s)), where R = x^s H(1/x)
    has degree < s and g is G's second coefficient over its first.  So the
    root's coefficients at x^1 .. x^(s-1) are H's, those at x^(s+1) ..
    x^(2s-1) vanish, and then every H-adic digit of f is a constant.

    The screen checks the vanishing mod p.  It is sound: the root's
    coefficients up to x^(2s-1) have denominators dividing powers of lc, r
    and the n < 2s, all units mod p, so reducing them mod p commutes with
    the recurrence.  A decomposition over Q thus shows mod p, and a miss
    mod p proves that there is none for that s.  A pass mod p may be a
    coincidence, so for an s that passes, H is read off the root over Q
    and the H-adic division of the model, run over Z (``_adic_digits``),
    gives f = G(H) exactly when every digit is a constant.
    """
    p, cs = a.p, a.coeffs
    m = len(cs) - 1
    inverses = [0, 1]  # of 1 .. 2s - 1 mod p, all units as p >= 2s
    for k in range(2, 2 * max(sizes, default=0)):
        inverses.append(-(p // k) * inverses[p % k] % p)
    scale = pow(cs[-1], -1, p)
    cs = [c * scale % p for c in cs]  # f / lc mod p
    terms = [(k, cs[m - k]) for k in range(1, m) if cs[m - k]]  # F - 1

    def root_mod_p(s: int, count: int, prefix: list) -> list:
        inv_r = pow(m // s, -1, p)
        return _root(
            terms, m // s, count, lambda acc, n: acc * inverses[n] * inv_r % p, prefix
        )

    # the first gap coefficient, at x^(s+1), for every s before any longer root
    roots = {s: root_mod_p(s, s + 2, [1]) for s in sizes}
    lead = model.coeffs[-1]
    for s, root in roots.items():
        if root[-1] or any(root_mod_p(s, 2 * s, root)[s + 1 :]):
            continue
        r = m // s
        terms_q = [(k, Fraction(model.coeffs[m - k], lead)) for k in range(1, s)]
        root_q = _root(terms_q, r, s, lambda acc, n: acc / (n * r), [1])
        inner = UniPoly((0, *reversed(root_q[1:]), 1), f.var)
        digits = _adic_digits(model.coeffs, inner.coeffs)
        if digits is not None:  # model = sum digits[i] H^i, and f = lam model
            lam = Fraction(f.leading_coefficient, lead)
            if lam != 1:
                digits = [lam * d for d in digits]
            return Witness("decomposition", (UniPoly(digits, f.var), inner))
    return None


def _adic_digits(model: tuple, inner: tuple) -> list | None:
    """The digits g_i with model = sum g_i H^i, all constants, or None when
    some H-adic digit of the integer polynomial ``model`` is not; H =
    ``inner`` is monic of degree s | m, with rational coefficients of
    common denominator D.

    The division runs over Z.  Substituting x -> x/D and scaling by D^m
    turns model = sum d_i H^i, deg d_i < s, into M = sum D^(s(r - i))
    d_i(x/D) K^i, r = m/s, where M = D^m model(x/D) and K = D^s H(x/D) are
    integer polynomials and K is monic.  K-adic digits are unique, so those
    of M are D^(s(r - i)) d_i(x/D): a constant exactly when d_i is, and then
    the integer g_i D^(s(r - i)).  Dividing by the monic K needs no
    division of integers.
    """
    m, s = len(model) - 1, len(inner) - 1
    cleared, den = _cleared(inner)  # D H
    rest = [c * den ** (m - k) for k, c in enumerate(model)]
    divisor = [c * den ** (s - 1 - k) for k, c in enumerate(cleared[:s])]
    digits = []
    while len(rest) > 1:
        # rest = quotient * K + digit, the quotient left in rest[s:]
        for k in range(len(rest) - 1, s - 1, -1):
            top = rest[k]
            if top:
                for j, c in enumerate(divisor, k - s):
                    rest[j] -= top * c
        if any(rest[1:s]):
            return None
        digits.append(rest[0])
        rest = rest[s:]
    digits.append(rest[0])
    if den == 1:
        return digits
    r = len(digits) - 1
    return [Fraction(d, den ** (s * (r - i))) for i, d in enumerate(digits)]


def _is_decomposition(f: UniPoly, outer: UniPoly, inner: UniPoly) -> bool:
    """f = outer(inner), with deg outer, deg inner >= 2, by Horner's rule.
    The degrees must multiply to deg f, so a witness too large for f is
    refused before any product."""
    r, s = outer.degree or 0, inner.degree or 0
    if min(r, s) < 2 or r * s != f.degree or inner.var != f.var:
        return False
    composed = UniPoly((), f.var)
    for c in reversed(outer.coeffs):
        composed = composed * inner + c
    return composed == f


def _taylor_shift(cs, s: int) -> list[int]:
    """The ascending coefficients of F(x + s), F's being cs, read as the
    balanced base-B digits of the integer F(B + s): each has size at most
    ||F||_1 (1 + |s|)^m < B / 2."""
    bits = sum(abs(c) for c in cs).bit_length() + (len(cs) - 1) * (abs(s) + 1).bit_length() + 1
    value, mask, half = 0, (1 << bits) - 1, 1 << (bits - 1)
    for c in reversed(cs):
        value = (value << bits) + value * s + c  # value (B + s) + c
    out = []
    for _ in range(len(cs)):
        digit = ((value + half) & mask) - half
        out.append(digit)
        value = (value - digit) >> bits
    return out


def _dickson_form(
    f: UniPoly,
) -> tuple[int | Fraction, int | Fraction, int | Fraction] | None:
    """(beta, alpha, a) with f = lc(f) * (D_m(x - beta, alpha) - a), m =
    deg f >= 2 and f squarefree, or None when f has no such form.

    D_m(x, alpha) is the Dickson polynomial, D_m(u + alpha/u, alpha) =
    u^m + (alpha/u)^m, whose x^(m-2i) coefficient is d_i (-alpha)^i with
    d_i = m/(m - i) C(m - i, i); its other coefficients vanish.  alpha = 0
    gives the binomials lc ((x - beta)^m - a), and T_m = 2^(m-1) D_m(x, 1/4).
    Matching x^(m-1) forces beta = -f_(m-1) / (m f_m) and x^(m-2) forces
    alpha = -g_(m-2) / (m f_m), where g(x) = f(x + beta) (alpha = 0 for
    m = 2, where the constant goes to a).  All is done in integers:
    v^m f(x + u/v) has x^j coefficient v^j h_j, where h(y) =
    sum f_k v^(m-k) (y + u)^k, beta = u/v.  For m >= 4 the x^(m-3)
    coefficient of g must vanish, an O(1) test from f's top four
    coefficients that turns away almost every input without the form; the
    x^1 one must match the form's, an O(m) Horner pass on f'(beta) that
    turns away the sparse ones, whose top coefficients all vanish.  Only
    then is g found, by one Taylor shift, and compared with the form
    exactly, a read off g_0.  The form has a repeated root exactly when
    a^2 = 4 alpha^m, which is turned away too.
    """
    m = f.degree
    if m is None or m < 2:
        return None
    cs, _ = _cleared(f.coeffs)  # den * f has the same beta, alpha and a
    lead = cs[m]
    beta = Fraction(-cs[m - 1], m * lead)
    u, v = beta.numerator, beta.denominator
    if m >= 4 and (
        cs[m - 3] * v**3
        + (m - 2) * cs[m - 2] * u * v**2
        + math.comb(m - 1, 2) * cs[m - 1] * u**2 * v
        + math.comb(m, 3) * lead * u**3
    ):
        return None
    # g = lead (D_m(x, alpha) - a) reads h_(m-2i) = lead d_i rho^i with
    # rho = -alpha v^2 = top / (m lead), and h_j = 0 at the other j >= 1
    top = (  # h_(m-2)
        cs[m - 2] * v**2 + (m - 1) * cs[m - 1] * u * v + math.comb(m, 2) * lead * u**2
        if m > 2
        else 0
    )

    def fits(j: int, h_j: int) -> bool:  # h_j is the form's, 1 <= j < m
        i, odd = divmod(m - j, 2)
        if odd or not top:
            return not h_j
        d_i = math.comb(m - i, i) + math.comb(m - i - 1, i - 1)  # i >= 1
        return h_j * (m * lead) ** i == lead * d_i * top**i

    h_1, v_power = m * lead, 1  # v^(m-1) f'(beta), by Horner
    for k in range(m - 1, 0, -1):
        v_power *= v
        h_1 = h_1 * u + k * cs[k] * v_power
    if not fits(1, h_1):
        return None
    h = _taylor_shift([c * v ** (m - k) for k, c in enumerate(cs)], u)
    if not all(fits(j, h[j]) for j in range(2, m - 1)):
        return None
    rho = Fraction(top, m * lead)
    dickson_0 = 2 * rho ** (m // 2) if m % 2 == 0 else 0  # v^m D_m(0, alpha)
    alpha = _exact(-rho / v**2)
    a = _exact((dickson_0 - Fraction(h[0], lead)) / v**m)
    if a * a == 4 * alpha**m:
        return None
    return _exact(beta), alpha, a


def _is_dickson(f: UniPoly, beta, alpha, a) -> bool:
    """f = lc(f) (D_m(x - beta, alpha) - a), D_m the Dickson polynomial, m >=
    4: the form is unique, and ``_dickson_form`` finds it exactly."""
    return f.degree >= 4 and _dickson_form(f) == (beta, alpha, a)


def _is_automorphism(f: UniPoly, theta: UniPoly) -> bool:
    """f | f(theta) with theta != x and deg theta < m, m >= 4, by Horner's
    rule mod f, run over Z.

    With F = d f and T = e theta integer polynomials (d, e > 0 the least
    such), e^m f(theta) = sum F_j T^j e^(m - j) / d, so f | f(theta) exactly
    when F divides that sum, which Horner's rule builds from the top.  Each
    step multiplies by T and reduces mod F by pseudo-division: to cancel a
    top coefficient t, the accumulator is first multiplied by the unit
    c / gcd(t, c) of Q, c = lc(F).  The product of those units is tracked,
    so the next coefficient is added times it, and the final remainder is
    the remainder of the sum times a nonzero rational: zero exactly when F
    divides the sum.
    """
    m = f.degree
    if m < 4 or (theta.degree or 0) >= m or theta == UniPoly.variable(f.var):
        return False
    if not theta.is_constant and theta.var != f.var:
        return False
    model, _ = _cleared(f.coeffs)
    t, e = _cleared(theta.coeffs)
    lead, low = model[-1], model[:m]
    acc, unit, scale = [0] * m, 1, 1
    for c in reversed(model):
        # acc = unit (sum of the terms so far) mod F
        prod = [0] * (m + len(t) - 1)
        for i, u in enumerate(acc):
            if u:
                for j, v in enumerate(t, i):
                    prod[j] += u * v
        prod[0] += c * scale * unit
        for k in range(len(prod) - 1, m - 1, -1):
            top = prod.pop()
            if top:
                g = math.gcd(top, lead)
                if g != lead:
                    w = lead // g
                    prod = [w * v for v in prod]
                    unit *= w
                top //= g
                for j, v in enumerate(low, k - m):
                    prod[j] -= top * v
        acc = prod
        scale *= e
    return not any(acc)


# The h test of ``_automorphism`` reads this many bits past its bound, so a
# Frobenius lift that is no automorphism passes it with probability about
# 2^-(bits * m).
_AUTOMORPHISM_SLACK_BITS = 8
# The precision, in bits of p^N, that ``_automorphism`` lifts to at most.
# A lift there costs about what sampling the good primes below 200 does at
# degree 4, and a sixth of it or less from degree 8 on (Phi_n(2^1100 x + 1)).
_AUTOMORPHISM_MAX_BITS = 2048
# ``_certify`` looks for an automorphism once this many first good patterns
# are homogeneous, (k, ..., k).  In a regular group every element is, so a
# longer streak costs a hit one pattern each.  In Sym(m) a share h_m of the
# elements is: 0.42, 0.24, 0.16 and 0.12 for m = 4, 6, 8, 10, and below 0.21
# for every other m >= 5.  So a Sym(m) input still unproved after the streak
# is tried with chance h_m^4, under 0.4% for m >= 5 (h_m^3 is 1.5% at m = 6),
# and a try there can only miss.
_AUTOMORPHISM_STREAK = 4
# ``_certify`` also lifts x^(p^(m/l)) at the first inert p, where the
# pattern is (m), once this many patterns are in and each admits an
# automorphism of order l (``_commutes_with_shift``).  A Sym(m) pattern
# admits one for l = 2 with chance 0.67, 0.58, 0.50 and 0.45 at m = 4, 6,
# 8, 10, falling with m, and for an odd l with chance 0.30 or less (m <=
# 30).  So a Sym(m) input still unproved here, whose inert pattern always
# passes, is tried with chance 0.67^7 < 6% at m = 4, 2.2% at m = 6 and
# under 1% from m = 8 on, and a try there can only miss; at 6 patterns it
# would be 13%, 6.4% and 3%.  Most Sym(m) inputs are proved before the
# gate, and each pattern more costs an input with an automorphism one
# pattern.
_INERT_GATE = 8


def _powers(ring: _ModRing, t: int, n: int) -> list[int]:
    """t^0 .. t^n in ``ring``."""
    powers = [1, t]
    for _ in range(n - 1):
        powers.append(ring.mul(powers[-1], t))
    return powers


def _at(ring: _ModRing, coeffs, powers: list[int]) -> int:
    """sum coeffs[j] t^j in ``ring``, from the powers of t."""
    q = ring.p
    return ring.reduce(sum(c % q * t for c, t in zip(coeffs, powers)))


def _frobenius_lifts(f: tuple, p: int, j: int) -> Iterator[tuple[_ModRing, int]]:
    """(ring, theta) for N = 2, 4, 8, ...: ``ring`` is (Z/p^N)[x]/(f), f
    made monic mod p^N, and theta, packed in it, is the root of f(theta) =
    0 in Z_p[x]/(f) with theta = x^(p^j) mod (p, f).  f is an integer
    polynomial of degree n and p a good prime for it: p divides neither its
    leading coefficient nor its discriminant.

    Newton's iteration theta <- theta - f(theta) g doubles the precision,
    and g, an inverse of f'(theta), keeps up by g <- g (2 - f'(theta) g).
    Mod p, f'(theta) = f'(x)^(p^j) is a unit of F_p[x]/(f), and g starts
    as its inverse by Euclid's algorithm (``_inverse``).  Every product is
    a ``_ModRing`` product mod p^N.
    """
    n = len(f) - 1

    def ring_mod(q: int) -> tuple[_ModRing, tuple, list[int]]:
        monic = _monic(tuple(a % q for a in f), q)
        return _ModRing(monic, q), monic, [i * a for i, a in enumerate(monic)][1:]

    ring, monic, slopes = ring_mod(p)
    t = ring.x_pow(p**j)
    slope = ring.unpack(_at(ring, slopes, _powers(ring, t, n - 1)), n)
    theta, g = ring.unpack(t, n), _inverse(_trim(slope), monic, p)
    q = p
    while True:
        q *= q
        ring, monic, slopes = ring_mod(q)
        t, inv = ring.pack(theta), ring.pack(g)
        full = ring.pack([q] * n)  # full - v negates v slot by slot
        powers = _powers(ring, t, n)
        near_one = ring.mul(_at(ring, slopes, powers), inv)  # f'(theta) g
        inv = ring.mul(inv, ring.reduce(full + 2 - near_one))
        t = ring.reduce(t + full - ring.mul(_at(ring, monic, powers), inv))
        theta, g = ring.unpack(t, n), ring.unpack(inv, n)
        yield ring, t


def _vanishes_mod(model: UniPoly, theta: UniPoly, a: PrimePoly) -> bool:
    """Whether model(theta) = 0 mod (p, model), a = model mod p of full
    degree; False when p divides a denominator of theta."""
    p = a.p
    if any(type(v) is not int and v.denominator % p == 0 for v in theta.coeffs):
        return False
    monic = _monic(a.coeffs, p)
    ring = _ModRing(monic, p)
    t = ring.pack(reduce_mod_p(theta, p).coeffs)
    return not _at(ring, monic, _powers(ring, t, len(monic) - 1))


def _automorphism(
    model: UniPoly, a: PrimePoly, j: int, screens: list[PrimePoly]
) -> Witness | None:
    """A witness theta with model | model(theta), theta != x and deg theta
    < m, or None; model is f's primitive integer model, of degree m >= 4
    and leading coefficient c, a is it mod a good prime p, whatever its
    pattern there, and ``screens`` are it mod good primes.

    theta is the p-adic lift of x^(p^j) mod (p, f), the Frobenius to the
    power j, in (Z/p^N)[x]/(model): ``_certify`` lifts x^p when Q(alpha)
    may be abelian, whose Frobenius is then an automorphism (Acciaro and
    Kluners, Math. Comp. 68, 1999), and x^(p^(m/l)) at an inert p, where
    it is one when l divides |Aut(Q(alpha))|.  At each p^N, theta is
    rebuilt by rational reconstruction, screened mod every other prime of
    ``screens`` and checked exactly, so a hit costs the lift to a p^N near
    twice theta's size squared.  (A cyclotomic theta is sparse, so one
    small screen prime passes a wrong rebuild often, and the exact check
    of a wrong theta is the costly one.)  A theta of degree below the
    number of screens skips them: each costs m - 1 ring products, and
    the exact check of a theta that low is cheaper than their sum.

    A miss is told by h = model' theta mod model.  For an automorphism
    theta, h = sum_i theta(r_i) c prod_(n != i) (x - r_n) over the roots
    r_i, and c h has integer coefficients: c theta(r_i) is a root of the
    monic c^(m-1) model(y/c), and c prod_(n in S) (x - r_n) has integral
    coefficients for every set S of roots (Gauss's lemma).  By |c r_i| <=
    M(model), |c e_d(roots but r_i)| <= C(m-1, d) M(model) and M(model) <=
    ||model||_2 (Landau), they are at most H = m C(m-1, (m-1)/2)
    ||model||_2^2.  c h is read at each p^N > 2^(s+1) H, s =
    ``_AUTOMORPHISM_SLACK_BITS``, and one out of range ends the search: no
    automorphism lifts x^(p^j).  The lift never goes past 2^B, B =
    ``_AUTOMORPHISM_MAX_BITS``, so its cost has a bound whatever the
    input's height: a theta that needs more, or an H past 2^B, leaves the
    input to sampling.
    """
    p = a.p
    coeffs, m = model.coeffs, model.degree
    height = m * math.comb(m - 1, (m - 1) // 2) * sum(v * v for v in coeffs)
    gate = height << (_AUTOMORPHISM_SLACK_BITS + 1)
    for ring, t in _frobenius_lifts(coeffs, p, j):
        q = ring.p
        if q > gate:
            scaled = [coeffs[-1] * i * v % q for i, v in enumerate(coeffs)][1:]  # c model'
            h = ring.unpack(ring.mul(ring.pack(scaled), t), m)
            if any(height < v < q - height for v in h):
                return None  # no automorphism of the model lifts x^(p^j)
        bound, e, out = math.isqrt((q - 1) // 2), 1, []
        for v in ring.unpack(t, m):
            r = _rational(v * e, q, bound, bound)
            if r is None:
                break
            out.append(Fraction(r[0], r[1] * e))
            e *= r[1]
        else:
            candidate = UniPoly(out, model.var)
            others = [b for b in screens if b.p != p]
            # a theta of degree below the screens' count is checked at once
            if (
                (candidate.degree or 0) < len(others)
                or all(_vanishes_mod(model, candidate, b) for b in others)
            ) and _is_automorphism(model, candidate):
                return Witness("automorphism", (candidate,))
        if 2 * q.bit_length() > _AUTOMORPHISM_MAX_BITS:
            return None


def _commutes_with_shift(pattern: DegreePattern, ell: int) -> bool:
    """Whether a fixed-point-free permutation of prime order ell commutes
    with some permutation g of cycle type ``pattern``: as an automorphism of
    order ell of Q(alpha) does with every Frobenius.

    Such a permutation permutes the cycles of g of each length L.  On a
    cycle it keeps it is a power of that cycle, of order ell only when ell
    | L, so the cycles of a length L prime to ell fall into orbits of ell:
    ell divides their number.  Conversely, the power L/ell of each cycle
    with ell | L, and a shift of each ell cycles of one length L prime to
    ell into each other, make one.
    """
    return all(pattern.count(part) % ell == 0 for part in set(pattern) if part % ell)


def _is_factor(f: UniPoly, g: UniPoly) -> bool:
    """g | f with 1 <= deg g < m, by one division over Q."""
    if not 1 <= (g.degree or 0) < f.degree or g.var != f.var:
        return False
    return (f % g).is_zero


def _is_good(model: UniPoly, p: int) -> bool:
    """Whether p <= ``MAX_PRIME_BOUND`` is a prime dividing neither lc(model)
    nor disc(model): model mod p keeps its degree and is prime to its
    derivative.  The one test for the factor search and deep replay."""
    if p > MAX_PRIME_BOUND or not is_prime(p):
        return False
    a = tuple(c % p for c in model.coeffs)
    slope = _trim([i * c % p for i, c in enumerate(a)][1:])
    return a[-1] != 0 and len(_gcd(a, slope, p)) == 1


def _rational_roots(model: UniPoly, p: int) -> list[Fraction] | None:
    """Every rational root of the integer polynomial ``model``, least first
    by (|numerator|, denominator, negative after positive), found from p;
    None, "unknown", when p is no prime, exceeds ``MAX_PRIME_BOUND``,
    divides lc(model) or is a repeated root mod p.

    A root a/b in lowest terms has b | lc and a | a_k, the lowest nonzero
    coefficient, or a = 0, so |a| <= |a_k| and b <= |lc|; and p does not
    divide b, so a/b reduces to a root mod p.  Each root mod p, being
    simple, is the image of one p-adic root, which ``_factor_lifts``
    carries to p^N > 2 |a_k lc|; there rational reconstruction
    (``_rational``) finds a/b if the p-adic root is one, and, once a | a_k
    and b | lc, one integer Horner pass keeps it when b^m model(a/b) = sum
    c_k a^k b^(m-k) is 0.  So the search is complete: an empty list proves
    that model has no rational root.  The roots mod p come from
    ``modp_factor._roots``, which evaluates at every residue, so p is
    capped, and the slope model' is read at those roots only: a zero there
    is a repeated root.  p is tested here, not by ``_is_good``: the slopes
    find a repeated root, and ``_is_good``'s gcd mod p would cost 9.8 ms
    over a ``family-scan`` pass's 1,602 searches, which take 17.7 ms,
    against under 1 ms for this test (min of 15 passes, one Xeon core,
    Python 3.11).
    """
    cs = model.coeffs
    if not is_prime(p) or p > MAX_PRIME_BOUND or cs[-1] % p == 0:
        return None
    low, lead = next(c for c in cs if c), cs[-1]
    q = p * p
    while q <= 2 * abs(low * lead):  # reconstruction is unique above it
        q *= q
    residues = tuple(c % p for c in cs)
    found = _roots(residues, p)
    if any(not _value_and_slope(residues, r, p)[1] for r in found):
        return None  # a repeated root mod p
    roots = []
    for r in found:
        *_, (const, _) = _factor_lifts(cs, (-r % p, 1), p, q)
        v = _rational(-const, q, abs(low), abs(lead))
        if v is None:
            continue
        num, den = v
        if (not num or low % num == 0) and lead % den == 0:
            value, power = 0, 1  # den^m model(num / den), by Horner's rule
            for c in reversed(cs):
                value, power = value * num + c * power, power * den
            if not value:
                roots.append(Fraction(num, den))
    roots.sort(key=lambda v: (abs(v.numerator), v.denominator, v < 0))
    return roots


# Subsets of p-adic factors one factor search may try.  When they run out,
# the search answers "unknown", which proves nothing.
_FACTOR_SEARCH_SUBSETS = 2000


def _subsets(degrees: list[int], target: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """The index sets, ascending, of the entries of the ascending
    ``degrees`` from ``start`` on that sum to ``target`` > 0."""
    for i in range(start, len(degrees)):
        d = degrees[i]
        if d > target:
            return
        if d == target:
            yield (i,)
        else:
            for rest in _subsets(degrees, target - d, i + 1):
                yield (i, *rest)


def _root_radius(cs) -> int:
    """8 rho rounded up, rho Cauchy's bound on the roots of the polynomial
    with ascending coefficients cs: the positive root of |c_m| x^m -
    sum_(i < m) |c_i| x^i, above which that polynomial is positive.  Each
    t_i = |c_(m-i) / c_m|^(1/i) is at most rho, and 2^k, k the largest
    ceil((bits(c_(m-i)) - bits(c_m) + 1) / i), lies in (t_max, 8 t_max],
    so the search runs between 2^(k+4) and 2^k."""
    lead = abs(cs[-1])
    # 8^(i+1) |c_(m-1-i)|, so that 8^m times the polynomial at t / 8 is
    # lead t^m - sum_i scaled[i] t^(m-1-i)
    scaled = [abs(c) << 3 * i for i, c in enumerate(reversed(cs[:-1]), 1)]
    k = max(
        -(-(abs(c).bit_length() - lead.bit_length() + 1) // i)
        for i, c in enumerate(reversed(cs[:-1]), 1)
        if c
    )
    low, high = (1 << k) - 1 if k >= 0 else 0, 16 << k if k >= 0 else 16
    while high - low > 1:  # 8 rho is in (low, high]
        t = (low + high) // 2
        acc = lead
        for c in scaled:
            acc = acc * t - c
        low, high = (low, t) if acc >= 0 else (t, high)
    return high


def _small_factor(
    model: UniPoly, p: int, degrees: list[int], parts: list | None = None
) -> tuple[UniPoly, ...] | None:
    """(g,), g a monic factor over Q of the integer polynomial ``model``
    with deg g in ``degrees`` (ascending, in [1, m/2]), the least degree
    first; () when there is none; None, "unknown", when p is no prime,
    exceeds ``MAX_PRIME_BOUND`` or divides lc(model) or disc(model), or
    when the subsets run out.  ``parts``, if given, are model's
    distinct-degree parts mod p as ``degree_pattern`` found them at a good
    p; without them p is checked by one gcd mod p.

    Zassenhaus's search (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 15.6): a factor h of degree d over Z is, mod p, the
    product of a subset of model's irreducible factors mod p, whose degrees
    sum to d, and those factors, lifted to p^N (``_factor_lifts``), give
    c h / lc(h), c = lc(model), in the symmetric range as c times their
    product, once p^N is above twice its size.  So each subset is screened,
    at each precision that allows a screen, by what c h / lc(h) would be:
    its coefficient at x^(d-1), -c times the sum of d roots, is at most |c|
    d rho away from -c d s, every root lying within rho of s (Cauchy's
    bound on model(x + s), s an integer next to the roots' mean); its
    constant term divides c model(0); and every coefficient is at most |c|
    B_d, B_d = C(d, d/2) ||model||_2 (Mignotte).  A subset that passes the
    last is accepted by ``_is_factor``, the ``factor`` witness's own check,
    on its monic h.  The lifts run only as long as a subset holds their
    factor, and the largest factor, when every factor is in some subset,
    is not lifted at all: model / c is the product of all of them, so its
    two screened coefficients and, for a candidate's product, its whole
    come from the others'.  A search that rejects every subset proves that
    model has no factor of a degree in ``degrees``.
    """
    cs, lead = model.coeffs, model.coeffs[-1]
    if parts is None and not _is_good(model, p):
        return None
    factors = _irreducible_factors(PrimePoly(p, cs), parts)
    sizes = [len(u) - 1 for u in factors]
    subsets = ((d, subset) for d in degrees for subset in _subsets(sizes, d))
    candidates = list(islice(subsets, _FACTOR_SEARCH_SUBSETS + 1))
    if len(candidates) > _FACTOR_SEARCH_SUBSETS:
        return None
    if not candidates:
        return ()
    # the bounds each test needs p^N above twice of: Mignotte's on every
    # coefficient, the trace's and the constant term's
    norm = math.isqrt(sum(c * c for c in cs)) + 1  # > ||model||_2
    mignotte = {d: abs(lead) * math.comb(d, d // 2) * norm for d in degrees}
    # the roots lie within radius / 8 of s, an integer next to their mean
    s = -cs[-2] // ((len(cs) - 1) * lead)
    radius = _root_radius(_taylor_shift(cs, s) if s else cs)
    low = lead * cs[0]
    top = p * p  # the first precision lifted to
    while top <= 2 * mignotte[candidates[-1][0]]:
        top *= top
    unit = pow(lead, -1, top)  # F = unit model mod top is monic
    # the last, largest, factor is F's quotient by the others, so when
    # every factor is in some subset it is not lifted: the two
    # coefficients the screens read, at x^(d-1) and x^0, come from theirs
    last = len(factors) - 1
    used = {i for _, subset in candidates for i in subset}
    skip = last if last and len(used) == len(factors) else None
    lifts = {i: _factor_lifts(cs, factors[i], p, top) for i in used if i != skip}
    q = p
    while candidates:
        q *= q
        lifted = {i: next(lift) for i, lift in lifts.items()}
        seconds = {i: G[-2] for i, G in lifted.items()}
        consts = {i: G[0] for i, G in lifted.items()}
        if skip in used:
            seconds[skip] = (cs[-2] * unit - sum(seconds.values())) % q
            rest = math.prod(consts.values()) % q
            consts[skip] = cs[0] * unit * pow(rest, -1, q) % q if rest % p else None
        live = []
        for d, subset in candidates:
            if 4 * q > abs(lead) * d * radius:
                # lc times the sum of d roots, each within radius / 8 of s
                trace = -lead * (sum(seconds[i] for i in subset) + d * s) % q
                if 8 * abs(trace - q if 2 * trace > q else trace) > abs(lead) * d * radius:
                    continue
            if low and q > 2 * abs(low) and all(consts[i] is not None for i in subset):
                c0 = lead  # lc h(0) / lc(h) divides lc f(0)
                for i in subset:
                    c0 = c0 * consts[i] % q
                c0 = c0 - q if 2 * c0 > q else c0
                if not c0 or low % c0:
                    continue
            if q <= 2 * mignotte[d]:
                live.append((d, subset))
                continue
            if skip in subset and skip not in lifted:
                others = [1]
                for G in lifted.values():
                    others = [c % q for c in _kronecker_product(others, G)]
                monic = tuple(c * unit % q for c in cs)
                lifted[skip] = list(_divmod(monic, tuple(others), q)[0])
            g = [lead % q]
            for i in subset:
                g = [c % q for c in _kronecker_product(g, lifted[i])]
            g = [c - q if 2 * c > q else c for c in g]
            if all(abs(c) <= mignotte[d] for c in g):
                h = UniPoly([Fraction(c, g[-1]) for c in g], model.var)
                if _is_factor(model, h):
                    return (h,)
        candidates = live
        used = {i for _, subset in live for i in subset}
        keep = used | set(lifts) if skip in used else used
        lifts = {i: lifts[i] for i in keep if i != skip}
    return ()


# kind -> (its exact check(f, *values), the formula it proves, and each
# value's payload key and its name in the formula)
WITNESSES = {
    "decomposition": (_is_decomposition, "f = G(H)", {"outer": "G", "inner": "H"}),
    "dickson": (
        _is_dickson,
        "f = lc(D_m(x - b, alpha) - a)",
        {"beta": "b", "alpha": "alpha", "a": "a"},
    ),
    "automorphism": (_is_automorphism, "f | f(theta)", {"theta": "theta"}),
    "factor": (_is_factor, "g | f", {"g": "g"}),
}


# -- rule engine -----------------------------------------------------------


def _subset_sums(pattern: DegreePattern) -> int:
    """The degrees of the factors a pattern allows, as a mask: bit i is set
    when some sub-multiset of its parts sums to i."""
    sums = 1
    for part in pattern:
        sums |= sums << part
    return sums


# Search nodes one block-size test may spend.  When they run out, the size
# stays open, which claims nothing.
_BLOCK_SEARCH_NODES = 2000


def _keeps_blocks(pattern: DegreePattern, s: int) -> bool:
    """Whether some permutation keeping a system of blocks of size s, i.e.
    some element of Sym(s) wr Sym(m/s), has cycle type ``pattern``; also
    True when the search runs out of nodes.

    Such an element permutes the b = m/s blocks.  Over a cycle of k blocks
    its cycles have lengths k c, where the c are the cycle lengths of the
    product of the k block maps, a permutation of one block.  So the parts
    split into groups, each with a k that divides all its parts and sum
    k s, and every such split is the cycle type of an element (Dixon and
    Mortimer, Permutation Groups, section 2.6).  One part that fits in no
    group answers False at once; parts whose copies group among themselves
    answer True; for b = 2 the subset sums decide (``_subset_sums``).
    Otherwise a search puts the largest part left into a group, for each k
    in turn.
    """
    b = sum(pattern) // s
    alone = True  # the copies of each part make up groups by themselves
    for part in reversed(pattern):  # the likeliest misfit first
        k = -(-part // s)  # L = k c with k | L, c <= s and k <= b
        while k <= b and part % k:
            k += 1
        if k > b:
            return False
        # s/g copies of L, g = gcd(L, s), form a group with c = g, k = L/g
        if alone and pattern.count(part) % (s // math.gcd(part, s)):
            alone = False
    if alone or s == 2:
        # for s = 2 every group is one even part or two equal parts, so
        # grouping the copies of each part alone is the only way
        return alone
    if b == 2:  # one group with k = 2, or two with k = 1 and sum s each
        return all(part % 2 == 0 for part in pattern) or bool(_subset_sums(pattern) >> s & 1)
    nodes = 0

    def fill(parts: DegreePattern, k: int, need: int, start: int) -> bool:
        """Complete the group of k blocks that lacks ``need`` from
        parts[start:] (descending), then group the rest, each group around
        the largest part left."""
        nonlocal nodes
        nodes += 1
        if nodes > _BLOCK_SEARCH_NODES:
            return True
        if not need:
            if not parts:
                return True
            lead = parts[0]  # a new group of k blocks around the largest part
            for k in range(-(-lead // s), min(lead, b) + 1):
                if lead % k == 0 and fill(parts[1:], k, k * s - lead, 0):
                    return True
            return False
        tried = 0  # each value once per position: parts is a multiset
        for i in range(start, len(parts)):
            q = parts[i]
            if q != tried and q <= need and q % k == 0:
                tried = q
                if fill(parts[:i] + parts[i + 1 :], k, need - q, i):
                    return True
        return False

    return fill(tuple(sorted(pattern, reverse=True)), 1, 0, 0)


def _jordan_element(obs: CycleTypeObservation, m: int) -> RuleFiring | None:
    """R-jordan from an isolated prime part L = 2, L = 3 < m or L <= m - 3:
    no other part is a multiple of L, so the power to the lcm of the other
    parts is a pure L-cycle."""
    pattern = obs.pattern
    for part in pattern:
        if (
            (part == 2 or part == 3 < m or part <= m - 3)
            and is_prime(part)
            and sum(q % part == 0 for q in pattern) == 1
        ):
            power = math.lcm(*(q for q in pattern if q != part), 1)
            cycle = f"pattern {pattern}: power {power} is a {part}-cycle"
            return RuleFiring("R-jordan", (obs.p,), cycle)
    return None


# For 5 <= m <= 12, the maximal primitive groups of degree m that do not
# contain Alt(m), up to conjugacy, each with its cycle types (Sims 1970;
# Dixon and Mortimer, Permutation Groups, 1996, Appendix B).  Every other
# primitive group without Alt(m) lies in one of them, e.g. PSL(2, 7) in
# PGL(2, 7), S5 on pairs in PGammaL(2, 9) and M11 on 12 points in M12, so
# its cycle types are among that group's.
_MAXIMAL_PRIMITIVE = {
    5: {"AGL(1,5)": "1^5, 1 2^2, 1 4, 5"},
    6: {"PGL(2,5)": "1^6, 1^2 2^2, 1^2 4, 1 5, 2^3, 3^2, 6"},
    7: {
        "AGL(1,7)": "1^7, 1 2^3, 1 3^2, 1 6, 7",
        "PSL(3,2)": "1^7, 1^3 2^2, 1 2 4, 1 3^2, 7",
    },
    8: {
        "AGL(3,2)": "1^8, 1^4 2^2, 1^2 2 4, 1^2 3^2, 1 7, 2^4, 2 6, 4^2",
        "PGL(2,7)": "1^8, 1^2 2^3, 1^2 3^2, 1^2 6, 1 7, 2^4, 4^2, 8",
    },
    9: {
        "AGL(2,3)": "1^9, 1^3 2^3, 1^3 3^2, 1 2^4, 1 2 6, 1 4^2, 1 8, 3^3, 3 6",
        "PGammaL(2,8)": "1^9, 1^3 3^2, 1^2 7, 1 2^4, 1 2 6, 3^3, 9",
    },
    10: {
        "PGammaL(2,9)": "1^10, 1^4 2^3, 1^2 2^4, 1^2 4^2, 1^2 8, 1 3^3, 1 3 6, "
        "2^5, 2 4^2, 2 8, 5^2, 10",
    },
    11: {
        "AGL(1,11)": "1^11, 1 2^5, 1 5^2, 1 10, 11",
        "M11": "1^11, 1^3 2^4, 1^3 4^2, 1^2 3^3, 1 2 8, 1 5^2, 2 3 6, 11",
    },
    12: {
        "PGL(2,11)": "1^12, 1^2 2^5, 1^2 5^2, 1^2 10, 1 11, 2^6, 3^4, 4^3, 6^2, 12",
        "M12": "1^12, 1^4 2^4, 1^4 4^2, 1^3 3^3, 1^2 2 8, 1^2 5^2, 1 2 3 6, 1 11, "
        "2^6, 2^2 4^2, 2 10, 3^4, 4 8, 6^2",
    },
}


@cache
def _maximal_groups(m: int) -> tuple[tuple[str, frozenset[DegreePattern]], ...]:
    """(name, cycle types) for each group ``_MAXIMAL_PRIMITIVE`` lists at
    degree m, read once from its text: the types comma-separated, each its
    parts ascending with b^k for k parts b."""
    groups = []
    for name, text in _MAXIMAL_PRIMITIVE.get(m, {}).items():
        types = set()
        for written in text.split(","):
            parts: list[int] = []
            for token in written.split():
                part, _, k = token.partition("^")
                parts += [int(part)] * int(k or 1)
            types.add(tuple(parts))
        groups.append((name, frozenset(types)))
    return tuple(groups)


class _Rules:
    """The rule engine, fed one observation at a time.

    The rules only ask whether a pattern has been observed, so each distinct
    pattern is looked at once: it is checked against the square discriminant
    and the degree, and may supply one of the three facts the rules read:
    transitivity (one firing: R-trans at the first full cycle, R-irreducible
    when a factor search misses, or R-trans2 once the subset sums attainable
    at every prime, one bitmask, are {0, m}), primitivity (each block size
    ruled out by a pattern that no element keeping such blocks has) and a
    Jordan element (its first sighting), or R-maximal once each maximal
    group of ``_MAXIMAL_PRIMITIVE`` has been ruled out by a pattern it
    lacks.  The engine owns the proof state:
    ``proven`` says whether the facts so far prove the verdict, and
    ``conclude`` builds the verdict and the rules fired from them.  A cubic
    with square disc needs transitivity alone (R-alt3); so does a quadratic
    with one, which is reducible: its factor search runs at once and finds
    the factor.

    Given f's integer model, the engine searches it once for a factor of a
    degree <= m/2 attainable at every prime, when a miss completes the
    proof: transitivity is the one fact missing (``_alt_if_transitive``).
    A miss proves f irreducible (R-irreducible); a hit is a ``factor``
    witness, and the verdict stays ``Inconclusive``.
    Certification and replay always give the model; without one (None) the
    engine never searches, which tests use to check the rules on their own.
    """

    def __init__(self, m: int, disc_is_square: bool, model: UniPoly | None = None):
        self.m = m
        self.disc_is_square = disc_is_square
        self.model = model  # for the factor search; dropped once it has run
        self.parts: list | None = None  # of f mod the first observed prime
        self.observations: list[CycleTypeObservation] = []
        self.seen: set[DegreePattern] = set()
        # R-trans or R-irreducible; R-trans2 (common is {0, m}) is built at
        # conclusion, since its primes are all the observations
        self.transitivity: RuleFiring | None = None
        self.common = -1  # mask of the factor degrees every pattern allows
        self.factor: Witness | None = None  # the factor search hit
        # the sizes of block systems no pattern has ruled out yet; a
        # transitive group is primitive once there are none, at once for
        # a prime m
        self.open_sizes = {s for s in range(2, m // 2 + 1) if m % s == 0}
        self.ruled_out: list[tuple[CycleTypeObservation, list[int]]] = []
        # the maximal primitive groups without Alt(m) that no pattern has
        # ruled out yet, and the patterns that ruled out the others
        self.open_groups = _maximal_groups(m)
        self.struck: list[tuple[CycleTypeObservation, list[str]]] = []
        # R-jordan, or R-maximal once no open group is left
        self.element: RuleFiring | None = None

    def add(self, obs: CycleTypeObservation, parts: list | None = None) -> None:
        """Take one observation; ``parts``, if given, are f's distinct-degree
        parts mod obs.p (``degree_pattern``), which the factor search reuses
        when obs is the first observation."""
        self.observations.append(obs)
        if len(self.observations) == 1:
            self.parts = parts
        pattern, m = obs.pattern, self.m
        if pattern in self.seen:
            return
        self.seen.add(pattern)
        # parity of the permutation: even iff the sum of (part - 1) is even
        if self.disc_is_square and sum(part - 1 for part in pattern) % 2:
            raise DiscSquareInconsistency(
                f"square discriminant but odd cycle type {pattern} at p = {obs.p}"
            )
        if sum(pattern) != m:
            raise PatternReplayMismatch(
                f"cycle type {pattern} at p = {obs.p} does not sum to {m}"
            )
        gone = sorted(s for s in self.open_sizes if not _keeps_blocks(pattern, s))
        if gone:
            self.open_sizes.difference_update(gone)
            self.ruled_out.append((obs, gone))
        if self.element is None:
            self.element = _jordan_element(obs, m) or self._strike(obs)
        if not self.transitive:
            if pattern == (m,):
                self.transitivity = RuleFiring("R-trans", (obs.p,), f"irreducible mod {obs.p}")
            else:
                self.common &= _subset_sums(pattern)
                if not self.transitive and self.model is not None and self._alt_if_transitive:
                    self._search_factor()

    def _strike(self, obs: CycleTypeObservation) -> RuleFiring | None:
        """Rule out each open group that has no element of cycle type
        obs.pattern; R-maximal once none is left."""
        struck = [name for name, types in self.open_groups if obs.pattern not in types]
        if not struck:
            return None
        self.struck.append((obs, struck))
        self.open_groups = tuple(g for g in self.open_groups if g[0] not in struck)
        if self.open_groups:
            return None
        return RuleFiring(
            "R-maximal",
            tuple(o.p for o, _ in self.struck),
            "; ".join(
                f"pattern {o.pattern} at p = {o.p} rules out {', '.join(names)}"
                for o, names in self.struck
            ),
        )

    @property
    def transitive(self) -> bool:
        return self.transitivity is not None or self.common == 1 | 1 << self.m

    @property
    def _alt_if_transitive(self) -> bool:
        """Whether Alt(m) is inside Gal(f) once it is transitive: no block
        size open and a Jordan element or R-maximal, or (R-alt3) m = 3 and
        a square disc, Alt(3) being the one transitive group inside Alt(3),
        or m = 2 and a square disc, Alt(2) being trivial: such an f is
        reducible, so its factor search, run at once, finds the factor."""
        return (
            not self.open_sizes and self.element is not None
            or self.m <= 3 and self.disc_is_square
        )

    @property
    def proven(self) -> bool:
        """Whether the facts prove that Gal(f) contains Alt(m)."""
        return self.transitive and self._alt_if_transitive

    def _search_factor(self) -> None:
        """Search the model, once, for a factor of a degree <= m/2 that every
        pattern allows, at the first observed prime if it is good."""
        model, self.model, p = self.model, None, self.observations[0].p
        degrees = [d for d in range(1, self.m // 2 + 1) if self.common >> d & 1]
        found = _small_factor(model, p, degrees, self.parts)
        if found:
            self.factor = Witness("factor", found)
        elif found is not None:
            self.transitivity = RuleFiring(
                "R-irreducible",
                tuple(o.p for o in self.observations),
                f"no factor lifts from p = {p} in the degrees <= {self.m // 2} "
                f"attainable at every prime: {', '.join(map(str, degrees))}",
            )

    def conclude(self) -> tuple[GaloisVerdict, tuple[RuleFiring, ...]]:
        """The verdict and the rules fired, from the facts gathered so far."""
        fired: list[RuleFiring] = []
        if self.transitivity is not None:
            fired.append(self.transitivity)
        elif self.transitive:  # common is {0, m}
            primes = tuple(o.p for o in self.observations)
            detail = "no proper factor degree is attainable at every prime"
            fired.append(RuleFiring("R-trans2", primes, detail))
        if self.transitive and not self.open_sizes:  # primitive
            if self.ruled_out:
                primes = tuple(obs.p for obs, _ in self.ruled_out)
                detail = "; ".join(
                    f"pattern {obs.pattern} rules out blocks of size "
                    + ", ".join(map(str, sizes))
                    for obs, sizes in self.ruled_out
                )
            else:  # a prime degree has no proper block size
                primes, detail = (), f"prime degree {self.m}"
            fired.append(RuleFiring("R-primitive", primes, detail))
        if self.element is not None:
            fired.append(self.element)
        if not self.proven:
            return GaloisVerdict.INCONCLUSIVE, tuple(fired)
        if self.element is None:  # a cubic with square disc
            detail = "a transitive group of degree 3 with square disc is Alt(3)"
            fired.append(RuleFiring("R-alt3", (), detail))
            return GaloisVerdict.PROVEN_ALTERNATING, tuple(fired)
        if self.disc_is_square:
            verdict, sign = GaloisVerdict.PROVEN_ALTERNATING, "square disc keeps Alt"
        else:
            verdict, sign = GaloisVerdict.PROVEN_SYMMETRIC, "nonsquare disc forces Sym"
        fired.append(RuleFiring("R-sign", (), f"Alt({self.m}) inside; {sign}"))
        return verdict, tuple(fired)


def _evaluate_rules(
    m: int,
    disc_is_square: bool,
    observations: tuple[CycleTypeObservation, ...],
    model: UniPoly | None = None,
) -> tuple[GaloisVerdict, tuple[RuleFiring, ...]]:
    rules = _Rules(m, disc_is_square, model)
    for obs in observations:
        rules.add(obs)
    return rules.conclude()


def _check_prime_bound(prime_bound: int) -> None:
    if prime_bound < 2:
        raise InvalidInput("prime_bound must be >= 2")
    if prime_bound > MAX_PRIME_BOUND:
        raise InvalidInput(f"prime_bound must be <= {MAX_PRIME_BOUND}")


def certify_galois(f: UniPoly, prime_bound: int = DEFAULT_PRIME_BOUND) -> GaloisCertificate:
    """Prove what can be proved about Gal(f) from cycle types up to the bound."""
    if f.degree is None or f.degree < 2:
        raise InvalidInput("Galois certification needs degree >= 2")
    _check_prime_bound(prime_bound)
    return _certify(f, prime_bound, *_model_and_disc(f))


def _certify(
    f: UniPoly,
    prime_bound: int,
    model: UniPoly,
    model_disc: int,
    disc: Fraction,
    memo: dict | None = None,
    memo_bound: int = 0,
) -> GaloisCertificate:
    """``certify_galois`` on checked input, given ``_model_and_disc(f)``.

    ``memo``, if given, maps (p, model mod p) to the pattern and the
    distinct-degree parts ``degree_pattern`` found there, for the primes p
    <= ``memo_bound``; a scan shares it between its rows.  The pattern and
    the parts depend on the reduction alone, its discriminant's Legendre
    symbol included, so a hit is exact.
    """
    m: int = f.degree  # type: ignore[assignment]
    disc_is_square = rational_is_square(disc)
    rules = _Rules(m, disc_is_square, model)
    # a prime m has no block sizes, so no decomposition, but a Dickson
    # form's group is too small for Alt(m) all the same: nothing to sample
    dickson = _dickson_form(model) if m >= 5 and is_prime(m) else None
    witness = Witness("dickson", dickson) if dickson else None
    unscreened = set(rules.open_sizes)  # the sizes no screen has seen yet
    # the Frobenius lifts: at the first pattern (k, ..., k), k >= 2, when
    # the first patterns are homogeneous, and at the first inert reduction
    inert: PrimePoly | None = None
    lifted = False  # one lift chain a certificate, at most
    seen: list[PrimePoly] = []  # the reductions observed, screens for a lift
    reductions = () if witness else _good_reductions(model, model_disc, prime_bound)
    for a in reductions:
        if unscreened:
            # f = G(H) keeps the blocks {H = b}, of size deg H, so only the
            # sizes no pattern has ruled out can decompose; each is screened
            # once, at the first good prime where its screen is sound
            unscreened &= rules.open_sizes
            sizes = sorted(s for s in unscreened if 2 * s <= a.p and (m // s) % a.p)
            if sizes:
                unscreened.difference_update(sizes)
                witness = _decomposition(f, model, a, sizes)
                if witness:  # Gal(f) contains no Alt(m): sampling more is futile
                    break
        # the factor search runs at the first prime, so its parts are kept,
        # and so are those of every reduction the memo stores
        stored = memo is not None and a.p <= memo_bound
        hit = memo.get((a.p, a.coeffs)) if stored else None
        if hit:
            pattern, parts = hit[0], list(hit[1])
        else:
            parts = [] if stored or not rules.observations else None
            pattern = degree_pattern(a, model_disc, parts=parts)
            if stored:
                memo[a.p, a.coeffs] = pattern, tuple(parts)
        rules.add(CycleTypeObservation(a.p, pattern), parts)
        if rules.factor or rules.proven:
            witness = rules.factor
            break
        seen.append(a)
        if m >= 4 and len(seen) == _AUTOMORPHISM_STREAK and all(
            # in a regular action every element's cycles have one length
            o.pattern[0] == o.pattern[-1] for o in rules.observations
        ):
            observed = zip(seen, rules.observations)
            frobenius = next((b for b, o in observed if o.pattern[0] >= 2), None)
            if frobenius:
                lifted = True
                witness = _automorphism(model, frobenius, 1, seen)
        if inert is None and pattern == (m,):
            inert = a
        if inert and not lifted and len(seen) >= _INERT_GATE:
            # Aut(Q(alpha)) embeds in the Frobenius's cyclic group of order
            # m at an inert prime, so an automorphism of prime order l is
            # the Frobenius to the power m/l; l is a block size
            lifted = True
            for ell in sorted(rules.open_sizes):
                if is_prime(ell) and all(_commutes_with_shift(u, ell) for u in rules.seen):
                    witness = _automorphism(model, inert, m // ell, seen)
                    if witness:
                        break
        if witness:
            break
    verdict, fired = rules.conclude()
    return GaloisCertificate(
        polynomial=f,
        disc=disc,
        disc_is_square=disc_is_square,
        observations=tuple(rules.observations),
        rules_fired=fired,
        verdict=verdict,
        witness=witness,
    )


def replay_certificate(cert: GaloisCertificate, deep: bool = False) -> GaloisVerdict:
    """Re-check any witness and re-run the rule engine on the stored
    observations, with the polynomial's integer model, so that
    R-irreducible's factor search is re-run too.

    The witness is checked by its kind's entry in ``WITNESSES``.  One that
    fails its check, one of an unknown kind, of the wrong arity or with
    values the check cannot take, a witness beside a proven verdict and a
    pattern that does not sum to deg f raise ``PatternReplayMismatch``.  With
    deep=True every stored pattern is also recomputed from the polynomial by
    the full degree loop (no discriminant, so no parity shortcut), turning
    the replay into a re-derivation; a stored prime that is not good (no
    prime, above ``MAX_PRIME_BOUND``, or dividing lc or disc) and a pattern
    that does not recompute raise ``PatternReplayMismatch``.
    """
    m: int = cert.polynomial.degree  # type: ignore[assignment]
    if rational_is_square(cert.disc) != cert.disc_is_square:
        raise DiscSquareInconsistency("stored disc_is_square flag is wrong")
    if cert.witness is not None:
        kind, values = cert.witness.kind, cert.witness.values
        try:
            holds = WITNESSES[kind][0](cert.polynomial, *values)
        except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
            holds = False  # an unknown kind, a wrong arity or unusable values
        if not holds:
            raise PatternReplayMismatch(
                f"stored {kind} witness {values!r} does not hold for {cert.polynomial}"
            )
    model = integer_model(cert.polynomial)
    if deep:
        if discriminant(cert.polynomial) != cert.disc:
            raise DiscSquareInconsistency("stored discriminant is wrong")
        for obs in cert.observations:
            if not _is_good(model, obs.p):
                raise PatternReplayMismatch(f"stored p = {obs.p} is no good prime for f")
            fresh = degree_pattern(reduce_mod_p(model, obs.p))
            if fresh != obs.pattern:
                raise PatternReplayMismatch(
                    f"stored pattern {obs.pattern} at p = {obs.p} does not replay"
                )
    verdict, _ = _evaluate_rules(m, cert.disc_is_square, cert.observations, model)
    if cert.witness is not None and verdict is not GaloisVerdict.INCONCLUSIVE:
        raise PatternReplayMismatch(f"{verdict.value} beside a witness")
    return verdict
