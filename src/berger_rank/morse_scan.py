"""Morse tests and symmetric-specialization scans.

A polynomial h of degree m >= 2 over Q is Morse when its critical points
are simple (h' squarefree) and its critical values are pairwise distinct.
The critical values are the roots of D(t) = Res_x(h(x) - t, h'(x)), of
degree m - 1 in t, one root h(xi) per critical point xi with multiplicity.
A repeated critical point and two equal critical values both repeat a root
of D, so h is Morse iff disc(D) != 0: one discriminant.  Only when D has a
repeated root is disc(h') taken, to report whether h' is squarefree (a
linear h' has discriminant 1).

D is computed by evaluation and interpolation, all over Z.  With H = L h,
L the least positive integer that clears h's denominators, D(i) =
Res_x(h(x) - i, h'(x)) = Res_x(H(x) - L i, H'(x)) / L^(2m-1) for i = 0 ..
m - 1, so each value is one integer subresultant.  Their forward
differences are summed against the falling factorials t (t - 1) ... (t -
k + 1) scaled by (m - 1)!/k!, and the sum is divided once, by (m - 1)!
L^(2m-1).  This is exact because the leading x-coefficient of h(x) - t
does not depend on t, so evaluating at t = i commutes with taking the
resultant (Collins, J. ACM 18, 1971), and D has degree m - 1.  The Morse
test takes the discriminant of the integer sum N = (m - 1)! L^(2m-1) D
before that division: N has D's roots, so the squarefree test is the
same, and D's denominators are never cleared again.

``scan_A_h`` walks an integer range of constants c and reports, for each,
whether Gal(h - c) is provably the full symmetric group.  True only ever
means a ``ProvenSymmetric`` certificate.  False comes in flavors recorded
in ``reason``: a proved non-membership (rational root, hence reducible, or
a certified alternating group), a repeated root, or plain "unproven".  The
rational root is the least one, searched by p-adic lifting from the row's
first good prime (``galois_cert._rational_roots``), so no coefficient is
factored.  "unproven" also covers a row whose certificate ends on a
``factor`` witness, of degree >= 2 since the row has no rational root: h -
c is reducible then, but the reason keeps its name.  So does a row whose
certificate ends on an ``automorphism`` witness: the group then contains
no Alt(m), so not Sym(m) either, but the reason stays "unproven".

The rows share h, h' and, mod small primes, their reductions, so a scan
does that work once.  Every row's integer model and discriminants come
from one integer lift H = L h and one batch of resultants Res(H - L c, H')
(``exact_poly._shift_facts``, the routine ``certify_galois`` runs on one
polynomial).  The rows also share one memo of degree patterns
(``galois_cert._certify``), keyed by the prime p and the row's model mod
p, which holds each reduction's pattern and distinct-degree parts.  Rows
whose models agree mod p have one reduction, so a hit is exact; it covers
c = c' (mod p) when both rows have content 1.  Only the primes p <= c_max -
c_min are stored, since a reduction mod a larger p repeats inside the range
only when p divides L.  Rows of one content then hold at most p reductions
mod p, so the memo, which lives for one call, holds at most the sum of the
primes up to min(width, bound) per row content: 4,227 entries at the
default bound when every row is primitive, none for a one-row scan.  The
rows are certified one after another in the calling thread, so nothing else
touches the memo; ``scan_A_h``'s ``jobs`` must be 1.

``disjointness_filter`` keeps the pairs (c, d) whose quadratic resolvent
fields Q(sqrt(disc(h - c))) differ.  That is one square test: for nonzero
rationals a and b, Q(sqrt(a)) = Q(sqrt(b)) iff a * b is a rational square,
so no integer is factored.  ``quad_tag``, the squarefree part of the
discriminant, is a display field only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from ._record import Record
from .errors import FactorizationIncomplete, InvalidInput
from .exact_poly import (
    UniPoly,
    _cleared,
    _derivative_resultants,
    _shift_facts,
    derivative,
    discriminant,
    int_squarefree_part,
    rational_is_square,
)
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    GaloisCertificate,
    GaloisVerdict,
    _certify,
    _check_prime_bound,
    _good_primes,
    _rational_roots,
)

__all__ = [
    "MorseReport",
    "ScanResult",
    "is_morse",
    "critical_value_resultant",
    "scan_A_h",
    "disjointness_filter",
]


class MorseReport(Record):
    h: UniPoly
    derivative_squarefree: bool
    critical_value_disc_squarefree: bool
    critical_values_poly: UniPoly  # D(t), the evidence for the second flag
    is_morse: bool


class ScanResult(Record):
    c: int
    in_A_h: bool
    certificate: GaloisCertificate | None
    quad_tag: int | None  # squarefree part of disc(h - c); None = unknown
    reason: str


def _critical_values(h: UniPoly) -> tuple[UniPoly, UniPoly]:
    """(D, N): D(t) = Res_x(h(x) - t, h'(x)) and the integer polynomial N =
    (m-1)! L^(2m-1) D it is interpolated as, deg h = m >= 2."""
    tvar = "t" if h.var != "t" else "u"
    m = h.degree
    # H = L h over Z: Res_x(h - i, h') = Res_x(H - L i, H') / L^(2m-1)
    H, L = _cleared(h.coeffs)
    diffs = _derivative_resultants(H, [L * i for i in range(m)])
    # Newton's forward form over Z: (m-1)! L^(2m-1) D(t) = sum_k Delta^k
    # (L^(2m-1) D)(0) (m-1)!/k! t (t - 1) ... (t - k + 1), every term an
    # integer polynomial
    scale = math.factorial(m - 1)
    newton = []
    for k in range(m):
        newton.append(diffs[0] * (scale // math.factorial(k)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [newton[-1]]
    for k in range(m - 2, -1, -1):  # coeffs (t - k) + newton[k]
        coeffs = [a - k * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += newton[k]
    den = scale * L ** (2 * m - 1)
    D = UniPoly([Fraction(c, den) for c in coeffs], tvar)
    # one linear-in-t factor per critical point, counted with multiplicity
    assert D.degree == m - 1, "critical-value polynomial has wrong degree"
    return D, UniPoly(coeffs, tvar)


def critical_value_resultant(h: UniPoly) -> UniPoly:
    """D(t) = Res_x(h(x) - t, h'(x)), whose roots are the critical values."""
    if h.degree is None or h.degree < 2:
        raise InvalidInput("critical values need degree >= 2")
    return _critical_values(h)[0]


def is_morse(h: UniPoly) -> MorseReport:
    """Simple critical points and pairwise distinct critical values."""
    if h.degree is None or h.degree < 2:
        raise InvalidInput("Morse test needs degree >= 2")
    D, N = _critical_values(h)
    cv_squarefree = discriminant(N) != 0  # N = (m-1)! L^(2m-1) D has D's roots
    # a repeated critical point is a repeated root of D
    deriv_squarefree = cv_squarefree or discriminant(derivative(h)) != 0
    return MorseReport(
        h=h,
        derivative_squarefree=deriv_squarefree,
        critical_value_disc_squarefree=cv_squarefree,
        critical_values_poly=D,
        is_morse=cv_squarefree,
    )


# -- integer-range scan ----------------------------------------------------------


def _rational_root(model: UniPoly, model_disc: int):
    """The least rational root of the squarefree integer polynomial model,
    of discriminant ``model_disc``, by (|numerator|, denominator, negative
    after positive), or None if it has none.

    The roots are searched by p-adic lifting from the first good prime
    (``galois_cert._good_primes``, ``_rational_roots``), so no coefficient
    is factored.
    """
    if model.coeffs[0] == 0:
        return 0
    roots = _rational_roots(model, next(_good_primes(model, model_disc)))
    return roots[0] if roots else None


def _quad_tag(disc) -> int | None:
    """Squarefree part of a nonzero rational, as the integer tagging Q(sqrt(disc))."""
    try:
        return int_squarefree_part(disc.numerator * disc.denominator)
    except FactorizationIncomplete:
        return None


def _scan_one(
    fc: UniPoly, c: int, facts: tuple | None, prime_bound: int, memo: dict, memo_bound: int
) -> ScanResult:
    """The row of fc = h - c, given its ``_model_and_disc`` facts, None for
    a repeated root."""
    if facts is None:
        return ScanResult(c, False, None, None, "not squarefree")
    model, model_disc, disc = facts
    tag = _quad_tag(disc)
    root = _rational_root(model, model_disc)
    if root is not None:
        return ScanResult(
            c, False, None, tag, f"reducible: rational root {root}"
        )
    cert = _certify(fc, prime_bound, *facts, memo, memo_bound)
    if cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC:
        return ScanResult(c, True, cert, tag, "certified")
    if cert.verdict is GaloisVerdict.PROVEN_ALTERNATING:
        return ScanResult(c, False, cert, tag, "alternating, hence not symmetric")
    return ScanResult(c, False, cert, tag, "unproven")


def _rows(h: UniPoly, cs: range) -> Iterator[tuple[UniPoly, int, tuple | None]]:
    """(h - c, c, facts) for each c in cs, facts as ``_model_and_disc(h - c)``
    gives them or None when h - c has a repeated root, all from one batch
    (``exact_poly._shift_facts``)."""
    for c, facts in zip(cs, _shift_facts(h, cs)):
        # h - c is h with its constant term replaced
        yield UniPoly([h.coeffs[0] - c, *h.coeffs[1:]], h.var), c, facts


def scan_A_h(
    h: UniPoly,
    c_min: int,
    c_max: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    jobs: int = 1,
) -> list[ScanResult]:
    """Certify Gal(h - c) = Sym(deg h) for each integer c in [c_min, c_max].

    The rows are certified in order, in the calling thread.  ``jobs`` must
    be 1: it stays only because the benchmark passes ``jobs=1``, and it goes
    when the benchmark drops those calls (ROADMAP item 3).
    """
    if h.degree is None or h.degree < 2:
        raise InvalidInput("scan needs degree >= 2")
    if c_min > c_max:
        raise InvalidInput(f"empty range {c_min}..{c_max}")
    _check_prime_bound(prime_bound)
    if jobs != 1:
        raise InvalidInput(f"jobs must be 1, not {jobs}: a scan runs in the calling thread")
    # shared by the rows; only primes up to the width are stored (see above)
    memo: dict = {}
    width = c_max - c_min
    return [_scan_one(*row, prime_bound, memo, width) for row in _rows(h, range(c_min, c_max + 1))]


def disjointness_filter(results: list[ScanResult]) -> list[tuple[int, int]]:
    """Pairs (c, d) from certified rows whose quadratic resolvent fields differ,
    i.e. disc(h - c) * disc(h - d) is not a rational square.

    Rows with in_A_h false are a caller error.
    """
    for row in results:
        if not row.in_A_h:
            raise InvalidInput(
                f"disjointness_filter needs certified rows, c = {row.c} is not"
            )
    return [
        (a.c, b.c)
        for i, a in enumerate(results)
        for b in results[i + 1 :]
        if not rational_is_square(a.certificate.disc * b.certificate.disc)
    ]
