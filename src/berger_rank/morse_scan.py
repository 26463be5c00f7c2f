"""Morse tests and symmetric-specialization scans.

A polynomial h of degree m >= 2 over Q is Morse when its critical points
are simple (h' squarefree) and its critical values are pairwise distinct.
Both halves reduce to exact squarefreeness checks, each one discriminant:

* h' squarefree  iff  disc(h') != 0 (deg h' >= 1, and a linear h' has
  discriminant 1);
* the critical values are the roots of D(t) = Res_x(h(x) - t, h'(x)), a
  polynomial of degree m - 1 in t, and they are pairwise distinct (given
  simple critical points) iff D is squarefree, i.e. disc(D) != 0.

D is computed by evaluation and interpolation: D(i) = Res_x(h(x) - i, h'(x))
for i = 0 .. m - 1 by the integer subresultant ``resultant``, then Newton
interpolation over Q.  This is exact because the leading x-coefficient of
h(x) - t does not depend on t, so evaluating at t = i commutes with taking
the resultant (Collins, J. ACM 18, 1971), and D has degree m - 1.

``scan_A_h`` walks an integer range of constants c and reports, for each,
whether Gal(h - c) is provably the full symmetric group.  True only ever
means a ``ProvenSymmetric`` certificate.  False comes in flavors recorded
in ``reason``: a proved non-membership (rational root, hence reducible, or
a certified alternating group), a repeated root, or plain "unproven".

``disjointness_filter`` keeps the pairs (c, d) whose quadratic resolvent
fields Q(sqrt(disc(h - c))) differ.  That is one square test: for nonzero
rationals a and b, Q(sqrt(a)) = Q(sqrt(b)) iff a * b is a rational square,
so no integer is factored.  ``quad_tag``, the squarefree part of the
discriminant, is a display field only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorizationIncomplete, InvalidInput
from .exact_poly import (
    UniPoly,
    derivative,
    discriminant,
    int_squarefree_part,
    integer_model,
    factor_int,
    rational_is_square,
    resultant,
)
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    GaloisCertificate,
    GaloisVerdict,
    certify_galois,
)

__all__ = [
    "MorseReport",
    "ScanResult",
    "is_morse",
    "critical_value_resultant",
    "scan_A_h",
    "disjointness_filter",
]


@dataclass(frozen=True)
class MorseReport:
    h: UniPoly
    derivative_squarefree: bool
    critical_value_disc_squarefree: bool
    critical_values_poly: UniPoly  # D(t), the evidence for the second flag
    is_morse: bool


@dataclass(frozen=True)
class ScanResult:
    c: int
    in_A_h: bool
    certificate: GaloisCertificate | None
    quad_tag: int | None  # squarefree part of disc(h - c); None = unknown
    reason: str


def critical_value_resultant(h: UniPoly) -> UniPoly:
    """D(t) = Res_x(h(x) - t, h'(x)), whose roots are the critical values."""
    if h.degree is None or h.degree < 2:
        raise InvalidInput("critical values need degree >= 2")
    tvar = "t" if h.var != "t" else "u"
    m = h.degree
    hp = derivative(h)
    # Newton divided differences of D at the nodes 0 .. m - 1
    newton = [resultant(h - i, hp) for i in range(m)]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / j
    t = UniPoly.variable(tvar)
    D = UniPoly.constant(newton[-1], tvar)
    for k in range(m - 2, -1, -1):
        D = D * (t - k) + newton[k]
    # one linear-in-t factor per critical point, counted with multiplicity
    assert D.degree == m - 1, "critical-value polynomial has wrong degree"
    return D


def is_morse(h: UniPoly) -> MorseReport:
    """Simple critical points and pairwise distinct critical values."""
    if h.degree is None or h.degree < 2:
        raise InvalidInput("Morse test needs degree >= 2")
    hp = derivative(h)
    deriv_squarefree = discriminant(hp) != 0
    D = critical_value_resultant(h)
    cv_squarefree = discriminant(D) != 0
    return MorseReport(
        h=h,
        derivative_squarefree=deriv_squarefree,
        critical_value_disc_squarefree=cv_squarefree,
        critical_values_poly=D,
        is_morse=deriv_squarefree and cv_squarefree,
    )


# -- integer-range scan ----------------------------------------------------------


def _divisors_from_factorization(factors: dict[int, int]) -> list[int]:
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    return sorted(divisors)


def _rational_root(f: UniPoly):
    """Some rational root of f, or None if none exists (or none provable)."""
    coeffs = integer_model(f).coeffs
    if not coeffs:
        return None
    if coeffs[0] == 0:
        return 0
    try:
        nums = _divisors_from_factorization(factor_int(coeffs[0]))
        dens = _divisors_from_factorization(factor_int(coeffs[-1]))
    except FactorizationIncomplete:
        return None  # cannot enumerate candidates, let the certifier decide
    # den^d f(num/den) = sum a_i num^i den^(d-i): precompute a_i den^(d-i)
    # for i = d-1 .. 0 per denominator and test each candidate by integer
    # Horner, in the order nums x dens x (+, -)
    top = coeffs[-1]
    scaled_by_den = []
    for den in dens:
        scaled, dk = [], 1
        for a in reversed(coeffs[:-1]):
            dk *= den
            scaled.append(a * dk)
        scaled_by_den.append((den, scaled))
    for num in nums:
        for den, scaled in scaled_by_den:
            for cand in (num, -num):
                acc = top
                for a in scaled:
                    acc = acc * cand + a
                if acc == 0:
                    return Fraction(cand, den)
    return None


def _quad_tag(disc) -> int | None:
    """Squarefree part of a nonzero rational, as the integer tagging Q(sqrt(disc))."""
    try:
        return int_squarefree_part(disc.numerator * disc.denominator)
    except FactorizationIncomplete:
        return None


def _scan_one(h: UniPoly, c: int, prime_bound: int) -> ScanResult:
    fc = h - c
    disc = discriminant(fc)
    if disc == 0:
        return ScanResult(c, False, None, None, "not squarefree")
    tag = _quad_tag(disc)
    root = _rational_root(fc)
    if root is not None:
        return ScanResult(
            c, False, None, tag, f"reducible: rational root {root}"
        )
    cert = certify_galois(fc, prime_bound)
    if cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC:
        return ScanResult(c, True, cert, tag, "certified")
    if cert.verdict is GaloisVerdict.PROVEN_ALTERNATING:
        return ScanResult(c, False, cert, tag, "alternating, hence not symmetric")
    return ScanResult(c, False, cert, tag, "unproven")


def scan_A_h(
    h: UniPoly,
    c_min: int,
    c_max: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    jobs: int = 1,
) -> list[ScanResult]:
    """Certify Gal(h - c) = Sym(deg h) for each integer c in [c_min, c_max]."""
    if h.degree is None or h.degree < 2:
        raise InvalidInput("scan needs degree >= 2")
    if c_min > c_max:
        raise InvalidInput(f"empty range {c_min}..{c_max}")
    cs = range(c_min, c_max + 1)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda c: _scan_one(h, c, prime_bound), cs))
    return [_scan_one(h, c, prime_bound) for c in cs]


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
