"""Certified rank verdicts for Jacobians along prime-power towers.

Setting: f(x) and g(y) squarefree over Q with degrees m, n >= 2, the curve
f(x) = t g(y) over the rational function field K = k(t) with k algebraically
closed of characteristic 0 or p, and the tower layers K_d = k(t^(1/d)) for
d = q = p^r.  The rank of the Jacobian over K_d obeys

    rank J(K_d) = rank Hom(J_{f,d}, J_{g,d})^(mu_d) - c1 * d + c2(d),
    c2(d) = (m-1)(n-1) + gcd(m, n, d) - 1,

with c1 >= 0 a constant of the pair, and c1 = 0 as soon as the Hom group
vanishes at a single layer d > c2(d).  Everything this module certifies is
a sufficient condition for that Hom group to vanish (or stay bounded), and
each condition is recorded as a ``HypothesisRecord`` so a verdict can be
audited after the fact.

Two vanishing routes are mechanized:

* CM route: g = y^n - a (a != 0).  The superelliptic side z^d = g(y) is
  dominated by a Fermat curve, so J_{g,d} is of CM type for every d.  If
  deg f >= 5 and Gal(f) provably contains Alt(m), each new factor of the
  f side is absolutely simple with cyclotomic endomorphism algebra and not
  CM, so Hom vanishes for every layer at once.  If deg f = 4 the same
  conclusion needs p odd, Gal(f) = Sym(4) proven, and one of
    (i)  Q(sqrt(disc f)) different from the quadratic field Q(sqrt(p*))
         inside the p-th cyclotomic field, p* = (-1)^((p-1)/2) p, decided
         by one square test: the fields agree iff disc(f) * p* is a
         rational square, so no integer is factored, or
    (ii) p unramified in the splitting field of f (p not dividing disc of
         the integer model).
* two-large route: m > n >= 4 with both Galois groups provably containing
  the alternating group (the quartic side needing the same (i)/(ii) side
  conditions).  Hom is then bounded independently of p and q, and vanishes
  outright unless p divides m and n = m - 1, where matching sublayers can
  still contribute.

Verdict kinds: ``ExactRank`` (rank = c2(q), all hypotheses hold),
``UpperBoundPlusConstant`` (rank <= c2(q) + epsilon with epsilon bounded
independently of p and q), or ``Inconclusive``.  The K_d/k-trace of the
Jacobian is zero for every validated pair, and the k(t)-geometric trace
statement is only claimed for the n = 2, m >= 5 CM family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import InvalidInput
from .exact_poly import (
    UniPoly,
    discriminant,
    integer_model,
    is_prime,
    rational_is_square,
)
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    GaloisCertificate,
    GaloisVerdict,
    certify_galois,
)
from .jacobian_invariants import CurvePair, TowerLayer, _check_layer_bits, berger_genus, c2

__all__ = [
    "Status",
    "VerdictKind",
    "HypothesisRecord",
    "RankVerdict",
    "is_binomial_cm",
    "quadratic_disjoint",
    "unramified_check",
    "check_hom_vanishing_cm",
    "check_hom_mgtn",
    "rank_verdict",
    "rank_table",
]


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


def _kleene(*statuses: Status, any_of: bool = False) -> Status:
    """Three-valued AND of the statuses, or OR with any_of (Kleene logic).

    One Fails (for OR, one Holds) decides; otherwise any Unknown leaves the
    result Unknown.
    """
    decisive = Status.HOLDS if any_of else Status.FAILS
    if decisive in statuses:
        return decisive
    if Status.UNKNOWN in statuses:
        return Status.UNKNOWN
    return Status.FAILS if any_of else Status.HOLDS


class VerdictKind(Enum):
    EXACT_RANK = "ExactRank"
    UPPER_BOUND_PLUS_CONSTANT = "UpperBoundPlusConstant"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class HypothesisRecord:
    """One named hypothesis with its status and supporting evidence."""

    name: str
    status: Status
    evidence: dict

    def __post_init__(self):
        if self.status is Status.HOLDS and not self.evidence:
            raise ValueError(f"hypothesis {self.name} holds without evidence")


@dataclass(frozen=True)
class RankVerdict:
    kind: VerdictKind
    layer: TowerLayer
    m: int
    n: int
    c2_value: int
    hypotheses: tuple[HypothesisRecord, ...]
    trace_Kd_zero: bool
    trace_geometric_zero: Status
    notes: tuple[str, ...]

    @property
    def rank(self) -> int | None:
        """The certified rank, only for ExactRank verdicts."""
        return self.c2_value if self.kind is VerdictKind.EXACT_RANK else None


def is_binomial_cm(g: UniPoly) -> Fraction | None:
    """The constant a when g is exactly y^n - a with a != 0, else None."""
    deg = g.degree
    if deg is None or deg < 2:
        return None
    if g.leading_coefficient != 1:
        return None
    if any(g.coefficient(k) != 0 for k in range(1, deg)):
        return None
    a = -g.coefficient(0)
    return a if a != 0 else None


def _galois_status(verdict: GaloisVerdict, need_symmetric: bool) -> Status:
    if need_symmetric:
        if verdict is GaloisVerdict.PROVEN_SYMMETRIC:
            return Status.HOLDS
        # a certified alternating group definitively is not Sym
        if verdict is GaloisVerdict.PROVEN_ALTERNATING:
            return Status.FAILS
        return Status.UNKNOWN
    # every proven verdict is Sym(m) or Alt(m), both of which contain Alt(m)
    return Status.UNKNOWN if verdict is GaloisVerdict.INCONCLUSIVE else Status.HOLDS


def _galois_record(name: str, cert: GaloisCertificate, need_symmetric: bool) -> HypothesisRecord:
    return HypothesisRecord(
        name,
        _galois_status(cert.verdict, need_symmetric),
        {
            "polynomial": cert.polynomial,
            "verdict": cert.verdict.value,
            "rules": tuple(r.rule for r in cert.rules_fired),
            "certificate": cert,
        },
    )


def quadratic_disjoint(f: UniPoly, p: int) -> HypothesisRecord:
    """Condition (i): Q(sqrt(disc f)) differs from the quadratic subfield of
    the p-th cyclotomic field, whose discriminant tag is p* = (-1)^((p-1)/2) p.
    """
    if f.degree != 4:
        raise InvalidInput("quadratic_disjoint needs deg f = 4")
    if p == 2 or not is_prime(p):
        raise InvalidInput("quadratic_disjoint needs an odd prime")
    disc = discriminant(f)
    if disc == 0:
        raise InvalidInput("f must be squarefree")
    p_star = p if p % 4 == 1 else -p
    # Q(sqrt(a)) = Q(sqrt(b)) for nonzero rationals a, b iff a * b is a square
    same_field = rational_is_square(disc * p_star)
    return HypothesisRecord(
        "quadratic-disjoint",
        Status.FAILS if same_field else Status.HOLDS,
        {
            "disc": disc,
            "cyclotomic_quadratic_tag": p_star,
            "disc_times_p_star_is_square": same_field,
        },
    )


def unramified_check(f: UniPoly, p: int) -> HypothesisRecord:
    """Condition (ii): p does not divide disc of the integer model of f.

    That makes p unramified in the splitting field, which forces the
    splitting field and the p-power cyclotomic fields to be linearly
    disjoint.  p dividing the discriminant decides nothing, so that case
    reports Unknown rather than Fails.
    """
    if f.degree is None or f.degree < 2:
        raise InvalidInput("unramified_check needs deg f >= 2")
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    disc = discriminant(integer_model(f))
    if disc == 0:
        raise InvalidInput("f must be squarefree")
    assert disc.denominator == 1
    d = disc.numerator
    if d % p != 0:
        return HypothesisRecord(
            "unramified", Status.HOLDS, {"disc": d, "p": p, "disc_mod_p": d % p}
        )
    return HypothesisRecord(
        "unramified",
        Status.UNKNOWN,
        {"disc": d, "p": p, "reason": f"{p} divides disc, ramification undecided"},
    )


def _quartic_side_conditions(
    f: UniPoly, p: int
) -> tuple[list[HypothesisRecord], Status]:
    """p odd plus ((i) or (ii)) for a quartic; shared by both routes."""
    p_odd = p != 2
    rec_odd = HypothesisRecord(
        "p-odd",
        Status.HOLDS if p_odd else Status.FAILS,
        {"p": p},
    )
    if p_odd:
        rec_i = quadratic_disjoint(f, p)
        rec_ii = unramified_check(f, p)
    else:
        reason = {"reason": "not evaluated, p = 2 already fails the route"}
        rec_i = HypothesisRecord("quadratic-disjoint", Status.UNKNOWN, reason)
        rec_ii = HypothesisRecord("unramified", Status.UNKNOWN, reason)
    side = _kleene(rec_odd.status, _kleene(rec_i.status, rec_ii.status, any_of=True))
    return [rec_odd, rec_i, rec_ii], side


def check_hom_vanishing_cm(
    f: UniPoly, p: int, prime_bound: int = DEFAULT_PRIME_BOUND
) -> list[HypothesisRecord]:
    """Hypotheses for Hom(J_f, J_CM) = 0 at every layer of the p-tower.

    The conclusion is independent of the layer exponent r: the Galois and
    ramification conditions only mention f and p.
    """
    m = f.degree
    if m is None or m < 4:
        raise InvalidInput("check_hom_vanishing_cm needs deg f >= 4")
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    cert = certify_galois(f, prime_bound)
    records: list[HypothesisRecord] = []
    if m >= 5:
        galois_rec = _galois_record("galois-f", cert, need_symmetric=False)
        records.append(galois_rec)
        overall = galois_rec.status
        evidence = {
            "argument": (
                "deg f >= 5 and Gal(f) contains Alt: every new factor of the "
                "f side is absolutely simple with cyclotomic endomorphism "
                "ring and not CM, so it admits no nonzero map to a CM "
                "abelian variety"
            ),
            "galois": cert.verdict.value,
        }
        records.append(HypothesisRecord("hom-vanishing-cm", overall, evidence))
        return records
    # m == 4
    galois_rec = _galois_record("galois-f", cert, need_symmetric=True)
    records.append(galois_rec)
    side_records, disjunction = _quartic_side_conditions(f, p)
    records += side_records
    records.append(
        HypothesisRecord(
            "hom-vanishing-cm",
            _kleene(galois_rec.status, disjunction),
            {
                "argument": (
                    "deg f = 4 needs p odd, Gal(f) = Sym(4), and a quadratic "
                    "or ramification disjointness condition"
                ),
                "galois": cert.verdict.value,
                "side_conditions": disjunction.value,
            },
        )
    )
    return records


def check_hom_mgtn(
    f: UniPoly, g: UniPoly, p: int, prime_bound: int = DEFAULT_PRIME_BOUND
) -> list[HypothesisRecord]:
    """Hypotheses for the m > n >= 4 route: bounded Hom, vanishing off the
    matching-sublayer locus (p | m and n = m - 1)."""
    m, n = f.degree, g.degree
    if m is None or n is None or not m > n >= 4:
        raise InvalidInput("check_hom_mgtn needs deg f > deg g >= 4")
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    records: list[HypothesisRecord] = []
    cert_f = certify_galois(f, prime_bound)
    rec_f = _galois_record("galois-f", cert_f, need_symmetric=False)
    records.append(rec_f)
    cert_g = certify_galois(g, prime_bound)
    if n >= 5:
        rec_g = _galois_record("galois-g", cert_g, need_symmetric=False)
        records.append(rec_g)
        g_side = rec_g.status
    else:
        rec_g = _galois_record("galois-g", cert_g, need_symmetric=True)
        records.append(rec_g)
        side_records, disjunction = _quartic_side_conditions(g, p)
        records += side_records
        g_side = _kleene(rec_g.status, disjunction)
    bounded = _kleene(rec_f.status, g_side)
    records.append(
        HypothesisRecord(
            "hom-bounded",
            bounded,
            {
                "argument": (
                    "both sides have new factors that are absolutely simple "
                    "with distinct cyclotomic endomorphism data, so Hom is "
                    "bounded independently of p and the layer"
                ),
                "galois_f": cert_f.verdict.value,
                "galois_g": cert_g.verdict.value,
            },
        )
    )
    if bounded is Status.HOLDS:
        p_splits_m = m % p == 0
        adjacent = n == m - 1
        if not p_splits_m or not adjacent:
            records.append(
                HypothesisRecord(
                    "exact-zero",
                    Status.HOLDS,
                    {
                        "argument": (
                            "new factors at levels q1, q2 can only match when "
                            "q1 = q2 divides m and n = m - 1; that locus is "
                            "empty here"
                        ),
                        "p_divides_m": p_splits_m,
                        "n_equals_m_minus_1": adjacent,
                    },
                )
            )
        else:
            records.append(
                HypothesisRecord(
                    "exact-zero",
                    Status.UNKNOWN,
                    {
                        "reason": (
                            "p divides m and n = m - 1, so matching sublayers "
                            "may carry nonzero maps"
                        ),
                        "p_divides_m": True,
                        "n_equals_m_minus_1": True,
                    },
                )
            )
    return records


@dataclass(frozen=True)
class _Analysis:
    """Layer-independent part of a rank computation."""

    m: int
    n: int
    route: str
    records: tuple[HypothesisRecord, ...]
    full_vanishing: bool
    bounded: bool
    base_notes: tuple[str, ...]


def _c1_zero_record(m: int, n: int, p: int) -> HypothesisRecord:
    threshold = (m - 1) * (n - 1) + gcd(m, n) - 1  # max of c2 over all layers
    r_witness = 1
    while p ** r_witness <= threshold:
        r_witness += 1
    return HypothesisRecord(
        "c1-zero",
        Status.HOLDS,
        {
            "argument": (
                "Hom vanishes at every layer, in particular at a layer "
                "d > c2(d), which forces the linear coefficient c1 to be 0"
            ),
            "c2_upper_bound": threshold,
            "witness_exponent": r_witness,
            "witness_layer": p ** r_witness,
        },
    )


_ELLIPTIC_NOTE = (
    "matched elliptic pair: f and g are the same trace-zero cubic "
    "x^3 - x - c; for a transcendental constant the tower ranks stay "
    "bounded, and no numeric rank is certified for this input"
)

_CUBIC_NOTE = (
    "deg f = 3 is outside the mechanized vanishing criteria; "
    "no rank statement is certified"
)

_QUADRATIC_NOTE = (
    "deg f = 2 makes both sides CM, where maps need not vanish; "
    "no rank statement is certified"
)

_NO_ROUTE_NOTE = (
    "no mechanized vanishing criterion applies to this (m, n) shape"
)

_EPSILON_NOTE = (
    "rank <= c2 + epsilon with epsilon bounded independently of p and the "
    "layer; matching sublayers were not excluded, so epsilon is not 0"
)


def _is_elliptic_config(f: UniPoly, g: UniPoly) -> bool:
    if f.degree != 3 or g.degree != 3:
        return False
    if tuple(f.coeffs) != tuple(g.coeffs):
        return False
    return (
        f.leading_coefficient == 1
        and f.coefficient(2) == 0
        and f.coefficient(1) == -1
    )


def _analyze(f: UniPoly, g: UniPoly, p: int, prime_bound: int) -> _Analysis:
    pair = CurvePair(f, g)  # validates degrees, variables, squarefreeness
    if not is_prime(p):
        raise InvalidInput(f"tower prime {p} is not prime")
    m, n = pair.m, pair.n
    records: list[HypothesisRecord] = []
    notes: list[str] = []
    full = False
    bounded = False
    a = is_binomial_cm(g)
    if a is not None:
        route = "cm-binomial"
        records.append(
            HypothesisRecord(
                "binomial-cm-g",
                Status.HOLDS,
                {
                    "constant": a,
                    "argument": (
                        "z^d = g(y) with g = y^n - a is dominated by a Fermat "
                        "curve, so the g side is CM at every layer"
                    ),
                },
            )
        )
        if m >= 4:
            cm_records = check_hom_vanishing_cm(f, p, prime_bound)
            records += cm_records
            overall = next(r for r in cm_records if r.name == "hom-vanishing-cm")
            full = overall.status is Status.HOLDS
        elif m == 3:
            route = "cubic"
            notes.append(_ELLIPTIC_NOTE if _is_elliptic_config(f, g) else _CUBIC_NOTE)
        else:
            route = "quadratic"
            notes.append(_QUADRATIC_NOTE)
    elif m > n >= 4:
        route = "two-large"
        mg_records = check_hom_mgtn(f, g, p, prime_bound)
        records += mg_records
        bounded_rec = next(r for r in mg_records if r.name == "hom-bounded")
        bounded = bounded_rec.status is Status.HOLDS
        exact_rec = next((r for r in mg_records if r.name == "exact-zero"), None)
        full = exact_rec is not None and exact_rec.status is Status.HOLDS
    else:
        if _is_elliptic_config(f, g):
            route = "cubic"
            notes.append(_ELLIPTIC_NOTE)
        else:
            route = "unsupported"
            notes.append(_NO_ROUTE_NOTE)
    if full:
        records.append(_c1_zero_record(m, n, p))
    return _Analysis(
        m=m,
        n=n,
        route=route,
        records=tuple(records),
        full_vanishing=full,
        bounded=bounded,
        base_notes=tuple(notes),
    )


def _assemble(analysis: _Analysis, p: int, r: int) -> RankVerdict:
    layer = TowerLayer(p, r)
    m, n = analysis.m, analysis.n
    c2_value = c2(m, n, layer.q)
    notes = list(analysis.base_notes)
    if n == 2 and m % 2 == 0:
        g_x = berger_genus(m, 2)
        alt = 2 * g_x + gcd(layer.q, 2) - 1
        notes.append(
            f"even m with n = 2: the reported constant is c2 = 2g_X + "
            f"gcd(2, q) = {c2_value}; the alternative closed form "
            f"2g_X+gcd(q,2)-1 = {alt} is one less at every layer and is "
            f"not the value certified here"
        )
    if analysis.full_vanishing:
        kind = VerdictKind.EXACT_RANK
    elif analysis.bounded:
        kind = VerdictKind.UPPER_BOUND_PLUS_CONSTANT
        notes.append(_EPSILON_NOTE)
    else:
        kind = VerdictKind.INCONCLUSIVE
    trace_geometric = (
        Status.HOLDS
        if (
            n == 2
            and m >= 5
            and analysis.route == "cm-binomial"
            and analysis.full_vanishing
        )
        else Status.UNKNOWN
    )
    return RankVerdict(
        kind=kind,
        layer=layer,
        m=m,
        n=n,
        c2_value=c2_value,
        hypotheses=analysis.records,
        trace_Kd_zero=True,
        trace_geometric_zero=trace_geometric,
        notes=tuple(notes),
    )


def rank_verdict(
    f: UniPoly,
    g: UniPoly,
    p: int,
    r: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> RankVerdict:
    """Certified verdict for the rank over the layer k(t^(1/p^r))."""
    return _assemble(_analyze(f, g, p, prime_bound), p, r)


def rank_table(
    f: UniPoly,
    g: UniPoly,
    p: int,
    r_max: int,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> list[RankVerdict]:
    """Verdicts for r = 0 .. r_max; certification work is done once."""
    if r_max < 0:
        raise InvalidInput("r_max must be >= 0")
    _check_layer_bits(p, r_max)
    analysis = _analyze(f, g, p, prime_bound)
    return [_assemble(analysis, p, r) for r in range(r_max + 1)]
