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
audited after the fact.  The pair is validated before a route is chosen:
degrees, distinct variables, then f and g squarefree by one integer
resultant each (``galois_cert._model_and_disc``), whose integer model and
discriminants each side's certificate and condition (ii) below then reuse.

Both vanishing routes rest on one fact about a side of degree >= 4: each
of its new factors is absolutely simple with cyclotomic endomorphism
algebra and not CM.  One side check certifies it, for either route, when
deg >= 5 and Gal provably contains Alt, or for a quartic when p is odd,
Gal = Sym(4) is proven, and (i) Q(sqrt(disc f)) differs from the
quadratic field Q(sqrt(p*)) inside the p-th cyclotomic field, p* =
(-1)^((p-1)/2) p, decided by one square test: the fields agree iff
disc(f) * p* is a rational square, so no integer is factored.  Condition
(ii), p unramified in the splitting field of f (p prime to the disc of the
integer model), implies (i) and is reported as evidence only: such a p is
unramified in Q(sqrt(disc f)) but ramifies in Q(sqrt(p*)).
A certificate holding a witness (``GaloisCertificate.witness``, e.g. f = G(H)
or f = lc (D_m(x - b, alpha) - a)) makes the check fail outright: Gal(f)
then contains no Alt(m), so it holds neither Alt nor Sym, and no prime
bound could prove the side.

* CM route: g = y^n - a (a != 0), read off g's coefficients: leading
  coefficient 1, every coefficient strictly between the constant term and
  the top one zero, and a = -g(0), nonzero since g is squarefree.  The
  superelliptic side z^d = g(y) is dominated by a Fermat curve, so J_{g,d}
  is of CM type for every d.  When the side check holds for f, Hom
  vanishes for every layer at once.
* two-large route: m > n >= 4 with the side check holding for f and g.
  Hom is then bounded independently of p and q, and vanishes outright
  unless p divides m and n = m - 1, where matching sublayers can still
  contribute.

Verdict kinds: ``ExactRank`` (rank = c2(q), all hypotheses hold),
``UpperBoundPlusConstant`` (rank <= c2(q) + epsilon with epsilon bounded
independently of p and q), or ``Inconclusive``; the kind is read off the
records, ``ExactRank`` iff a ``c1-zero`` record is present, else the bound
iff ``hom-bounded`` holds.  The K_d/k-trace of the
Jacobian is zero for every validated pair, and the k(t)-geometric trace
statement is only claimed for the n = 2, m >= 5 CM family.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from ._record import Record
from .errors import InvalidInput, MultiVariableError, NotSquarefree
from .exact_poly import UniPoly, is_prime, rational_is_square
from .galois_cert import (
    DEFAULT_PRIME_BOUND,
    GaloisCertificate,
    GaloisVerdict,
    _certify,
    _check_prime_bound,
    _model_and_disc,
)
from .jacobian_invariants import TowerLayer, _check_layer_bits, c2

__all__ = [
    "Status",
    "VerdictKind",
    "HypothesisRecord",
    "RankVerdict",
    "rank_verdict",
    "rank_table",
]


class Status(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    UNKNOWN = "Unknown"


def _kleene(*statuses: Status) -> Status:
    """Three-valued AND (Kleene): one Fails decides, else one Unknown does."""
    if Status.FAILS in statuses:
        return Status.FAILS
    if Status.UNKNOWN in statuses:
        return Status.UNKNOWN
    return Status.HOLDS


class VerdictKind(Enum):
    EXACT_RANK = "ExactRank"
    UPPER_BOUND_PLUS_CONSTANT = "UpperBoundPlusConstant"
    INCONCLUSIVE = "Inconclusive"


class HypothesisRecord(Record):
    """One named hypothesis with its status and supporting evidence."""

    name: str
    status: Status
    evidence: dict

    def __post_init__(self):
        if self.status is Status.HOLDS and not self.evidence:
            raise ValueError(f"hypothesis {self.name} holds without evidence")


class RankVerdict(Record):
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


def _galois_status(cert: GaloisCertificate, need_symmetric: bool) -> Status:
    if cert.witness is not None:  # Gal(f) holds neither Alt nor Sym
        return Status.FAILS
    verdict = cert.verdict
    if need_symmetric:
        if verdict is GaloisVerdict.PROVEN_SYMMETRIC:
            return Status.HOLDS
        # a certified alternating group definitively is not Sym
        if verdict is GaloisVerdict.PROVEN_ALTERNATING:
            return Status.FAILS
        return Status.UNKNOWN
    # every proven verdict is Sym(m) or Alt(m), both of which contain Alt(m)
    return Status.UNKNOWN if verdict is GaloisVerdict.INCONCLUSIVE else Status.HOLDS


def _side_hypotheses(
    name: str, poly: UniPoly, facts: tuple, p: int, prime_bound: int
) -> tuple[list[HypothesisRecord], Status, Status | None]:
    """Whether the new factors of one side (deg >= 4) are absolutely simple
    with cyclotomic endomorphism algebra and not CM, the fact both routes
    rest on.

    deg >= 5 needs Gal ⊇ Alt; a quartic needs Gal = Sym(4), p odd and (i),
    which (ii) implies, so (ii) is evidence only.  Returns the side's
    records in payload order, the Galois record (its certificate and
    verdict in the evidence) first, the side's status, and for a quartic
    that of p odd and (i) alone.  ``facts`` is ``_model_and_disc``
    from ``_analyze``'s squarefree check; the certificate and (ii) reuse
    it.  Callers have checked p (prime) and the prime bound.
    """
    cert = _certify(poly, prime_bound, *facts)
    quartic = poly.degree == 4
    galois = HypothesisRecord(
        name,
        _galois_status(cert, need_symmetric=quartic),
        {
            "polynomial": cert.polynomial,
            "verdict": cert.verdict.value,
            "rules": tuple(r.rule for r in cert.rules_fired),
            "certificate": cert,
        },
    )
    if not quartic:
        return [galois], galois.status, None
    rec_odd = HypothesisRecord(
        "p-odd", Status.HOLDS if p != 2 else Status.FAILS, {"p": p}
    )
    if p == 2:
        reason = {"reason": "not evaluated, p = 2 already fails the route"}
        rec_i = HypothesisRecord("quadratic-disjoint", Status.UNKNOWN, reason)
        rec_ii = HypothesisRecord("unramified", Status.UNKNOWN, reason)
    else:
        # (i): Q(sqrt(a)) = Q(sqrt(b)) for nonzero rationals a, b iff a * b
        # is a square; cert.disc is disc(poly)
        p_star = p if p % 4 == 1 else -p
        same_field = rational_is_square(cert.disc * p_star)
        rec_i = HypothesisRecord(
            "quadratic-disjoint",
            Status.FAILS if same_field else Status.HOLDS,
            {
                "disc": cert.disc,
                "cyclotomic_quadratic_tag": p_star,
                "disc_times_p_star_is_square": same_field,
            },
        )
        # (ii), evidence only: p prime to disc of the integer model is
        # unramified in the splitting field; p dividing it decides nothing
        d = facts[1]
        if d % p:
            rec_ii = HypothesisRecord(
                "unramified", Status.HOLDS, {"disc": d, "p": p, "disc_mod_p": d % p}
            )
        else:
            reason = f"{p} divides disc, ramification undecided"
            rec_ii = HypothesisRecord(
                "unramified", Status.UNKNOWN, {"disc": d, "p": p, "reason": reason}
            )
    side = _kleene(rec_odd.status, rec_i.status)
    return [galois, rec_odd, rec_i, rec_ii], _kleene(galois.status, side), side


def _c1_zero_record(m: int, n: int, p: int) -> HypothesisRecord:
    threshold = c2(m, n, gcd(m, n))  # max of c2 over all layers
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
    return f.coeffs == g.coeffs and f.coeffs[1:] == (-1, 0, 1)


def _analyze(
    f: UniPoly, g: UniPoly, p: int, prime_bound: int
) -> tuple[tuple[HypothesisRecord, ...], tuple[str, ...]]:
    """The layer-independent records and notes.  Callers have checked the
    layer cap, which bounds p before it is tested for primality; this is
    the one test, and the layers are then built from the proved p.  The
    pair is validated first, each check on f before g."""
    for name, poly in (("f", f), ("g", g)):
        if poly.degree is None or poly.degree < 2:
            raise InvalidInput(f"{name} must have degree >= 2")
    if f.var == g.var:
        raise MultiVariableError(
            f"f and g must use distinct variables, both use {f.var!r}"
        )
    facts = []
    for name, poly in (("f", f), ("g", g)):
        try:
            facts.append(_model_and_disc(poly))
        except NotSquarefree:
            raise InvalidInput(f"{name} = {poly} is not squarefree") from None
    facts_f, facts_g = facts
    if not is_prime(p):
        raise InvalidInput(f"tower prime {p} is not prime")
    m, n = f.degree, g.degree
    records: list[HypothesisRecord] = []
    notes: list[str] = []
    # g = y^n - a exactly (see the module docstring)
    if g.leading_coefficient == 1 and not any(g.coeffs[1:-1]):
        records.append(
            HypothesisRecord(
                "binomial-cm-g",
                Status.HOLDS,
                {
                    "constant": -g.coeffs[0],
                    "argument": (
                        "z^d = g(y) with g = y^n - a is dominated by a Fermat "
                        "curve, so the g side is CM at every layer"
                    ),
                },
            )
        )
        if m >= 4:
            side_records, status, side = _side_hypotheses(
                "galois-f", f, facts_f, p, prime_bound
            )
            records += side_records
            evidence = {
                "argument": (
                    (
                        "deg f >= 5 and Gal(f) contains Alt: every new factor "
                        "of the f side is absolutely simple with cyclotomic "
                        "endomorphism ring and not CM, so it admits no nonzero "
                        "map to a CM abelian variety"
                    )
                    if side is None
                    else (
                        "deg f = 4 needs p odd, Gal(f) = Sym(4), and condition "
                        "(i): Q(sqrt(disc f)) is not Q(sqrt(p*))"
                    )
                ),
                "galois": side_records[0].evidence["verdict"],
            }
            if side is not None:
                evidence["side_conditions"] = side.value
            records.append(HypothesisRecord("hom-vanishing-cm", status, evidence))
        else:
            # a binomial g has no linear term, so f and g are never the
            # matched elliptic pair here
            notes.append(_CUBIC_NOTE if m == 3 else _QUADRATIC_NOTE)
    elif m > n >= 4:
        records_f, status_f, _ = _side_hypotheses(
            "galois-f", f, facts_f, p, prime_bound
        )
        records_g, status_g, _ = _side_hypotheses(
            "galois-g", g, facts_g, p, prime_bound
        )
        records += records_f + records_g
        status = _kleene(status_f, status_g)
        records.append(
            HypothesisRecord(
                "hom-bounded",
                status,
                {
                    "argument": (
                        "both sides have new factors that are absolutely simple "
                        "with distinct cyclotomic endomorphism data, so Hom is "
                        "bounded independently of p and the layer"
                    ),
                    "galois_f": records_f[0].evidence["verdict"],
                    "galois_g": records_g[0].evidence["verdict"],
                },
            )
        )
        if status is Status.HOLDS:
            p_divides_m, adjacent = m % p == 0, n == m - 1
            if p_divides_m and adjacent:
                status, key, text = Status.UNKNOWN, "reason", (
                    "p divides m and n = m - 1, so matching sublayers may "
                    "carry nonzero maps"
                )
            else:
                status, key, text = Status.HOLDS, "argument", (
                    "new factors at levels q1, q2 can only match when "
                    "q1 = q2 divides m and n = m - 1; that locus is empty here"
                )
            evidence = {
                key: text, "p_divides_m": p_divides_m, "n_equals_m_minus_1": adjacent
            }
            records.append(HypothesisRecord("exact-zero", status, evidence))
    else:
        notes.append(_ELLIPTIC_NOTE if _is_elliptic_config(f, g) else _NO_ROUTE_NOTE)
    # either record, when it holds, certifies Hom = 0 at every layer
    if any(
        h.status is Status.HOLDS and h.name in ("hom-vanishing-cm", "exact-zero")
        for h in records
    ):
        records.append(_c1_zero_record(m, n, p))
    return tuple(records), tuple(notes)


def _assemble(
    m: int, n: int, records: tuple, notes: tuple, p: int, r: int
) -> RankVerdict:
    """One layer's verdict from ``_analyze``'s records and notes."""
    layer = TowerLayer._of_prime(p, r)  # _analyze has proved p prime
    c2_value = c2(m, n, layer.q)
    notes = list(notes)
    if n == 2 and m % 2 == 0:
        alt = c2_value - 1  # 2g_X = m - 2 at n = 2, so c2 = 2g_X + gcd(2, q)
        notes.append(
            f"even m with n = 2: the reported constant is c2 = 2g_X + "
            f"gcd(2, q) = {c2_value}; the alternative closed form "
            f"2g_X+gcd(q,2)-1 = {alt} is one less at every layer and is "
            f"not the value certified here"
        )
    statuses = {h.name: h.status for h in records}
    vanishing = "c1-zero" in statuses
    if vanishing:
        kind = VerdictKind.EXACT_RANK
    elif statuses.get("hom-bounded") is Status.HOLDS:
        kind = VerdictKind.UPPER_BOUND_PLUS_CONSTANT
        notes.append(_EPSILON_NOTE)
    else:
        kind = VerdictKind.INCONCLUSIVE
    # at n = 2 only the CM route can vanish fully: two-large needs n >= 4
    trace_geometric = (
        Status.HOLDS if n == 2 and m >= 5 and vanishing else Status.UNKNOWN
    )
    return RankVerdict(
        kind=kind,
        layer=layer,
        m=m,
        n=n,
        c2_value=c2_value,
        hypotheses=records,
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
    if r < 0:
        raise InvalidInput("tower exponent r must be >= 0")
    _check_layer_bits(p, r)
    _check_prime_bound(prime_bound)
    records, notes = _analyze(f, g, p, prime_bound)
    return _assemble(f.degree, g.degree, records, notes, p, r)


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
    _check_prime_bound(prime_bound)
    records, notes = _analyze(f, g, p, prime_bound)
    m, n = f.degree, g.degree
    return [_assemble(m, n, records, notes, p, r) for r in range(r_max + 1)]
