"""Certified Galois-group verdicts from factor-degree patterns.

For a squarefree f over Q of degree m >= 2, reducing mod a prime p that
divides neither disc(f) nor the leading coefficient gives a factor-degree
pattern equal to the cycle type of a Frobenius element of Gal(f) acting on
the roots (Dedekind).  Observations are taken at the usable primes in
ascending order.  ``sample_cycle_types`` collects them for every usable p up
to a bound; ``certify_galois`` runs a fixed set of classical
permutation-group rules over them as they come and stops at the first prime
where the observations so far prove a verdict, so the bound is only a cap:

  R-trans    some pattern is {m}, so the group is transitive.
  R-trans2   the subset-sum degree sets of all patterns intersect in {0, m},
             so f is irreducible, so the group is transitive.
  R-transpo  a pattern with exactly one even part, equal to 2, and all other
             parts odd: raising that element to the odd lcm of the other
             parts leaves a transposition.
  R-mcycle   pattern {m} gives an m-cycle; {1, m-1} gives an (m-1)-cycle.
  R-jordan   transitivity plus a cycle of prime length L with
             m/2 < L < m - 2 forces the group to contain Alt(m).
  R-prime-deg  m prime + transitive + transposition proves Sym(m).
  R-classic  transitive + transposition + (m-1)-cycle proves Sym(m).
  R-sign     once Alt(m) is inside: nonsquare disc proves Sym(m), square
             disc proves Alt(m).

The verdict is sound, never complete: ``Inconclusive`` only ever means "not
proved with these observations", and enlarging the prime bound can only
strengthen it.  The rules only ask whether a pattern has been observed, so
stopping at the first proof is sound; an ``Inconclusive`` certificate holds
every usable prime up to the bound.  Bounds above ``MAX_PRIME_BOUND`` raise
``InvalidInput`` before the prime sieve is allocated.  A square discriminant
together with an odd observed pattern is mathematically impossible, so that
combination raises ``DiscSquareInconsistency`` and aborts rather than
returning anything.
The guard sees only the observations a certificate holds, so on a proven
certificate it covers the primes up to the proving prime, not the bound.

Sampling passes the model's discriminant to ``degree_pattern``, which may
then end its degree loop early by the parity of the factor count
(Stickelberger).  A ``GaloisCertificate`` stores the observations and fired
rules, and ``replay_certificate`` re-runs the rule engine on the stored
observations (no re-sampling) to confirm the recorded verdict; a deep replay
recomputes every pattern without the discriminant, by the full loop.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .errors import (
    DiscSquareInconsistency,
    InvalidInput,
    NotSquarefree,
    PatternReplayMismatch,
)
from .exact_poly import (
    UniPoly,
    discriminant,
    integer_model,
    is_prime,
    primes_up_to,
    rational_is_square,
)
from .modp_factor import DegreePattern, degree_pattern, reduce_mod_p

__all__ = [
    "GaloisVerdict",
    "CycleTypeObservation",
    "RuleFiring",
    "GaloisCertificate",
    "sample_cycle_types",
    "certify_galois",
    "replay_certificate",
    "DEFAULT_PRIME_BOUND",
    "MAX_PRIME_BOUND",
]

DEFAULT_PRIME_BOUND = 200
# The prime sieve allocates prime_bound + 1 bytes, so larger bounds are
# rejected before any work is done.
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


class GaloisCertificate(Record):
    polynomial: UniPoly
    disc: Fraction
    disc_is_square: bool
    observations: tuple[CycleTypeObservation, ...]
    rules_fired: tuple[RuleFiring, ...]
    verdict: GaloisVerdict


def sample_cycle_types(
    f: UniPoly, prime_bound: int
) -> tuple[CycleTypeObservation, ...]:
    """Cycle-type observations at every prime p <= bound with good reduction.

    Good reduction means p divides neither the discriminant nor the leading
    coefficient of the primitive integer model of f, so the pattern mod p is
    squarefree and has full degree.
    """
    if prime_bound > MAX_PRIME_BOUND:
        raise InvalidInput(f"prime_bound must be <= {MAX_PRIME_BOUND}")
    if f.degree is None or f.degree < 1:
        raise InvalidInput("cycle types need degree >= 1")
    model, model_disc = _model_and_disc(f)
    return tuple(_cycle_types(model, model_disc, prime_bound))


def _model_and_disc(f: UniPoly) -> tuple[UniPoly, Fraction]:
    """The primitive integer model of f and its (integer) discriminant."""
    model = integer_model(f)
    disc = discriminant(model)
    if disc == 0:
        raise NotSquarefree(f"{f} has a repeated root")
    assert disc.denominator == 1
    return model, disc


def _cycle_types(
    model: UniPoly, model_disc: Fraction, prime_bound: int
) -> Iterator[CycleTypeObservation]:
    """Observations at the good primes <= bound, ascending, one at a time."""
    disc = model_disc.numerator
    bad = abs(disc * model.leading_coefficient)
    for p in primes_up_to(prime_bound):
        if bad % p:
            # the model is an integer lift of its reduction, of full degree
            # at a good p, so its discriminant lets the factoring stop early
            yield CycleTypeObservation(p, degree_pattern(reduce_mod_p(model, p), disc))


# -- rule engine -----------------------------------------------------------


def _pattern_is_even(pattern: DegreePattern) -> bool:
    """Parity of the permutation: even iff sum of (part - 1) is even."""
    return sum(part - 1 for part in pattern) % 2 == 0


def _is_transposition_source(pattern: DegreePattern) -> bool:
    evens = [part for part in pattern if part % 2 == 0]
    return evens == [2]


def _subset_sums(pattern: DegreePattern) -> frozenset[int]:
    sums = {0}
    for part in pattern:
        sums |= {s + part for s in sums}
    return frozenset(sums)


def _jordan_length(pattern: DegreePattern, m: int) -> int | None:
    """A prime part L with m/2 < L < m - 2, if present.

    No other part of the pattern can be a multiple of L (two copies would
    exceed m), so raising the element to the lcm of the remaining parts
    leaves a pure L-cycle.
    """
    for part in pattern:
        if 2 * part > m and part < m - 2 and is_prime(part):
            return part
    return None


def _evaluate_rules(
    m: int, disc_is_square: bool, observations: tuple[CycleTypeObservation, ...]
) -> tuple[GaloisVerdict, tuple[RuleFiring, ...]]:
    for obs in observations:
        if disc_is_square and not _pattern_is_even(obs.pattern):
            raise DiscSquareInconsistency(
                f"square discriminant but odd cycle type {obs.pattern} at p = {obs.p}"
            )
        if sum(obs.pattern) != m:
            raise DiscSquareInconsistency(
                f"cycle type {obs.pattern} at p = {obs.p} does not sum to {m}"
            )

    fired: list[RuleFiring] = []

    transitive = False
    full_obs = next((o for o in observations if o.pattern == (m,)), None)
    if full_obs is not None:
        transitive = True
        fired.append(
            RuleFiring("R-trans", (full_obs.p,), f"irreducible mod {full_obs.p}")
        )
    elif observations:
        common = frozenset.intersection(
            *(_subset_sums(o.pattern) for o in observations)
        )
        if common == frozenset({0, m}):
            transitive = True
            fired.append(
                RuleFiring(
                    "R-trans2",
                    tuple(o.p for o in observations),
                    "no proper factor degree is attainable at every prime",
                )
            )

    transpo = next(
        (o for o in observations if _is_transposition_source(o.pattern)), None
    )
    if transpo is not None:
        odd_lcm = math.lcm(*(part for part in transpo.pattern if part != 2), 1)
        fired.append(
            RuleFiring(
                "R-transpo",
                (transpo.p,),
                f"pattern {transpo.pattern}: power {odd_lcm} is a transposition",
            )
        )

    if full_obs is not None:
        fired.append(RuleFiring("R-mcycle", (full_obs.p,), f"{m}-cycle"))
    m1_cycle = None
    if m >= 3:
        m1_cycle = next(
            (o for o in observations if o.pattern == tuple(sorted((1, m - 1)))), None
        )
        if m1_cycle is not None:
            fired.append(RuleFiring("R-mcycle", (m1_cycle.p,), f"{m - 1}-cycle"))

    jordan = None
    if transitive:
        for obs in observations:
            length = _jordan_length(obs.pattern, m)
            if length is not None:
                jordan = (obs, length)
                break

    verdict = GaloisVerdict.INCONCLUSIVE
    if is_prime(m) and transitive and transpo:
        fired.append(
            RuleFiring(
                "R-prime-deg",
                (transpo.p,),
                f"prime degree {m}: transitive is primitive, transposition "
                "forces Sym",
            )
        )
        verdict = GaloisVerdict.PROVEN_SYMMETRIC
    elif transitive and transpo and m1_cycle:
        fired.append(
            RuleFiring(
                "R-classic",
                tuple(sorted({transpo.p, m1_cycle.p})),
                f"transitive + transposition + {m - 1}-cycle",
            )
        )
        verdict = GaloisVerdict.PROVEN_SYMMETRIC
    elif jordan is not None:
        obs, length = jordan
        fired.append(
            RuleFiring(
                "R-jordan",
                (obs.p,),
                f"prime {length}-cycle with {m}/2 < {length} < {m} - 2",
            )
        )
        fired.append(
            RuleFiring(
                "R-sign",
                (),
                "square discriminant keeps Alt"
                if disc_is_square
                else "nonsquare discriminant forces Sym",
            )
        )
        verdict = (
            GaloisVerdict.PROVEN_ALTERNATING
            if disc_is_square
            else GaloisVerdict.PROVEN_SYMMETRIC
        )

    if verdict is GaloisVerdict.PROVEN_SYMMETRIC and disc_is_square:
        raise DiscSquareInconsistency(
            "Sym verdict with square discriminant; rule engine is broken"
        )
    return verdict, tuple(fired)


@lru_cache(maxsize=512)
def _certify_cached(f: UniPoly, prime_bound: int) -> GaloisCertificate:
    m: int = f.degree  # type: ignore[assignment]
    model, model_disc = _model_and_disc(f)
    # f = scale * model, and disc(c * f) = c^(2m - 2) * disc(f)
    scale = Fraction(f.leading_coefficient, model.leading_coefficient)
    disc = model_disc * scale ** (2 * m - 2)
    disc_is_square = rational_is_square(disc)

    # The verdict depends only on the set of patterns observed, and a proven
    # verdict needs a Jordan prime part (R-jordan) or a transposition source
    # together with m prime (R-prime-deg) or an (m-1)-cycle (R-classic), so
    # the rules are re-run on one observation per distinct pattern, and only
    # once the patterns seen supply one of these.
    observations: list[CycleTypeObservation] = []
    first_seen: dict[DegreePattern, CycleTypeObservation] = {}
    m1_pattern = tuple(sorted((1, m - 1)))
    jordan = transpo = False
    for obs in _cycle_types(model, model_disc, prime_bound):
        observations.append(obs)
        if obs.pattern in first_seen:
            continue
        first_seen[obs.pattern] = obs
        jordan = jordan or _jordan_length(obs.pattern, m) is not None
        transpo = transpo or _is_transposition_source(obs.pattern)
        if jordan or (transpo and (is_prime(m) or m1_pattern in first_seen)):
            verdict, _ = _evaluate_rules(
                m, disc_is_square, tuple(first_seen.values())
            )
            if verdict is not GaloisVerdict.INCONCLUSIVE:
                break

    verdict, fired = _evaluate_rules(m, disc_is_square, tuple(observations))
    return GaloisCertificate(
        polynomial=f,
        disc=disc,
        disc_is_square=disc_is_square,
        observations=tuple(observations),
        rules_fired=fired,
        verdict=verdict,
    )


def certify_galois(f: UniPoly, prime_bound: int = DEFAULT_PRIME_BOUND) -> GaloisCertificate:
    """Prove what can be proved about Gal(f) from cycle types up to the bound."""
    if f.degree is None or f.degree < 2:
        raise InvalidInput("Galois certification needs degree >= 2")
    if prime_bound < 2:
        raise InvalidInput("prime_bound must be >= 2")
    if prime_bound > MAX_PRIME_BOUND:
        raise InvalidInput(f"prime_bound must be <= {MAX_PRIME_BOUND}")
    return _certify_cached(f, prime_bound)


def replay_certificate(cert: GaloisCertificate, deep: bool = False) -> GaloisVerdict:
    """Re-run the rule engine on the stored observations.

    With deep=True every stored pattern is also recomputed from the
    polynomial by the full degree loop (no discriminant, so no parity
    shortcut), turning the replay into a re-derivation; a pattern that
    does not recompute raises ``PatternReplayMismatch``.
    """
    m: int = cert.polynomial.degree  # type: ignore[assignment]
    if rational_is_square(cert.disc) != cert.disc_is_square:
        raise DiscSquareInconsistency("stored disc_is_square flag is wrong")
    if deep:
        model = integer_model(cert.polynomial)
        if discriminant(cert.polynomial) != cert.disc:
            raise DiscSquareInconsistency("stored discriminant is wrong")
        for obs in cert.observations:
            fresh = degree_pattern(reduce_mod_p(model, obs.p))
            if fresh != obs.pattern:
                raise PatternReplayMismatch(
                    f"stored pattern {obs.pattern} at p = {obs.p} does not replay"
                )
    verdict, _ = _evaluate_rules(m, cert.disc_is_square, cert.observations)
    return verdict

