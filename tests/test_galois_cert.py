"""Galois-group certification: verdicts, rule soundness, replayability."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    MAX_PRIME_BOUND,
    DiscSquareInconsistency,
    GaloisVerdict,
    InternalCheckError,
    InvalidInput,
    NotSquarefree,
    PatternReplayMismatch,
    UniPoly,
    certify_galois,
    discriminant,
    integer_model,
    parse_poly,
    rational_is_square,
    replay_certificate,
    sample_cycle_types,
)
from berger_rank.galois_cert import CycleTypeObservation, _evaluate_rules

PROVEN = {GaloisVerdict.PROVEN_SYMMETRIC, GaloisVerdict.PROVEN_ALTERNATING}


class TestSampling:
    def test_good_primes_only(self):
        f = parse_poly("x^4 - x - 1")  # disc -283
        obs = sample_cycle_types(f, 20)
        primes = [ob.p for ob in obs]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19]
        for ob in obs:
            assert sum(ob.pattern) == 4
            assert ob.pattern == tuple(sorted(ob.pattern))

    def test_bad_primes_excluded(self):
        f = parse_poly("x^4 - x + 2")  # disc 2021 = 43 * 47
        primes = [ob.p for ob in sample_cycle_types(f, 50)]
        assert 43 not in primes
        assert 47 not in primes
        assert 2 in primes

    def test_repeated_roots_rejected(self):
        with pytest.raises(NotSquarefree):
            sample_cycle_types(parse_poly("(x-1)^2"), 10)


class TestVerdicts:
    def test_symmetric_family(self):
        # trinomials x^m - x - 1 have full symmetric group
        for m in (4, 5, 6, 7, 9):
            cert = certify_galois(parse_poly(f"x^{m} - x - 1"))
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC, m

    def test_quartic_certified_at_tiny_bound(self):
        cert = certify_galois(parse_poly("x^4 - x + 2"), prime_bound=5)
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        obs = {(ob.p, ob.pattern) for ob in cert.observations}
        assert obs == {(2, (1, 1, 2)), (3, (4,)), (5, (1, 3))}

    def test_cyclotomic_stays_unproven(self):
        # Galois group C4: must never be claimed symmetric or alternating
        cert = certify_galois(parse_poly("x^4 + x^3 + x^2 + x + 1"))
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE

    def test_biquadratic_stays_unproven(self):
        # x^4 + 1 has the Klein group, disc 256 is a square
        cert = certify_galois(parse_poly("x^4 + 1"))
        assert cert.disc_is_square
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE

    def test_cyclic_cubic_never_symmetric(self):
        # disc(x^3 - 3x - 1) = 81, a square: group inside Alt(3)
        cert = certify_galois(parse_poly("x^3 - 3x - 1"))
        assert cert.disc_is_square
        assert cert.verdict is not GaloisVerdict.PROVEN_SYMMETRIC

    def test_generic_cubic(self):
        cert = certify_galois(parse_poly("x^3 - x - 1"))  # disc -23
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC

    def test_quadratic(self):
        cert = certify_galois(parse_poly("x^2 + 1"))
        assert cert.verdict in PROVEN | {GaloisVerdict.INCONCLUSIVE}

    def test_inputs_rejected(self, monkeypatch):
        with pytest.raises(InvalidInput):
            certify_galois(parse_poly("x - 1"))
        with pytest.raises(InvalidInput):
            certify_galois(parse_poly("x^4 - x - 1"), prime_bound=1)
        # the prime-bound cap is checked before the sieve is allocated
        import berger_rank.galois_cert as gc

        def no_sieve(n):
            raise AssertionError(f"sieve allocated for bound {n}")

        monkeypatch.setattr(gc, "primes_up_to", no_sieve)
        for call in (certify_galois, sample_cycle_types):
            with pytest.raises(InvalidInput, match="prime_bound"):
                call(parse_poly("x^4 - x - 1"), MAX_PRIME_BOUND + 1)


class TestSoundness:
    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_square_disc_never_symmetric(self, low):
        f = UniPoly(tuple(low) + (1,))
        from berger_rank import discriminant

        if discriminant(f) == 0:
            return
        cert = certify_galois(f, prime_bound=60)
        if cert.disc_is_square:
            assert cert.verdict is not GaloisVerdict.PROVEN_SYMMETRIC
        else:
            assert cert.verdict is not GaloisVerdict.PROVEN_ALTERNATING

    def test_all_even_patterns_with_square_disc(self):
        # consistency guard: a transposition observation alongside a square
        # discriminant is a contradiction and must abort loudly
        with pytest.raises(DiscSquareInconsistency):
            _evaluate_rules(
                4,
                True,
                (CycleTypeObservation(11, (1, 1, 2)),),
            )

    def test_monotone_in_prime_bound(self):
        f = parse_poly("x^4 - x + 2")
        small = certify_galois(f, prime_bound=5)
        for bound in (20, 60, 200):
            again = certify_galois(f, prime_bound=bound)
            assert again.verdict is small.verdict

    def test_observations_grow_with_bound(self):
        f = parse_poly("x^5 - x - 1")
        a = certify_galois(f, prime_bound=20)
        b = certify_galois(f, prime_bound=100)
        pa = [ob.p for ob in a.observations]
        pb = [ob.p for ob in b.observations]
        assert set(pa) <= set(pb)


class TestReplay:
    def test_shallow_and_deep(self):
        for text in ("x^4 - x - 1", "x^5 - x - 1", "x^4 + 1", "x^9 - x - 1"):
            cert = certify_galois(parse_poly(text))
            assert replay_certificate(cert) is cert.verdict
            assert replay_certificate(cert, deep=True) is cert.verdict

    def test_replay_rejects_tampering(self):
        from dataclasses import replace

        cert = certify_galois(parse_poly("x^4 - x + 2"), prime_bound=5)
        # drop the transposition observation: the replay must not still
        # arrive at ProvenSymmetric
        kept = tuple(ob for ob in cert.observations if ob.pattern != (1, 1, 2))
        tampered = replace(cert, observations=kept)
        assert replay_certificate(tampered) is not GaloisVerdict.PROVEN_SYMMETRIC

    def test_deep_replay_rejects_tampered_pattern(self):
        from dataclasses import replace

        cert = certify_galois(parse_poly("x^4 - x + 2"), prime_bound=5)
        # x^4 - x + 2 is irreducible mod 3; claim a 1 + 3 split there instead
        swapped = tuple(
            replace(ob, pattern=(1, 3)) if ob.p == 3 else ob for ob in cert.observations
        )
        assert swapped != cert.observations
        tampered = replace(cert, observations=swapped)
        with pytest.raises(PatternReplayMismatch) as info:
            replay_certificate(tampered, deep=True)
        assert isinstance(info.value, InternalCheckError)  # CLI exit code 2


X = UniPoly((0, 1))


def _chebyshev(n):
    prev, cur = UniPoly((1,)), X
    for _ in range(n - 1):
        prev, cur = cur, 2 * X * cur - prev
    return cur


def _cyclotomic(n):
    out = X**n - 1
    for d in range(1, n):
        if n % d == 0:
            out = out // _cyclotomic(d)
    return out


def _truncated_exp(n):
    # sum of x^k / k! for k <= n; its Galois group is Alt(n) when 4 | n
    return UniPoly(tuple(Fraction(1, math.factorial(k)) for k in range(n + 1)))


# Degree 7-12 polynomials whose Galois group does not contain Alt(m): it
# lies in a wreath product, an affine group, a dihedral or an abelian group.
UNPROVABLE = [
    parse_poly("x^8 - 3x^6 + x^4 + 2x^2 - 5"),  # f(x^2)
    parse_poly("x^10 + 4x^8 - x^2 + 7"),
    parse_poly("x^12 - x^10 + 2x^4 - 3"),
    parse_poly("x^7 - 3"),  # x^n - a
    parse_poly("x^9 + 5"),
    parse_poly("x^11 - 12"),
    _chebyshev(7) - 3,  # T_n - c
    _chebyshev(10) + 5,
    _chebyshev(12) - 2,
    _cyclotomic(15),  # Phi_n, degree 8
    _cyclotomic(11),  # degree 10
    _cyclotomic(13),  # degree 12
]


class TestEarlyStop:
    @pytest.mark.parametrize("f", UNPROVABLE, ids=lambda f: f.render())
    def test_unprovable_families_sample_in_full(self, f):
        cert = certify_galois(f)
        assert 7 <= f.degree <= 12
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert cert.observations == sample_cycle_types(f, 200)

    @pytest.mark.parametrize("m", range(7, 13))
    def test_trinomial_stops_at_first_proof(self, m):
        # Gal(x^m - x - 1) = Sym(m) (Osada)
        f = parse_poly(f"x^{m} - x - 1")
        cert = certify_galois(f)
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        obs = cert.observations
        assert obs == sample_cycle_types(f, obs[-1].p)
        assert replay_certificate(cert, deep=True) is cert.verdict
        shorter = replace(cert, observations=obs[:-1])
        assert replay_certificate(shorter) is GaloisVerdict.INCONCLUSIVE

    @given(
        st.lists(st.integers(-9, 9), min_size=3, max_size=9),
        st.integers(1, 3),
        st.integers(2, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_verdict_equals_full_sampling(self, low, lead, bound):
        f = UniPoly(tuple(low) + (lead,))
        if discriminant(f) == 0:
            return
        cert = certify_galois(f, prime_bound=bound)
        full = sample_cycle_types(f, bound)
        verdict, _ = _evaluate_rules(f.degree, cert.disc_is_square, full)
        assert cert.verdict is verdict
        assert cert.observations == full[: len(cert.observations)]

    @pytest.mark.parametrize(
        "f",
        [
            parse_poly("x^3 - 3x - 1"),  # Alt(3)
            parse_poly("x^5 + 20x + 16"),  # Alt(5)
            _truncated_exp(8),  # Alt(8) (Schur)
            _truncated_exp(12),  # Alt(12)
        ],
        ids=lambda f: f"m={f.degree}",
    )
    def test_square_disc_guard_sees_every_prime(self, f):
        # a proven certificate's guard covers only its prefix, so the parity
        # and degree-sum checks are run here over the full sample
        m = f.degree
        assert rational_is_square(discriminant(f))
        full = sample_cycle_types(f, 200)
        assert len(full) >= 40
        verdict, _ = _evaluate_rules(m, True, full)
        cert = certify_galois(f)
        assert verdict is cert.verdict
        assert cert.observations == full[: len(cert.observations)]
        if m >= 8:
            assert verdict is GaloisVerdict.PROVEN_ALTERNATING
            assert len(cert.observations) < len(full)

    def test_discriminant_of_rational_polynomial(self):
        # the stored discriminant is rescaled from the integer model's
        f = parse_poly("x^5/6 - 2x^2/3 + 5/4")
        cert = certify_galois(f)
        assert cert.disc == discriminant(f)
        assert cert.disc != discriminant(integer_model(f))

