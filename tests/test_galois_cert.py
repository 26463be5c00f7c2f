"""Galois-group certification: verdicts, rule soundness, replayability."""

import itertools
import math
import time
from dataclasses import replace
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import example, given, settings
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
    Witness,
    certify_galois,
    discriminant,
    integer_model,
    is_prime,
    parse_poly,
    rational_is_square,
    replay_certificate,
    sample_cycle_types,
)
from berger_rank import galois_cert
from berger_rank.galois_cert import CycleTypeObservation, _dickson_form, _evaluate_rules

PROVEN = {GaloisVerdict.PROVEN_SYMMETRIC, GaloisVerdict.PROVEN_ALTERNATING}


def _values(cert, kind):
    """The values of the certificate's witness when it is of this kind."""
    if cert.witness is not None and cert.witness.kind == kind:
        return cert.witness.values
    return None


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

    def test_constant_rejected(self):
        with pytest.raises(InvalidInput, match="degree >= 1"):
            sample_cycle_types(parse_poly("5"), 10)

    def test_primes_are_sieved_segment_by_segment(self):
        # the segments (200, 400], (400, 800], ... give the primes of one
        # sieve, and a certificate that stops at p = 3 sieves no further
        # whatever its bound, alone or on every row of a scan
        import time
        from itertools import takewhile

        from berger_rank import primes_up_to, scan_A_h

        assert list(takewhile(lambda p: p <= 10**5, galois_cert._primes())) == primes_up_to(10**5)
        f = parse_poly("x^7 - x - 1")
        assert certify_galois(f, MAX_PRIME_BOUND) == certify_galois(f)
        h = parse_poly("x^5 - 3x + 1")
        assert scan_A_h(h, -10, 10, prime_bound=MAX_PRIME_BOUND) == scan_A_h(h, -10, 10)
        elapsed = []
        for _ in range(3):  # the best of three, as the machine is shared
            start = time.perf_counter()
            certify_galois(f, MAX_PRIME_BOUND)
            middle = time.perf_counter()
            scan_A_h(h, -10, 10, prime_bound=MAX_PRIME_BOUND)
            elapsed.append((middle - start, time.perf_counter() - middle))
        # a sieve to 10^6 alone took 70 ms
        assert min(e[0] for e in elapsed) < 0.02
        assert min(e[1] for e in elapsed) < 0.2


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

    @pytest.mark.parametrize("bound", [1, 0, -5])
    def test_sampling_rejects_a_bound_below_two(self, bound):
        # as certification does, instead of sampling no prime
        f = parse_poly("x^4 - x - 1")
        for call in (certify_galois, sample_cycle_types):
            with pytest.raises(InvalidInput, match="prime_bound must be >= 2"):
                call(f, bound)


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
        # drop the primitivity observation (the 3-cycle at p = 5): a
        # transposition and a 4-cycle both keep blocks of size 2, so they
        # alone must not still replay as ProvenSymmetric
        kept = tuple(ob for ob in cert.observations if ob.pattern != (1, 3))
        assert [ob.pattern for ob in kept] == [(1, 1, 2), (4,)]
        tampered = replace(cert, observations=kept)
        assert replay_certificate(tampered) is not GaloisVerdict.PROVEN_SYMMETRIC
        # without the 4-cycle, replay proves transitivity from f itself: the
        # patterns leave only a linear factor possible and the factor
        # search finds none
        kept = tuple(ob for ob in cert.observations if ob.pattern != (4,))
        verdict, fired = _evaluate_rules(4, False, kept, integer_model(cert.polynomial))
        assert "R-irreducible" in [r.rule for r in fired]
        assert replay_certificate(replace(cert, observations=kept)) is verdict

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

    def test_deep_replay_rejects_tampered_pattern_at_2(self):
        # p = 2 takes the bitmask loop; its one pattern proves Sym(40)
        cert = certify_galois(parse_poly("x^40 - x - 1"))
        assert cert.observations == (CycleTypeObservation(2, (3, 10, 13, 14)),)
        assert replay_certificate(cert, deep=True) is GaloisVerdict.PROVEN_SYMMETRIC
        # a 4 + 9 split in place of 3 + 10 proves the same, so only the deep
        # replay's fresh pattern can tell
        tampered = replace(cert, observations=(CycleTypeObservation(2, (4, 9, 13, 14)),))
        assert replay_certificate(tampered) is GaloisVerdict.PROVEN_SYMMETRIC
        with pytest.raises(PatternReplayMismatch, match="at p = 2 does not replay"):
            replay_certificate(tampered, deep=True)

    def test_deep_replay_runs_the_full_loop(self, monkeypatch):
        # certification passes the discriminant, so degree_pattern may stop
        # early by parity; deep replay passes none and re-derives every
        # pattern by the full loop, which checks that shortcut independently
        cert = certify_galois(parse_poly("x^9 - x - 1"))
        calls = []
        real = galois_cert.degree_pattern

        def recording(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(galois_cert, "degree_pattern", recording)
        assert replay_certificate(cert, deep=True) is cert.verdict
        assert calls == [((), {})] * len(cert.observations)
        calls.clear()
        assert certify_galois(parse_poly("x^9 - x - 1")) == cert
        assert all(args == (cert.disc.numerator,) for args, _ in calls)

    @pytest.mark.parametrize(
        "text, p",
        [
            ("x^5 - x - 1", 19),  # divides disc = 2869 = 19 * 151
            ("x^5 - x - 1", 4),  # no prime
            ("x^5 - x - 1", 1),
            ("x^5 - x - 1", 2**64 + 13),  # a prime above MAX_PRIME_BOUND
            ("2x^5 - x - 1", 2),  # divides lc
        ],
    )
    def test_deep_replay_rejects_a_stored_bad_prime(self, text, p):
        # shallow replay reads only the patterns; deep replay recomputes
        # each one, which is defined only at a good prime
        cert = certify_galois(parse_poly(text))
        added = replace(cert, observations=(*cert.observations, CycleTypeObservation(p, (5,))))
        with pytest.raises(PatternReplayMismatch, match=f"p = {p} is no good prime"):
            replay_certificate(added, deep=True)

    def test_replay_rejects_a_wrong_disc(self):
        cert = certify_galois(parse_poly("x^5 - x - 1"))
        flipped = replace(cert, disc_is_square=not cert.disc_is_square)
        for deep in (False, True):
            with pytest.raises(DiscSquareInconsistency, match="flag is wrong"):
                replay_certificate(flipped, deep=deep)
        # 4 times the discriminant keeps its square class: only deep
        # replay, which recomputes disc(f), sees it
        scaled = replace(cert, disc=4 * cert.disc)
        assert replay_certificate(scaled) is cert.verdict
        with pytest.raises(DiscSquareInconsistency, match="stored discriminant is wrong"):
            replay_certificate(scaled, deep=True)

    def test_replay_rejects_a_pattern_of_the_wrong_degree(self):
        cert = certify_galois(parse_poly("x^5 - x - 1"))
        short = replace(cert, observations=(CycleTypeObservation(3, (1, 3)),))
        with pytest.raises(PatternReplayMismatch, match=r"\(1, 3\) at p = 3 does not sum to 5"):
            replay_certificate(short)


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
        # no family samples in full any more: a decomposition witness ends
        # the sampling at the first good prime where the screen of its size
        # is sound, a Dickson witness of a prime degree ends it before the
        # first prime, and the cyclotomic polynomials, whose groups are
        # abelian, end on an automorphism once their first patterns are
        # homogeneous
        cert = certify_galois(f)
        assert 7 <= f.degree <= 12
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        full = sample_cycle_types(f, 200)
        if _values(cert, "dickson") is not None:
            assert is_prime(f.degree) and cert.observations == ()
        elif _values(cert, "decomposition") is not None:
            stop = _first_eligible_prime(f, _values(cert, "decomposition")[1].degree)
            assert cert.observations == tuple(o for o in full if o.p < stop)
        else:
            assert _values(cert, "automorphism") is not None
            assert cert.observations == full[: galois_cert._AUTOMORPHISM_STREAK]
        assert (_values(cert, "automorphism") is not None) == (f in UNPROVABLE[-3:])
        assert cert.observations != full

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
    @example([3, 0, 0], 1, 2)  # x^3 + 3 at p = 2: (1, 2) and no rational root
    @settings(max_examples=80, deadline=None)
    def test_verdict_equals_full_sampling(self, low, lead, bound):
        f = UniPoly(tuple(low) + (lead,))
        if discriminant(f) == 0:
            return
        cert = certify_galois(f, prime_bound=bound)
        full = sample_cycle_types(f, bound)
        # the engine searches f itself for a rational root, so it is given
        # f's model, as certification is
        model = integer_model(f)
        verdict, _ = _evaluate_rules(f.degree, cert.disc_is_square, full, model)
        assert cert.verdict is verdict
        assert cert.observations == full[: len(cert.observations)]
        if verdict in PROVEN:
            # the stop is exact: one observation fewer proves nothing
            shorter, _ = _evaluate_rules(
                f.degree, cert.disc_is_square, cert.observations[:-1], model
            )
            assert shorter is GaloisVerdict.INCONCLUSIVE

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

    def test_rules_wait_for_a_provable_pattern_set(self, monkeypatch):
        # f(x^2) is imprimitive, so no rule can prove it: it holds Jordan
        # elements (transpositions) but no primitivity witness.  The engine
        # tells a proof by its proof state, so the verdict is built once, on
        # the full sample, never once per prime or per fact gained.
        calls = []
        real = galois_cert._Rules.conclude

        def counting(rules):
            calls.append(len(rules.observations))
            return real(rules)

        monkeypatch.setattr(galois_cert._Rules, "conclude", counting)
        # the decomposition witness would end the sampling, and so would
        # the automorphism theta = -x lifted from the inert prime 5: turn
        # both off
        monkeypatch.setattr(galois_cert, "_decomposition", lambda f, model, a, sizes: None)
        monkeypatch.setattr(galois_cert, "_automorphism", lambda *args: None)
        cert = certify_galois(parse_poly("x^8+3x^6-2x^4+5x^2+2"))
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert [r.rule for r in cert.rules_fired] == ["R-trans", "R-jordan"]
        assert len(cert.observations) >= 40
        assert calls == [len(cert.observations)]

    def test_scan_concludes_once_per_certificate(self, monkeypatch):
        # every scan row that certifies concludes once, after its sampling,
        # whether it ends proved, on a witness or at the bound
        from berger_rank import scan_A_h

        calls = []
        real = galois_cert._Rules.conclude

        def counting(rules):
            calls.append(len(rules.observations))
            return real(rules)

        monkeypatch.setattr(galois_cert._Rules, "conclude", counting)
        rows = scan_A_h(parse_poly("x^7 - x"), -30, 30)
        certified = [row.certificate for row in rows if row.certificate is not None]
        assert len(certified) >= 40
        assert calls == [len(cert.observations) for cert in certified]

    def test_discriminant_of_rational_polynomial(self):
        # the stored discriminant is rescaled from the integer model's
        f = parse_poly("x^5/6 - 2x^2/3 + 5/4")
        cert = certify_galois(f)
        assert cert.disc == discriminant(f)
        assert cert.disc != discriminant(integer_model(f))



def _cycle_type(g):
    """The cycle type of a sympy permutation, as a sorted pattern."""
    return tuple(sorted(n for n, k in g.cycle_structure.items() for _ in range(k)))


def _group_patterns(group):
    """The cycle type of every element of a sympy permutation group."""
    return {_cycle_type(g) for g in group.generate()}


def _transitive_groups(m):
    """(name, group) for each transitive group of degree m, up to conjugacy."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    if m <= 6:
        galois = pytest.importorskip("sympy.combinatorics.galois")
        names = getattr(galois, f"S{m}TransitiveSubgroups")
        return [(g.value, g.get_perm_group()) for g in names]
    perm, group = combinatorics.Permutation, combinatorics.PermutationGroup
    cycle = perm([(i + 1) % 7 for i in range(7)])

    def affine(a):  # i -> a * i on Z/7
        return perm([a * i % 7 for i in range(7)])

    psl32 = group(cycle, perm([[0, 1], [2, 5]], size=7))
    assert psl32.order() == 168
    return [
        ("C7", group(cycle)),
        ("D7", group(cycle, affine(6))),
        ("F21", group(cycle, affine(2))),
        ("F42", group(cycle, affine(3))),
        ("PSL(3,2)", psl32),
        ("A7", combinatorics.AlternatingGroup(7)),
        ("S7", combinatorics.SymmetricGroup(7)),
    ]


class TestJordanRule:
    @pytest.mark.parametrize("m", range(3, 8))
    def test_every_transitive_group(self, m):
        # every cycle type of G observed, with disc square iff G <= Alt(m):
        # the rules prove exactly the groups containing Alt(m), Alt(3) by
        # R-alt3 from its full 3-cycle and square disc
        groups = _transitive_groups(m)
        names = {name for name, _ in groups}
        assert len(groups) == {3: 2, 4: 5, 5: 5, 6: 16, 7: 7}[m]
        assert {6: {"PSL2(F5)", "PGL2(F5)", "G72"}, 7: {"PSL(3,2)"}}.get(m, set()) <= names
        for name, group in groups:
            assert group.degree == m and group.is_transitive(), name
            patterns = _group_patterns(group)
            square = all(g.is_even for g in group.generators)
            obs = tuple(CycleTypeObservation(i, t) for i, t in enumerate(sorted(patterns)))
            verdict, fired = _evaluate_rules(m, square, obs)
            if 2 * group.order() < math.factorial(m):
                assert verdict is GaloisVerdict.INCONCLUSIVE, (name, fired)
            elif square:
                assert verdict is GaloisVerdict.PROVEN_ALTERNATING, name
            else:
                assert verdict is GaloisVerdict.PROVEN_SYMMETRIC, name

    @pytest.mark.parametrize(
        "text, verdict, stop",
        [
            ("x^5 + 20x + 16", GaloisVerdict.PROVEN_ALTERNATING, 7),  # A5
            ("x^6 + 24x - 20", GaloisVerdict.PROVEN_ALTERNATING, 23),  # A6
            ("x^7 - 154x + 99", GaloisVerdict.INCONCLUSIVE, 199),  # PSL(3,2)
            ("x^7 - 7x + 3", GaloisVerdict.INCONCLUSIVE, 199),  # Trinks: PSL(2,7)
            ("x^5 - 5x + 12", GaloisVerdict.INCONCLUSIVE, 199),  # D5
        ],
    )
    def test_named_inputs(self, text, verdict, stop):
        cert = certify_galois(parse_poly(text))
        assert cert.verdict is verdict
        assert cert.observations[-1].p == stop
        assert _values(cert, "dickson") is None
        assert replay_certificate(cert, deep=True) is verdict

    def test_never_more_than_sympy_finds(self):
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(16)
        x = sympy.Symbol("x")
        checked = 0
        while checked < 30:
            m = rng.randint(3, 6)
            coeffs = [rng.randint(-4, 4) for _ in range(m)] + [1]
            if rng.random() < 0.5:  # trinomials x^m + ax + b
                coeffs[2:m] = [0] * (m - 2)
            f = UniPoly(tuple(coeffs))
            if discriminant(f) == 0:
                continue
            cert = certify_galois(f)
            poly = sympy.Poly(list(reversed(coeffs)), x)
            if not poly.is_irreducible:
                assert cert.verdict is GaloisVerdict.INCONCLUSIVE, f
                continue
            order = sympy.galois_group(poly, by_name=False)[0].order()
            checked += 1
            if 2 * order >= math.factorial(m):  # Alt(m) inside: no witness
                assert cert.witness is None, f
            if cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC:
                assert order == math.factorial(m), f
            elif cert.verdict is GaloisVerdict.PROVEN_ALTERNATING:
                assert 2 * order == math.factorial(m), f

    @pytest.mark.parametrize("text", ["x^3 - 3x + 1", "x^3 + x^2 - 2x - 1"])
    def test_cyclic_cubic_is_alternating_at_its_first_good_prime(self, text):
        # an irreducible cubic with square disc has Gal = Alt(3): R-alt3
        # proves it as soon as the pattern (3) shows transitivity, at p = 2
        cert = certify_galois(parse_poly(text))
        assert cert.verdict is GaloisVerdict.PROVEN_ALTERNATING
        assert cert.observations == (CycleTypeObservation(2, (3,)),)
        assert [r.rule for r in cert.rules_fired] == ["R-trans", "R-primitive", "R-alt3"]
        assert replay_certificate(cert, deep=True) is GaloisVerdict.PROVEN_ALTERNATING

    def test_symmetric_cubic_keeps_its_observations(self):
        # a nonsquare disc still needs the Jordan element, at p = 5
        cert = certify_galois(parse_poly("x^3 - x - 1"))
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert [o.p for o in cert.observations] == [2, 3, 5]
        assert "R-alt3" not in [r.rule for r in cert.rules_fired]

    def test_reducible_cubic_with_square_disc_is_not_proven(self):
        # x^3 - x = (x + 1) x (x - 1) has disc 4, a square, but no pattern
        # shows transitivity; with R-alt3 transitivity is the one fact
        # missing, so the factor search runs at once and finds x at p = 3
        cert = certify_galois(parse_poly("x^3 - x"))
        assert cert.disc_is_square and cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert cert.observations == (CycleTypeObservation(3, (1, 1, 1)),)
        assert cert.witness == Witness("factor", (parse_poly("x"),))
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    @pytest.mark.parametrize(
        "text, factor",
        [("x^2 - 4", "x - 2"), ("3x^2 - 12", "x - 2"), ("4x^2 - 1", "x - 1/2"),
         ("x^2 - 1/4", "x - 1/2")],
    )
    def test_reducible_quadratic_with_square_disc_is_not_proven(self, text, factor):
        # the quadratic twin: a square disc leaves Alt(2), the trivial group,
        # so transitivity is again the one fact missing, and the factor
        # search at the first prime ends the sampling on its hit, where every
        # good prime below 200 was sampled for nothing
        cert = certify_galois(parse_poly(text))
        assert cert.disc_is_square and cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert len(cert.observations) == 1 and cert.observations[0].pattern == (1, 1)
        assert cert.witness == Witness("factor", (parse_poly(factor),))
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    def test_irreducible_quadratics_are_unchanged(self):
        for text in ("x^2 + 1", "x^2 - 2"):
            cert = certify_galois(parse_poly(text))
            assert not cert.disc_is_square and cert.witness is None
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
            assert replay_certificate(cert, deep=True) is GaloisVerdict.PROVEN_SYMMETRIC


def _primitive_groups():
    """(name, group, order, number of cycle types) for proper primitive
    groups of degree 5-12, each built from generators: the 13 maximal ones
    that do not contain Alt(m), PSL(2, 7), S5 on pairs and PSL(2, 11).
    F_q = F_p[a]/(a^k - low(a)) has the elements z = sum d_j a^j, numbered
    by their base-p digits d_j (a = 0 when k = 1, so F_p is the residues).
    PSL(2, q), PGL(2, q) and PGammaL(2, q) act on P^1(F_q) by Mobius maps
    and z -> z^p, infinity numbered q; AGL(k, p) acts on F_q = F_p^k by
    affine maps; S5 acts on the ten 2-subsets of {0, ..., 4}."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perm, group = combinatorics.Permutation, combinatorics.PermutationGroup

    def field(p, low):  # (p, q, add, mul) for F_q, q = p^k, k = len(low)
        k = len(low)

        def digits(z):
            return [z // p**j % p for j in range(k)]

        def add(x, y):
            return sum((u + v) % p * p**j for j, (u, v) in enumerate(zip(digits(x), digits(y))))

        def mul(x, y):
            prod = [0] * (2 * k - 1)
            for i, u in enumerate(digits(x)):
                for j, v in enumerate(digits(y)):
                    prod[i + j] += u * v
            for d in range(2 * k - 2, k - 1, -1):  # a^d = a^(d - k) low(a)
                for j, c in enumerate(low):
                    prod[d - k + j] += prod[d] * c
            return sum(c % p * p**j for j, c in enumerate(prod[:k]))

        return p, p**k, add, mul

    def mobius(F, a, b, c, d):  # z -> (az + b) / (cz + d)
        _, q, add, mul = F
        inverse = {x: y for x in range(1, q) for y in range(1, q) if mul(x, y) == 1}

        def image(z):
            num, den = (a, c) if z == q else (add(mul(a, z), b), add(mul(c, z), d))
            return q if den == 0 else mul(num, inverse[den])

        return perm([image(z) for z in range(q + 1)])

    def line(F, minus_one, g):  # z -> z + 1 and z -> -1/z, then z -> gz
        psl = [mobius(F, 1, 1, 0, 1), mobius(F, 0, minus_one, 1, 0)]
        return psl, psl + [mobius(F, g, 0, 0, 1)]

    def frobenius(F):  # z -> z^p
        p, q, _, mul = F
        return perm([*(reduce(mul, [z] * p) for z in range(q)), q])

    def affine(F, g):  # z -> z + 1, z -> gz and (d0, d1, ...) -> (d0 + d1, d1, ...)
        p, q, add, mul = F
        maps = (lambda z: add(z, 1), lambda z: mul(g, z), lambda z: add(z, z // p % p))
        return group([perm([f(z) for z in range(q)]) for f in maps])

    f8, f9 = field(2, [1, 1, 0]), field(3, [2, 0])  # a^3 = a + 1; i^2 = -1
    psl7, pgl7 = map(group, line(field(7, [0]), 6, 3))
    psl11, pgl11 = map(group, line(field(11, [0]), 10, 2))
    pgaml8 = group(line(f8, 1, 2)[1] + [frobenius(f8)])  # g = a
    pgaml9 = group(line(f9, 2, 4)[1] + [frobenius(f9)])  # g = 1 + i
    pairs = list(itertools.combinations(range(5), 2))

    def on_pairs(s):  # the permutation s of {0, ..., 4} acting on pairs
        return perm([pairs.index(tuple(sorted((s[a], s[b])))) for a, b in pairs])

    def affine_line(p, g):  # z -> z + 1 and z -> gz on F_p, g a generator
        return group(perm([(z + 1) % p for z in range(p)]), perm([g * z % p for z in range(p)]))

    shift = perm([(z + 1) % 11 for z in range(11)])
    return [
        ("AGL(1,5)", affine_line(5, 2), 20, 4),
        ("PGL(2,5)", group(line(field(5, [0]), 4, 2)[1]), 120, 7),
        ("AGL(1,7)", affine_line(7, 3), 42, 5),
        # the Fano plane's collineations on its points, the lines {i, i+1, i+3}
        ("PSL(3,2)", group(perm([(z + 1) % 7 for z in range(7)]),
                           perm([[0, 1], [2, 5]], size=7)), 168, 5),
        ("PSL(2,7)", psl7, 168, 5),
        ("PGL(2,7)", pgl7, 336, 8),
        ("AGL(3,2)", affine(f8, 2), 1344, 8),  # g = a, a Singer cycle
        ("AGL(2,3)", affine(f9, 4), 432, 9),  # g = 1 + i, a Singer cycle
        ("PGammaL(2,8)", pgaml8, 1512, 7),
        ("PGammaL(2,9)", pgaml9, 1440, 12),
        ("S5 on pairs", group(on_pairs([1, 2, 3, 4, 0]), on_pairs([1, 0, 2, 3, 4])), 120, 7),
        ("AGL(1,11)", group(shift, perm([2 * z % 11 for z in range(11)])), 110, 5),
        ("M11", group(shift, perm([[2, 6, 10, 7], [3, 9, 4, 5]], size=11)), 7920, 8),
        ("PSL(2,11)", psl11, 660, 6),
        ("PGL(2,11)", pgl11, 1320, 10),
        # PSL(2, 11) and one more involution on P^1(F_11); the 15 ATLAS
        # classes give 14 cycle types on 12 points, 11A and 11B both 1 11
        ("M12", group(*line(field(11, [0]), 10, 2)[0],
                      perm([[2, 10], [3, 4], [5, 9], [6, 7]], size=12)), 95040, 14),
    ]


@cache
def _primitive_cycle_types():
    """(name, degree, whether the group lies in Alt(m), its cycle types) for
    each group of ``_primitive_groups``: every cycle type, read off
    uniformly random elements (Schreier-Sims unranking) until the group's
    pinned count of types is reached, so a missed class fails; random draws
    seldom hit the identity, whose type is added at the start."""
    import random

    rng = random.Random(8)
    out = []
    for name, group, order, count in _primitive_groups():
        m = group.degree
        assert group.order() == order and group.is_primitive(), name
        patterns = {(1,) * m}
        for _ in range(2000):
            if len(patterns) == count:
                break
            patterns.add(_cycle_type(group.coset_unrank(rng.randrange(order))))
        assert len(patterns) == count, name
        out.append((name, m, all(g.is_even for g in group.generators), frozenset(patterns)))
    return out


class TestPrimitiveGroupsOfDegree8To12:
    # no polynomial oracle reaches degrees 8-12, so the rule engine is fed
    # cycle types straight from the groups, with disc square iff G <= Alt(m);
    # the groups of degree 5-7 that the R-maximal table lists are fed too

    def test_proper_groups_are_not_proven(self):
        start = time.perf_counter()
        for name, m, square, patterns in _primitive_cycle_types():
            obs = tuple(CycleTypeObservation(i, t) for i, t in enumerate(sorted(patterns)))
            verdict, fired = _evaluate_rules(m, square, obs)
            assert verdict is GaloisVerdict.INCONCLUSIVE, (name, fired)
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("m", [8, 11, 12])
    def test_full_groups_are_proven(self, m):
        # 32 seeded random elements of Alt(m) or Sym(m) give cycle types
        # enough for the rules to prove the group (at most 16 were needed
        # over 200 seeds), so the rules are complete on the full groups
        import random

        combinatorics = pytest.importorskip("sympy.combinatorics")
        start = time.perf_counter()
        rng = random.Random(m)
        for group, verdict in [
            (combinatorics.AlternatingGroup(m), GaloisVerdict.PROVEN_ALTERNATING),
            (combinatorics.SymmetricGroup(m), GaloisVerdict.PROVEN_SYMMETRIC),
        ]:
            order = group.order()
            patterns = {_cycle_type(group.coset_unrank(rng.randrange(order))) for _ in range(32)}
            obs = tuple(CycleTypeObservation(i, t) for i, t in enumerate(sorted(patterns)))
            square = verdict is GaloisVerdict.PROVEN_ALTERNATING
            assert _evaluate_rules(m, square, obs)[0] is verdict, (m, square)
        assert time.perf_counter() - start < 30


class TestMaximalPrimitiveTable:
    """R-maximal: the table of maximal primitive groups without Alt(m)."""

    MAXIMAL = {
        5: {"AGL(1,5)"}, 6: {"PGL(2,5)"}, 7: {"AGL(1,7)", "PSL(3,2)"},
        8: {"AGL(3,2)", "PGL(2,7)"}, 9: {"AGL(2,3)", "PGammaL(2,8)"},
        10: {"PGammaL(2,9)"}, 11: {"AGL(1,11)", "M11"}, 12: {"PGL(2,11)", "M12"},
    }

    def test_table_is_the_generated_cycle_types(self):
        # group by group, the table's cycle types are those the generators
        # give, up to each group's pinned class count: 102 in all
        table = {m: galois_cert._maximal_groups(m) for m in galois_cert._MAXIMAL_PRIMITIVE}
        assert {m: {name for name, _ in groups} for m, groups in table.items()} == self.MAXIMAL
        generated = {name: (m, types) for name, m, _, types in _primitive_cycle_types()}
        for m, groups in table.items():
            for name, types in groups:
                assert generated[name] == (m, types), name
        assert sum(len(types) for groups in table.values() for _, types in groups) == 102

    def test_every_primitive_group_lies_in_a_listed_one(self):
        # every group the builder makes, the listed ones included: its
        # cycle types are among those of a listed group of its degree
        for name, m, _, types in _primitive_cycle_types():
            assert any(types <= listed for _, listed in galois_cert._maximal_groups(m)), name

    def test_rule_names_each_group_its_pattern_and_prime(self):
        # at m = 7, (1, 2, 4) is no type of AGL(1,7) and (1, 2, 2, 2) none of
        # PSL(3,2); neither pattern has a Jordan element
        obs = tuple(CycleTypeObservation(p, t) for p, t in
                    [(2, (7,)), (3, (1, 2, 4)), (5, (1, 2, 4)), (7, (1, 2, 2, 2))])
        verdict, fired = _evaluate_rules(7, False, obs)
        assert verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert [r.rule for r in fired] == ["R-trans", "R-primitive", "R-maximal", "R-sign"]
        assert fired[2] == galois_cert.RuleFiring(
            "R-maximal", (3, 7),
            "pattern (1, 2, 4) at p = 3 rules out AGL(1,7); "
            "pattern (1, 2, 2, 2) at p = 7 rules out PSL(3,2)",
        )
        # one group left open proves nothing
        assert _evaluate_rules(7, False, obs[:3])[0] is GaloisVerdict.INCONCLUSIVE

    def test_jordan_fires_first(self):
        # a transposition rules out both groups of degree 7 and is a Jordan
        # element: R-jordan fires, and R-maximal not at all
        obs = (CycleTypeObservation(2, (7,)), CycleTypeObservation(3, (1, 1, 1, 1, 1, 2)))
        verdict, fired = _evaluate_rules(7, False, obs)
        assert verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert [r.rule for r in fired] == ["R-trans", "R-primitive", "R-jordan", "R-sign"]

    def test_no_table_outside_degrees_5_to_12(self):
        # at m = 13 no pattern stands in for a Jordan element: a full cycle
        # and the 13 cycle types of x -> ax on F_13 prove nothing
        assert set(galois_cert._MAXIMAL_PRIMITIVE) == set(range(5, 13))
        assert galois_cert._maximal_groups(13) == ()
        types = [(13,)] + [(1,) + (k,) * (12 // k) for k in (2, 3, 4, 6, 12)]
        obs = tuple(CycleTypeObservation(p, t) for p, t in zip((2, 3, 5, 7, 11, 17), types))
        verdict, fired = _evaluate_rules(13, False, obs)
        assert verdict is GaloisVerdict.INCONCLUSIVE
        assert [r.rule for r in fired] == ["R-trans", "R-primitive"]

    def test_sextic_ends_at_its_fourth_prime(self):
        # (2, 4) at p = 7 is no cycle type of PGL(2,5); with the Jordan
        # rule alone the certificate sampled 11 primes, to p = 37
        cert = certify_galois(parse_poly("x^6 - 2x - 1"))
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert [(o.p, o.pattern) for o in cert.observations] == [
            (3, (6,)), (5, (3, 3)), (7, (2, 4)), (11, (1, 5))
        ]
        assert [r.rule for r in cert.rules_fired] == [
            "R-trans", "R-primitive", "R-maximal", "R-sign"
        ]
        assert cert.rules_fired[2].primes == (7,)
        assert replay_certificate(cert, deep=True) is GaloisVerdict.PROVEN_SYMMETRIC


# One polynomial for each transitive group of degree 2-6, with its group's
# name and whether it lies in Alt(m), as sympy 1.14 lists them in
# sympy/polys/numberfields/tests/test_galoisgroups.py (from Cohen, A Course
# in Computational Algebraic Number Theory, section 6.3).
_GALOIS_TABLE = [
    ("x^2 + x + 1", "S2", False),
    ("x^3 + x^2 - 2x - 1", "A3", True),
    ("x^3 + 2", "S3", False),
    ("x^4 + x^3 + x^2 + x + 1", "C4", False),
    ("x^4 + 1", "V", True),
    ("x^4 - 2", "D4", False),
    ("x^4 + 8x + 12", "A4", True),
    ("x^4 + x + 1", "S4", False),
    ("x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1", "C5", True),
    ("x^5 - 5x + 12", "D5", True),
    ("x^5 + 2", "M20", False),
    ("x^5 + 20x + 16", "A5", True),
    ("x^5 - x + 1", "S5", False),
    ("x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "C6", False),
    ("x^6 + 108", "S3", False),
    ("x^6 + 2", "D6", False),
    ("x^6 - 3x^2 - 1", "A4", True),
    ("x^6 + 3x^3 + 3", "G18", False),
    ("x^6 - 3x^2 + 1", "A4xC2", False),
    ("x^6 - 4x^2 - 1", "S4p", True),
    ("x^6 - 3x^5 + 6x^4 - 7x^3 + 2x^2 + x - 4", "S4m", False),
    ("x^6 + 2x^3 - 2", "G36m", False),
    ("x^6 + 2x^2 + 2", "S4xC2", False),
    ("x^6 + 10x^5 + 55x^4 + 140x^3 + 175x^2 + 170x + 25", "PSL2F5", True),
    ("x^6 + 10x^5 + 55x^4 + 140x^3 + 175x^2 - 3019x + 25", "PGL2F5", False),
    ("x^6 + 6x^4 + 2x^3 + 9x^2 + 6x - 4", "G36p", True),
    ("x^6 + 2x^4 + 2x^3 + x^2 + 2x + 2", "G72", False),
    ("x^6 + 24x - 20", "A6", True),
    ("x^6 + x + 1", "S6", False),
]


class TestGaloisOracle:
    def test_every_transitive_group_of_degree_2_to_6(self):
        # sympy's resolvent method is the oracle: each table polynomial and
        # two seeded Tschirnhausen variants of it (the same field, so the
        # same group) must be proven Sym(m) exactly when the group is
        # Sym(m), Alt(m) only when it is Alt(m), and left Inconclusive for
        # every proper group
        sympy = pytest.importorskip("sympy")
        import random

        from sympy.polys.numberfields.galoisgroups import tschirnhausen_transformation

        x = sympy.Symbol("x")
        start = time.perf_counter()
        proper = on_witness = 0
        state = random.getstate()
        try:
            for text, name, alt in _GALOIS_TABLE:
                f = parse_poly(text)
                m = f.degree
                T = sympy.Poly(list(reversed(f.coeffs)), x)
                group, square = sympy.galois_group(T, by_name=True)
                assert (group.name, square) == (name, alt)
                order = group.get_perm_group().order()
                inputs = [f]
                history = set()
                for seed in (1, 2):
                    # sympy draws the transformation from the random module;
                    # a quadratic has no random one, so it takes the fixed order
                    random.seed(seed)
                    _, U = tschirnhausen_transformation(T, history=history, fixed_order=m < 3)
                    history.add(U.rep)
                    inputs.append(UniPoly(reversed(U.all_coeffs())))
                for g in inputs:
                    cert = certify_galois(g)
                    if order == math.factorial(m):
                        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC, (name, g)
                    elif 2 * order == math.factorial(m):
                        assert cert.verdict is GaloisVerdict.PROVEN_ALTERNATING, (name, g)
                    else:
                        assert cert.verdict is GaloisVerdict.INCONCLUSIVE, (name, g)
                        proper += 1
                        on_witness += cert.witness is not None
                    assert rational_is_square(discriminant(g)) is alt
        finally:
            random.setstate(state)
        # 20 proper groups, three inputs each; a lost witness fails here
        assert (proper, on_witness) == (60, 31)
        assert time.perf_counter() - start < 30


def _compose_by_hand(outer, inner):
    return sum((c * inner**i for i, c in enumerate(outer.coeffs)), UniPoly(()))


def _random_poly(rng, degree, rational):
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)]
    coeffs += [Fraction(rng.randint(-5, 5), rng.randint(1, 4) if rational else 1)
               for _ in range(degree - 1)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3) if rational else 1))
    return UniPoly(coeffs)


def _planted(seed):
    """G(H(a x + b)) * c for seeded random G, H of degree 2-4, a squarefree
    one, with integer or rational coefficients."""
    import random

    rng = random.Random(seed)
    while True:
        rational = rng.random() < 0.5
        outer = _random_poly(rng, rng.randint(2, 4), rational)
        inner = _random_poly(rng, rng.randint(2, 4), rational)
        shift = UniPoly((rng.randint(-3, 3), rng.choice([-2, -1, 1, 2, 3])))
        scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3) if rational else 1)
        f = scale * _compose_by_hand(outer, _compose_by_hand(inner, shift))
        if discriminant(f) != 0:
            return f


def _proper_divisors(m):
    return [s for s in range(2, m) if m % s == 0]


def _first_screen_reduction(f):
    """f's integer model mod the first good prime above deg f, where the
    screen of every size is sound."""
    model, model_disc, _ = galois_cert._model_and_disc(f)
    return next(
        a for a in galois_cert._good_reductions(model, model_disc, 10**4) if a.p > f.degree
    )


def _eligible(p, m, s):
    """Whether the screen of block size s is sound at a good prime p."""
    return p >= 2 * s and (m // s) % p != 0


def _first_eligible_prime(f, s):
    model, model_disc, _ = galois_cert._model_and_disc(f)
    return next(
        a.p
        for a in galois_cert._good_reductions(model, model_disc, 10**4)
        if _eligible(a.p, f.degree, s)
    )


# Families like those of the galois-unprovable benchmark workload, degree 7-16
def _unprovable_style():
    import random

    rng = random.Random(17)
    out = []
    for m in range(4, 9):  # f(x^2)
        inner = [rng.randint(-5, 5) for _ in range(m)] + [1]
        out.append(UniPoly(tuple(c for k in inner for c in (k, 0))[:-1]))
    for n in range(7, 17):
        out.append(X**n - rng.choice([2, 3, 5, -7]))
        out.append(_chebyshev(n) - rng.choice([2, 3, -5]))
    for n in (15, 16, 20, 24, 11, 25, 27, 32, 13, 21, 28, 36, 17, 40, 48, 60):
        out.append(_cyclotomic(n))  # Phi_n of degree 8 to 16
    return [f for f in out if discriminant(f) != 0]


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(40))
    def test_planted_composition_found(self, seed):
        f = _planted(seed)
        cert = certify_galois(f)
        assert _values(cert, "decomposition") is not None, f
        outer, inner = _values(cert, "decomposition")
        assert outer.degree >= 2 and inner.degree >= 2
        assert inner.leading_coefficient == 1 and inner.coefficient(0) == 0
        assert _compose_by_hand(outer, inner) == f
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        # sampling stops at the first good prime where the screen of the
        # witness's size is sound
        stop = _first_eligible_prime(f, inner.degree)
        assert cert.observations == sample_cycle_types(f, stop - 1)
        assert replay_certificate(cert) is GaloisVerdict.INCONCLUSIVE
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    def test_agrees_with_sympy(self):
        # sympy 1.14's decompose misses some compositions, e.g.
        # (x^3 + x^2)^2 + 1 over QQ and 256x^9 - 576x^7 + ... - 3 = T_9 - 3
        # over ZZ, so it is asked over both domains; where it still finds
        # none, our witness must compose to f by sympy's own arithmetic
        sympy = pytest.importorskip("sympy")
        import random

        x = sympy.Symbol("x")

        def to_sympy(a):
            return sum(sympy.Rational(c.numerator, c.denominator) * x**k
                       for k, c in enumerate(map(Fraction, a.coeffs)))

        def sympy_decomposes(expr):
            return any(
                len(sympy.decompose(sympy.Poly(expr, x, domain=domain))) > 1
                for domain in (("ZZ", "QQ") if sympy.Poly(expr, x).domain.is_ZZ else ("QQ",))
            )

        rng = random.Random(4)
        randoms = [_planted(1000 + k) for k in range(10)]
        while len(randoms) < 100:
            m = rng.randint(4, 16)
            f = UniPoly(tuple(rng.randint(-4, 4) for _ in range(m)) + (rng.randint(1, 3),))
            if discriminant(f) != 0:
                randoms.append(f)
        families = _unprovable_style()
        found = 0
        for f in families + randoms:
            expr = to_sympy(f)
            theirs = sympy_decomposes(expr)
            witness = _values(certify_galois(f), "decomposition")
            if f in families:
                assert (witness is not None) == theirs, f
            elif theirs:
                assert witness is not None, f
            if witness is not None:
                outer, inner = map(to_sympy, witness)
                assert sympy.expand(outer.subs(x, inner) - expr) == 0, f
                found += 1
        assert found >= 40  # 30 from the families, 10 planted

    @pytest.mark.parametrize(
        "text",
        [f"x^{m} - x - 1" for m in (4, 6, 8, 9, 10, 12, 14, 16, 25)]
        + ["x^5 + 20x + 16", "x^6 + 24x - 20", "x^4 - x + 2", "3x^8 - 2x^3 + x/2 - 7"],
    )
    def test_no_witness_for_provable_inputs(self, text):
        f = parse_poly(text)
        for shift in (0, 2):
            g = _compose_by_hand(f, X + shift)
            cert = certify_galois(g)
            assert cert.witness is None
            # the screen itself, on every size, which certification skips
            # once a pattern has ruled out every block size
            a = _first_screen_reduction(g)
            assert galois_cert._decomposition(g, integer_model(g), a, _proper_divisors(g.degree)) is None

    def test_screen_pass_mod_p_is_confirmed_over_q(self):
        # x^4 + 2x^2 + 5x + 2 is (x^2)^2 + 2x^2 + 2 mod 5, the screen's
        # prime, but does not decompose over Q; it is (x + 1)(x^3 - x^2 +
        # 3x + 2), so its certificate holds that factor instead
        f = parse_poly("x^4 + 2x^2 + 5x + 2")
        a = _first_screen_reduction(f)
        assert a.p == 5 and a.coeffs == (2, 0, 2, 0, 1)
        assert galois_cert._decomposition(f, integer_model(f), a, [2]) is None
        cert = certify_galois(f)
        assert _values(cert, "decomposition") is None
        assert _values(cert, "factor") == (X + 1,)

    def test_screen_prime_dividing_the_leading_coefficient(self):
        # 5, 7, 11 and 13 divide lc, so the screen runs at 17
        f = 5005 * _compose_by_hand(parse_poly("x^2 - 3"), parse_poly("x^2 + x")) + 1
        assert _first_screen_reduction(f).p == 17
        cert = certify_galois(f)
        assert _values(cert, "decomposition") is not None
        assert _compose_by_hand(*_values(cert, "decomposition")) == f
        assert [o.p for o in cert.observations] == [3]  # 2 divides disc

    def test_no_screen_below_the_degree(self):
        # no good prime above m = 4 within the bound: nothing is screened
        cert = certify_galois(parse_poly("x^4 - 2"), prime_bound=3)
        assert cert.witness is None
        assert [o.p for o in cert.observations] == [3]

    def test_integer_division_matches_a_fraction_reference(self):
        # f = lam G(H) with H of denominator 1, 2, 3 or 6, so the division
        # over Z runs with D > 1, a non-monic G and a rational lam, and one
        # coefficient of f perturbed: the witness is the one a division over
        # Q finds, and a perturbed f gets none
        import random

        def reference(f):
            """(G, H) for the least s, H monic with H(0) = 0 read off the
            top coefficients of f / lc = H^r + ..., and G from the H-adic
            division of f by UniPoly arithmetic; None when none exists."""
            m, lead = f.degree, f.leading_coefficient
            for s in _proper_divisors(m):
                r = m // s
                inner = X**s
                for k in range(1, s):  # [x^(m-k)] of H^r is r h_(s-k) + known terms
                    gap = f.coefficient(m - k) / Fraction(lead) - (inner**r).coefficient(m - k)
                    inner = inner + (gap / r) * X ** (s - k)
                digits, rest = [], f
                while rest.degree:
                    rest, digit = divmod(rest, inner)
                    if not digit.is_constant:
                        break
                    digits.append(digit.coefficient(0))
                else:
                    return UniPoly((*digits, rest.coefficient(0))), inner
            return None

        rng = random.Random(25)
        decomposed = fractional = perturbed = 0
        while decomposed < 60:
            den = rng.choice([1, 2, 3, 6])
            s = rng.randint(2, 3)
            inner = UniPoly([Fraction(rng.randint(-5, 5), den) for _ in range(s)]
                            + [rng.choice([1, 2, -3])])
            outer = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 4))]
                            + [rng.choice([1, 2, 3, -5, 12])])
            lam = rng.choice([1, Fraction(1, 7), 4, -3])
            f = lam * _compose_by_hand(outer, inner)
            if discriminant(f) == 0:
                continue
            cert = certify_galois(f)
            expected = reference(f)
            assert expected is not None and _values(cert, "decomposition") == expected, f
            assert galois_cert._is_decomposition(f, *expected)
            decomposed += 1
            fractional += any(type(c) is Fraction for c in expected[1].coeffs)
            # x (not in Q[H] for any H of degree >= 2) or the coefficient
            # that moves H; the constant would keep the decomposition
            k = rng.choice([1, f.degree - 1])
            near = f + Fraction(rng.choice([-1, 1]), rng.choice([1, 2])) * X**k
            if discriminant(near) != 0:
                assert reference(near) is None, near
                assert _values(certify_galois(near), "decomposition") is None, near
                perturbed += 1
        assert fractional >= 40 and perturbed >= 50

    def test_tampered_witness_does_not_replay(self):
        cert = certify_galois(parse_poly("x^16 + 2"))
        outer, inner = _values(cert, "decomposition")
        assert (outer, inner) == (parse_poly("x^8 + 2"), parse_poly("x^2"))
        for bad in (
            (outer + 1, inner),
            (outer, inner + X),
            (parse_poly("x^4 + 2"), parse_poly("x^2")),
            (cert.polynomial, X),  # a trivial factor proves nothing
        ):
            tampered = replace(cert, witness=Witness("decomposition", bad))
            for deep in (False, True):
                with pytest.raises(PatternReplayMismatch) as info:
                    replay_certificate(tampered, deep=deep)
                assert isinstance(info.value, InternalCheckError)  # CLI exit 2
        # a witness beside a proven verdict is a contradiction
        proven = certify_galois(parse_poly("x^4 - x - 1"))
        assert proven.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        square = (parse_poly("x^2"), parse_poly("x^2"))
        tampered = replace(proven, witness=Witness("decomposition", square))
        with pytest.raises(PatternReplayMismatch):
            replay_certificate(tampered)

    def test_witness_with_an_affine_inner_part(self):
        # an inner part that is neither monic nor zero at 0:
        # (2x^2 + 3)^2 + (2x^2 + 3) + 1
        f = parse_poly("4x^4 + 14x^2 + 13")
        outer, inner = parse_poly("x^2 + x + 1"), parse_poly("2x^2 + 3")
        assert galois_cert._is_decomposition(f, outer, inner)
        assert not galois_cert._is_decomposition(f, parse_poly("x^2 + 2x + 1"), inner)


def _planted_binomial(seed, degrees):
    """lam ((s x + k)^m - a) for seeded m in degrees and rational lam, s, k
    and a != 0, with the shift and constant it must be found with."""
    import random

    rng = random.Random(seed)
    m = rng.choice(degrees)

    def rational(nonzero=False):
        num = rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]) if nonzero else rng.randint(-7, 7)
        return Fraction(num, rng.randint(1, 4))

    lam, s, k, a = rational(True), rational(True), rational(), rational(True)
    f = lam * (UniPoly((k, s)) ** m - a)
    # (s x + k)^m - a = s^m ((x + k/s)^m - a/s^m)
    return f, (-k / s, 0, a / s**m)


class TestBinomialWitness:
    @pytest.mark.parametrize("seed", range(30))
    def test_planted_binomial_found(self, seed):
        f, witness = _planted_binomial(seed, (5, 7, 11, 13))
        cert = certify_galois(f)
        assert cert.witness == Witness("dickson", witness), f
        assert cert.observations == () and cert.rules_fired == ()
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert cert.disc == discriminant(f)
        assert replay_certificate(cert) is GaloisVerdict.INCONCLUSIVE
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    @pytest.mark.parametrize("seed", range(10))
    def test_composite_degree_keeps_its_decomposition(self, seed):
        # x^m - a = (x^s)^(m/s) - a: the screen's witness, as before
        f, _ = _planted_binomial(seed, (6, 8, 9, 10, 12))
        cert = certify_galois(f)
        assert _values(cert, "decomposition") is not None, f
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    @pytest.mark.parametrize(
        "text",
        ["x^2 - 3", "(2x + 1)^2 + 5", "x^3 - 2", "3(x - 1/2)^3 + 7", "x^4 - 2",
         "(x + 3)^4 + 1"],
    )
    def test_no_witness_below_degree_5(self, text):
        # Gal(x^3 - 2) = Sym(3), so a cubic binomial proves nothing; m <= 4
        # is never tested (x^4 - a decomposes instead)
        cert = certify_galois(parse_poly(text))
        assert _values(cert, "dickson") is None and cert.observations
        if text == "x^3 - 2":
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC

    def test_tampered_witness_does_not_replay(self):
        cert = certify_galois(parse_poly("(x + 2)^7 - 3"))
        assert cert.witness == Witness("dickson", (-2, 0, 3))
        for bad in ((-1, 0, 3), (-2, 0, 4), (-2, 0, 0), (2, 0, -3), (-2, 1, 3)):
            tampered = replace(cert, witness=Witness("dickson", bad))
            for deep in (False, True):
                with pytest.raises(PatternReplayMismatch) as info:
                    replay_certificate(tampered, deep=deep)
                assert isinstance(info.value, InternalCheckError)  # CLI exit 2
        # below degree 4 a binomial proves nothing, even one that expands
        cubic = replace(
            certify_galois(parse_poly("x^3 - 2")),
            observations=(), rules_fired=(), verdict=GaloisVerdict.INCONCLUSIVE,
        )
        assert replay_certificate(cubic) is GaloisVerdict.INCONCLUSIVE
        with pytest.raises(PatternReplayMismatch):
            replay_certificate(replace(cubic, witness=Witness("dickson", (0, 0, 2))))
        # a witness beside a proven verdict is a contradiction
        proven = certify_galois(parse_poly("x^7 - x - 1"))
        assert proven.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        with pytest.raises(PatternReplayMismatch):
            replay_certificate(replace(cert, observations=proven.observations))

    def test_near_misses_are_sampled(self):
        # a'(beta) = 0 but a higher middle coefficient survives the shift
        for text in ("x^5 + x^3 - 2", "(x - 1)^7 + (x - 1)^2 + 1", "x^11 - x - 1"):
            cert = certify_galois(parse_poly(text))
            assert _values(cert, "dickson") is None and cert.observations, text


def _wreath_cycle_types(s, b):
    """The cycle type of every element of Sym(s) wr Sym(b), by brute force:
    the element (top, maps) sends point j s + i to top(j) s + maps[j](i)."""
    from itertools import permutations, product

    m = s * b
    types = set()
    for top in permutations(range(b)):
        for maps in product(list(permutations(range(s))), repeat=b):
            image = [top[j] * s + maps[j][i] for j in range(b) for i in range(s)]
            seen, lengths = [False] * m, []
            for start in range(m):
                length, point = 0, start
                while not seen[point]:
                    seen[point], point, length = True, image[point], length + 1
                if length:
                    lengths.append(length)
            types.add(tuple(sorted(lengths)))
    return types


def _partitions(m, largest=None):
    """Every partition of m, parts ascending."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (*rest, first)


def _open_after(m, patterns):
    rules = galois_cert._Rules(m, False)
    for p, pattern in enumerate(patterns):
        rules.add(CycleTypeObservation(p, pattern))
    return rules.open_sizes


class TestBlockSizes:
    def test_exact_on_every_partition(self):
        # a pattern rules out block size s exactly when no element of the
        # stabiliser of a block system of size s has that cycle type; with
        # m = 12, s = 3 and 4 the general search runs with 3 or 4 blocks
        import time

        start = time.perf_counter()
        checked = 0
        cases = [(m, s) for m in range(2, 11) for s in _proper_divisors(m)]
        for m, s in cases + [(12, 3), (12, 4)]:
            types = _wreath_cycle_types(s, m // s)
            for pattern in _partitions(m):
                ruled_out = s not in _open_after(m, [pattern])
                assert ruled_out == (pattern not in types), (m, s, pattern)
                checked += 1
        assert checked == 185 + 2 * 77
        assert time.perf_counter() - start < 10

    def test_trinomial_proved_at_an_early_prime(self):
        # (6, 8, 11) at p = 2 fits no block system of size 5, the only
        # proper one; no prime part above 25/2 shows before p = 31
        cert = certify_galois(parse_poly("x^25 - x - 1"))
        assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert len(cert.observations) <= 3
        primitive = next(r for r in cert.rules_fired if r.rule == "R-primitive")
        assert primitive.primes == (2,)
        assert primitive.detail == "pattern (6, 8, 11) rules out blocks of size 5"
        assert replay_certificate(cert, deep=True) is cert.verdict

    def test_certificate_of_the_earlier_rule_replays(self):
        # the earlier rule waited for a prime part above 25/2, which first
        # shows at p = 31; such a certificate still replays to its verdict
        f = parse_poly("x^25 - x - 1")
        full = sample_cycle_types(f, 31)
        assert len(full) == 11 and full[-1].pattern == (1, 5, 6, 13)
        cert = replace(certify_galois(f), observations=full)
        assert replay_certificate(cert, deep=True) is GaloisVerdict.PROVEN_SYMMETRIC

    def test_prime_degree_needs_no_pattern(self):
        assert _open_after(7, []) == set()
        cert = certify_galois(parse_poly("x^7 - x - 1"))
        primitive = next(r for r in cert.rules_fired if r.rule == "R-primitive")
        assert (primitive.primes, primitive.detail) == ((), "prime degree 7")

    @staticmethod
    def _hard_pattern(n, a):
        """12, 24, .., 12 n and three copies of a, a partition of m = 3 s
        with s = 4 t + a, t = n (n + 1) / 2.  With 3 dividing neither t nor
        a, no sub-multiset sums to s: it would hold one copy of a, by
        parity mod 4, and then 12 u = 4 t.  So the pattern fits blocks of
        size 3 (each part alone, the copies of a together) but no element
        of Sym(s) wr Sym(3): a group of k = 1 needs such a sum, one of
        k = 2 also leaves a group of k = 1, and k = 3 does not divide a."""
        t = n * (n + 1) // 2
        s = 4 * t + a
        assert t % 3 and a % 3 and a % 2
        pattern = tuple(sorted([12 * k for k in range(1, n + 1)] + [a] * 3))
        sums = 1  # bit i: some sub-multiset sums to i
        for part in pattern:
            sums |= sums << part
        assert not sums >> s & 1
        return pattern, s

    def test_search_budget_leaves_sizes_open(self):
        # small, the search rules out s; near the degree cap it runs out of
        # nodes and leaves s open, like 3, which the pattern fits
        small, s = self._hard_pattern(4, 1)
        assert _proper_divisors(3 * s) == [3, s]
        assert _open_after(3 * s, [small]) == {3}
        pattern, s = self._hard_pattern(37, 517)
        m = 3 * s
        assert 9_900 < m <= 10_000  # the parser's degree cap
        assert _proper_divisors(m) == [3, s] and len(pattern) == 40
        assert galois_cert._keeps_blocks(pattern, s)
        assert _open_after(m, [pattern]) == {3, s}

    def test_screen_sees_only_open_sizes(self, monkeypatch):
        # each size once, at its first good prime where the screen is
        # sound, and only while no pattern has ruled it out
        calls = []
        real = galois_cert._decomposition

        def recording(f, model, a, sizes):
            calls.append((a.p, list(sizes)))
            return real(f, model, a, sizes)

        monkeypatch.setattr(galois_cert, "_decomposition", recording)
        for text, screened in [
            ("x^6 + x + 1", [(7, [3])]),  # 2 ruled out at p = 3
            ("x^8 + 5x + 7", [(5, [2]), (11, [4])]),
            ("x^6 - x - 1", [(5, [2])]),  # 3 ruled out below p = 7
            ("x^16 + 5x + 7", []),
        ]:
            f = parse_poly(text)
            m = f.degree
            calls.clear()
            cert = certify_galois(f)
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
            assert calls == screened, text
            expected = []
            for s in _proper_divisors(m):
                p = _first_eligible_prime(f, s)
                below = [o.pattern for o in cert.observations if o.p < p]
                if p <= cert.observations[-1].p and s in _open_after(m, below):
                    expected.append((p, s))
            assert sorted((p, s) for p, sizes in calls for s in sizes) == expected

    def test_screen_only_where_sound(self, monkeypatch):
        # the screen of size s divides by the n < 2s and by m/s, so it is
        # never asked about s at p < 2s or at p | m/s
        calls = []
        real = galois_cert._decomposition

        def recording(f, model, a, sizes):
            calls.append((f.degree, a.p, list(sizes)))
            return real(f, model, a, sizes)

        monkeypatch.setattr(galois_cert, "_decomposition", recording)
        inputs = UNPROVABLE + _unprovable_style() + [_planted(seed) for seed in range(20)]
        for f in inputs:
            certify_galois(f)
        assert len(calls) > len(inputs)
        for m, p, sizes in calls:
            assert sizes == sorted(set(sizes)) and sizes
            for s in sizes:
                assert m % s == 0 and 1 < s < m
                assert _eligible(p, m, s), (m, p, s)

    def test_unprovable_pool_witnesses_unchanged(self):
        # the benchmark's galois-unprovable bases: the screen of each open
        # size at its first sound prime finds the witness the screen of
        # every size finds above the degree, and sampling stops there; the
        # prime-degree binomials and Chebyshev bases T_7 - c get the Dickson
        # witness, and the cyclotomic bases with no decomposition an
        # automorphism after the homogeneous streak
        from pathlib import Path
        import json

        pool = Path(__file__).resolve().parents[1] / "bench" / "pool.json"
        found = dickson = automorphism = 0
        for slot in json.loads(pool.read_text())["galois-unprovable"]:
            f = UniPoly(tuple(slot["base"]))
            cert = certify_galois(f)
            if _values(cert, "automorphism") is not None:
                # the cyclotomic bases with no decomposition
                assert slot["family"] == "cyclotomic", f
                a = _first_screen_reduction(f)
                assert galois_cert._decomposition(f, integer_model(f), a, _proper_divisors(f.degree)) is None
                streak = galois_cert._AUTOMORPHISM_STREAK
                assert cert.observations == sample_cycle_types(f, 200)[:streak]
                automorphism += 1
                continue
            if _values(cert, "dickson") is not None:
                # x^p - a, and 64 x^7 - ... = 64 (D_7(x, 1/4) - c/64)
                alpha = Fraction(1, 4) if f.leading_coefficient == 64 else 0
                assert is_prime(f.degree) and _values(cert, "dickson")[:2] == (0, alpha), f
                assert cert.observations == ()
                dickson += 1
                continue
            a = _first_screen_reduction(f)
            every = galois_cert._decomposition(f, integer_model(f), a, _proper_divisors(f.degree))
            assert cert.witness == every, f
            if every is not None:
                stop = _first_eligible_prime(f, every.values[1].degree)
                assert cert.observations == sample_cycle_types(f, stop - 1), f
                found += 1
        assert (found, dickson, automorphism) == (38, 12, 5)


# ints, non-integral Fractions and integral Fractions such as Fraction(2)
_COEF = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)


@st.composite
def mixed_polys(draw, min_deg=0, max_deg=4):
    """Polynomials with int and Fraction coefficients, any nonzero leading one."""
    deg = draw(st.integers(min_deg, max_deg))
    low = draw(st.lists(_COEF, min_size=deg, max_size=deg))
    lead = draw(_COEF.filter(lambda c: c != 0))
    return UniPoly(low + [lead])


def _dickson(m, alpha, y):
    """D_m(y, alpha) for a polynomial y, by D_0 = 2, D_1 = y and
    D_n = y D_(n-1) - alpha D_(n-2)."""
    low, high = UniPoly((2,)), y
    for _ in range(m - 1):
        low, high = high, y * high - alpha * low
    return high


def _dickson_oracle(f):
    """(beta, alpha, a) by Fraction arithmetic: f(x + beta) against
    lc (D_m(x, alpha) - a), and squarefree by the discriminant."""
    m = f.degree
    if m is None or m < 2:
        return None
    lead = f.leading_coefficient
    beta = Fraction(-f.coefficient(m - 1), m * lead)
    g = sum((c * UniPoly((beta, 1)) ** k for k, c in enumerate(f.coeffs)), UniPoly(()))
    alpha = -Fraction(g.coefficient(m - 2), m * lead) if m > 2 else Fraction(0)
    d = _dickson(m, alpha, X)
    a = d.coefficient(0) - Fraction(g.coefficient(0), lead)
    if g != lead * (d - a) or discriminant(f) == 0:
        return None
    return beta, alpha, a


@st.composite
def affine_polys(draw):
    """A random polynomial, an affine binomial lam ((x - beta)^m - a), or a
    near miss: such a binomial plus c (x - beta)^j, 2 <= j < m, whose
    derivative still vanishes at beta."""
    kind = draw(st.sampled_from(["random", "binomial", "near"]))
    if kind == "random":
        return draw(mixed_polys(min_deg=1, max_deg=7))
    m = draw(st.integers(2 if kind == "binomial" else 3, 7))
    lam, a = draw(_COEF.filter(bool)), draw(_COEF)
    shift = UniPoly((-draw(_COEF), 1))  # x - beta
    f = lam * (shift**m - a)
    if kind == "near":
        f = f + draw(_COEF.filter(bool)) * shift ** draw(st.integers(2, m - 1))
    return f


@st.composite
def dickson_polys(draw):
    """A random polynomial, a Dickson form lam (D_m(x - beta, alpha) - a),
    or a near miss: such a form plus c (x - beta)^j, 1 <= j <= m - 3, which
    keeps the top four coefficients and so passes the O(1) screen."""
    kind = draw(st.sampled_from(["random", "dickson", "near"]))
    if kind == "random":
        return draw(mixed_polys(min_deg=2, max_deg=8))
    m = draw(st.integers(2 if kind == "dickson" else 4, 9))
    lam, alpha, a = draw(_COEF.filter(bool)), draw(_COEF), draw(_COEF)
    shift = UniPoly((-draw(_COEF), 1))  # x - beta
    f = lam * (_dickson(m, alpha, shift) - a)
    if kind == "near":
        f = f + draw(_COEF.filter(bool)) * shift ** draw(st.integers(1, m - 3))
    return f


class TestAffineBinomial:
    @given(affine_polys())
    @settings(max_examples=200)
    def test_matches_the_taylor_shift(self, f):
        # a binomial is the Dickson form with alpha = 0; oracle: f(x + beta)
        # by Fraction arithmetic, beta read off x^(m-1)
        m = f.degree
        hit = _dickson_form(f)
        if m < 2:
            assert hit is None
            return
        beta = Fraction(-f.coefficient(m - 1), m * f.leading_coefficient)
        shifted = sum(
            (c * UniPoly((beta, 1)) ** k for k, c in enumerate(f.coeffs)), UniPoly(())
        )
        if any(shifted.coefficient(k) for k in range(1, m)) or not shifted.coefficient(0):
            assert hit is None or hit[1] != 0, f
        else:
            a = -Fraction(shifted.coefficient(0), f.leading_coefficient)
            assert hit == (beta, 0, a), f
        assert hit == _dickson_oracle(f), f
        for c in hit or ():
            assert type(c) is int or c.denominator > 1

    def test_named_inputs(self):
        assert _dickson_form(parse_poly("x^7 - 3")) == (0, 0, 3)
        assert _dickson_form(parse_poly("(x + 2)^7 - 3")) == (-2, 0, 3)
        assert _dickson_form(parse_poly("3(2x + 1/3)^5 - 7/2")) == (
            Fraction(-1, 6), 0, Fraction(7, 192)
        )
        # for m = 2 the constant goes to a
        assert _dickson_form(parse_poly("x^2 + x + 1")) == (
            Fraction(-1, 2), 0, Fraction(-3, 4)
        )
        for text in ("x^7 - x - 1", "(x - 1)^4", "x^5 + x^3 - 2", "x - 1", "5"):
            assert _dickson_form(parse_poly(text)) is None, text
        assert _dickson_form(UniPoly(())) is None


class TestAffineDickson:
    @given(dickson_polys())
    @settings(max_examples=300)
    def test_matches_the_oracle(self, f):
        hit = _dickson_form(f)
        assert hit == _dickson_oracle(f), f
        for c in hit or ():
            assert type(c) is int or c.denominator > 1

    def test_named_inputs(self):
        t7 = parse_poly("64x^7 - 112x^5 + 56x^3 - 7x")  # T_7 = 2^6 D_7(x, 1/4)
        assert _dickson_form(t7 - 5) == (0, Fraction(1, 4), Fraction(5, 64))
        assert _dickson_form(t7) == (0, Fraction(1, 4), 0)
        # T_7 - 1 has repeated roots: a^2 = 4 alpha^m
        assert _dickson_form(t7 - 1) is None and discriminant(t7 - 1) == 0
        assert _dickson_form(parse_poly("x^5 - 5x^3 + 5x - 3")) == (0, 1, 3)
        assert _dickson_form(parse_poly("x^4 + x^2 + 1")) == (
            0, Fraction(-1, 4), Fraction(-7, 8)
        )
        # every cubic is a Dickson form
        assert _dickson_form(parse_poly("x^3 - x - 1")) == (0, Fraction(1, 3), 1)
        for text in ("x^5 - 5x + 12", "x^7 - 7x^5 + 14x^3 - 7x + x^2", "x^2"):
            assert _dickson_form(parse_poly(text)) is None, text


def _planted_dickson(seed):
    """lam (D_m(s x + k, alpha) - a) for a seeded prime m in 5 .. 13, alpha
    that is 0, a nonzero square or a non-square, and rational lam, s, k, a,
    with the witness it must be found with, and the kind of alpha."""
    import random

    rng = random.Random(seed)
    m = rng.choice([5, 7, 11, 13])
    kind = ("zero", "square", "nonsquare")[seed % 3]

    def rational(nonzero=False):
        num = rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]) if nonzero else rng.randint(-7, 7)
        return Fraction(num, rng.randint(1, 4))

    lam, s, k = rational(True), rational(True), rational()
    r = rational(True)
    alpha = {"zero": 0, "square": r * r, "nonsquare": rng.choice([2, -1, 3, -5]) * r * r}[kind]
    a = rational()
    while a * a == 4 * alpha**m:  # a repeated root
        a += 1
    y = UniPoly((k, s))
    low, high = UniPoly((2,)), y  # D_0 and D_1 at y
    for _ in range(m - 1):
        low, high = high, y * high - alpha * low
    f = lam * (high - a)
    # D_m(s x + k, alpha) = s^m D_m(x + k/s, alpha/s^2)
    return f, (-k / s, alpha / s**2, a / s**m), kind


class TestDicksonWitness:
    @pytest.mark.parametrize("seed", range(30))
    def test_planted_dickson_found(self, seed):
        f, witness, kind = _planted_dickson(seed)
        assert (witness[1] == 0) == (kind == "zero")
        assert (kind == "square") == (witness[1] != 0 and rational_is_square(witness[1]))
        cert = certify_galois(f)
        assert cert.witness == Witness("dickson", witness), f
        assert cert.observations == () and cert.rules_fired == ()
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert replay_certificate(cert) is GaloisVerdict.INCONCLUSIVE
        assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    def test_degree_5_hits_are_small(self):
        # Gal(f) lies in AGL(1, Z/5), of order 20, for every quintic hit
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        checked = 0
        for seed in range(60):
            f, witness, _ = _planted_dickson(seed)
            if f.degree != 5:
                continue
            poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in map(Fraction, reversed(f.coeffs))], x)
            if not poly.is_irreducible:
                continue
            assert certify_galois(f).witness == Witness("dickson", witness)
            assert sympy.galois_group(poly, by_name=False)[0].order() <= 20, f
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize(
        "text",
        [f"x^{m} - x - 1" for m in (5, 7, 11, 13)]
        + ["x^5 + 20x + 16", "x^7 - 154x + 99", "x^5 - 5x + 12", "x^7 - 7x + 3",
           "x^7 - 7x^5 + 14x^3 - 7x + x^2 - 2"],
    )
    def test_no_witness_for_the_oracle_inputs(self, text):
        # Sym, Alt(5), PSL(3, 2), D5 (inside AGL(1, 5), but no Dickson
        # form), PSL(3, 2) again, and a near miss that passes the O(1)
        # screen: each is sampled as before
        cert = certify_galois(parse_poly(text))
        assert _values(cert, "dickson") is None and cert.observations, text

    def test_tampered_witness_does_not_replay(self):
        cert = certify_galois(parse_poly("64x^7 - 112x^5 + 56x^3 - 7x - 5"))
        assert cert.witness == Witness("dickson", (0, Fraction(1, 4), Fraction(5, 64)))
        quarter, a = Fraction(1, 4), Fraction(5, 64)
        for bad in ((0, 0, a), (0, Fraction(1, 5), a), (0, quarter, 5), (1, quarter, a)):
            tampered = replace(cert, witness=Witness("dickson", bad))
            for deep in (False, True):
                with pytest.raises(PatternReplayMismatch) as info:
                    replay_certificate(tampered, deep=deep)
                assert isinstance(info.value, InternalCheckError)  # CLI exit 2
        # a Dickson witness beside a proven verdict is a contradiction
        proven = certify_galois(parse_poly("x^7 - x - 1"))
        with pytest.raises(PatternReplayMismatch):
            replay_certificate(replace(cert, observations=proven.observations))


# squarefree n with phi(n) in 4 .. 16, so Phi_n has no decomposition
_SQUAREFREE_N = (5, 7, 10, 11, 13, 14, 15, 17, 21, 22, 26, 30, 34, 42)
# and n with a square factor: Phi_n(x) = Phi_rad(n)(x^(n / rad(n)))
_SQUAREFUL_N = (8, 9, 12, 16, 18, 20, 24, 28, 32, 36, 40, 48)


def _cyclotomic_parameters(seed, ns=_SQUAREFREE_N):
    """(lam, n, a, b): a seeded n and rational lam, a and b, where lam and
    a are mostly not +-1."""
    import random

    rng = random.Random(seed)
    n = rng.choice(ns)
    lam = Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.randint(1, 3))
    a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return lam, n, a, b


def _planted_cyclotomic(seed, ns=_SQUAREFREE_N):
    """lam Phi_n(a x + b) for ``_cyclotomic_parameters(seed, ns)``."""
    lam, n, a, b = _cyclotomic_parameters(seed, ns)
    return lam * _compose_by_hand(_cyclotomic(n), UniPoly((b, a)))


def _homogeneous_streak(f, length):
    """The arguments of ``galois_cert._automorphism`` for lifting x^p from
    the first of the first ``length`` good primes with a homogeneous
    pattern (k, ..., k), that with k >= 2: f's integer model, its
    reduction there, 1 and the reductions of the streak as screens; None
    when there are fewer below 200."""
    model, model_disc, _ = galois_cert._model_and_disc(f)
    streak = []
    for a in galois_cert._good_reductions(model, model_disc, 200):
        pattern = galois_cert.degree_pattern(a)
        if pattern[0] == pattern[-1] and (streak or pattern[0] >= 2):
            streak.append(a)
            if len(streak) == length:
                return model, streak[0], 1, streak
    return None


def _automorphism_count(group):
    """|N(H) / H| for H a point stabilizer of the transitive group: the
    order of Aut(Q(alpha)/Q) when the group is Gal(f) on f's roots."""
    stabilizer = group.stabilizer(0)
    inside = set(stabilizer.generate())
    normalizer = sum(
        all(g * h * ~g in inside for h in stabilizer.generators) for g in group.generate()
    )
    return normalizer // stabilizer.order()


class TestAutomorphismWitness:
    @pytest.mark.parametrize("seed", range(24))
    def test_planted_cyclotomic_found(self, seed):
        # Gal(lam Phi_n(a x + b)) is abelian and acts regularly, so every
        # pattern is homogeneous and the Frobenius lift is an automorphism
        f = _planted_cyclotomic(seed)
        cert = certify_galois(f)
        assert _values(cert, "automorphism") is not None, f
        (theta,) = _values(cert, "automorphism")
        assert theta.degree < f.degree and theta != X
        assert _compose_by_hand(f, theta) % f == 0
        streak = galois_cert._AUTOMORPHISM_STREAK
        assert cert.observations == sample_cycle_types(f, 200)[:streak]
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        for deep in (False, True):
            assert replay_certificate(cert, deep=deep) is GaloisVerdict.INCONCLUSIVE

    @pytest.mark.parametrize("seed", range(8))
    def test_found_beside_a_decomposition(self, seed):
        # Phi_n with a square factor in n decomposes, and that witness comes
        # first; on its homogeneous patterns the finder finds the
        # automorphism all the same
        f = _planted_cyclotomic(seed, _SQUAREFUL_N)
        assert _values(certify_galois(f), "decomposition") is not None
        witness = galois_cert._automorphism(*_homogeneous_streak(f, 2))
        assert witness is not None and witness.kind == "automorphism", f
        assert galois_cert._is_automorphism(f, *witness.values)

    def test_tampered_witness_does_not_replay(self):
        f = _compose_by_hand(_cyclotomic(11), UniPoly((2, 1)))  # Phi_11(x + 2)
        cert = certify_galois(f)
        (theta,) = _values(cert, "automorphism")
        assert theta == parse_poly("(x + 2)^2 - 2")
        # Phi_13(x - 1)'s own automorphism
        (other,) = _values(certify_galois(_compose_by_hand(_cyclotomic(13), X - 1)), "automorphism")
        assert other == parse_poly("(x - 1)^2 + 1")
        for bad in (theta + 1, X, theta + f, other):
            tampered = replace(cert, witness=Witness("automorphism", (bad,)))
            for deep in (False, True):
                with pytest.raises(PatternReplayMismatch) as info:
                    replay_certificate(tampered, deep=deep)
                assert isinstance(info.value, InternalCheckError)  # CLI exit 2
        # theta + f maps every root to a root too, but only a theta of
        # degree < m is a witness
        assert _compose_by_hand(f, theta + f) % f == 0
        # below degree 4 the check refuses even a true automorphism: the
        # cyclic cubic's group is Alt(3)
        cubic = parse_poly("x^3 - 3x + 1")  # 2 cos(2 pi k / 9), k = 1, 2, 4
        assert _compose_by_hand(cubic, parse_poly("x^2 - 2")) % cubic == 0
        assert not galois_cert._is_automorphism(cubic, parse_poly("x^2 - 2"))

    def test_integer_check_matches_a_fraction_reference(self):
        # the check runs over Z; a UniPoly reference over Q decides the same
        # on lam Phi_n(a x + b) with its true automorphisms, read off the
        # roots: y = (z - b)/a goes to ((a y + b)^k - b)/a, and with those
        # tampered, one coefficient moved by 1 or one denominator doubled
        import random
        import time

        def reference(f, theta):
            acc = UniPoly(())
            for c in reversed(f.coeffs):
                acc = (acc * theta + c) % f
            return acc.is_zero

        def automorphism(a, b, k, f):
            return (_compose_by_hand(X**k, UniPoly((b, a))) - b) * Fraction(1, a) % f

        rng = random.Random(26)
        checked = 0
        for seed in range(24):
            _, n, a, b = _cyclotomic_parameters(seed)
            f = _planted_cyclotomic(seed)
            for k in (2, 3, n - 1):
                if math.gcd(k, n) != 1:
                    continue
                theta = automorphism(a, b, k, f)
                assert galois_cert._is_automorphism(f, theta) and reference(f, theta), (f, k)
                moved = theta + rng.choice([-1, 1]) * X ** rng.randrange(f.degree)
                i = next(i for i, c in enumerate(theta.coeffs) if c)
                halved = UniPoly(tuple(c / 2 if j == i else c for j, c in enumerate(theta.coeffs)))
                for bad in (moved, halved):
                    assert not galois_cert._is_automorphism(f, bad) and not reference(f, bad)
                checked += 1
        assert checked >= 40
        # non-monic models with large leading coefficients, under a wall bound
        for f, (a, b), k in (
            (-_compose_by_hand(_cyclotomic(34), UniPoly((Fraction(1, 2), 3))), (3, Fraction(1, 2)), 3),
            (parse_poly("2^1024*x^4 + 2^768*x^3 + 2^512*x^2 + 2^256*x + 1"), (2**256, 0), 2),
        ):
            theta = automorphism(a, b, k, f)
            start = time.perf_counter()
            assert galois_cert._is_automorphism(f, theta)
            assert not galois_cert._is_automorphism(f, theta + 1)
            assert time.perf_counter() - start < 0.5
            assert reference(f, theta) and not reference(f, theta + 1)

    @pytest.mark.parametrize(
        "text",
        [f"x^{m} - x - 1" for m in range(4, 13)]
        + ["x^4 + 8x + 12", "x^5 + 20x + 16", "x^6 + 24x - 20"],
    )
    def test_no_witness_for_the_sym_alt_oracles(self, text):
        # Sym(m) for x^m - x - 1 (Osada), then Alt(4), Alt(5) and Alt(6):
        # their point stabilizers are self-normalizing, so no Frobenius
        # lift is an automorphism, wherever it is tried (x^6 + 24x - 20
        # has no two homogeneous patterns below 200)
        f = parse_poly(text)
        assert certify_galois(f).witness is None
        found = _homogeneous_streak(f, 2)
        assert (found is None) == (text == "x^6 + 24x - 20")
        if found is not None:
            assert galois_cert._automorphism(*found) is None

    def test_witness_only_with_a_non_trivial_automorphism(self):
        # on seeded polynomials of degree 4 to 6 whose groups sympy names:
        # a certificate holds an automorphism only when Aut(Q(alpha)) is
        # non-trivial, never when the group holds Alt(m), and the finder,
        # tried on any homogeneous patterns, finds one whenever the group is
        # abelian and so regular
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(23)
        x, y = sympy.symbols("x y")
        polys = []
        for _ in range(24):  # random, dense or sparse
            m = rng.choice([4, 5, 6])
            coeffs = [rng.randint(-6, 6) for _ in range(m)] + [rng.choice([1, 1, 2, 3])]
            if rng.random() < 0.4:
                coeffs[1:m] = [0] * (m - 1)
                coeffs[rng.choice([1, 2, 3])] = rng.randint(-9, 9)
            polys.append(UniPoly(tuple(coeffs)))
        for a, b in ((3, 5), (-2, 7), (1, -1)):  # in x^2 and x^3
            polys += [parse_poly(f"x^4 + {a}x^2 + {b}"), parse_poly(f"x^6 + {a}x^3 + {b}")]
        for cubic, d in ((y**3 - y - 1, 5), (y**3 - 3 * y - 1, 2), (y**3 - 3 * y + 1, -3)):
            # beta + sqrt(d): Sym(3) x C2, with Aut = C2, or C6
            r = sympy.resultant(cubic, (x - y) ** 2 - d, y)
            polys.append(UniPoly(tuple(int(c) for c in reversed(sympy.Poly(r, x).all_coeffs()))))
        for seed in range(6):  # C4 and C6
            polys.append(_planted_cyclotomic(seed, (5, 7, 9, 10, 14, 18)))
        checked = {"abelian": 0, "witness": 0, "alt": 0}
        for f in polys:
            if discriminant(f) == 0:
                continue
            m = f.degree
            poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in map(Fraction, reversed(f.coeffs))], x)
            if not poly.is_irreducible:
                continue
            group = sympy.galois_group(poly, by_name=False)[0]
            cert = certify_galois(f)
            if _values(cert, "automorphism") is not None:
                assert _automorphism_count(group) > 1, f
                checked["witness"] += 1
            if 2 * group.order() >= math.factorial(m):
                assert cert.witness is None, f
                checked["alt"] += 1
            if group.order() == m and group.is_abelian:
                witness = galois_cert._automorphism(*_homogeneous_streak(f, 2))
                assert witness is not None and galois_cert._is_automorphism(f, *witness.values), f
                checked["abelian"] += 1
        assert checked["abelian"] >= 6 and checked["witness"] >= 3 and checked["alt"] >= 10, checked

    def test_misses_cost_nothing_on_the_scan_rows(self, monkeypatch):
        # Sym(6) and Sym(8) inputs whose first three patterns are
        # homogeneous: the fourth is not, so the finder is never tried and
        # each certificate equals the one of sampling alone; tried on the
        # first three, it misses after one bounded lift
        import time

        texts = [
            "x^6 + 3x^2 - 2x - 4",  # family-scan: x^6 + 3x^2 - 2x + 20, c = 24
            "x^8 - 6x^7 - 6x^6 - 5x^5 - 5x^4 + 5x^3 - 6x^2 + 6x - 3",  # c = -1
            "2y^6 + y^5 - 5y^4 + 5y^3 + 5y^2 - 6y + 1",  # a rank-table g side
        ]
        start = time.perf_counter()
        certs = [certify_galois(parse_poly(text)) for text in texts]
        misses = [galois_cert._automorphism(*_homogeneous_streak(parse_poly(text), 3))
                  for text in texts]
        elapsed = time.perf_counter() - start
        monkeypatch.setattr(galois_cert, "_automorphism", lambda *args: None)
        for text, cert, miss in zip(texts, certs, misses):
            assert cert == certify_galois(parse_poly(text)), text
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC and cert.witness is None
            assert miss is None
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "f",
        [
            parse_poly("2^1024*x^4 + 2^768*x^3 + 2^512*x^2 + 2^256*x + 1"),  # Phi_5(2^256 x)
            -3 * _compose_by_hand(_cyclotomic(11), UniPoly((0, 2**103))),
            Fraction(5, 7) * _compose_by_hand(_cyclotomic(17), UniPoly((1, 2**128))),
        ],
    )
    def test_found_with_a_large_leading_coefficient(self, f):
        # |lc(model)| >= 2^1024: the lift works with integers only and in
        # the model's own ring, so its precision follows theta's size, not
        # lc^(m-1)
        import time

        assert abs(integer_model(f).leading_coefficient) >= 2**1024
        start = time.perf_counter()
        cert = certify_galois(f)
        elapsed = time.perf_counter() - start
        (theta,) = _values(cert, "automorphism")
        assert _compose_by_hand(f, theta) % f == 0
        for deep in (False, True):
            assert replay_certificate(cert, deep=deep) is GaloisVerdict.INCONCLUSIVE
        assert elapsed < 2.0

    @pytest.mark.parametrize("n, bits", [(5, 16000), (17, 1100), (41, 60)])
    def test_lift_precision_is_capped(self, n, bits, monkeypatch):
        # Phi_n(2^bits x + 1): theta, or H, needs more than the cap for the
        # first two, so the finder gives up at the cap and the certificate is
        # the one of sampling alone; for Phi_41, theta fits below it
        f = _compose_by_hand(_cyclotomic(n), UniPoly((1, 2**bits)))
        lifts = galois_cert._frobenius_lifts
        reached = []

        def recording(*args):
            for ring, t in lifts(*args):
                reached.append(ring.p.bit_length())
                yield ring, t

        monkeypatch.setattr(galois_cert, "_frobenius_lifts", recording)
        witness = galois_cert._automorphism(*_homogeneous_streak(f, 4))
        assert 0 < max(reached) <= galois_cert._AUTOMORPHISM_MAX_BITS
        assert (witness is None) == (n != 41)
        if witness is None:
            cert = certify_galois(f)
            assert cert.witness is None and cert.verdict is GaloisVerdict.INCONCLUSIVE
            assert cert.observations == sample_cycle_types(f, 200)


def _has_commuting_shift(pattern, ell):
    """Whether some fixed-point-free permutation tau of order ell commutes
    with a permutation g of cycle type ``pattern``, by an exhaustive search
    over tau, ell-cycle by ell-cycle, least free point first, dropping a
    partial tau once tau g and g tau differ where both are defined."""
    import itertools

    m = sum(pattern)
    g, start = [], 0
    for part in pattern:
        g += [start + (i + 1) % part for i in range(part)]
        start += part
    tau = [None] * m

    def consistent():
        return all(
            tau[x] is None or tau[g[x]] is None or tau[g[x]] == g[tau[x]] for x in range(m)
        )

    def search():
        free = [x for x in range(m) if tau[x] is None]
        if not free:
            return True
        for rest in itertools.permutations(free[1:], ell - 1):
            cycle = (free[0], *rest)
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                tau[x] = y
            if consistent() and search():
                return True
            for x in cycle:
                tau[x] = None
        return False

    return m % ell == 0 and search()


# x^8 - 6x^7 - 6x^6 - 5x^5 - 5x^4 + 5x^3 - 6x^2 + 6x - 4, a family-scan h:
# at c = -5 it keeps blocks of size 2 at every good prime below 200, and
# Q(alpha) has the automorphism alpha -> -1/alpha
OCTIC_H = "x^8 - 6*x^7 - 6*x^6 - 5*x^5 - 5*x^4 + 5*x^3 - 6*x^2 + 6*x - 4"
OCTIC_THETA = "x^7 - 6*x^6 - 6*x^5 - 5*x^4 - 5*x^3 + 5*x^2 - 6*x + 6"


def _inert_reduction(f):
    """(model, a, screens): f's integer model, its reduction mod the first
    good prime below 200 where f is irreducible, and mod the first
    ``_INERT_GATE`` good primes; None when no good prime below 200 is inert."""
    model, model_disc, _ = galois_cert._model_and_disc(f)
    reductions = list(galois_cert._good_reductions(model, model_disc, 200))
    inert = [a for a in reductions if galois_cert.degree_pattern(a) == (f.degree,)]
    if not inert:
        return None
    return model, inert[0], reductions[: galois_cert._INERT_GATE]


class TestInertLift:
    def test_shift_test_matches_a_brute_force(self):
        # an automorphism of prime order l permutes the roots without fixed
        # points and commutes with every Frobenius; the test on a pattern
        # agrees with a search over such permutations on every cycle type
        # of degree <= 10, l prime, l dividing m or not
        checked = {True: 0, False: 0}
        for m in range(2, 11):
            for ell in (2, 3, 5, 7):
                if ell > m:
                    continue
                for pattern in _partitions(m):
                    fast = galois_cert._commutes_with_shift(pattern, ell)
                    assert fast == _has_commuting_shift(pattern, ell), (pattern, ell)
                    checked[fast] += 1
        assert checked[True] >= 50 and checked[False] >= 200, checked

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("k", [0, 1, -1, 2, -2, 3, -3])
    def test_octic_scan_row_ends_on_an_automorphism(self, s, k):
        # every variant h(s x + k) - c keeps its patterns, so each has the
        # inert prime 2 first and ends on its automorphism at the gate; the
        # row stays unproven
        from berger_rank import scan_A_h

        h = _compose_by_hand(parse_poly(OCTIC_H), UniPoly((k, s)))
        (row,) = scan_A_h(h, -5, -5)
        assert not row.in_A_h and row.reason == "unproven"
        cert = row.certificate
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        (theta,) = _values(cert, "automorphism")
        assert cert.observations[0].p == 2 and cert.observations[0].pattern == (8,)
        assert len(cert.observations) == galois_cert._INERT_GATE
        assert _compose_by_hand(cert.polynomial, theta) % cert.polynomial == 0
        if (s, k) == (1, 0):
            assert theta == parse_poly(OCTIC_THETA)
            # alpha -> -1/alpha: alpha theta(alpha) = -1
            assert (X * theta + 1) % cert.polynomial == 0
        for deep in (False, True):
            assert replay_certificate(cert, deep=deep) is GaloisVerdict.INCONCLUSIVE

    def test_hits_exactly_when_the_stabilizer_is_not_self_normalizing(self):
        # degree 4 and 6 with an inert prime below 200, whose groups sympy
        # names: Aut(Q(alpha)) is cyclic then, so the lift of x^(p^(m/l))
        # hits for some prime l exactly when N(H) != H, H a point
        # stabilizer; every l that hits passes the shift test on every
        # pattern below 200
        sympy = pytest.importorskip("sympy")
        import random
        import time

        rng = random.Random(27)
        x = sympy.symbols("x")
        t = X
        polys = []
        for _ in range(30):  # dense, leading coefficient 1 to 3
            m = rng.choice([4, 6])
            polys.append(UniPoly(tuple(rng.randint(-6, 6) for _ in range(m)) + (rng.randint(1, 3),)))
        for _ in range(14):  # x^(m/2) g(x + 1/x) and x^(m/2) g(x - 1/x)
            half = rng.choice([2, 3])
            g = [rng.randint(-5, 5) for _ in range(half)] + [1]
            for sign in (1, -1):
                acc = UniPoly(())
                for i, c in enumerate(g):  # sum c (x^2 + sign)^i x^(half - i)
                    acc = acc + c * (t**2 + sign) ** i * t ** (half - i)
                polys.append(acc)
        checked = {"hit": 0, "miss": 0}
        elapsed = 0.0
        for f in polys:
            if discriminant(f) == 0:
                continue
            found = _inert_reduction(f)
            if found is None:
                continue
            m = f.degree
            model, a, screens = found
            start = time.perf_counter()
            hits = [
                ell
                for ell in (2, 3)
                if m % ell == 0 and galois_cert._automorphism(model, a, m // ell, screens)
            ]
            elapsed += time.perf_counter() - start
            poly = sympy.Poly([int(c) for c in reversed(model.coeffs)], x)
            group = sympy.galois_group(poly, by_name=False)[0]
            assert bool(hits) == (_automorphism_count(group) > 1), f
            patterns = {o.pattern for o in sample_cycle_types(f, 200)}
            for ell in hits:
                assert all(galois_cert._commutes_with_shift(u, ell) for u in patterns), (f, ell)
            checked["hit" if hits else "miss"] += 1
        assert checked["hit"] >= 8 and checked["miss"] >= 8, checked
        assert elapsed < 1.0

    def test_inert_lift_runs_only_where_it_can_pay(self, monkeypatch):
        # no inert lift, and no shift test, on the Sym/Alt oracles; and a
        # certificate runs one lift chain at most: Phi_17(2^1100 x + 1) lifts
        # x^3 after its homogeneous streak, misses at the precision cap and
        # never lifts again from its inert prime 3
        lifts, tests = [], []
        real_lifts, real_test = galois_cert._frobenius_lifts, galois_cert._commutes_with_shift

        def lifting(f, p, j):
            lifts.append((p, j))
            return real_lifts(f, p, j)

        def testing(pattern, ell):
            tests.append(pattern)
            return real_test(pattern, ell)

        monkeypatch.setattr(galois_cert, "_frobenius_lifts", lifting)
        monkeypatch.setattr(galois_cert, "_commutes_with_shift", testing)
        oracles = [parse_poly(f"x^{m} - x - 1") for m in range(4, 13)]
        oracles += [parse_poly(t) for t in ("x^4 + 8x + 12", "x^5 + 20x + 16", "x^6 + 24x - 20")]
        oracles += [_truncated_exp(8), _truncated_exp(12)]
        for f in oracles:
            assert certify_galois(f).verdict in PROVEN
        assert not any(j >= 2 for _, j in lifts) and tests == []
        lifts.clear()
        f = _compose_by_hand(_cyclotomic(17), UniPoly((1, 2**1100)))
        cert = certify_galois(f)
        assert cert.witness is None and cert.observations == sample_cycle_types(f, 200)
        assert cert.observations[0].pattern == (16,)
        assert lifts == [(3, 1)]
        lifts.clear()
        cert = certify_galois(parse_poly(OCTIC_H) + 5)
        assert lifts == [(2, 4)] and _values(cert, "automorphism") is not None


def _mul_mod_poly(a, b, monic, q):
    """a b mod (q, monic) for ascending integer lists, monic monic, by the
    schoolbook product and long division."""
    n = len(monic) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    for k in range(len(prod) - 1, n - 1, -1):
        top = prod[k] % q
        for i, c in enumerate(monic):
            prod[k - n + i] -= top * c
    return [c % q for c in (prod + [0] * n)[:n]]


def _check_frobenius_lifts(model, p, j, steps=4):
    """The first ``steps`` lifts of x^(p^j) at p: each theta mod p^N is a
    root of the model in (Z/p^N)[x]/(model), and x^(p^j) mod (p, model)."""
    cs = model.coeffs
    n = len(cs) - 1
    monic_p = [c * pow(cs[-1], -1, p) % p for c in cs]
    frobenius = [0, 1] + [0] * (n - 2)
    for _ in range(j):  # h -> h^p, p^j times in all
        power, base, e = [1] + [0] * (n - 1), frobenius, p
        while e:
            if e & 1:
                power = _mul_mod_poly(power, base, monic_p, p)
            base, e = _mul_mod_poly(base, base, monic_p, p), e >> 1
        frobenius = power
    lifts = galois_cert._frobenius_lifts(cs, p, j)
    for step, (ring, t) in zip(range(steps), lifts):
        q = ring.p
        assert q == p ** (2 ** (step + 1))
        theta = ring.unpack(t, n)
        monic = [c * pow(cs[-1], -1, q) % q for c in cs]
        value = [0] * n
        for c in reversed(cs):  # model(theta) by Horner's rule
            value = _mul_mod_poly(value, theta, monic, q)
            value[0] = (value[0] + c) % q
        assert not any(value), (model, p, j, q)
        assert [c % p for c in theta] == frobenius, (model, p, j)


class TestFrobeniusLift:
    @pytest.mark.parametrize("text", ["x^5 - x - 1", "x^6 + 24x - 20", "3x^7 - 5x^2 + 2"])
    def test_lift_at_a_mixed_pattern(self, text):
        # the lift needs only a good prime, not a homogeneous pattern: at
        # the first good prime whose pattern mixes cycle lengths, x^p and
        # x^(p^2) lift to roots of the model
        f = parse_poly(text)
        model, model_disc, _ = galois_cert._model_and_disc(f)
        a = next(
            a
            for a in galois_cert._good_reductions(model, model_disc, 200)
            if len(set(galois_cert.degree_pattern(a))) > 1
        )
        for j in (1, 2):
            _check_frobenius_lifts(model, a.p, j)

    @pytest.mark.parametrize(
        "text",
        [
            "x^8 - 6*x^7 - 6*x^6 - 5*x^5 - 5*x^4 + 5*x^3 - 6*x^2 + 6*x + 1",
            "x^6 + x^5 + x^4 + x^3 + x^2 + x + 1",
            "x^6 - x - 1",
            "3x^4 - x + 5",
        ],
    )
    def test_lift_at_an_inert_prime(self, text):
        # at the first inert prime, x^(p^(m/l)) lifts to a root of the
        # model for every prime l dividing m, an automorphism or not
        f = parse_poly(text)
        model, a, _ = _inert_reduction(f)
        m = f.degree
        for ell in (ell for ell in range(2, m + 1) if m % ell == 0 and is_prime(ell)):
            _check_frobenius_lifts(model, a.p, m // ell)


def _dense_sample(count=300, seed=24):
    """Seeded squarefree dense polynomials: degree 5 to 14, coefficients in
    [-9, 9] and leading coefficient 1, 2 or 3."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(5, 14)
        f = UniPoly(tuple(rng.randint(-9, 9) for _ in range(m)) + (rng.choice([1, 2, 3]),))
        if discriminant(f) != 0:
            out.append(f)
    return out


# 3x^12 - 6x^11 + ... - 8: its first two patterns, (1, 2, 4, 5) at 7 and
# (1, 11) at 11, rule out every block size, hold a 5-cycle and leave degree 1
# the only factor degree <= 6, and it has no rational root
SLOWEST_PROVABLE = (
    "3*x^12 - 6*x^11 + 9*x^10 - 4*x^9 + 8*x^8 + 9*x^7 - x^6 + x^5 + 8*x^4 + x^3 - x^2 + x - 8"
)


class TestRootSearch:
    def test_transitivity_from_a_missed_search(self):
        # each variant x -> +-x + k keeps every pattern, so each is proved at
        # the same two primes; before the search, sampling went on to p = 61
        f = parse_poly(SLOWEST_PROVABLE)
        for inner in (X, X + 1, -X - 1, X - 2):
            cert = certify_galois(_compose_by_hand(f, inner))
            assert cert.verdict is GaloisVerdict.PROVEN_SYMMETRIC
            assert [o.p for o in cert.observations] == [7, 11]
            (root,) = [r for r in cert.rules_fired if r.rule == "R-irreducible"]
            assert root.primes == (7, 11) and "p = 7" in root.detail
            for deep in (False, True):
                assert replay_certificate(cert, deep=deep) is cert.verdict
            # the engine needs f itself: the patterns alone prove nothing
            verdict, _ = _evaluate_rules(12, False, cert.observations)
            assert verdict is GaloisVerdict.INCONCLUSIVE

    def test_factor_witness_ends_the_sampling(self):
        # (2x - 3)(x^4 + x + 1) sampled all 44 good primes below 200
        f = parse_poly("2*x^5 - 3*x^4 + 2*x^2 - x - 3")
        cert = certify_galois(f)
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert _values(cert, "factor") == (X - Fraction(3, 2),)
        assert len(cert.observations) <= 3
        assert cert.observations == sample_cycle_types(f, cert.observations[-1].p)
        for deep in (False, True):
            assert replay_certificate(cert, deep=deep) is GaloisVerdict.INCONCLUSIVE
        for bad in (X - Fraction(3, 2) - 1, X - Fraction(2, 3), f, UniPoly((5,))):
            tampered = replace(cert, witness=Witness("factor", (bad,)))
            for deep in (False, True):
                with pytest.raises(PatternReplayMismatch) as info:
                    replay_certificate(tampered, deep=deep)
                assert isinstance(info.value, InternalCheckError)  # CLI exit 2

    def test_agrees_with_sympy_on_a_dense_sample(self):
        # R-irreducible fires only on irreducible inputs, a factor witness
        # only on reducible ones, where it is an irreducible factor of least
        # degree, and every certificate replays, also without its witness,
        # as a certificate rebuilt from JSON is
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        counts = {"R-irreducible": 0, "factor": 0}
        for f in _dense_sample():
            _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
            monic = {
                tuple(Fraction(int(c), int(g.LC())) for c in g.all_coeffs()) for g, _ in factors
            }
            cert = certify_galois(f)
            if "R-irreducible" in [r.rule for r in cert.rules_fired]:
                assert len(factors) == 1 and factors[0][1] == 1, f
                assert cert.verdict in PROVEN
                counts["R-irreducible"] += 1
            if _values(cert, "factor") is not None:
                (g,) = _values(cert, "factor")
                assert g.leading_coefficient == 1
                assert tuple(reversed(g.coeffs)) in monic, f
                assert g.degree == min(h.degree() for h, _ in factors), f
                counts["factor"] += 1
            for witness in (cert.witness, None):
                rebuilt = replace(cert, witness=witness)
                for deep in (False, True):
                    assert replay_certificate(rebuilt, deep=deep) is cert.verdict
        assert counts["R-irreducible"] >= 20 and counts["factor"] >= 10, counts

    def test_every_root_is_found(self):
        # planted roots a/b with b | lc, found from every good prime
        sympy = pytest.importorskip("sympy")
        import random

        rng = random.Random(5)
        x = sympy.Symbol("x")
        found_roots = 0
        for _ in range(40):
            planted = {
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 3))
            }
            f = UniPoly((rng.randint(-9, 9), rng.randint(-9, 9), 1, rng.choice([1, 2, 5])))
            for r in planted:
                f = f * UniPoly((-r, 1))
            model = integer_model(f)
            if discriminant(model) == 0:
                continue
            want = {
                Fraction(-int(g.nth(0)), int(g.nth(1)))
                for g, _ in sympy.factor_list(sympy.Poly(list(reversed(model.coeffs)), x))[1]
                if g.degree() == 1
            }
            bad = discriminant(model).numerator * model.leading_coefficient
            for p in [p for p in range(2, 60) if is_prime(p)] + [101, 1009]:
                found = galois_cert._rational_roots(model, p)
                if bad % p:
                    assert set(found) == want and found == sorted(
                        found, key=lambda v: (abs(v.numerator), v.denominator, v < 0)
                    ), (f, p)
                    found_roots += len(found)
                else:
                    assert found is None, (f, p)
        assert found_roots >= 300

    def test_agrees_with_the_factor_search(self):
        # at a good prime the root search and the factor search over degree
        # 1 lift the same roots: the one is empty exactly when the other
        # finds no factor, and a linear factor found is at a root found
        import random

        rng = random.Random(17)
        counts = {"roots": 0, "none": 0}
        for _ in range(80):
            f = UniPoly(
                tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 5)))
                + (rng.choice([1, 2, 3, 6]),)
            )
            for _ in range(rng.randint(0, 2)):
                f = f * UniPoly((-Fraction(rng.randint(-20, 20), rng.randint(1, 6)), 1))
            model = integer_model(f)
            disc = discriminant(model).numerator
            if disc == 0:
                continue
            bad = disc * model.leading_coefficient
            for p in [p for p in range(2, 60) if is_prime(p) and bad % p][:4]:
                roots = galois_cert._rational_roots(model, p)
                found = galois_cert._small_factor(model, p, [1])
                assert roots is not None and found is not None, (f, p)
                assert (roots == []) == (found == ()), (f, p)
                if found:
                    (g,) = found
                    assert g.degree == 1 and -g.coeffs[0] in roots, (f, p)
                counts["roots" if roots else "none"] += 1
        assert min(counts.values()) >= 40, counts

    @pytest.mark.parametrize(
        "text, p",
        [
            ("2x^3 + 3x + 3", 2),  # 2 divides lc: the degree drops mod 2
            ("x^3 + 3", 3),  # x^3 + 3 = x^3 mod 3, a triple root
            ("x^3 - 2x + 6", 2),  # = x^3 mod 2
            ("x^3 + 3", 9),  # no prime
            ("x^3 + 3", 1000003),  # a good prime above MAX_PRIME_BOUND
        ],
    )
    def test_no_search_at_a_bad_prime(self, text, p):
        # the searches trust no observation: at a prime dividing lc, where a
        # root mod p is repeated (so p divides disc), at no prime, or at one
        # above MAX_PRIME_BOUND, they answer "unknown", and R-irreducible
        # does not fire, though the same pattern at a small good prime
        # proves Sym(3)
        f = parse_poly(text)
        model = integer_model(f)
        assert not galois_cert._is_good(model, p)
        assert galois_cert._rational_roots(model, p) is None
        assert galois_cert._small_factor(model, p, [1]) is None
        verdict, fired = _evaluate_rules(3, False, (CycleTypeObservation(p, (1, 2)),), model)
        assert verdict is GaloisVerdict.INCONCLUSIVE
        assert "R-irreducible" not in [r.rule for r in fired]
        bad = discriminant(model) * model.coeffs[-1]
        good = next(q for q in range(2, 50) if is_prime(q) and bad % q)
        assert galois_cert._is_good(model, good)
        verdict, fired = _evaluate_rules(3, False, (CycleTypeObservation(good, (1, 2)),), model)
        assert verdict is GaloisVerdict.PROVEN_SYMMETRIC and fired[0].rule == "R-irreducible"

    def test_no_rule_from_a_prime_dividing_disc(self):
        # where p divides disc but no root mod p is repeated, the search
        # itself stays complete: every rational root lifts from a simple
        # root mod p, and what it finds agrees with sympy.  The factor
        # search runs only from a first observation at a prime dividing
        # neither disc nor lc, so R-irreducible never fires from one that
        # divides disc
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        f = parse_poly("x^5 + 2x^3 + x + 3")  # x (x^2 + 1)^2 mod 3
        assert discriminant(f) % 3 == 0 and discriminant(f) % 7 != 0
        assert sympy.Poly(x**5 + 2 * x**3 + x + 3, x).is_irreducible
        assert galois_cert._rational_roots(f, 3) == []
        at_7, at_3 = CycleTypeObservation(7, (1, 1, 3)), CycleTypeObservation(3, (1, 4))
        verdict, fired = _evaluate_rules(5, False, (at_7, at_3), f)
        assert verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert "R-irreducible" in [r.rule for r in fired]
        verdict, fired = _evaluate_rules(5, False, (at_3, at_7), f)
        assert verdict is GaloisVerdict.INCONCLUSIVE
        assert "R-irreducible" not in [r.rule for r in fired]
        checked = moved = 0
        for f in _dense_sample(150):
            model = integer_model(f)
            _, factors = sympy.factor_list(sympy.Poly(list(reversed(model.coeffs)), x))
            want = {Fraction(-int(g.nth(0)), int(g.nth(1))) for g, _ in factors if g.degree() == 1}
            disc = discriminant(model)
            for p in [p for p in range(2, 40) if is_prime(p) and disc % p == 0]:
                found = galois_cert._rational_roots(model, p)
                if found is not None:
                    assert set(found) == want, (f, p)
                    checked += 1
            # a certificate proved by R-irreducible, led by an observation at
            # a bad prime, proves nothing by R-irreducible
            cert = certify_galois(f)
            if "R-irreducible" in [r.rule for r in cert.rules_fired]:
                bad = disc * model.leading_coefficient
                for p in [p for p in range(2, 40) if is_prime(p) and bad % p == 0]:
                    lead = CycleTypeObservation(p, cert.observations[0].pattern)
                    obs = (lead, *cert.observations)
                    _, fired = _evaluate_rules(f.degree, cert.disc_is_square, obs, model)
                    assert "R-irreducible" not in [r.rule for r in fired], (f, p)
                    moved += 1
        assert checked >= 15 and moved >= 10, (checked, moved)

    def test_search_runs_at_most_once_and_only_when_it_can_pay(self, monkeypatch):
        # once per certificate at most, and never on the unprovable
        # families, whose block sizes stay open
        calls = []
        real = galois_cert._small_factor

        def counting(model, p, *args):
            calls.append(p)
            return real(model, p, *args)

        monkeypatch.setattr(galois_cert, "_small_factor", counting)
        for f in UNPROVABLE:
            certify_galois(f)
        assert calls == []
        for f in [parse_poly(f"x^{m} - x - 1") for m in range(5, 13)] + _dense_sample(40):
            calls.clear()
            certify_galois(f)
            assert len(calls) <= 1


def _swinnerton_dyer(primes):
    """prod (x - sum +-sqrt(q)) over every choice of signs, as an integer
    polynomial: P(x) -> P(x - sqrt(q)) P(x + sqrt(q)) for each q."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    poly = x
    for q in primes:
        poly = sympy.expand(sympy.resultant(poly.subs(x, x - y), y**2 - q, y))
    return UniPoly(tuple(int(c) for c in reversed(sympy.Poly(poly, x).all_coeffs())))


def _irreducible(rng, degree, sympy, x):
    """A random irreducible integer polynomial of this degree, by sympy."""
    while True:
        cs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, 1, 2, 3])]
        if cs[0] and sympy.Poly(list(reversed(cs)), x).is_irreducible:
            return UniPoly(tuple(cs))


class TestFactorSearch:
    def test_products_of_two_irreducibles(self):
        # a product of irreducibles of degree >= 2 has no rational root, so
        # only the factor search can end it early; it ends on one of them,
        # of degree >= 2, or samples every good prime, and is never proved
        # transitive
        sympy = pytest.importorskip("sympy")
        import random

        x = sympy.Symbol("x")
        rng = random.Random(26)
        ended = full = 0
        for _ in range(40):
            a = rng.randint(2, 5)
            f = _irreducible(rng, a, sympy, x) * _irreducible(rng, rng.randint(a, 7), sympy, x)
            if discriminant(f) == 0:
                continue
            cert = certify_galois(f)
            assert cert.verdict is GaloisVerdict.INCONCLUSIVE, f
            rules = {r.rule for r in cert.rules_fired}
            assert not rules & {"R-trans", "R-trans2", "R-irreducible"}, f
            if cert.witness is None:
                assert cert.observations == sample_cycle_types(f, 200), f
                full += 1
                continue
            assert cert.witness.kind == "factor", (f, cert.witness)
            (g,) = cert.witness.values
            assert g.degree >= 2 and (f % g).is_zero, (f, g)
            assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE
            ended += 1
        assert ended >= 20, (ended, full)

    @pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 5, 7)], ids=["deg8", "deg16"])
    def test_swinnerton_dyer_never_splits(self, primes):
        # irreducible, yet every prime splits it into factors of degree <=
        # 2, the worst case for the subset search: each search proves it
        # irreducible or answers "unknown", never a factor, in bounded time
        import time

        f = _swinnerton_dyer(primes)
        model = integer_model(f)
        m = f.degree
        disc = discriminant(model) * model.leading_coefficient
        started = time.process_time()
        outcomes = set()
        for p in [q for q in range(3, 120) if is_prime(q) and disc % q][:8]:
            found = galois_cert._small_factor(model, p, list(range(1, m // 2 + 1)))
            assert found in ((), None), (p, found)
            outcomes.add(found)
        assert () in outcomes
        # where every q is a square mod p, f splits into m linear factors:
        # too many subsets, so the search answers "unknown"
        p = next(
            p
            for p in range(3, 2000)
            if is_prime(p) and disc % p and all(pow(q, (p - 1) // 2, p) == 1 for q in primes)
        )
        if m == 16:
            assert galois_cert._small_factor(model, p, list(range(1, m // 2 + 1))) is None
        cert = certify_galois(f)  # f = G(x^2) ends on that decomposition
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert cert.witness.kind == "decomposition"
        assert "R-irreducible" not in [r.rule for r in cert.rules_fired]
        assert time.process_time() - started < 10

    def test_reducible_quintic_ends_at_once(self):
        # (x^2 - x + 1)(x^3 - 3x^2 - 4x - 1): no rational root, pattern 2,3
        # at p = 2, where the search finds the quadratic factor
        f = parse_poly("x^5 - 4*x^4 - 3*x - 1")
        cert = certify_galois(f)
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert [(o.p, o.pattern) for o in cert.observations] == [(2, (2, 3))]
        assert _values(cert, "factor") == (X**2 - X + 1,)
        for witness in (cert.witness, None):
            for deep in (False, True):
                rebuilt = replace(cert, witness=witness)
                assert replay_certificate(rebuilt, deep=deep) is GaloisVerdict.INCONCLUSIVE

    def test_a_small_bound_still_lifts(self):
        # (x - 2)(x^2 - x + 1): at p = 11 its bounds are all below p, yet
        # the factors are lifted once, to p^2, and the root is found
        model = parse_poly("x^3 - 3*x^2 + 3*x - 2")
        assert galois_cert._small_factor(model, 11, [1]) == (X - 2,)
        assert galois_cert._small_factor(parse_poly("x^3 - x - 1"), 11, [1]) == ()

    def test_factor_search_at_a_bad_prime_proves_nothing(self):
        # a list doctored to lead with a prime dividing disc, with the good
        # pattern that proves Sym(12) at p = 7, fires no R-irreducible
        f = parse_poly(SLOWEST_PROVABLE)
        model = integer_model(f)
        cert = certify_galois(f)
        bad = discriminant(model).numerator * model.leading_coefficient
        for p in [q for q in range(2, 60) if is_prime(q) and bad % q == 0]:
            assert galois_cert._small_factor(model, p, [1]) is None
            lead = CycleTypeObservation(p, cert.observations[0].pattern)
            verdict, fired = _evaluate_rules(12, False, (lead, *cert.observations), model)
            assert "R-irreducible" not in [r.rule for r in fired], p

    def test_every_factor_mod_p(self):
        # the mod-p factors behind the search, each part split by
        # Cantor-Zassenhaus where it holds several, agree with sympy's
        sympy = pytest.importorskip("sympy")
        import random

        from berger_rank.modp_factor import PrimePoly, _irreducible_factors

        x = sympy.Symbol("x")
        rng = random.Random(8)
        split = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11, 101])
            cs = [rng.randrange(p) for _ in range(rng.randint(2, 12))] + [1]
            factors = sympy.Poly(list(reversed(cs)), x, modulus=p).factor_list()[1]
            if any(e > 1 for _, e in factors):
                continue
            want = sorted(tuple(int(c) % p for c in reversed(g.all_coeffs())) for g, _ in factors)
            got = _irreducible_factors(PrimePoly(p, cs))
            assert sorted(got) == want and [len(g) for g in got] == sorted(map(len, got))
            split += len(got) > len({len(g) for g in got})
        assert split >= 50


class TestProofState:
    """The engine's ``proven`` agrees with its conclusion after every
    observation, so certification can stop on it and conclude once."""

    @staticmethod
    def _replay_checking(m, square, observations, model=None):
        rules = galois_cert._Rules(m, square, model)
        for obs in observations:
            rules.add(obs)
            concluded = rules.conclude()[0] is not GaloisVerdict.INCONCLUSIVE
            assert rules.proven is concluded, (m, obs)
        return rules

    @pytest.mark.parametrize("m", range(3, 8))
    def test_every_transitive_group(self, m):
        # each group's cycle types in ascending and in descending order, so
        # the three facts arrive in different orders
        for name, group in _transitive_groups(m):
            square = all(g.is_even for g in group.generators)
            patterns = sorted(_group_patterns(group))
            for order in (patterns, patterns[::-1]):
                obs = [CycleTypeObservation(i, t) for i, t in enumerate(order)]
                self._replay_checking(m, square, obs)

    def test_every_pool_certificate(self):
        # the benchmark's galois-provable and galois-unprovable variants,
        # each replayed with its integer model, as replay does, so the
        # factor search runs where it ran in certification
        from pathlib import Path
        import json

        pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
        proven = unproven = 0
        for workload in ("galois-provable", "galois-unprovable"):
            for slot in pool[workload]:
                for s, k in slot["subs"]:
                    f, inner = UniPoly(()), UniPoly((k, s))
                    for c in reversed(slot["base"]):
                        f = f * inner + c
                    cert = certify_galois(f)
                    rules = self._replay_checking(
                        f.degree, cert.disc_is_square, cert.observations, integer_model(f)
                    )
                    assert rules.proven is (cert.verdict in PROVEN), f
                    proven += rules.proven
                    unproven += not rules.proven
        assert (proven, unproven) == (294, 567)


class TestConclusion:
    @pytest.mark.parametrize(
        "text, kind",
        [
            ("(x+2)^7 - 3", "dickson"),  # before any prime
            ("x^8 + x^2 + 1", "decomposition"),  # at p = 5, after p = 3
            ("x^5 - x - 1", None),  # a proof
            (SLOWEST_PROVABLE, None),  # a proof by R-irreducible
            ("2*x^5 - 3*x^4 + 2*x^2 - x - 3", "factor"),
            ("x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "automorphism"),
            ("x^8 - 6*x^7 - 6*x^6 - 5*x^5 - 5*x^4 + 5*x^3 - 6*x^2 + 6*x + 1", "automorphism"),
            ("x^5 - 5*x + 12", None),  # D5: every good prime, no witness
        ],
    )
    def test_rules_fired_on_every_exit(self, text, kind):
        # certification concludes once, after its loop, whichever way the
        # loop ends, and reports what the engine concludes from the
        # observations it kept
        f = parse_poly(text)
        cert = certify_galois(f)
        assert (cert.witness and cert.witness.kind) == kind
        if kind == "decomposition":
            assert cert.observations  # found in mid-loop
        if kind is None and cert.verdict is GaloisVerdict.INCONCLUSIVE:
            assert cert.observations == sample_cycle_types(f, 200)
        fired = _evaluate_rules(f.degree, cert.disc_is_square, cert.observations, integer_model(f))
        assert cert.rules_fired == fired[1]
        assert cert.verdict is fired[0]


def _sympy_poly(sympy, f):
    """f as a sympy Poly in x over QQ."""
    coeffs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in f.coeffs]
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), domain="QQ")


def _from_sympy(poly):
    return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


class TestWitnessTable:
    def test_every_kind_replays_through_its_check(self):
        for text, kind in (
            ("x^4 - 2", "decomposition"),
            ("x^7 - 3", "dickson"),
            ("x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "automorphism"),
            ("2*x^5 - 3*x^4 + 2*x^2 - x - 3", "factor"),
        ):
            cert = certify_galois(parse_poly(text))
            assert cert.witness.kind == kind and kind in galois_cert.WITNESSES
            check, _, names = galois_cert.WITNESSES[kind]
            assert len(cert.witness.values) == len(names)
            assert check(cert.polynomial, *cert.witness.values) is True
            assert replay_certificate(cert, deep=True) is GaloisVerdict.INCONCLUSIVE

    def test_decomposition_check_agrees_with_sympy_compose(self):
        # the check composes G(H) by Horner's rule; sympy's compose is the
        # oracle on seeded G and H with denominators, H non-monic too, and
        # on perturbed G, H and f, each of which must fail
        import random

        sympy = pytest.importorskip("sympy")
        rng = random.Random(48)

        def oracle(f, outer, inner):
            r, s = outer.degree or 0, inner.degree or 0
            if min(r, s) < 2 or r * s != f.degree:
                return False
            composed = _sympy_poly(sympy, outer).compose(_sympy_poly(sympy, inner))
            return composed == _sympy_poly(sympy, f)

        pairs = [(parse_poly("2x^3 - x + 7/2"), parse_poly("3/2x^2 - 1/3x + 5/4"))]
        pairs += [
            (_random_poly(rng, rng.randint(2, 4), True), _random_poly(rng, rng.randint(2, 4), True))
            for _ in range(80)
        ]
        outcomes = {True: 0, False: 0}
        for outer, inner in pairs:
            f = _from_sympy(_sympy_poly(sympy, outer).compose(_sympy_poly(sympy, inner)))
            nudge = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))
            for case in (
                (f, outer, inner),
                (f, outer + nudge, inner),
                (f, outer + nudge * X, inner),
                (f, outer, inner + nudge * X),
                (f, outer, inner * 2),
                (f + nudge * X, outer, inner),
                (f, inner, outer),
            ):
                expect = oracle(*case)
                assert galois_cert._is_decomposition(*case) is expect, case
                outcomes[expect] += 1
        assert outcomes[True] >= 81 and outcomes[False] >= 400, outcomes

    def test_factor_check_agrees_with_sympy_rem(self):
        # g | f by one division over Q; sympy's rem is the oracle on seeded
        # factors with denominators and on perturbed ones
        import random

        sympy = pytest.importorskip("sympy")
        rng = random.Random(49)
        outcomes = {True: 0, False: 0}
        for _ in range(100):
            g = _random_poly(rng, rng.randint(1, 3), True)
            h = _random_poly(rng, rng.randint(1, 3), True)
            f = _from_sympy(_sympy_poly(sympy, g) * _sympy_poly(sympy, h))
            nudge = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))
            for candidate in (g, nudge * g, g + nudge, g + nudge * X, h * X, f):
                expect = 1 <= (candidate.degree or 0) < f.degree and (
                    _sympy_poly(sympy, f).rem(_sympy_poly(sympy, candidate)).is_zero
                )
                assert galois_cert._is_factor(f, candidate) is expect, (f, candidate)
                outcomes[expect] += 1
        assert outcomes[True] >= 200 and outcomes[False] >= 300, outcomes

    def test_checks_refuse_a_witness_in_another_variable(self):
        # False, not MultiVariableError: the variable is checked first
        y = UniPoly.variable("y")
        assert galois_cert._is_decomposition(parse_poly("x^4 - 2"), X**2 - 2, y**2) is False
        assert galois_cert._is_factor(parse_poly("x^2 - 1"), y - 1) is False

    def test_an_oversized_outer_is_refused_before_composing(self):
        # deg G deg H must be deg f, so a degree-10,000 G beside a quintic is
        # refused by its degree, never composed
        f = parse_poly("x^5 - x - 1")
        outer = UniPoly([1] + [0] * 9999 + [3])
        cert = replace(certify_galois(f), witness=Witness("decomposition", (outer, X**2)))
        start = time.perf_counter()
        for inner in (X**2, X**5, X**10000 + 1):
            assert galois_cert._is_decomposition(f, outer, inner) is False
        with pytest.raises(PatternReplayMismatch):
            replay_certificate(cert)
        assert time.perf_counter() - start < 0.5

    def test_factor_check_agrees_with_division_over_q(self):
        # the factor witness is checked by the factor search's division over
        # Z, of f cleared of denominators by g's primitive integer model; on
        # seeded true and tampered factors, g non-monic and f with
        # denominators, it agrees with one division over Q
        import random

        rng = random.Random(29)

        def rational(nonzero=False):
            num = rng.choice((-5, -2, -1, 1, 3, 7)) if nonzero else rng.randint(-9, 9)
            return Fraction(num, rng.choice((1, 1, 2, 3, 4, 6)))

        outcomes = {True: 0, False: 0}
        for _ in range(200):
            g = UniPoly([rational() for _ in range(rng.randint(1, 3))] + [rational(True)])
            h = UniPoly([rational() for _ in range(rng.randint(1, 3))] + [rational(True)])
            f = g * h
            k = rng.randrange(g.degree + 1)
            bump = UniPoly([0] * k + [rational(True)])
            for candidate in (g, rational(True) * g, g + bump, g * X, h + 1):
                expect = 1 <= (candidate.degree or 0) < f.degree and (f % candidate).is_zero
                assert galois_cert._is_factor(f, candidate) is expect, (f, candidate)
                outcomes[expect] += 1
        assert min(outcomes.values()) >= 200, outcomes

    @pytest.mark.parametrize(
        "witness",
        [
            Witness("dickson", (1, 2)),  # the wrong arity
            Witness("dickson", (0, 0, 3, 4)),
            Witness("decomposition", (2, X**2)),  # a number for a polynomial
            Witness("dickson", ("a", 0, 3)),  # a value no arithmetic takes
            Witness("dickson", 5),  # values that are no sequence
            Witness("automorphism", (UniPoly((0, 0, 1), "y"),)),  # another variable
            Witness("automorphism", (X**2, X)),
            Witness("factor", (X,)),  # x does not divide x^7 - 3
            Witness("factor", (X**7 - 3,)),  # nor is f a proper factor of itself
            Witness("subfield", (X,)),  # a kind the table does not know
            Witness(["dickson"], (0, 0, 3)),  # nor any unhashable kind
        ],
        ids=repr,
    )
    def test_malformed_witness_fails_replay(self, witness):
        # replay raises its own mismatch, an internal-check error (CLI exit
        # 2), never the ValueError, AttributeError or TypeError of the bad
        # values
        cert = replace(certify_galois(parse_poly("x^7 - 3")), witness=witness)
        for deep in (False, True):
            with pytest.raises(PatternReplayMismatch) as info:
                replay_certificate(cert, deep=deep)
            assert isinstance(info.value, InternalCheckError)

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("x^16 + 3", "decomposition"),
            ("x^10 + x^9 + x^8 + x^7 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", "automorphism"),
        ],
    )
    def test_finders_reuse_the_model(self, text, kind, monkeypatch):
        # both exact checks run on the integer model certification already
        # holds: one integer_model and one _shift_facts per certificate,
        # counted through every module that binds them
        import sys

        from berger_rank import exact_poly

        calls = {"integer_model": 0, "_shift_facts": 0}
        for name in calls:
            real = getattr(exact_poly, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("berger_rank") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        cert = certify_galois(parse_poly(text))
        assert cert.witness.kind == kind
        assert calls == {"integer_model": 1, "_shift_facts": 1}
