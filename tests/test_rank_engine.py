"""Rank verdicts: routing, hypothesis records, exactness, and error paths."""

import collections
import functools
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import berger_rank.cli as cli
import berger_rank.exact_poly as exact_poly
import berger_rank.galois_cert as galois_cert
from berger_rank import (
    MAX_PRIME_BOUND,
    FactorizationIncomplete,
    InvalidInput,
    MultiVariableError,
    Status,
    UniPoly,
    VerdictKind,
    Witness,
    c2,
    decomposition_table,
    dim_new_part,
    discriminant,
    disjointness_filter,
    integer_model,
    parse_poly,
    rank_table,
    rank_verdict,
    replay_certificate,
    scan_A_h,
)
from berger_rank import rank_engine

F5 = parse_poly("x^5 - x - 1")
F4 = parse_poly("x^4 - x - 1")
F6 = parse_poly("x^6 - x - 1")
F3 = parse_poly("x^3 - x - 1")
G2 = parse_poly("y^2 - 1")
G3 = parse_poly("y^3 - 1")
G5 = parse_poly("y^5 - 1")
# disc f has a cofactor that Brent rho does not split within the factoring
# budget (about 20 s of rho on a 2-core machine before giving up), so
# condition (i) must be decided without its squarefree part
PLANTED = parse_poly("x^4 - 817077202x - 5801424265")


def statuses(verdict):
    return {h.name: h.status for h in verdict.hypotheses}


def record(verdict, name):
    return next(h for h in verdict.hypotheses if h.name == name)


class TestBinomialDetection:
    """The CM route is taken exactly when g is written y^n - a."""

    def test_accepts_exact_binomials(self):
        for text, a in (("y^2 - 1", 1), ("y^7 + 3", -3), ("y^4 - 2/3", Fraction(2, 3))):
            records, notes = rank_engine._analyze(F5, parse_poly(text), 7, 200)
            # the CM route, whose quintic f side is certified
            assert "hom-vanishing-cm" in {h.name for h in records}, text
            assert notes == (), text
            rec = next(h for h in records if h.name == "binomial-cm-g")
            assert rec.status is Status.HOLDS
            assert rec.evidence["constant"] == a

    def test_rejects_everything_else(self):
        # y^2 and y - 1 are refused as a pair (TestValidation); affine
        # binomials count only when written as y^n - a
        for text in ("y^3 - y - 1", "2y^2 - 1", "y^2 + y + 1", "(y + 1)^3 - 2", "2y^5 + 7"):
            records, notes = rank_engine._analyze(F5, parse_poly(text), 7, 200)
            # no route: n < 4 or n = m, so neither side is certified
            assert notes == (rank_engine._NO_ROUTE_NOTE,), text
            assert records == (), text

    def test_agrees_with_the_dickson_decision(self):
        # the route reads g = y^n - a off g's coefficients; the Dickson
        # finder's decision, a form with shift 0, alpha = 0 and lc 1, is the
        # oracle here.  The cubic f keeps every route free of Galois
        # certificates.
        def oracle(g):
            form = galois_cert._dickson_form(g) if g.leading_coefficient == 1 else None
            return form[2] if form is not None and form[:2] == (0, 0) else None

        rng = random.Random("binomial-cm-g")
        y = UniPoly.variable("y")

        def rational(nonzero=False):
            while True:
                v = Fraction(rng.randint(-9, 9), rng.choice([1, rng.randint(2, 6)]))
                if v or not nonzero:
                    return v

        def shifted(g, beta):  # g(y - beta), by Horner
            out = UniPoly((), "y")
            for c in reversed(g.coeffs):
                out = out * (y - beta) + c
            return out

        def dickson(n, alpha):  # D_n(y, alpha) = y D_(n-1) - alpha D_(n-2)
            prev, cur = UniPoly((2,), "y"), y
            for _ in range(n - 1):
                prev, cur = cur, y * cur - alpha * prev
            return cur

        samples = []
        for n in range(2, 10):
            for _ in range(40):
                binomial = y**n - rational()
                samples += [
                    binomial,
                    shifted(binomial, rational(nonzero=True)),
                    rational(nonzero=True) * binomial,
                    dickson(n, rational(nonzero=True)) - rational(),
                    shifted(dickson(n, rational(nonzero=True)), rational()) - rational(),
                ]
                lead = rng.choice([1, 1, 1, rational(nonzero=True)])
                sparse = [rational() if rng.random() < 0.3 else 0 for _ in range(n)]
                samples.append(UniPoly(sparse + [lead], "y"))
        decided = {int: 0, Fraction: 0, type(None): 0}
        for g in samples:
            if discriminant(g) == 0:
                continue
            want = oracle(g)
            records, _ = rank_engine._analyze(F3, g, 7, 200)
            got = [h.evidence["constant"] for h in records if h.name == "binomial-cm-g"]
            expected = [] if want is None else [(want, type(want))]
            assert [(v, type(v)) for v in got] == expected, g
            decided[type(want)] += 1
        assert min(decided.values()) >= 100, decided


class TestSideConditions:
    """The quartic conditions (i) and (ii), read off rank_verdict's records."""

    def test_quadratic_disjoint_holds(self):
        rec = record(rank_verdict(F4, G2, 3, 1), "quadratic-disjoint")
        assert rec.status is Status.HOLDS
        assert rec.evidence == {
            "disc": -283,
            "cyclotomic_quadratic_tag": -3,
            "disc_times_p_star_is_square": False,
        }

    def test_quadratic_disjoint_fails_at_283(self):
        rec = record(rank_verdict(F4, G2, 283, 1), "quadratic-disjoint")
        assert rec.status is Status.FAILS
        assert rec.evidence["cyclotomic_quadratic_tag"] == -283
        assert rec.evidence["disc_times_p_star_is_square"] is True

    def test_quadratic_disjoint_p_mod_4(self):
        # p = 1 mod 4 keeps the positive tag
        rec = record(rank_verdict(F4, G2, 5, 1), "quadratic-disjoint")
        assert rec.evidence["cyclotomic_quadratic_tag"] == 5
        assert rec.status is Status.HOLDS

    def test_unramified(self):
        assert record(rank_verdict(F4, G2, 3, 1), "unramified").status is Status.HOLDS
        rec = record(rank_verdict(F4, G2, 283, 1), "unramified")
        assert rec.status is Status.UNKNOWN
        assert rec.evidence["disc"] == -283

    def test_quartic_discriminant_not_recomputed(self, monkeypatch):
        # one discriminant per side, taken when the pair is checked
        # squarefree: the certificates and condition (ii) reuse it
        real = exact_poly._shift_facts
        calls = []

        def counting(a, shifts):
            calls.append(a)
            return real(a, shifts)

        for name, module in list(sys.modules.items()):
            bound = vars(module).get("_shift_facts")
            if name.startswith("berger_rank") and bound is real:
                monkeypatch.setattr(module, "_shift_facts", counting)
        rank_verdict(F4, G2, 3, 1)
        assert len(calls) == 2
        calls.clear()
        v = rank_verdict(F6, parse_poly("y^5 - y - 1"), 7, 1)  # two-large
        assert statuses(v)["hom-bounded"] is Status.HOLDS
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "text", ["x^4 - x - 1", "3x^4/2 - x/3 - 5", "-4x^4 + 6x - 2"]
    )
    def test_unramified_reads_the_integer_model_disc(self, text):
        f = parse_poly(text)
        rec = record(rank_verdict(f, G2, 3, 1), "unramified")
        assert rec.evidence["disc"] == discriminant(integer_model(f))

    def test_planted_quartic_needs_no_factoring(self):
        start = time.perf_counter()
        v = rank_verdict(PLANTED, parse_poly("y^3 - 2"), 7, 1)
        took = time.perf_counter() - start
        rec = record(v, "quadratic-disjoint")
        assert rec.status is Status.HOLDS
        assert rec.evidence == {
            "disc": discriminant(PLANTED),
            "cyclotomic_quadratic_tag": -7,
            "disc_times_p_star_is_square": False,
        }
        assert took < 1.0, took


@functools.cache
def _excluded_quartics():
    """(f, p) for each Sym(4) quartic f = x^4 + a x^2 + b x + c with a, b, c
    in [-3, 3] and each odd prime p < 300 where disc(f) * p* is a square,
    p* = (-1)^((p-1)/2) p: the one prime where (i) fails.  Found by sympy,
    with no code of the package."""
    from sympy import Poly, discriminant, primerange, symbols
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = symbols("x")
    cases = []
    for a, b, c in itertools.product(range(-3, 4), repeat=3):
        poly = Poly(x**4 + a * x**2 + b * x + c, x)
        disc = int(discriminant(poly))
        for p in primerange(3, 300):
            square = disc * (p if p % 4 == 1 else -p)
            if square <= 0 or math.isqrt(square) ** 2 != square:
                continue
            if poly.is_irreducible and galois_group(poly, by_name=True)[0].name == "S4":
                cases.append((exact_poly.UniPoly([c, b, a, 0, 1], "x"), p))
    return cases


class TestQuarticSideOracle:
    """A quartic side is p odd and (i): it Fails exactly where the square
    test of (i) does, whatever (ii) reads, since (ii) implies (i)."""

    def test_side_fails_where_disc_times_p_star_is_square(self):
        cases = _excluded_quartics()
        assert len(cases) == 32
        named = {(str(f), p) for f, p in cases}
        assert {("x^4 - 3*x^2 - 2*x + 1", 83), ("x^4 - 2*x^2 - x + 1", 283)} <= named
        for f, p in cases:
            v = rank_verdict(f, G2, p, 1)
            st = statuses(v)
            assert st["galois-f"] is Status.HOLDS, f
            assert st["quadratic-disjoint"] is Status.FAILS, (str(f), p)
            assert st["unramified"] is Status.UNKNOWN, (str(f), p)
            assert st["hom-vanishing-cm"] is Status.FAILS, (str(f), p)
            evidence = record(v, "hom-vanishing-cm").evidence
            assert evidence["side_conditions"] == "Fails", (str(f), p)
            assert v.kind is VerdictKind.INCONCLUSIVE and v.rank is None

    def test_side_reads_condition_i_at_odd_primes(self):
        for f, _ in _excluded_quartics():
            for p in (p for p in range(3, 100, 2) if exact_poly.is_prime(p)):
                v = rank_verdict(f, G2, p, 1)
                st = statuses(v)
                if st["unramified"] is Status.HOLDS:
                    assert st["quadratic-disjoint"] is Status.HOLDS, (str(f), p)
                assert st["hom-vanishing-cm"] is st["quadratic-disjoint"], (str(f), p)
                exact = st["hom-vanishing-cm"] is Status.HOLDS
                assert (v.kind is VerdictKind.EXACT_RANK) == exact, (str(f), p)


class TestBudgetIndependence:
    """No rank status and no disjoint pair may depend on integer factoring."""

    @staticmethod
    def _observe():
        quartic = [
            (p, tuple(h.status for h in rank_verdict(F4, G2, p, 1).hypotheses))
            for p in (2, 3, 5, 7, 11, 281, 283)
        ]
        rows = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        pairs = disjointness_filter([r for r in rows if r.in_A_h])
        return quartic, pairs

    def test_statuses_and_pairs_survive_failed_factoring(self, monkeypatch):
        import berger_rank.exact_poly as ep

        want = self._observe()
        assert want[1] == [(-2, -1), (-2, 1), (-1, 2), (1, 2)]

        def boom(n):
            raise FactorizationIncomplete("budget")

        monkeypatch.setattr(ep, "_factor_int", boom)
        with pytest.raises(FactorizationIncomplete):
            ep.int_squarefree_part(-283)  # the patch reaches every caller
        assert self._observe() == want


class TestKleene:
    def test_truth_tables(self):
        from berger_rank.rank_engine import _kleene

        H, F, U = Status.HOLDS, Status.FAILS, Status.UNKNOWN
        rank = {F: 0, U: 1, H: 2}  # Kleene AND is min
        for a in Status:
            for b in Status:
                assert _kleene(a, b) is min(a, b, key=rank.get), (a, b)
        assert _kleene(H, H, U) is U and _kleene(H, U, F) is F


class TestCmRoute:
    def test_quintic_exact(self):
        v = rank_verdict(F5, G2, 7, 2)
        assert v.kind is VerdictKind.EXACT_RANK
        assert v.rank == 4
        assert v.c2_value == c2(5, 2, 49)
        st = statuses(v)
        assert st["binomial-cm-g"] is Status.HOLDS
        assert st["galois-f"] is Status.HOLDS
        assert st["hom-vanishing-cm"] is Status.HOLDS
        assert st["c1-zero"] is Status.HOLDS

    def test_p_independence_m_ge_5(self):
        kinds = set()
        for p in (2, 3, 5, 7, 97):
            v = rank_verdict(F5, G2, p, 1)
            kinds.add((v.kind, v.rank))
        assert kinds == {(VerdictKind.EXACT_RANK, 4)}

    def test_cubic_cm_side(self):
        v = rank_verdict(F5, G3, 5, 1)
        assert v.kind is VerdictKind.EXACT_RANK
        assert v.rank == 8

    def test_matched_degree_layers(self):
        vals = [(v.layer.r, v.rank) for v in rank_table(F5, G5, 5, 3)]
        assert vals == [(0, 16), (1, 20), (2, 20), (3, 20)]

    def test_quartic_odd_primes(self):
        for p in (3, 5, 7, 11, 281):
            v = rank_verdict(F4, G2, p, 1)
            assert v.kind is VerdictKind.EXACT_RANK and v.rank == 3, p
            # Gal(x^4 - x - 1) is certified Sym(4) at the default bound
            assert statuses(v)["galois-f"] is Status.HOLDS

    def test_quartic_excluded_prime(self):
        v = rank_verdict(F4, G2, 283, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        st = statuses(v)
        assert st["quadratic-disjoint"] is Status.FAILS
        assert st["unramified"] is Status.UNKNOWN
        # (ii) implies (i), so a failed (i) fails the side
        assert st["hom-vanishing-cm"] is Status.FAILS

    def test_quartic_even_prime(self):
        v = rank_verdict(F4, G2, 2, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        st = statuses(v)
        assert st["p-odd"] is Status.FAILS
        assert st["hom-vanishing-cm"] is Status.FAILS

    def test_quartic_alternating_fails_symmetry(self):
        # Gal(x^4 + 8x + 12) is certified Alt(4), which is not Sym(4): the
        # quartic route needs Sym(4), so both records read Fails
        v = rank_verdict(parse_poly("x^4 + 8x + 12"), G2, 3, 1)
        assert record(v, "galois-f").evidence["verdict"] == "ProvenAlternating"
        assert v.kind is VerdictKind.INCONCLUSIVE
        st = statuses(v)
        assert st["galois-f"] is Status.FAILS
        assert st["hom-vanishing-cm"] is Status.FAILS

    def test_quartic_unproven_group(self):
        # the one prime 2 proves transitivity and nothing more
        v = rank_verdict(F4, G2, 3, 1, prime_bound=2)
        assert record(v, "galois-f").evidence["verdict"] == "Inconclusive"
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert statuses(v)["galois-f"] is Status.UNKNOWN

    def test_even_degree_note(self):
        v = rank_verdict(F6, G2, 3, 1)
        assert v.kind is VerdictKind.EXACT_RANK and v.rank == 5
        assert any("2g_X+gcd(q,2)-1" in note for note in v.notes)

    def test_trace_flags(self):
        assert rank_verdict(F5, G2, 7, 0).trace_geometric_zero is Status.HOLDS
        assert rank_verdict(F5, G3, 5, 1).trace_geometric_zero is Status.UNKNOWN
        for f, g in ((F5, G2), (F4, G2)):
            assert rank_verdict(f, g, 7, 1).trace_Kd_zero is True

    def test_c1_witness_layer_exceeds_c2(self):
        v = rank_verdict(F5, G5, 5, 1)
        rec = next(h for h in v.hypotheses if h.name == "c1-zero")
        bound = rec.evidence["c2_upper_bound"]
        witness = rec.evidence["witness_layer"]
        assert witness > bound
        assert bound == max(c2(5, 5, d) for d in range(1, 30))


class TestTwoLargeRoute:
    def test_exact_when_locus_empty(self):
        v = rank_verdict(F6, parse_poly("y^5 - y - 1"), 7, 1)
        assert v.kind is VerdictKind.EXACT_RANK
        st = statuses(v)
        assert st["hom-bounded"] is Status.HOLDS
        assert st["exact-zero"] is Status.HOLDS

    def test_upper_bound_on_matching_locus(self):
        # p | m and n = m - 1: only the bounded statement survives
        v = rank_verdict(F6, parse_poly("y^5 - y - 1"), 2, 1)
        assert v.kind is VerdictKind.UPPER_BOUND_PLUS_CONSTANT
        st = statuses(v)
        assert st["hom-bounded"] is Status.HOLDS
        assert st["exact-zero"] is Status.UNKNOWN
        assert any("epsilon" in note for note in v.notes)

    def test_quartic_g_side_conditions_apply(self):
        g4 = parse_poly("y^4 - y - 1")
        assert rank_verdict(F5, g4, 7, 1).kind is VerdictKind.EXACT_RANK
        # p = 5 divides m = 5 and n = 4 = m - 1
        assert (
            rank_verdict(F5, g4, 5, 1).kind
            is VerdictKind.UPPER_BOUND_PLUS_CONSTANT
        )


class TestDecomposableSides:
    # f = G(H) puts Gal(f) in a block system, and a Dickson form of prime
    # degree (a binomial, or T_7 - 5) puts it in AGL(1, Z/m): no prime bound
    # proves the side, so the witness makes it fail on both routes
    def test_cm_route(self):
        for f in ("x^6 + 3x^2 + 1", "x^4 - 2", "x^7 - 3", "2(x + 1)^5 + 3",
                  "64x^7 - 112x^5 + 56x^3 - 7x - 5"):
            st = statuses(rank_verdict(parse_poly(f), G2, 5, 1))
            assert st["galois-f"] is Status.FAILS
            assert st["hom-vanishing-cm"] is Status.FAILS

    def test_two_large_route(self):
        g = parse_poly("(y^2 + y)^2 + 3")
        v = rank_verdict(F6, g, 7, 1)
        st = statuses(v)
        assert st["galois-f"] is Status.HOLDS
        assert st["galois-g"] is Status.FAILS
        assert st["hom-bounded"] is Status.FAILS
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_two_large_route_binomial(self):
        # (y + 1)^5 - 2 is no y^n - a, so it takes the two-large route
        v = rank_verdict(F6, parse_poly("(y + 1)^5 - 2"), 7, 1)
        witness = Witness("dickson", (-1, 0, 2))
        assert record(v, "galois-g").evidence["certificate"].witness == witness
        assert statuses(v)["galois-g"] is Status.FAILS
        assert v.kind is VerdictKind.INCONCLUSIVE


class TestTowerPrimeTestedOnce:
    # 2^3217 - 1 is a Mersenne prime; proving it takes more than the
    # factoring budget, so the counting stub answers for it without testing
    P = 2**3217 - 1

    def _count(self, monkeypatch):
        real = exact_poly._proved_prime
        calls = []

        def counting(n):
            if n == self.P:
                calls.append(n)
                return True
            return real(n)

        for name, module in list(sys.modules.items()):
            if name.startswith("berger_rank") and vars(module).get("_proved_prime") is real:
                monkeypatch.setattr(module, "_proved_prime", counting)
        return calls

    def test_rank_table(self, monkeypatch):
        calls = self._count(monkeypatch)
        rows = rank_table(F5, G2, self.P, 1)
        assert [v.layer.q for v in rows] == [1, self.P]
        assert len(calls) == 1

    def test_rank_verdict(self, monkeypatch):
        calls = self._count(monkeypatch)
        assert rank_verdict(F5, G2, self.P, 1).layer.q == self.P
        assert len(calls) == 1


class TestCompositeTowerPrime:
    # Arnault's n = p1 (101 (p1 - 1) + 1) (113 (p1 - 1) + 1), 444 bits with
    # three prime factors, is a strong probable prime to every base 2 ... 97
    # ("Rabin-Miller primality test: composite numbers which pass it", Math.
    # Comp. 64, 1995), and is_prime tests only those bases above 3.3 * 10^24;
    # n - 1 does not factor within the budget, so no Pocklington proof exists
    P1 = 14149897361150126260144642876417791971132923
    N = P1 * (101 * (P1 - 1) + 1) * (113 * (P1 - 1) + 1)

    @pytest.mark.parametrize(
        "call", ["rank_verdict", "rank_table", "dim_new_part", "decomposition_table"]
    )
    def test_no_answer_rests_on_a_composite_prime(self, call):
        calls = {
            "rank_verdict": lambda: rank_verdict(F5, G2, self.N, 1),
            "rank_table": lambda: rank_table(F5, G2, self.N, 1),
            "dim_new_part": lambda: dim_new_part(5, self.N),
            "decomposition_table": lambda: decomposition_table(5, self.N, 1),
        }
        with pytest.raises(InvalidInput, match="^a probable prime of 444 bits could not be"):
            calls[call]()


class TestOtherShapes:
    def test_elliptic_configuration(self):
        v = rank_verdict(parse_poly("x^3 - x - 2"), parse_poly("y^3 - y - 2"), 5, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert any("elliptic" in note for note in v.notes)
        # the pair must be one cubic x^3 - x - c on both sides: a pair that
        # differs from it in lc, in the x coefficient, by an x^2 term or in
        # the constant takes no route
        for f, g in (
            ("2x^3 - 2x - 4", "2y^3 - 2y - 4"),
            ("x^3 + x - 2", "y^3 + y - 2"),
            ("x^3 + x^2 - x - 2", "y^3 + y^2 - y - 2"),
            ("x^3 - x - 2", "y^3 - y - 3"),
        ):
            f, g = parse_poly(f), parse_poly(g)
            analysis = rank_engine._analyze(f, g, 5, 200)
            assert analysis == ((), (rank_engine._NO_ROUTE_NOTE,))
            v = rank_verdict(f, g, 5, 1)
            assert v.kind is VerdictKind.INCONCLUSIVE
            assert v.notes == (rank_engine._NO_ROUTE_NOTE,), (f, g)

    def test_cubic_with_binomial(self):
        v = rank_verdict(parse_poly("x^3 - x - 1"), G2, 5, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_no_route(self):
        v = rank_verdict(F4, parse_poly("y^4 - y - 1"), 5, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.notes

    def test_rank_property_only_for_exact(self):
        v = rank_verdict(F4, G2, 283, 1)
        assert v.rank is None


class TestRouteTable:
    """A seeded grid of shapes against the route table written out here.

    f = x^m - x - 1 and g = y^n - y - 1 have Gal = Sym (Osada, J. Number
    Theory 25, 1987), so each Galois record holds; a binomial g is y^n - a
    with a seeded a, and p is seeded from 2, 3, 5, 7.  disc(x^4 - x - 1) =
    -283, so a quartic side fails only at p = 2."""

    H, F, U = Status.HOLDS, Status.FAILS, Status.UNKNOWN
    NOTES = {
        "cubic": rank_engine._CUBIC_NOTE,
        "quadratic": rank_engine._QUADRATIC_NOTE,
        "elliptic": rank_engine._ELLIPTIC_NOTE,
        "unsupported": rank_engine._NO_ROUTE_NOTE,
    }

    def side(self, name, degree, p):
        if degree != 4:
            return [(name, self.H)]
        if p == 2:
            return [(name, self.H), ("p-odd", self.F), ("quadratic-disjoint", self.U),
                    ("unramified", self.U)]
        return [(name, self.H), ("p-odd", self.H), ("quadratic-disjoint", self.H),
                ("unramified", self.H)]

    def expected(self, m, n, binomial, elliptic, p):
        """(route, [(record name, status)], notes)."""
        H, F, U = self.H, self.F, self.U
        if binomial and m >= 4:
            ok = m != 4 or p != 2
            records = [("binomial-cm-g", H), *self.side("galois-f", m, p),
                       ("hom-vanishing-cm", H if ok else F)]
            return "cm-binomial", records + [("c1-zero", H)] * ok, ()
        if m > n >= 4 and not binomial:
            ok = n != 4 or p != 2
            records = [*self.side("galois-f", m, p), *self.side("galois-g", n, p),
                       ("hom-bounded", H if ok else F)]
            if ok:
                exact = U if m % p == 0 and n == m - 1 else H
                records += [("exact-zero", exact)] + [("c1-zero", H)] * (exact is H)
            return "two-large", records, ()
        route = ("cubic" if m == 3 else "quadratic") if binomial else (
            "elliptic" if elliptic else "unsupported")
        return route, [("binomial-cm-g", H)] * binomial, (self.NOTES[route],)

    def grid(self):
        rng = random.Random("route-table")
        for m, n in itertools.product(range(2, 10), repeat=2):
            for binomial in (True, False):
                a = rng.choice([a for a in range(-9, 10) if a])
                g = f"y^{n} - ({a})" if binomial else f"y^{n} - y - 1"
                # at m = n = 3 the trinomials are the matched elliptic pair
                elliptic = not binomial and m == n == 3
                yield f"x^{m} - x - 1", g, m, n, binomial, elliptic, rng.choice((2, 3, 5, 7))
        c = rng.randint(1, 9)
        yield f"x^3 - x - {c}", f"y^3 - y - {c}", 3, 3, False, True, rng.choice((2, 3, 5, 7))
        # the same cubic up to the constant, or up to lc, is no matched pair
        yield f"x^3 - x - {c}", f"y^3 - y - {c + 1}", 3, 3, False, False, 5
        yield f"2x^3 - 2x - {c}", f"2y^3 - 2y - {c}", 3, 3, False, False, 5

    def test_seeded_grid(self):
        seen = collections.Counter()
        for f, g, m, n, binomial, elliptic, p in self.grid():
            f, g = parse_poly(f), parse_poly(g)
            route, want, notes = self.expected(m, n, binomial, elliptic, p)
            assert next(r[0] for r in rank_engine._ROUTES if r[1](f, g)) == route, (f, g)
            records, got_notes = rank_engine._analyze(f, g, p, 200)
            assert [(h.name, h.status) for h in records] == want, (f, g, p)
            assert got_notes == notes, (f, g, p)
            seen[route] += 1
            seen.update((h.name, h.status) for h in records if h.name == "exact-zero")
            seen.update(("quartic", p == 2) for h in records if h.name == "p-odd")
        # the seed reaches every route and both outcomes of each condition on p
        assert set(self.NOTES) | {"cm-binomial", "two-large"} <= set(seen), seen
        for key in (("exact-zero", self.H), ("exact-zero", self.U),
                    ("quartic", True), ("quartic", False)):
            assert seen[key], (key, seen)


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(InvalidInput):
            rank_verdict(F5, G2, 6, 1)
        with pytest.raises(InvalidInput):
            rank_verdict(F5, G2, 5, -1)
        with pytest.raises(MultiVariableError):
            rank_verdict(F5, parse_poly("x^2 - 1"), 5, 1)
        with pytest.raises(InvalidInput):
            rank_table(F5, G2, 5, -1)

    def test_squarefree_enforced(self):
        with pytest.raises(InvalidInput):
            rank_verdict(parse_poly("(x-1)^2(x+1)^3"), G2, 5, 1)

    def test_valid_pair(self):
        v = rank_verdict(F5, G2, 7, 1)
        assert (v.m, v.n) == (5, 2)

    def test_distinct_variables_required(self):
        wanted = "f and g must use distinct variables, both use 'x'"
        with pytest.raises(MultiVariableError, match=wanted):
            rank_verdict(F5, parse_poly("x^2 - 1"), 7, 1)

    def test_squarefree_required(self):
        with pytest.raises(InvalidInput, match=r"^f = x\^2 - 2\*x \+ 1 is not squarefree$"):
            rank_verdict(parse_poly("x^2 - 2x + 1"), G2, 7, 1)
        with pytest.raises(InvalidInput, match=r"^g = y\^2 - 2\*y \+ 1 is not squarefree$"):
            rank_table(F5, parse_poly("(y-1)^2"), 7, 1)

    def test_degree_bounds(self):
        with pytest.raises(InvalidInput, match="^f must have degree >= 2$"):
            rank_verdict(parse_poly("x - 1"), G2, 7, 1)
        with pytest.raises(InvalidInput, match="^g must have degree >= 2$"):
            rank_verdict(F5, parse_poly("3"), 7, 1)

    def test_check_order(self):
        # each row fails every check after the one it names; the next row
        # mends that one input, so each error is the first failing check
        f, g, p, r, bound = "x - 1", "x", 4, -1, 1
        rows = [
            ({}, InvalidInput, "tower exponent r must be >= 0"),
            ({"r": 1, "p": 2**4096}, InvalidInput, "is too large"),
            ({"p": 4}, InvalidInput, "prime_bound must be >= 2"),
            ({"bound": 200}, InvalidInput, "f must have degree >= 2"),
            ({"f": "(x-1)^2"}, InvalidInput, "g must have degree >= 2"),
            ({"g": "(x-1)^2"}, MultiVariableError, "distinct variables"),
            ({"g": "(y-1)^2"}, InvalidInput, "f = x^2 - 2*x + 1 is not squarefree"),
            ({"f": "x^5 - x - 1"}, InvalidInput, "g = y^2 - 2*y + 1 is not squarefree"),
            ({"g": "y^2 - 1"}, InvalidInput, "tower prime 4 is not prime"),
        ]
        for change, error, message in rows:
            f, g = change.get("f", f), change.get("g", g)
            p, r, bound = change.get("p", p), change.get("r", r), change.get("bound", bound)
            with pytest.raises(error) as info:
                rank_verdict(parse_poly(f), parse_poly(g), p, r, prime_bound=bound)
            assert message in str(info.value), (change, info.value)
        assert rank_verdict(parse_poly(f), parse_poly(g), 7, r, bound).rank == 4

    # each route's pair, and the record or note that only that route gives
    ROUTES = {
        "cm-binomial": ("x^5 - x - 1", "y^2 - 1", "hom-vanishing-cm"),
        "two-large": ("x^6 - x - 1", "y^5 - y - 1", "hom-bounded"),
        "cubic": ("x^3 - x - 1", "y^2 - 1", rank_engine._CUBIC_NOTE),
        "quadratic": ("x^2 - 2", "y^3 - 1", rank_engine._QUADRATIC_NOTE),
        "unsupported": ("x^5 - x - 1", "y^3 - y - 1", rank_engine._NO_ROUTE_NOTE),
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_prime_bound_on_every_route(self, route, capsys):
        # the bound is checked before routing, so a route that certifies no
        # side refuses it too
        f, g, mark = self.ROUTES[route]
        pair = (parse_poly(f), parse_poly(g))
        records, notes = rank_engine._analyze(*pair, 7, 200)
        assert mark in {h.name for h in records} | set(notes)
        for bound, message in (
            (1, "prime_bound must be >= 2"),
            (MAX_PRIME_BOUND + 1, f"prime_bound must be <= {MAX_PRIME_BOUND}"),
        ):
            for call in (rank_verdict, rank_table):
                with pytest.raises(InvalidInput, match=f"^{message}$"):
                    call(*pair, 7, 1, prime_bound=bound)
            for command, r in (("rank", "-r"), ("rank-table", "--max-r")):
                argv = [command, "-f", f, "-g", g, "-p", "7", r, "1",
                        "--prime-bound", str(bound)]
                assert cli.main(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: InvalidInput: {message}\n"


class TestCertificatesEmbedded:
    def test_verdict_certificates_replay(self):
        for f, g, p in ((F5, G2, 7), (F4, G2, 3), (F6, parse_poly("y^5 - y - 1"), 7)):
            v = rank_verdict(f, g, p, 1)
            certs = [
                h.evidence["certificate"]
                for h in v.hypotheses
                if "certificate" in h.evidence
            ]
            assert certs, "expected at least one embedded certificate"
            for cert in certs:
                assert replay_certificate(cert) is cert.verdict

    def test_table_shares_hypotheses_across_layers(self):
        rows = rank_table(F5, G2, 7, 3)
        names = [tuple(h.name for h in v.hypotheses) for v in rows]
        assert len(set(names)) == 1


class TestGoldenPayloads:
    """rank and rank-table --json over every hypothesis branch, against
    values recorded before the side checks of both routes were merged.

    Certificate evidence (the embedded certificate and the rules fired) is
    left out, so a change to the rule engine alone does not touch this.
    """

    CASES = json.loads((Path(__file__).parent / "rank_golden.json").read_text())

    @staticmethod
    def _project(row):
        return {
            "kind": row["kind"],
            "rank": row["rank"],
            "notes": row["notes"],
            "hypotheses": [
                {
                    "name": h["name"],
                    "status": h["status"],
                    "evidence": {
                        k: v
                        for k, v in h["evidence"].items()
                        if k not in ("certificate", "rules")
                    },
                }
                for h in row["hypotheses"]
            ],
        }

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_payload(self, case, capsys):
        assert cli.main([*case["argv"], "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        rows = result["rows"] if case["argv"][0] == "rank-table" else [result]
        assert [self._project(r) for r in rows] == case["rows"]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
    def test_table_rows_equal_single_layers(self, case):
        # a table analyses the pair once, yet each row must be the verdict
        # its layer gets alone, certificates and notes included
        args = dict(zip(case["argv"][1::2], case["argv"][2::2]))
        f, g, p = parse_poly(args["-f"]), parse_poly(args["-g"]), int(args["-p"])
        start = time.perf_counter()
        table = rank_table(f, g, p, 3)
        assert table == [rank_verdict(f, g, p, r) for r in range(4)]
        assert time.perf_counter() - start < 10
