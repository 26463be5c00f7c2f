"""Rank verdicts: routing, hypothesis records, exactness, and error paths."""

import time
from fractions import Fraction

import pytest

from berger_rank import (
    FactorizationIncomplete,
    InvalidInput,
    MultiVariableError,
    Status,
    VerdictKind,
    c2,
    check_hom_mgtn,
    check_hom_vanishing_cm,
    discriminant,
    disjointness_filter,
    is_binomial_cm,
    parse_poly,
    quadratic_disjoint,
    rank_table,
    rank_verdict,
    replay_certificate,
    scan_A_h,
    unramified_check,
)

F5 = parse_poly("x^5 - x - 1")
F4 = parse_poly("x^4 - x - 1")
F6 = parse_poly("x^6 - x - 1")
G2 = parse_poly("y^2 - 1")
G3 = parse_poly("y^3 - 1")
G5 = parse_poly("y^5 - 1")
# disc f has a cofactor that Brent rho does not split within the factoring
# budget (about 20 s of rho on a 2-core machine before giving up), so
# condition (i) must be decided without its squarefree part
PLANTED = parse_poly("x^4 - 817077202x - 5801424265")


def statuses(verdict):
    return {h.name: h.status for h in verdict.hypotheses}


class TestBinomialDetection:
    def test_accepts_exact_binomials(self):
        assert is_binomial_cm(G2) == 1
        assert is_binomial_cm(parse_poly("y^7 + 3")) == -3
        assert is_binomial_cm(parse_poly("y^4 - 2/3")) == Fraction(2, 3)

    def test_rejects_everything_else(self):
        assert is_binomial_cm(parse_poly("y^3 - y - 1")) is None
        assert is_binomial_cm(parse_poly("2y^2 - 1")) is None
        assert is_binomial_cm(parse_poly("y^2")) is None
        assert is_binomial_cm(parse_poly("y - 1")) is None


class TestSideConditions:
    def test_quadratic_disjoint_holds(self):
        rec = quadratic_disjoint(F4, 3)
        assert rec.status is Status.HOLDS
        assert rec.evidence == {
            "disc": -283,
            "cyclotomic_quadratic_tag": -3,
            "disc_times_p_star_is_square": False,
        }

    def test_quadratic_disjoint_fails_at_283(self):
        rec = quadratic_disjoint(F4, 283)
        assert rec.status is Status.FAILS
        assert rec.evidence["cyclotomic_quadratic_tag"] == -283
        assert rec.evidence["disc_times_p_star_is_square"] is True

    def test_quadratic_disjoint_p_mod_4(self):
        # p = 1 mod 4 keeps the positive tag
        rec = quadratic_disjoint(F4, 5)
        assert rec.evidence["cyclotomic_quadratic_tag"] == 5
        assert rec.status is Status.HOLDS

    def test_quadratic_disjoint_validation(self):
        with pytest.raises(InvalidInput):
            quadratic_disjoint(F5, 7)
        with pytest.raises(InvalidInput):
            quadratic_disjoint(F4, 2)
        with pytest.raises(InvalidInput):
            quadratic_disjoint(F4, 9)

    def test_unramified(self):
        assert unramified_check(F4, 3).status is Status.HOLDS
        rec = unramified_check(F4, 283)
        assert rec.status is Status.UNKNOWN
        assert rec.evidence["disc"] == -283

    def test_planted_quartic_needs_no_factoring(self):
        start = time.perf_counter()
        rec = quadratic_disjoint(PLANTED, 7)
        took = time.perf_counter() - start
        assert rec.status is Status.HOLDS
        assert rec.evidence == {
            "disc": discriminant(PLANTED),
            "cyclotomic_quadratic_tag": -7,
            "disc_times_p_star_is_square": False,
        }
        assert took < 1.0, took
        v = rank_verdict(PLANTED, parse_poly("y^3 - 2"), 7, 1)
        assert statuses(v)["quadratic-disjoint"] is Status.HOLDS


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
        rank = {F: 0, U: 1, H: 2}  # Kleene AND is min, OR is max
        for a in Status:
            for b in Status:
                assert _kleene(a, b) is min(a, b, key=rank.get), (a, b)
                assert _kleene(a, b, any_of=True) is max(a, b, key=rank.get), (a, b)
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
        assert st["hom-vanishing-cm"] is Status.UNKNOWN

    def test_quartic_even_prime(self):
        v = rank_verdict(F4, G2, 2, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        st = statuses(v)
        assert st["p-odd"] is Status.FAILS
        assert st["hom-vanishing-cm"] is Status.FAILS

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

    def test_direct_checker_validation(self):
        with pytest.raises(InvalidInput):
            check_hom_mgtn(F5, parse_poly("y^5 - y - 1"), 7)
        with pytest.raises(InvalidInput):
            check_hom_vanishing_cm(parse_poly("x^3 - x - 1"), 7)


class TestOtherShapes:
    def test_elliptic_configuration(self):
        v = rank_verdict(parse_poly("x^3 - x - 2"), parse_poly("y^3 - y - 2"), 5, 1)
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert any("elliptic" in note for note in v.notes)

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
