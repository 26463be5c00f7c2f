"""Morse tests, critical-value resultants, and constant scans."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    GaloisVerdict,
    InvalidInput,
    UniPoly,
    critical_value_resultant,
    disjointness_filter,
    integer_model,
    is_morse,
    parse_poly,
    scan_A_h,
)
from berger_rank.morse_scan import _rational_root


class TestCriticalValues:
    def test_degree_is_m_minus_1(self):
        for m in range(2, 8):
            h = parse_poly(f"x^{m} - x")
            d = critical_value_resultant(h)
            assert d.degree == m - 1
            assert d.var == "t"

    def test_known_polynomials(self):
        # critical values of x^3: only 0, with multiplicity
        assert critical_value_resultant(parse_poly("x^3")) == parse_poly("27t^2")
        assert critical_value_resultant(parse_poly("x^5 - x")) == parse_poly(
            "3125t^4 - 256"
        )
        # x^4 - 2x^2 has critical values 0, -1, -1
        d = critical_value_resultant(parse_poly("x^4 - 2x^2"))
        assert d == parse_poly("-256t^3 - 512t^2 - 256t")

    def test_variable_collision_avoided(self):
        h = parse_poly("t^3 - t")
        d = critical_value_resultant(h)
        assert d.var == "u"

    def test_roots_are_critical_values(self):
        h = parse_poly("x^3 - 3x")  # h'(x) = 3x^2 - 3, critical points +-1
        d = critical_value_resultant(h)
        assert d(Fraction(2)) == 0  # h(1) = -2... sign convention below
        assert d(Fraction(-2)) == 0

    def test_sympy_resultant_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random("critical-values")
        cases = []
        for m in range(2, 10):
            for sparse in (False, True):
                lead = rng.choice([1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3)])
                if sparse:
                    low = [0] * m
                    for k in rng.sample(range(m), rng.randint(1, 2)):
                        low[k] = rng.randint(-20, 20)
                else:
                    low = [rng.randint(-9, 9) for _ in range(m)]
                cases.append(UniPoly(low + [lead], "x"))
        cases.append(UniPoly([rng.randint(-9, 9) for _ in range(5)] + [-4], "t"))
        for h in cases:
            d = critical_value_resultant(h)
            x = sympy.Symbol(h.var)
            t = sympy.Symbol(d.var)
            hs = sum(sympy.Rational(c.numerator, c.denominator) * x**k
                     for k, c in enumerate(h.coeffs))
            want = sympy.Poly(sympy.resultant(hs - t, sympy.diff(hs, x), x), t)
            got = [sympy.Rational(c.numerator, c.denominator) for c in d.coeffs]
            assert got == list(reversed(want.all_coeffs())), h


class TestMorse:
    def test_family(self):
        for m in range(2, 10):
            assert is_morse(parse_poly(f"x^{m} - x")).is_morse, m

    def test_degenerate_critical_point(self):
        report = is_morse(parse_poly("x^3"))
        assert not report.derivative_squarefree
        assert not report.is_morse

    def test_repeated_critical_value(self):
        report = is_morse(parse_poly("x^4 - 2x^2"))
        assert report.derivative_squarefree
        assert not report.critical_value_disc_squarefree
        assert not report.is_morse

    def test_reports_carry_evidence(self):
        report = is_morse(parse_poly("x^5 - x"))
        assert report.critical_values_poly == parse_poly("3125t^4 - 256")

    def test_constant_rejected(self):
        with pytest.raises(InvalidInput):
            is_morse(parse_poly("5"))

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.integers(1, 5),
        st.sampled_from(["none", "rational", "irrational"]),
        st.integers(-3, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_derivative_squarefree_matches_sympy_gcd(self, low, lead, plant, r):
        # h' = base * (planted square); h is its antiderivative, so h has a
        # double critical point at r, or at the roots of x^2 + |r| + 1
        sp = pytest.importorskip("sympy")
        hp = UniPoly(low + [lead])
        if plant == "rational":
            hp = hp * UniPoly([-r, 1]) ** 2
        elif plant == "irrational":
            hp = hp * UniPoly([abs(r) + 1, 0, 1]) ** 2
        h = UniPoly([r] + [Fraction(c, k + 1) for k, c in enumerate(hp.coeffs)])
        x = sp.Symbol("x")
        H = sp.Poly([sp.Rational(c.numerator, c.denominator)
                     for c in reversed(h.coeffs)], x, domain=sp.QQ)
        Hp = H.diff(x)
        constant_gcd = sp.gcd(Hp, Hp.diff(x)).degree() == 0
        assert is_morse(h).derivative_squarefree == constant_gcd, h


class TestScan:
    def test_scan_quintic(self):
        rows = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        assert [r.c for r in rows] == [-2, -1, 0, 1, 2]
        by_c = {r.c: r for r in rows}
        assert not by_c[0].in_A_h
        assert "rational root" in by_c[0].reason
        for c in (-2, -1, 1, 2):
            assert by_c[c].in_A_h
            assert by_c[c].certificate is not None
            assert by_c[c].certificate.verdict is GaloisVerdict.PROVEN_SYMMETRIC
        assert by_c[1].quad_tag == 2869
        assert by_c[2].quad_tag == 3109

    def test_scan_is_deterministic(self):
        a = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        b = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        assert [(r.c, r.in_A_h, r.quad_tag, r.reason) for r in a] == [
            (r.c, r.in_A_h, r.quad_tag, r.reason) for r in b
        ]

    def test_scan_parallel_matches_serial(self):
        serial = scan_A_h(parse_poly("x^5 - x"), -3, 3, jobs=1)
        parallel = scan_A_h(parse_poly("x^5 - x"), -3, 3, jobs=4)
        assert [(r.c, r.in_A_h, r.quad_tag) for r in serial] == [
            (r.c, r.in_A_h, r.quad_tag) for r in parallel
        ]

    def test_scan_rejects_bad_range(self):
        with pytest.raises(InvalidInput):
            scan_A_h(parse_poly("x^5 - x"), 3, -3)

    def test_repeated_root_row(self):
        # c = 0 makes x^3 - 3x^2 + 3x... pick h where h - c has a square factor:
        # h = x^2, c = 0 gives x^2, not squarefree
        rows = scan_A_h(parse_poly("x^2"), 0, 0)
        assert not rows[0].in_A_h
        assert "squarefree" in rows[0].reason


def _parent_rational_root(f):
    """The Fraction enumeration that _rational_root replaced, kept as oracle."""
    coeffs = [int(c) for c in integer_model(f).coeffs]
    if not coeffs:
        return None
    if coeffs[0] == 0:
        return 0

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    for num in divisors(coeffs[0]):
        for den in divisors(coeffs[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if f(cand) == 0:
                    return cand
    return None


def _random_polys(count=200, seed=7):
    """Integer polynomials of degree 2-9, many non-monic, some with planted
    rational roots and constant terms with many divisors."""
    rng = random.Random(seed)
    rich = [720, -5040, 720720, 2520, -360360, 1]
    out = []
    for _ in range(count):
        poly = UniPoly([1])
        planted = rng.randint(0, 3)
        for _ in range(planted):
            num = rng.choice([0, 1, -1, 2, -3, 5, 7, -12, 30])
            den = rng.choice([1, 1, 2, 3, -4, 6])
            poly = poly * UniPoly([-num, den])
        rest = rng.randint(max(2 - planted, 0), 9 - planted)
        coeffs = [rng.randint(-40, 40) for _ in range(rest)]
        coeffs.append(rng.choice([1, -1, 2, 6, -12, 30, 36]))
        if coeffs and rng.random() < 0.4:
            coeffs[0] = rng.choice(rich)
        poly = poly * UniPoly(coeffs)
        if 2 <= poly.degree <= 9:
            out.append(poly)
    return out


class TestRationalRoot:
    def test_matches_parent_enumeration(self):
        polys = _random_polys()
        assert len(polys) > 150
        found = 0
        for f in polys:
            root = _rational_root(f)
            want = _parent_rational_root(f)
            # same first root, same type, same text in the scan's reason
            assert (root, type(root), str(root)) == (want, type(want), str(want)), f
            found += root is not None
        assert 50 < found < len(polys)

    def test_matches_sympy_linear_factors(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for f in _random_polys(count=120, seed=11):
            coeffs = [int(c) for c in integer_model(f).coeffs]
            _, factors = sympy.factor_list(sympy.Poly(coeffs[::-1], x))
            roots = {
                Fraction(-int(fac.nth(0)), int(fac.nth(1)))
                for fac, _ in factors
                if fac.degree() == 1
            }
            root = _rational_root(f)
            if roots:
                assert root in roots, f
            else:
                assert root is None, f


class TestDisjointness:
    def test_pairs_from_scan(self):
        rows = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        members = [r for r in rows if r.in_A_h]
        pairs = disjointness_filter(members)
        assert pairs == [(-2, -1), (-2, 1), (-1, 2), (1, 2)]

    def test_non_members_rejected(self):
        rows = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        with pytest.raises(InvalidInput):
            disjointness_filter(rows)

    def test_unknown_tag_pairs_like_any_row(self):
        # quad_tag is display only: a row whose tag ran out of factoring
        # budget still pairs, by the square test on the certified discs
        rows = scan_A_h(parse_poly("x^5 - x"), 1, 2)
        patched = [dataclasses.replace(rows[0], quad_tag=None), rows[1]]
        assert disjointness_filter(patched) == [(1, 2)]
        untagged = [dataclasses.replace(r, quad_tag=None) for r in rows]
        assert disjointness_filter(untagged) == [(1, 2)]

    def test_square_test_matches_tag_comparison(self):
        # where every tag is known, the square test pairs exactly the rows
        # whose squarefree tags differ
        rows = scan_A_h(parse_poly("x^5 - x"), -8, 8)
        members = [r for r in rows if r.in_A_h]
        assert len(members) > 8 and all(r.quad_tag is not None for r in members)
        by_tag = [
            (a.c, b.c)
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if a.quad_tag != b.quad_tag
        ]
        pairs = disjointness_filter(members)
        assert pairs == by_tag
        assert len(pairs) < len(members) * (len(members) - 1) // 2
