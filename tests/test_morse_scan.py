"""Morse tests, critical-value resultants, and constant scans."""

import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    MAX_PRIME_BOUND,
    GaloisVerdict,
    InvalidInput,
    UniPoly,
    Witness,
    certify_galois,
    critical_value_resultant,
    disjointness_filter,
    integer_model,
    is_morse,
    parse_poly,
    scan_A_h,
)
from berger_rank import galois_cert, morse_scan
from berger_rank.errors import NotSquarefree
from berger_rank.exact_poly import derivative, discriminant
from berger_rank.galois_cert import _model_and_disc
from berger_rank.morse_scan import _rational_root, _rows


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

    def test_values_match_the_definition_for_rational_h(self):
        # each D(i) is one integer subresultant of the cleared model H = L h;
        # D must still read Res_x(h - i, h') at every point, by sympy
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random("critical-values-on-integers")
        for _ in range(25):
            m = rng.randint(2, 8)
            coeffs = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 15])) for _ in range(m)]
            coeffs.append(Fraction(rng.choice([1, -1, 3, -6]), rng.choice([1, 2, 5])))
            h = UniPoly(coeffs, "x")
            d = critical_value_resultant(h)
            hs = sum(sympy.Rational(c.numerator, c.denominator) * x**k
                     for k, c in enumerate(h.coeffs))
            dhs = sympy.diff(hs, x)
            for point in (*range(-2, m + 2), Fraction(1, 3), Fraction(-7, 2)):
                want = sympy.resultant(hs - sympy.Rational(point.numerator, point.denominator), dhs, x)
                assert d(Fraction(point)) == Fraction(int(want.p), int(want.q)), (h, point)

    def test_integer_interpolation_matches_a_fraction_reference(self):
        # D is interpolated over Z with one division at the end; Newton's
        # divided differences over Q give the same polynomial, also for h
        # with denominators, so values with a common denominator L > 1
        from berger_rank.exact_poly import resultant

        def reference(h):
            m, hp = h.degree, derivative(h)
            newton = [resultant(h - i, hp) for i in range(m)]
            for j in range(1, m):
                for i in range(m - 1, j - 1, -1):
                    newton[i] = (newton[i] - newton[i - 1]) / j
            t = UniPoly((0, 1), "t")
            d = UniPoly((newton[-1],), "t")
            for k in range(m - 2, -1, -1):
                d = d * (t - k) + newton[k]
            return d

        rng = random.Random("integer-interpolation")
        fractional = 0
        for _ in range(60):
            m = rng.randint(2, 12)
            coeffs = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 12])) for _ in range(m)]
            coeffs.append(Fraction(rng.choice([1, -1, 2, 5]), rng.choice([1, 3])))
            h = UniPoly(coeffs, "x")
            d = critical_value_resultant(h)
            assert d.coeffs == reference(h).coeffs, h
            fractional += any(isinstance(c, Fraction) for c in d.coeffs)
        assert fractional >= 10


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

    def test_linear_rejected(self):
        x = parse_poly("x")
        for call in (critical_value_resultant, lambda h: scan_A_h(h, 0, 1)):
            with pytest.raises(InvalidInput, match="degree >= 2"):
                call(x)

    @staticmethod
    def _seeded_h():
        rng = random.Random("morse-flags")
        hs = [parse_poly("x^3"), parse_poly("x^4 - 2x^2")]  # h' repeated, values equal
        while len(hs) < 62:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9) + 1)]
            if coeffs[-1]:
                hs.append(UniPoly(coeffs))
        return hs

    def test_flags_match_their_discriminants(self):
        for h in self._seeded_h():
            report = is_morse(h)
            D = critical_value_resultant(h)
            simple_points = discriminant(derivative(h)) != 0
            distinct_values = discriminant(D) != 0
            assert report.derivative_squarefree == simple_points, h
            assert report.critical_value_disc_squarefree == distinct_values, h
            assert report.is_morse == report.critical_value_disc_squarefree, h
            assert report.is_morse == (simple_points and distinct_values), h
            assert report.critical_values_poly == D, h

    _RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=4)

    @given(st.lists(_RATIONAL, min_size=2, max_size=8), _RATIONAL.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_distinct_values_flag_is_disc_of_D(self, low, lead):
        # is_morse takes the discriminant of an integer multiple of D; the
        # flag must be that of D itself, on rational h and non-Morse h alike
        hs = [UniPoly(low + [lead]), parse_poly("x^4 - 2x^2"), parse_poly("2x^5/3 - 2x")]
        for h in hs:
            report = is_morse(h)
            assert report.critical_value_disc_squarefree == (
                discriminant(critical_value_resultant(h)) != 0
            ), h

    def test_rational_h_scales_its_critical_values(self):
        # L = 3 clears 2x^5/3 - 2x, so D is the interpolated sum over 4! 3^9
        report = is_morse(parse_poly("2x^5/3 - 2x"))
        assert report.is_morse
        assert report.critical_values_poly == parse_poly("100000/243*t^4 - 131072/81")
        report = is_morse(parse_poly("x^4 - 2x^2"))  # -1 and 1 share the value -1
        assert report.derivative_squarefree
        assert not report.critical_value_disc_squarefree

    def test_a_morse_h_takes_one_discriminant(self, monkeypatch):
        # D(t) settles is_morse; disc(h') is taken only when D repeats a root
        calls = []

        def counting(f):
            calls.append(f)
            return discriminant(f)

        monkeypatch.setattr(morse_scan, "discriminant", counting)
        morse = 0
        for h in self._seeded_h():
            calls.clear()
            report = is_morse(h)
            assert len(calls) == (1 if report.is_morse else 2), h
            morse += report.is_morse
        assert 0 < morse < 62

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

    def test_long_constant_tag_in_bounded_time(self):
        # disc(x^5 - x - c) = 3125 c^4 - 256 has a ~13,300-bit cofactor for
        # c = 10^1000 + 7: the tag is unknown at once, where the cofactor's
        # primality test alone took seconds, and the row is still certified
        c = 10 ** 1000 + 7
        start = time.perf_counter()
        (row,) = scan_A_h(parse_poly("x^5 - x"), c, c)
        assert time.perf_counter() - start < 1.0
        assert row.quad_tag is None and row.in_A_h
        assert row.certificate.verdict is GaloisVerdict.PROVEN_SYMMETRIC

    def test_scan_is_deterministic(self):
        a = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        b = scan_A_h(parse_poly("x^5 - x"), -2, 2)
        assert [(r.c, r.in_A_h, r.quad_tag, r.reason) for r in a] == [
            (r.c, r.in_A_h, r.quad_tag, r.reason) for r in b
        ]

    def test_scan_runs_in_the_calling_thread(self, monkeypatch):
        # jobs=1 is the default, kept for the benchmark's calls; whole rows
        # agree, also the rows of content 2 (3(h - c) = 2x^5 - 6x - 3c for
        # even c) beside those of content 1 in one pattern memo
        for text, lo, hi in (("x^5 - x", -3, 3), ("2x^5/3 - 2x", -8, 8)):
            h = parse_poly(text)
            one, default = scan_A_h(h, lo, hi, jobs=1), scan_A_h(h, lo, hi)
            assert one == default and repr(one) == repr(default)
        # any other value is refused before a row is built
        monkeypatch.setattr(morse_scan, "_rows", None)
        for jobs in (0, 2, 4):
            with pytest.raises(InvalidInput, match="calling thread"):
                scan_A_h(parse_poly("x^5 - x"), -3, 3, jobs=jobs)

    def test_scan_rejects_bad_range(self):
        with pytest.raises(InvalidInput):
            scan_A_h(parse_poly("x^5 - x"), 3, -3)
        # also when no row would reach certification: x^5 - x has the root 0
        for bound in (1, MAX_PRIME_BOUND + 1):
            with pytest.raises(InvalidInput):
                scan_A_h(parse_poly("x^5 - x"), 0, 0, prime_bound=bound)

    def test_rows_match_the_public_certifier(self):
        # a row hands its integer model and discriminant to certification;
        # the certificate is the one certify_galois builds from scratch
        for text in ("x^5 - x", "x^7/2 + 3", "2x^6 - 3x + 1/3", "(x + 1)^5"):
            h = parse_poly(text)
            for row in scan_A_h(h, -3, 3):
                if row.certificate is not None:
                    assert row.certificate == certify_galois(h - row.c), (text, row.c)
        # x^7/2 + 3 - c = (x^7 - (2c - 6)) / 2: a binomial row samples nothing
        rows = scan_A_h(parse_poly("x^7/2 + 3"), -3, 2)
        assert [r.certificate.witness for r in rows] == [
            Witness("dickson", (0, 0, 2 * c - 6)) for c in range(-3, 3)
        ]
        assert all(r.reason == "unproven" and not r.certificate.observations for r in rows)

    def test_alternating_row(self):
        # x^5 + 20x + 16 has square discriminant 2^16 5^6 and Gal = Alt(5)
        (row,) = scan_A_h(parse_poly("x^5 + 20x"), -16, -16)
        assert row.certificate.verdict is GaloisVerdict.PROVEN_ALTERNATING
        assert not row.in_A_h and row.reason == "alternating, hence not symmetric"

    def test_repeated_root_row(self):
        # c = 0 makes x^3 - 3x^2 + 3x... pick h where h - c has a square factor:
        # h = x^2, c = 0 gives x^2, not squarefree
        rows = scan_A_h(parse_poly("x^2"), 0, 0)
        assert not rows[0].in_A_h
        assert "squarefree" in rows[0].reason


def _seeded_rational_h(rng):
    """h of degree 2-9 with denominators 1-6 and a numerator content of 2-4."""
    m = rng.randint(2, 9)
    content = rng.randint(2, 4)
    coeffs = [Fraction(content * rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)]
    coeffs.append(Fraction(content * rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 6)))
    return UniPoly(coeffs)


class TestSharedRowWork:
    """A scan lifts h to Z once, takes every row's discriminant from one
    batch of resultants and shares each reduction's pattern between rows."""

    def test_row_facts_match_sympy(self):
        # _rows and _model_and_disc share one routine, so each is checked
        # against sympy's primitive part and discriminants instead
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(37)
        cases = [(_seeded_rational_h(rng), -6, 6) for _ in range(40)]
        cases.append((parse_poly("x^3 - 3x"), -3, 3))  # repeated roots at c = -2, 2
        cases.append((parse_poly("x^2/4 - x"), -2, 0))  # (x/2 - 1)^2 at c = -1
        repeated = []
        for h, lo, hi in cases:
            for fc, c, facts in _rows(h, range(lo, hi + 1)):
                assert fc == h - c and repr(fc) == repr(h - c), (h, c)
                poly = sum(
                    sympy.Rational(a.numerator, a.denominator) * x**k
                    for k, a in enumerate(fc.coeffs)
                )
                disc = sympy.discriminant(poly, x)
                if disc == 0:
                    assert facts is None, (h, c)
                    with pytest.raises(NotSquarefree):
                        _model_and_disc(fc)
                    repeated.append((str(h), c))
                    continue
                _, prim = sympy.primitive(poly)
                model = [int(v) for v in reversed(sympy.Poly(prim, x).all_coeffs())]
                model_disc = int(sympy.discriminant(prim, x))
                for got in (facts, _model_and_disc(fc)):
                    assert got[0] == UniPoly(model) and type(got[1]) is int, (h, c)
                    assert got[1:] == (model_disc, Fraction(int(disc.p), int(disc.q))), (h, c)
                    assert type(got[2]) is Fraction, (h, c)
        assert ("x^3 - 3*x", -2) in repeated and ("x^3 - 3*x", 2) in repeated
        assert ("1/4*x^2 - x", -1) in repeated

    @pytest.mark.parametrize(
        "text, lo, hi",
        [
            ("x^5/2 - 3x^2 + x", -10, 10),  # 21 rows
            ("x^8 - 3x^4 + 2x", -4, 4),
            ("x^8 - 3x^4", -4, 4),  # G(x^4): decomposition witnesses
            ("2x^5/3 - 2x", -5, 5),  # rows of even c have content 2
        ],
    )
    def test_rows_match_the_per_row_certificates(self, text, lo, hi):
        h = parse_poly(text)
        rows = scan_A_h(h, lo, hi)
        assert [r.c for r in rows] == list(range(lo, hi + 1))
        for row in rows:
            if row.certificate is None:
                continue
            alone = certify_galois(h - row.c)
            cert = row.certificate
            assert cert.verdict is alone.verdict, (text, row.c)
            assert cert.observations == alone.observations, (text, row.c)
            assert cert.rules_fired == alone.rules_fired, (text, row.c)
            assert cert.witness == alone.witness, (text, row.c)
            assert repr(cert) == repr(alone), (text, row.c)

    def test_rows_share_patterns(self, monkeypatch):
        calls = []
        real = galois_cert.degree_pattern

        def counting(*args, **kwargs):
            calls.append(args[0].p)
            return real(*args, **kwargs)

        monkeypatch.setattr(galois_cert, "degree_pattern", counting)
        rows = scan_A_h(parse_poly("x^5/2 - 3x^2 + x"), -10, 10)
        observations = sum(len(r.certificate.observations) for r in rows if r.certificate)
        assert len(calls) < observations

    def test_memo_holds_only_primes_up_to_the_width(self, monkeypatch):
        seen = []
        real = morse_scan._certify

        def spy(*args):
            seen.append((args[-2], args[-1]))
            return real(*args)

        monkeypatch.setattr(morse_scan, "_certify", spy)
        for lo, hi in ((-10, 10), (3, 7), (7, 7)):
            seen.clear()
            scan_A_h(parse_poly("x^5 - x"), lo, hi)
            memo, bound = seen[0]
            assert all(m is memo and b == hi - lo for m, b in seen)
            assert all(p <= hi - lo for p, _ in memo)
            # one row stores nothing; a wider range stores the small primes
            assert bool(memo) is (hi > lo)


class TestReducibleRows:
    @pytest.mark.parametrize(
        "text, factor, count",
        [
            ("x^5 - 4*x^4 - 3*x - 1", "x^2 - x + 1", 1),
            ("x^8 - 2*x^5 - x - 1", "x^2 + x + 1", 9),
        ],
    )
    def test_factor_witness_ends_the_row(self, text, factor, count):
        # reducible with no rational root: the factor search ends the row on
        # its quadratic factor, where it sampled every good prime below 200;
        # the reason stays "unproven"
        (row,) = scan_A_h(parse_poly(text), 0, 0)
        assert (row.in_A_h, row.reason) == (False, "unproven")
        cert = row.certificate
        assert cert.verdict is GaloisVerdict.INCONCLUSIVE
        assert cert.witness.kind == "factor" and str(cert.witness.values[0]) == factor
        assert len(cert.observations) == count


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


def _root(f):
    """_rational_root on f's squarefree integer model and its discriminant,
    as a scan row gives them; f's repeated roots are roots of it too."""
    g, h = f, derivative(f)
    while not h.is_zero:
        g, h = h, g % h
    model = integer_model(f // g)
    return _rational_root(model, discriminant(model).numerator)


class TestRationalRoot:
    def test_matches_parent_enumeration(self):
        polys = _random_polys()
        assert len(polys) > 150
        found = 0
        for f in polys:
            root = _root(f)
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
            root = _root(f)
            if roots:
                assert root in roots, f
            else:
                assert root is None, f

    @pytest.mark.parametrize("p", [3, 199])
    def test_both_sides_of_the_root_scan_bound(self, p):
        # p = 3 and p = 199 lie on the two sides of the bound under which the
        # degree-pattern loop scans residues for roots; the search scans
        # every residue at both, and at a good prime finds the parent's root
        from berger_rank import modp_factor

        assert (p * 6 <= modp_factor._ROOT_SCAN_BOUND) == (p == 3)
        checked = found = 0
        for f in _random_polys(count=2000, seed=23):
            model = integer_model(f)
            if model.degree != 5:
                continue
            roots = galois_cert._rational_roots(model, p)
            if roots is None:  # p divides lc, or a root mod p is repeated
                continue
            want = _parent_rational_root(model)
            assert (roots[0] if roots else None) == want, (f, p)
            checked += 1
            found += bool(roots)
        assert checked >= 25 and 10 <= found < checked, (checked, found)

    def test_no_coefficient_is_factored(self):
        # N = (10^30 + 57)(10^30 + 99): enumerating the divisors of x^7 - x +
        # N's constant spent a second failing to factor it; the roots lifted
        # from one good prime answer exactly in milliseconds, and find a
        # root whose numerator and denominator are both such primes
        import time

        a, b = 10**30 + 57, 10**30 + 99
        no_root = parse_poly("x^7 - x") + a * b
        big_root = UniPoly((-a, b)) * parse_poly("x^6 + x + 1")
        start = time.perf_counter()
        assert _root(no_root) is None
        assert _root(big_root) == Fraction(a, b)
        assert time.perf_counter() - start < 0.05


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
