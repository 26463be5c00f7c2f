"""Exact polynomial arithmetic: parsing, division, resultants, integers."""

import math
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    ConstantPolynomialError,
    DivisionByZeroPoly,
    FactorizationIncomplete,
    MultiVariableError,
    NonRationalCoefficient,
    PolySyntaxError,
    UniPoly,
    ZeroInput,
    certify_galois,
    derivative,
    discriminant,
    factor_int,
    int_squarefree_part,
    integer_model,
    is_prime,
    parse_poly,
    poly_divmod,
    primes_up_to,
    rational_is_square,
    resultant,
)

X = UniPoly((0, 1))


def lin(r, var="x"):
    """x - r"""
    return UniPoly((Fraction(-r), Fraction(1)), var)


@st.composite
def polys(draw, min_deg=0, max_deg=4, coef=9, var="x"):
    deg = draw(st.integers(min_deg, max_deg))
    low = [draw(st.integers(-coef, coef)) for _ in range(deg)]
    lead = draw(st.integers(1, coef)) * draw(st.sampled_from([1, -1]))
    return UniPoly(tuple(low) + (lead,), var)


class TestParseRender:
    def test_basic_forms(self):
        assert parse_poly("x^4-x-1") == UniPoly((-1, -1, 0, 0, 1))
        assert parse_poly("y^2 - 1") == UniPoly((-1, 0, 1), "y")
        assert parse_poly("3x^2 + x/2 - 5") == UniPoly((-5, Fraction(1, 2), 3))
        assert parse_poly("(x-1)(x+1)") == UniPoly((-1, 0, 1))
        assert parse_poly("(x+1)^3") == UniPoly((1, 3, 3, 1))
        assert parse_poly("-x") == UniPoly((0, -1))
        assert parse_poly("7") == UniPoly((7,))
        assert parse_poly("0.5x") == UniPoly((0, Fraction(1, 2)))

    def test_juxtaposition_and_powers(self):
        assert parse_poly("2x(x+1)") == UniPoly((0, 2, 2))
        assert parse_poly("2^3") == UniPoly((8,))
        # exponents are integer literals; chains are rejected, not guessed at
        with pytest.raises(PolySyntaxError):
            parse_poly("x^2^2")

    def test_errors(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("")
        with pytest.raises(PolySyntaxError):
            parse_poly("x +")
        with pytest.raises(PolySyntaxError):
            parse_poly("x^^2")
        with pytest.raises(MultiVariableError):
            parse_poly("x + y")
        with pytest.raises(NonRationalCoefficient):
            parse_poly("1/x")
        with pytest.raises(NonRationalCoefficient):
            parse_poly("1/0")

    def test_nesting_cap(self):
        cap = 100  # _ParseState.MAX_NESTING, documented in parse_poly
        assert parse_poly("(" * cap + "x" + ")" * cap) == X
        assert parse_poly("x^" + "(" * cap + "2" + ")" * cap) == X**2
        assert parse_poly("(x)" * 3 * cap) == X ** (3 * cap)  # siblings do not nest
        for text in (
            "(" * (cap + 1) + "x" + ")" * (cap + 1),
            "x^" + "(" * (cap + 1) + "2" + ")" * (cap + 1),
            "(" * cap + "x^(2)" + ")" * cap,  # both kinds count together
        ):
            with pytest.raises(PolySyntaxError, match="nested deeper"):
                parse_poly(text)

    def test_degree_cap(self):
        # _ParseState.MAX_DEGREE is 10,000; only cap + 1 is exercised, so
        # no large polynomial is ever built
        for text in ("x^10001", "(x^100)^101", "x^5000*x^5001", "x^5000 x^5001",
                     "2^10001", "x^" + "9" * 4300):
            with pytest.raises(PolySyntaxError, match="degree above 10000"):
                parse_poly(text)

    def test_coefficient_cap(self):
        # _ParseState.MAX_COEFF_BITS is 2^16; the bound checked before a
        # product is H(a) + H(b) + ceil(log2 t), H the largest coefficient's
        # bit length for integer operands, so 2^60000 * 2^m is bounded by
        # 60001 + (m + 1) bits: m = 5534 is the cap, m = 5535 the cap + 1
        six = "*".join(["2^10000"] * 6)
        assert parse_poly(six + "*2^5534") == UniPoly((2 ** 65534,))
        # a power a^e is bounded by e * (H(a) + ceil(log2 len a)) bits
        assert parse_poly("(x + 2^8190)^8").coeffs[0] == 2 ** 65520
        for text in (six + "*2^5535", six + "(2^5535)", "(x + 2^8191)^8",
                     "((2^10000)^10000)^10000", "(x + 2^4000)^10000",
                     "(x/2^10000)^7"):
            start = time.perf_counter()
            with pytest.raises(PolySyntaxError, match="coefficients above 65536 bits"):
                parse_poly(text)
            assert time.perf_counter() - start < 1.0, text

    def test_literal_cap(self):
        # _ParseState.MAX_LITERAL_DIGITS is 4,300, Python's default limit on
        # str -> int conversion; the dot of a decimal does not count
        cap = "1" * 4300
        assert parse_poly(cap + "x") == UniPoly((0, int(cap)))
        assert parse_poly("1." + cap[1:] + "x").coeffs[1] == Fraction(int(cap), 10 ** 4299)
        for text, pos in ((cap + "1x", 0), ("1." + cap + "x", 0), ("x + " + "0" * 4301, 4),
                          ("x^" + "9" * 5000, 2), ("x^" + "0" * 5000 + "2", 2)):
            with pytest.raises(PolySyntaxError) as exc:
                parse_poly(text)
            message = str(exc.value)
            assert message.startswith(f"numeric literal at position {pos} has more than 4300 digits")
            assert len(message) < 100

    def test_binomial_power_time(self):
        # a dense product of degree 1000; with Fraction coefficients it took
        # 4.5 s on a 2-core machine, with int coefficients about 0.4 s
        start = time.perf_counter()
        f = parse_poly("(1+x)^1000")
        assert time.perf_counter() - start < 10.0
        assert f.coeffs == tuple(math.comb(1000, k) for k in range(1001))
        assert all(type(c) is int for c in f.coeffs)

    @given(polys())
    @settings(max_examples=150)
    def test_parse_render_roundtrip(self, a):
        assert parse_poly(a.render()) == a

    def test_render_canonical(self):
        assert parse_poly("x^4-x-1").render() == "x^4 - x - 1"
        assert UniPoly(()).render() == "0"
        assert UniPoly((Fraction(1, 2), 0, -3)).render() == "-3*x^2 + 1/2"


class TestArithmetic:
    def test_call_horner(self):
        f = parse_poly("x^3 - 2x + 5")
        assert f(Fraction(2)) == 9
        assert f(Fraction(-1, 2)) == Fraction(47, 8)

    @given(polys(), polys(min_deg=0, max_deg=3))
    @settings(max_examples=150)
    def test_divmod_roundtrip(self, a, b):
        if b.is_zero:
            return
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_divmod_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            poly_divmod(X, UniPoly(()))

    def test_derivative(self):
        assert derivative(parse_poly("x^5 - x - 1")) == parse_poly("5x^4 - 1")
        assert derivative(UniPoly((3,))).is_zero


class TestResultant:
    def test_anchor_values(self):
        # Res(x - 2, x - 3) fixes the sign convention
        assert resultant(lin(2), lin(3)) == -1
        assert resultant(parse_poly("x^2+1"), parse_poly("x^2-1")) == 4

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
           st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_root_product_oracle(self, roots_a, roots_b):
        a = UniPoly((1,))
        for r in roots_a:
            a = a * lin(r)
        b = UniPoly((1,))
        for s in roots_b:
            b = b * lin(s)
        expected = Fraction(1)
        for r in roots_a:
            for s in roots_b:
                expected *= r - s
        assert resultant(a, b) == expected

    @given(polys(min_deg=1), polys(min_deg=1, max_deg=3), polys(min_deg=1, max_deg=3))
    @settings(max_examples=100)
    def test_multiplicativity(self, a, b, c):
        assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)

    @given(polys(min_deg=1), polys(min_deg=1))
    @settings(max_examples=100)
    def test_sign_swap(self, a, b):
        sign = (-1) ** (a.degree * b.degree)
        assert resultant(a, b) == sign * resultant(b, a)

    @given(polys(min_deg=1, max_deg=4), st.integers(-5, 5))
    @settings(max_examples=100)
    def test_linear_evaluation(self, a, r):
        assert resultant(lin(r), a) == a(Fraction(r))


class TestDiscriminant:
    def test_anchor_values(self):
        assert discriminant(parse_poly("x^4-x-1")) == -283
        assert discriminant(parse_poly("x^4-x+2")) == 2021
        assert discriminant(parse_poly("x^5-x-1")) == 2869
        assert discriminant(parse_poly("x^2+x+1")) == -3
        # repeated root
        assert discriminant(parse_poly("(x-1)^2(x+2)")) == 0

    def test_quadratic_formula(self):
        # disc(ax^2 + bx + c) = b^2 - 4ac
        f = parse_poly("3x^2 + 5x - 7")
        assert discriminant(f) == 25 + 84

    def test_degree_one_and_constants(self):
        assert discriminant(lin(4)) == 1
        with pytest.raises(ConstantPolynomialError):
            discriminant(UniPoly((5,)))

    @given(st.sets(st.integers(-8, 8), min_size=2, max_size=4))
    @settings(max_examples=100)
    def test_distinct_roots_oracle(self, roots):
        rs = sorted(roots)
        f = UniPoly((1,))
        for r in rs:
            f = f * lin(r)
        expected = Fraction(1)
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                expected *= (rs[i] - rs[j]) ** 2
        assert discriminant(f) == expected

    def test_scaling_law(self):
        # disc(c f) = c^(2m - 2) disc(f)
        f = parse_poly("x^3 - x - 1")
        c = Fraction(3, 2)
        scaled = f * UniPoly.constant(c)
        assert discriminant(scaled) == c ** 4 * discriminant(f)


class TestIntegerModel:
    def test_primitive_and_proportional(self):
        f = parse_poly("x^2/6 + x/4 - 1")
        model = integer_model(f)
        assert all(c.denominator == 1 for c in model.coeffs)
        g = math.gcd(*(abs(int(c)) for c in model.coeffs))
        assert g == 1
        # proportionality: same roots
        assert resultant(f, model) == 0


class TestIntegers:
    def test_is_prime_small(self):
        # spans 41^2, 41 * 43 and 43^2, where the no-Miller-Rabin cut-off sits
        odds = [n for n in range(2, 5000) if is_prime(n)]
        assert odds == primes_up_to(4999)
        sieve = []
        for n in range(2, 5000):
            if all(n % d for d in range(2, n)):
                sieve.append(n)
        assert odds == sieve

    def test_is_prime_large(self):
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)
        assert is_prime(10 ** 18 + 9)
        carmichael = 41041
        assert not is_prime(carmichael)

    def test_factor_int(self):
        assert factor_int(2021) == {43: 1, 47: 1}
        assert factor_int(2 ** 10 * 3 ** 4) == {2: 10, 3: 4}
        assert factor_int(1) == {}
        big = 1000003 * 1000033
        assert factor_int(big) == {1000003: 1, 1000033: 1}

    def test_squarefree_part(self):
        assert int_squarefree_part(2021) == 2021
        assert int_squarefree_part(-283) == -283
        assert int_squarefree_part(256) == 1
        assert int_squarefree_part(-256) == -1
        assert int_squarefree_part(18) == 2
        assert int_squarefree_part(49744) == 3109
        with pytest.raises(ZeroInput):
            int_squarefree_part(0)

    @given(st.integers(2, 10 ** 6))
    @settings(max_examples=100)
    def test_squarefree_part_property(self, n):
        s = int_squarefree_part(n)
        assert n % s == 0
        ratio = n // s
        root = math.isqrt(ratio)
        assert root * root == ratio

    def test_rational_is_square(self):
        assert rational_is_square(Fraction(49, 4))
        assert rational_is_square(Fraction(0))
        assert not rational_is_square(Fraction(2))
        assert not rational_is_square(Fraction(-4))
        assert not rational_is_square(Fraction(49, 8))

    @given(
        st.integers(-30, 30).filter(bool),
        st.integers(-30, 30).filter(bool),
        st.fractions(-1000, 1000, max_denominator=1000).filter(bool),
        st.fractions(-1000, 1000, max_denominator=1000).filter(bool),
    )
    @settings(max_examples=200)
    def test_square_product_iff_equal_squarefree_parts(self, k, l, u, v):
        # a = k u^2 and b = l v^2 share a squarefree part whenever k / l is a
        # square, so both answers occur often; the quadratic-field tests rest
        # on this equivalence
        a, b = k * u * u, l * v * v
        same = int_squarefree_part(a.numerator * a.denominator) == int_squarefree_part(
            b.numerator * b.denominator
        )
        assert rational_is_square(a * b) is same

    def test_psi12_is_not_prime(self):
        # psi_12, the least strong pseudoprime to the prime bases 2 .. 37,
        # passes a Miller-Rabin test that stops at base 37
        p, q = 399165290221, 798330580441
        psi12 = 318665857834031151167461
        assert p * q == psi12
        assert is_prime(p) and is_prime(q)
        assert not is_prime(psi12)
        assert factor_int(psi12) == {p: 1, q: 1}
        assert not is_prime(3317044064679887385961981)  # psi_13 needs base 41

    def test_factoring_budget_is_reported(self, monkeypatch):
        # a prime pair beyond the deterministic budget is not silently
        # mis-factored: exhaustion raises the dedicated error.  The budget is
        # shrunk here so the exhaustion path runs in milliseconds.
        import berger_rank.exact_poly as ep

        monkeypatch.setattr(ep, "_RHO_TRIES", 2)
        monkeypatch.setattr(ep, "_RHO_ITER_CAP", 64)
        hard = (2 ** 89 - 1) * (2 ** 107 - 1)
        with pytest.raises(FactorizationIncomplete):
            factor_int(hard)


def _planted_integers():
    """Products of primes from both sides of 2^10 and 10^6, and other traps."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20240517)

    def prime_near(lo, hi):
        return int(sympy.nextprime(rng.randrange(lo, hi)))

    ranges = {
        "small": (2, 1 << 10),
        "edge": (1000, 1100),  # straddles 2^10
        "mid": ((1 << 10) + 1, 10 ** 6),
        "edge6": (10 ** 6 - 200, 10 ** 6 + 200),  # straddles 10^6
        "large": (10 ** 6, 10 ** 9),
    }
    kinds = list(ranges)
    out = [1, 2, 3, 1021, 1031, 1021 * 1031, 1031 ** 2, 999983 * 1000003]
    for _ in range(40):
        a, b = rng.choice(kinds), rng.choice(kinds)
        out.append(prime_near(*ranges[a]) * prime_near(*ranges[b]))
    for _ in range(30):
        out.append(prod(prime_near(*ranges[rng.choice(kinds)]) for _ in range(3)))
    for _ in range(15):
        p = prime_near(*ranges[rng.choice(["edge", "mid", "edge6", "large"])])
        out.append(p ** rng.randint(2, 4))
    for _ in range(15):
        p = prime_near(*ranges[rng.choice(kinds)])
        q = prime_near(*ranges[rng.choice(["mid", "edge6", "large"])])
        out.append((p * q) ** 2 * rng.choice([1, 2, 3 * 1031]))
    out += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
            5394826801, 232250619601, 9746347772161]  # Carmichael numbers
    return out


class TestFactorOracle:
    def test_factor_int_and_squarefree_part_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        for i, n in enumerate(_planted_integers()):
            want = {int(p): e for p, e in sympy.factorint(n).items()}
            sign = -1 if i % 2 else 1
            assert factor_int(sign * n) == want, n
            part = prod(p for p, e in want.items() if e % 2)
            assert int_squarefree_part(sign * n) == sign * part, n


# -- representation guard ----------------------------------------------------------

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


def _assert_canonical(p):
    """Integral coefficients are ints; only non-integral ones are Fractions."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (p, c)


def _sylvester_resultant(a, b):
    """Determinant of the Sylvester matrix of a and b, by Fraction elimination."""
    m, n = a.degree, b.degree
    rows = [[0] * i + list(reversed(a.coeffs)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(b.coeffs)) + [0] * (m - 1 - i) for i in range(m)]
    M = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((r for r in range(col, m + n) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        for r in range(col + 1, m + n):
            factor = M[r][col] / M[col][col]
            M[r] = [u - factor * v for u, v in zip(M[r], M[col])]
    return det


def _to_sympy(sp, p):
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sp.Poly(coeffs or [0], sp.Symbol("x"), domain=sp.QQ)


def _check(ours, oracle):
    """ours is canonical and equals the sympy polynomial oracle."""
    _assert_canonical(ours)
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(oracle.all_coeffs())]
    assert ours == UniPoly(expected)


class TestIntegerRepresentation:
    """Coefficients are int when integral and Fraction otherwise, never float,
    and every operation agrees with sympy's arithmetic over QQ.  Resultants
    are checked against a Sylvester determinant instead: sympy 1.14's
    ``resultant`` has the wrong sign on some pairs with deg a < deg b, e.g.
    it gives 1 for Res(x + 1, x^3), whose Sylvester determinant is -1."""

    @given(mixed_polys(), mixed_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, a, b):
        sp = pytest.importorskip("sympy")
        _assert_canonical(a)
        A, B = _to_sympy(sp, a), _to_sympy(sp, b)
        _check(a + b, A + B)
        _check(a - b, A - B)
        _check(a - a, A - A)
        _check(a * b, A * B)
        _check(3 - a, 3 - A)
        _check(a + Fraction(1, 2), A + sp.Rational(1, 2))
        q, r = poly_divmod(a, b)
        Q, R = sp.div(A, B)
        _check(q, Q)
        _check(r, R)
        _check(derivative(a), A.diff())
        assert type(a.leading_coefficient) in (int, Fraction)

    @given(mixed_polys(min_deg=1), mixed_polys(min_deg=1))
    @settings(max_examples=60, deadline=None)
    def test_gcd_model_resultant_discriminant(self, a, b):
        sp = pytest.importorskip("sympy")
        A, B = _to_sympy(sp, a), _to_sympy(sp, b)
        model = integer_model(a)
        assert all(type(c) is int for c in model.coeffs)
        assert math.gcd(*model.coeffs) == 1
        assert model.leading_coefficient * a.leading_coefficient > 0
        assert model * a.leading_coefficient == a * model.leading_coefficient
        res = resultant(a, b)
        assert type(res) is Fraction
        assert res == _sylvester_resultant(a, b)
        disc = discriminant(a)
        assert type(disc) is Fraction
        assert disc == Fraction(str(sp.discriminant(A)))

    @given(mixed_polys(), st.integers(1, 12), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_parser_division(self, a, k, sign):
        sp = pytest.importorskip("sympy")
        divisor = sign * k
        got = parse_poly(f"({a.render()}) / ({divisor})")
        _check(got, _to_sympy(sp, a) * sp.Rational(1, divisor))

    def test_parser_division_examples(self):
        for text, coeffs in (
            ("6x/3", (0, 2)),
            ("x/2 + 1/2", (Fraction(1, 2), Fraction(1, 2))),
            ("(4x^2 - 2)/(1/2)", (-4, 0, 8)),
            ("0.5x + 1.5", (Fraction(3, 2), Fraction(1, 2))),
        ):
            p = parse_poly(text)
            _assert_canonical(p)
            assert p.coeffs == coeffs, text

    def test_certificate_disc_is_scaled_fraction(self):
        f = parse_poly("3/2*x^5 - x - 1")
        model = integer_model(f)
        scale = Fraction(3, 2) / model.leading_coefficient
        cert = certify_galois(f)
        assert type(cert.disc) is Fraction
        assert cert.disc == scale ** 8 * discriminant(model)
        assert cert.disc == discriminant(f)
        # an integral, non-primitive input: both leading coefficients are ints
        cert = certify_galois(parse_poly("2x^5 - 2x - 2"))
        assert type(cert.disc) is Fraction
        assert cert.disc == 2 ** 8 * discriminant(parse_poly("x^5 - x - 1"))
