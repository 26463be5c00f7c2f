"""Exact polynomial arithmetic: parsing, division, resultants, integers."""

import math
import random
import re
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berger_rank import (
    ConstantPolynomialError,
    DivisionByZeroPoly,
    FactorizationIncomplete,
    InputError,
    MultiVariableError,
    NonRationalCoefficient,
    PolySyntaxError,
    UniPoly,
    ZeroInput,
    ZeroPolynomialError,
    certify_galois,
    derivative,
    discriminant,
    factor_int,
    int_squarefree_part,
    integer_model,
    is_prime,
    parse_poly,
    primes_up_to,
    rational_is_square,
    resultant,
)
from berger_rank.exact_poly import (
    _derivative_resultants,
    _int_root,
    _perfect_power,
    _subresultant_resultant,
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
        with pytest.raises(PolySyntaxError, match="exponent must be an integer"):
            parse_poly("x^2.5")
        for text in ("x^-2", "x^(-2)", "x^(+-2)"):
            with pytest.raises(PolySyntaxError, match="negative exponents are not polynomial"):
                parse_poly(text)
        with pytest.raises(MultiVariableError):
            parse_poly("x + y")
        with pytest.raises(NonRationalCoefficient):
            parse_poly("1/x")
        with pytest.raises(NonRationalCoefficient):
            parse_poly("1/0")

    @pytest.mark.parametrize("text", ["x^²", "x^¹⁰", "x² - 1", "²x"])
    def test_superscript_digits_are_syntax_errors(self, text):
        # a superscript passes str.isdigit but is no decimal digit, so it is
        # neither a number nor part of a name
        with pytest.raises(PolySyntaxError, match="unexpected character"):
            parse_poly(text)

    def test_unicode_decimal_digits_are_digits(self):
        assert parse_poly("٣x") == parse_poly("3x")
        assert parse_poly("x^٣") == X**3

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

    def test_power_size_cap(self):
        # _ParseState.MAX_POWER_BITS is 2^23, on the degree of a power times
        # its coefficient bound e * (H(a) + ceil(log2 len a)), numerator and
        # denominator bits both: (1+x)^2048 is at the cap, and for
        # 350.915 x - 25 = (70183 x - 5000)/200 e = 496 is
        for text in ("(1+x)^2049", "(350.915*x - 25)^497", "(x/200 - 25)^618",
                     "(70183*x - 5000)^683", "(350.915*x - 25)^918", "(1+x)^10000"):
            start = time.perf_counter()
            with pytest.raises(PolySyntaxError, match="power above 8388608 bits"):
                parse_poly(text)
            assert time.perf_counter() - start < 1.0, text

    def test_slowest_power_under_the_cap(self):
        # the slowest power the caps admit, of the bases tried: 1.5 s of CPU
        # on a 2-core Xeon, mostly the big-integer squarings
        start = time.perf_counter()
        f = parse_poly("(70183*x - 5000)^682")
        assert time.perf_counter() - start < 6.0
        assert f.degree == 682
        assert f.coeffs[0] == 5000**682 and f.coeffs[-1] == 70183**682
        assert f.coeffs[1] == -682 * 70183 * 5000**681

    def test_rational_power_clears_denominators(self):
        # (b/d)^e is b^e / d^e: (350.915 x - 25)^300 took 0.8 s of CPU by
        # Fraction arithmetic, 0.14 s so
        f = parse_poly("(350.915*x - 25)^300")
        assert f == parse_poly("(70183*x - 5000)^300") * Fraction(1, 200**300)
        assert parse_poly("(x/2 + 1/3)^5") == UniPoly((Fraction(1, 3), Fraction(1, 2))) ** 5

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

    def test_kronecker_power_time(self):
        # integer products go through one big-integer product: (1+x)^2000
        # took 4.1 s of CPU by the double loop on a 2-core Xeon, 0.75 s so
        start = time.process_time()
        f = parse_poly("(1+x)^2000")
        assert time.process_time() - start < 1.0
        assert f.coeffs == tuple(math.comb(2000, k) for k in range(2001))
        assert all(type(c) is int for c in f.coeffs)

    def test_kronecker_product_matches_the_double_loop(self):
        rng = random.Random(5)
        for _ in range(300):
            bits = rng.choice([0, 1, 7, 8, 9, 64, 300])
            a, b = (
                UniPoly([rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 40))])
                for _ in range(2)
            )
            if rng.random() < 0.2:  # every slot at the negative extreme
                a = UniPoly([-(2**bits)] * len(a.coeffs))
            expected = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    expected[i + j] += x * y
            assert a * b == UniPoly(expected), (a, b)
        # every slot at its largest magnitude, with 6 + 9 + 9 bits, a whole
        # number of bytes: the middle coefficient 63 * 511^2 needs the sign
        # bit on top of them
        for sign in (1, -1):
            top = UniPoly([sign * 511] * 63) * UniPoly([511] * 63)
            assert top.coeffs == tuple(
                sign * min(k + 1, 125 - k) * 511**2 for k in range(125)
            )
        # a Fraction anywhere keeps the double loop, with the same result
        half = UniPoly([Fraction(1, 2)] * 20)
        assert (half * UniPoly([2] * 20)).coeffs == tuple(min(k + 1, 39 - k) for k in range(39))

    def test_parser_product_matches_the_double_loop(self, monkeypatch):
        # a product whose operands both hold _KRONECKER_TERMS integer terms
        # goes through one big-integer product; the spy counts those
        import berger_rank.exact_poly as ep

        calls = []
        kronecker = ep._kronecker_product
        monkeypatch.setattr(
            ep, "_kronecker_product", lambda a, b: calls.append(len(a)) or kronecker(a, b)
        )
        rng = random.Random(21)
        for _ in range(60):
            bits = rng.choice([1, 8, 9, 64, 300])
            a, b = (
                UniPoly([rng.choice([-1, 1]) * rng.randint(1, 2**bits)
                         for _ in range(rng.randint(16, 60))])
                for _ in range(2)
            )
            expected = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
            for i, x in enumerate(a.coeffs):
                for j, y in enumerate(b.coeffs):
                    expected[i + j] += x * y
            del calls[:]
            assert parse_poly(f"({a.render()})*({b.render()})") == UniPoly(expected)
            assert calls == [len(a.coeffs)], (a, b)
        # 15 terms, or a Fraction anywhere, keep the double loop
        del calls[:]
        dense = " + ".join(f"{k + 1}x^{k}" for k in range(16))
        short = " + ".join(f"{k + 1}x^{k}" for k in range(15))
        assert parse_poly(f"({short})({dense})") == parse_poly(short) * parse_poly(dense)
        assert parse_poly(f"({dense} + x^16/2)({dense})").degree == 31
        assert calls == []

    def test_parser_product_time(self):
        # (1+x)^1000 (1-x)^1000 took 1.9 s of CPU by the parser's double
        # loop on a 2-core Xeon, 0.7 s through one big-integer product
        start = time.process_time()
        f = parse_poly("(1+x)^1000*(1-x)^1000")
        assert time.process_time() - start < 1.5
        assert f.coeffs == tuple(
            0 if k % 2 else (-1) ** (k // 2) * math.comb(1000, k // 2) for k in range(2001)
        )

    def test_cancelled_terms_leave_the_degree(self):
        # a sum whose top terms cancel has the lower degree, for the cap too
        assert parse_poly("(x^6000 - x^6000 + x)^2") == X**2
        assert parse_poly("(x^6000 + 1)(x^4000 - 1) - x^10000 + x^6000") == X**4000 - 1

    def test_long_sum_time(self):
        # the terms of a sum are accumulated in one pass; adding them
        # pairwise took 6 s for these 3,000 terms on a 2-core machine
        text = " + ".join(f"{k}*x^{k}" for k in range(1, 3001))
        start = time.perf_counter()
        f = parse_poly(text)
        assert time.perf_counter() - start < 1.0
        assert f.coeffs == tuple(range(3001))

    @given(polys())
    @settings(max_examples=150)
    def test_parse_render_roundtrip(self, a):
        assert parse_poly(a.render()) == a

    def test_render_canonical(self):
        assert parse_poly("x^4-x-1").render() == "x^4 - x - 1"
        assert UniPoly(()).render() == "0"
        assert UniPoly((Fraction(1, 2), 0, -3)).render() == "-3*x^2 + 1/2"

    @given(st.text(alphabet="0123456789²³٣xyz_+-*/^(). ", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_gives_a_poly_or_an_input_error(self, text):
        # the caps admit dense powers that take over a second, e.g.
        # (70183*x - 5000)^682 takes 1.5 s, so strings with two powers or a
        # three-digit exponent are left out
        assume(text.count("^") < 2 and not re.search(r"\^[\s(]*\d{3}", text))
        start = time.perf_counter()
        try:
            assert isinstance(parse_poly(text), UniPoly)
        except InputError:
            pass
        assert time.perf_counter() - start < 1.0, text


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
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_divmod_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            divmod(X, UniPoly(()))

    def test_operand_errors(self):
        with pytest.raises(MultiVariableError):
            parse_poly("x") + parse_poly("y")
        with pytest.raises(ValueError, match="nonnegative"):
            X ** -1
        with pytest.raises(TypeError):  # __add__ returns NotImplemented
            UniPoly((1, 2)) + "a"
        for operation in (
            lambda: X - "a",
            lambda: "a" - X,
            lambda: X * "a",
            lambda: divmod(X, "a"),
        ):
            with pytest.raises(TypeError):
                operation()
        assert (X == "a") is False
        with pytest.raises(AttributeError, match="immutable"):
            X.coeffs = ()

    def test_derivative(self):
        assert derivative(parse_poly("x^5 - x - 1")) == parse_poly("5x^4 - 1")
        assert derivative(UniPoly((3,))).is_zero


class TestResultant:
    def test_anchor_values(self):
        # Res(x - 2, x - 3) fixes the sign convention
        assert resultant(lin(2), lin(3)) == -1
        assert resultant(parse_poly("x^2+1"), parse_poly("x^2-1")) == 4
        assert resultant(UniPoly((3,)), UniPoly((5,))) == 1  # two constants
        with pytest.raises(ZeroPolynomialError):
            resultant(X, UniPoly(()))

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

    def test_matches_sympy_on_rational_and_non_primitive_inputs(self):
        # one integer path clears denominators and both contents; each kind
        # of input it rescales is checked against sympy's discriminant
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random("one-discriminant-path")
        kinds = {"rational": 0, "non-primitive": 0, "negative-lc": 0}
        for m in range(1, 13):
            for kind in kinds:
                for _ in range(3):
                    cs = [rng.randint(-12, 12) for _ in range(m)] + [rng.choice([1, 2, 3, 7])]
                    if kind == "rational":
                        cs = [Fraction(c, rng.choice([1, 2, 3, 5, 12])) for c in cs]
                    elif kind == "non-primitive":
                        g = rng.choice([2, 3, 6, 10])
                        cs = [g * c for c in cs]
                    else:
                        cs[-1] = -cs[-1]
                    f = UniPoly(cs)
                    fs = sum(sympy.Rational(c.numerator, c.denominator) * x**k
                             for k, c in enumerate(f.coeffs))
                    want = sympy.discriminant(fs, x)
                    got = discriminant(f)
                    assert type(got) is Fraction, f
                    assert got == Fraction(int(want.p), int(want.q)), f
                    kinds[kind] += 1
        assert kinds == {"rational": 36, "non-primitive": 36, "negative-lc": 36}


class TestIntegerModel:
    def test_primitive_and_proportional(self):
        f = parse_poly("x^2/6 + x/4 - 1")
        model = integer_model(f)
        assert all(c.denominator == 1 for c in model.coeffs)
        g = math.gcd(*(abs(int(c)) for c in model.coeffs))
        assert g == 1
        # proportionality: same roots
        assert resultant(f, model) == 0

    def test_one_clearing_routine(self):
        # _cleared clears denominators for every caller; on seeded rationals,
        # all-integer lists and the zero polynomial included, it agrees with
        # the lcm-of-denominators routine it replaced, and _rational_split,
        # built on it, with the primitive split written out here
        from berger_rank.exact_poly import _cleared, _rational_split

        def lcm_cleared(coeffs):
            e = math.lcm(*(c.denominator for c in coeffs))
            return [c.numerator * (e // c.denominator) for c in coeffs], e

        def primitive_split(a):
            ints, den = lcm_cleared(a.coeffs)
            g = math.gcd(*ints)
            if g == 0:
                return 0, []
            return (g if den == 1 else Fraction(g, den)), [c // g for c in ints]

        rng = random.Random(29)
        for _ in range(500):
            den = rng.choice((1, 1, 2, 6, 35, 2**70))
            size = rng.randint(0, 8)
            a = UniPoly(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, den)) for _ in range(size))
            ints, e = _cleared(a.coeffs)
            assert (ints, e) == lcm_cleared(a.coeffs)
            assert all(type(c) is int for c in ints) and type(e) is int
            scale, model = _rational_split(a)
            expect = primitive_split(a)
            assert (scale, model) == expect and type(scale) is type(expect[0])
            assert all(type(c) is int for c in model)


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
        with pytest.raises(ZeroInput):
            factor_int(0)
        assert primes_up_to(1) == []
        big = 1000003 * 1000033
        assert factor_int(big) == {1000003: 1, 1000033: 1}

    @given(st.integers(0, 2 ** 3000), st.integers(2, 3000))
    @settings(max_examples=300)
    def test_int_root_is_the_floor_root(self, n, k):
        root = _int_root(n, k)
        assert root ** k <= n < (root + 1) ** k

    @given(st.integers(1, 2 ** 200), st.integers(2, 40), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=200)
    def test_int_root_next_to_exact_powers(self, base, k, offset):
        n = base ** k + offset
        root = _int_root(n, k)
        assert root ** k <= n < (root + 1) ** k

    def test_perfect_power_takes_the_least_prime_exponent(self):
        assert _perfect_power(2 ** 12, 12) == (2 ** 6, 2)
        assert _perfect_power(3 ** 35, 35) == (3 ** 7, 5)
        assert _perfect_power(3 ** 35, 4) is None  # no prime exponent <= 4 fits
        assert _perfect_power(10 ** 18 + 9, 59) is None
        p = 2 ** 127 - 1
        assert factor_int(p ** 6 * 3) == {3: 1, p: 6}

    def test_perfect_power_test_is_fast_on_long_operands(self):
        # a 20,000-bit odd non-power through every prime exponent up to
        # bits / 10, as _factor_int asks; one binary search per exponent
        # 2 .. 2000 took seconds
        n = random.Random(5).getrandbits(20000) | 1 | 1 << 19999
        start = time.perf_counter()
        assert _perfect_power(n, n.bit_length() // 10) is None
        assert time.perf_counter() - start < 2.0

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

    def test_no_psi_is_prime(self):
        # psi_k is a strong pseudoprime to the first k prime bases, so the
        # shortest exact prefix of bases for psi_k itself has k + 1 of them
        for k, psi in enumerate(_PSI, 1):
            assert not is_prime(psi), k

    def test_is_prime_matches_sympy_in_every_band(self):
        # n takes the shortest prefix of bases exact below it: seeded n in
        # each band [psi_(k-1), psi_k), and the primes next to each bound
        sympy = pytest.importorskip("sympy")
        rng = random.Random("miller-rabin-bands")
        checked = primes = 0
        bounds = (2, *_PSI, 10 * _PSI[-1])
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:  # psi_7 = psi_8 and psi_9 = psi_10 = psi_11
                continue
            sample = [rng.randrange(lo, hi) for _ in range(150)]
            sample += [int(sympy.nextprime(rng.randrange(lo, hi))) for _ in range(10)]
            sample += [lo, hi - 1, int(sympy.prevprime(hi)), int(sympy.nextprime(hi))]
            for n in sample:
                assert is_prime(n) == sympy.isprime(n), n
                checked += 1
                primes += is_prime(n)
        assert checked == 11 * 164
        assert primes >= 11 * 10

    def test_factor_int_matches_sympy(self):
        # the gcd screen must find every prime below 2^10, alone, squared
        # or beside primes just above it, which rho then splits
        sympy = pytest.importorskip("sympy")
        rng = random.Random("gcd-screened-factoring")
        above = [int(p) for p in sympy.primerange(1 << 10, (1 << 10) + 400)]
        cases = [rng.getrandbits(rng.randint(2, 80)) | 1 << rng.randint(0, 1) for _ in range(200)]
        cases += [rng.choice(above) * rng.choice(above) for _ in range(40)]
        cases += [p * p for p in above[:20]]
        cases += [p * p * rng.choice([1, 2, 3 * 5 * 1021]) for p in above[20:40]]
        for n in cases:
            want = {int(p): e for p, e in sympy.factorint(n).items()}
            assert factor_int(n) == want, n
            small = sorted(p for p in want if p < 1 << 10)  # trial division's, first
            assert list(factor_int(n))[: len(small)] == small, n

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

    def test_cofactor_cap(self):
        # a cofactor over 2,048 bits is refused before its primality test,
        # whose time grows with the operand; the Mersenne prime 2^1279 - 1
        # is under the cap and still factors
        start = time.perf_counter()
        with pytest.raises(FactorizationIncomplete, match="2203-bit cofactor over the cap"):
            factor_int(6 * (2 ** 2203 - 1))
        assert time.perf_counter() - start < 0.1
        assert factor_int(6 * (2 ** 1279 - 1)) == {2: 1, 3: 1, 2 ** 1279 - 1: 1}


# psi_k, the least strong pseudoprime to the first k prime bases 2 .. 41
# (OEIS A014233)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


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
        q, r = divmod(a, b)
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


def _primitive(cs):
    g = math.gcd(*cs)
    return [c // g for c in cs]


@st.composite
def primitive_ints(draw, min_deg=0, max_deg=8, coef=30):
    """A primitive integer polynomial's ascending coefficients, its leading
    coefficient of either sign."""
    deg = draw(st.integers(min_deg, max_deg))
    low = draw(st.lists(st.integers(-coef, coef), min_size=deg, max_size=deg))
    lead = draw(st.integers(1, coef)) * draw(st.sampled_from([1, -1]))
    return _primitive(low + [lead])


@st.composite
def sparse_ints(draw, max_deg=14):
    """c x^k + b x^j + a with b != 0 and 1 <= j <= k - 3: against its
    derivative the PRS drops one degree, to a remainder of degree j, then
    k - 1 - j >= 2 degrees in one step."""
    k = draw(st.integers(4, max_deg))
    j = draw(st.integers(1, k - 3))
    a = draw(st.integers(-9, 9))
    b = draw(st.integers(-9, 9).filter(bool))
    c = draw(st.sampled_from([1, -1, 2, -3]))
    cs = [a] + [0] * k
    cs[j], cs[k] = b, c
    return _primitive(cs)


def _kernel(A, B):
    """_subresultant_resultant(A, B), checked against the Sylvester
    determinant, each call under a wall bound."""
    start = time.perf_counter()
    res = _subresultant_resultant(list(A), list(B))
    assert time.perf_counter() - start < 0.5, (A, B)
    assert type(res) is int
    assert res == _sylvester_resultant(UniPoly(A), UniPoly(B)), (A, B)
    return res


class TestSubresultantKernel:
    """The integer subresultant PRS against the Sylvester determinant, on
    the step shapes it distinguishes: a drop of one degree, a larger drop,
    a zero remainder, deg A < deg B (the sign swap) and negative leading
    coefficients."""

    @given(primitive_ints(), primitive_ints())
    @settings(max_examples=150, deadline=None)
    def test_random_primitive_pairs(self, A, B):
        _kernel(A, B)

    @given(sparse_ints())
    @settings(max_examples=100, deadline=None)
    def test_sparse_pairs_with_large_drops(self, A):
        dA = _primitive([k * A[k] for k in range(1, len(A))])
        _kernel(A, dA)
        _kernel(dA, A)

    @given(primitive_ints(min_deg=1, max_deg=3), primitive_ints(max_deg=4),
           primitive_ints(max_deg=4))
    @settings(max_examples=100, deadline=None)
    def test_common_factor_gives_zero(self, C, P, Q):
        A = _primitive(list((UniPoly(C) * UniPoly(P)).coeffs))
        B = _primitive(list((UniPoly(C) * UniPoly(Q)).coeffs))
        assert _kernel(A, B) == 0

    @given(primitive_ints(min_deg=1, max_deg=5), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lower_degree_first_swaps_with_its_sign(self, A, extra, data):
        B = data.draw(primitive_ints(min_deg=len(A) - 1 + extra, max_deg=len(A) - 1 + extra))
        sign = (-1) ** ((len(A) - 1) * (len(B) - 1))
        assert _kernel(A, B) == sign * _kernel(B, A)

    def test_negative_leading_coefficients(self):
        # Res(-x + 2, -x^2 + 3) = (-1)^2 (-(2)^2 + 3) = -1; lc(a)^deg(b) is +1
        assert _kernel([2, -1], [3, 0, -1]) == -1
        assert _kernel([3, 0, -1], [2, -1]) == -1
        # odd degrees both: the swap flips the sign
        assert _kernel([1, 0, 0, -2], [5, -3]) == -_kernel([5, -3], [1, 0, 0, -2])

    @given(primitive_ints(min_deg=2, max_deg=7), st.integers(2, 6),
           st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_derivative_resultants_on_shifts_with_content(self, P, g, ks):
        # A = g P + r: A - s has content g exactly when s = r + g k
        r = P[0] % g + 1
        A = [g * c for c in P]
        A[0] += r
        shifts = [r + g * k for k in ks]
        values = _derivative_resultants(A, shifts)
        for s, value in zip(shifts, values):
            F = UniPoly([A[0] - s, *A[1:]])
            assert value == _sylvester_resultant(F, derivative(F)), (A, s)

    def test_x40_minus_x_minus_1(self):
        # disc(x^n + a x + b) = (-1)^(n(n-1)/2) (n^n b^(n-1) + (-1)^(n-1)
        # (n-1)^(n-1) a^n); against 40 x^39 - 1 the PRS drops to degree 1,
        # then takes one step of delta = 38
        f = parse_poly("x^40 - x - 1")
        assert discriminant(f) == -(40**40) - 39**39
        assert _subresultant_resultant([-1, -1] + [0] * 38 + [1], [-1] + [0] * 38 + [40]) == (
            -(40**40) - 39**39
        )
