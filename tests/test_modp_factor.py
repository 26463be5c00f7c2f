"""Finite-field factorization checked against an independent brute-force oracle.

The oracle below implements schoolbook F_p[x] arithmetic on plain tuples and
factors by trial division over an enumerated irreducible table, sharing no
code with the module under test.
"""

import random
from itertools import product

import pytest

from berger_rank import (
    DenominatorDivisibleByP,
    NotSquarefree,
    PrimePoly,
    degree_pattern,
    distinct_degree_components,
    parse_poly,
    reduce_mod_p,
)
from berger_rank.modp_factor import _gcd, _ModRing

# -- independent oracle ----------------------------------------------------------


def _trim(t):
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _omul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _odivmod(a, b, p):
    assert b
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b) and _trim(tuple(rem)):
        rem = list(_trim(tuple(rem)))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] * inv % p
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
    return _trim(tuple(quo)), _trim(tuple(rem))


def _monics(p, d):
    for low in product(range(p), repeat=d):
        yield low + (1,)


def _irreducibles(p, max_d):
    """All monic irreducibles of degree 1..max_d, by sieving."""
    table = {1: list(_monics(p, 1))}
    for d in range(2, max_d + 1):
        table[d] = []
        for cand in _monics(p, d):
            divisible = False
            for e in range(1, d // 2 + 1):
                for irr in table[e]:
                    _, rem = _odivmod(cand, irr, p)
                    if not rem:
                        divisible = True
                        break
                if divisible:
                    break
            if not divisible:
                table[d].append(cand)
    return table


def _oracle_factor(a, p, irr_table):
    """[(irreducible, multiplicity)] by trial division, ascending degree."""
    out = []
    rest = a
    for d in sorted(irr_table):
        for irr in irr_table[d]:
            mult = 0
            while True:
                q, rem = _odivmod(rest, irr, p)
                if rem:
                    break
                rest = q
                mult += 1
            if mult:
                out.append((irr, mult))
            if len(rest) == 1:
                return out
    assert len(rest) == 1, "oracle left a nontrivial cofactor"
    return out


def _oderiv(a, p):
    return _trim(tuple((k * a[k]) % p for k in range(1, len(a))))


def _ogcd(a, b, p):
    while b:
        _, r = _odivmod(a, b, p)
        a, b = b, r
    return a


def _osquarefree(a, p):
    d = _oderiv(a, p)
    if not d:
        return False
    return len(_ogcd(a, d, p)) == 1


# -- tests -----------------------------------------------------------------------


class TestReduce:
    def test_basic(self):
        f = parse_poly("x^4 - x - 1")
        a = reduce_mod_p(f, 5)
        assert a == PrimePoly(5, (4, 4, 0, 0, 1))

    def test_rational_coefficients(self):
        f = parse_poly("x^2 + x/3 - 1")
        a = reduce_mod_p(f, 5)
        # 1/3 = 2 mod 5
        assert a == PrimePoly(5, (4, 2, 1))
        with pytest.raises(DenominatorDivisibleByP):
            reduce_mod_p(f, 3)


class TestPatterns:
    def test_known_patterns(self):
        f = parse_poly("x^4 - x + 2")
        assert degree_pattern(reduce_mod_p(f, 2)) == (1, 1, 2)
        assert degree_pattern(reduce_mod_p(f, 3)) == (4,)
        assert degree_pattern(reduce_mod_p(f, 5)) == (1, 3)
        g = parse_poly("x^5 - x - 1")
        assert degree_pattern(reduce_mod_p(g, 2)) == (2, 3)
        # x^4 - x - 1 happens to be irreducible at the first three good primes
        h = parse_poly("x^4 - x - 1")
        for p in (2, 3, 5):
            assert degree_pattern(reduce_mod_p(h, p)) == (4,)
        # 5th cyclotomic mod 2 is irreducible (2 has order 4 mod 5)
        a = reduce_mod_p(parse_poly("x^4 + x^3 + x^2 + x + 1"), 2)
        assert degree_pattern(a) == (4,)
        b = reduce_mod_p(parse_poly("x^6 + x^5 + x^3 + x^2 + 1"), 2)
        assert degree_pattern(b) == (6,)  # irreducible mod 2, as sympy agrees

    def test_not_squarefree_is_an_error(self):
        a = PrimePoly(3, (0, 0, 1))  # x^2
        with pytest.raises(NotSquarefree):
            degree_pattern(a)
        # derivative zero mod p: x^3 + 1 = (x + 1)^3 mod 3
        b = PrimePoly(3, (1, 0, 0, 1))
        with pytest.raises(NotSquarefree):
            degree_pattern(b)

    @pytest.mark.parametrize("p, max_d", [(2, 6), (3, 6), (5, 4)])
    def test_exhaustive_not_squarefree(self, p, max_d):
        # raises exactly when gcd(f, f') is not constant; degree 6 holds g^2
        # with deg g = 3 (found only at the last degree step) and g^3
        repeated = 0
        for d in range(1, max_d + 1):
            for coeffs in _monics(p, d):
                a = PrimePoly(p, coeffs)
                if _osquarefree(coeffs, p):
                    assert sum(degree_pattern(a)) == d, (p, coeffs)
                    continue
                repeated += 1
                with pytest.raises(NotSquarefree):
                    degree_pattern(a)
                with pytest.raises(NotSquarefree):
                    distinct_degree_components(a)
        assert repeated > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exhaustive_oracle_degree_le_4(self, p):
        irr_table = _irreducibles(p, 4)
        for d in range(1, 5):
            for coeffs in _monics(p, d):
                if not _osquarefree(coeffs, p):
                    continue
                a = PrimePoly(p, coeffs)
                expected = tuple(
                    sorted(len(irr) - 1 for irr, _ in _oracle_factor(coeffs, p, irr_table))
                )
                assert degree_pattern(a) == expected, (p, coeffs)


class TestDistinctDegree:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_component_product(self, p):
        f = parse_poly("x^5 - x - 1")
        a = reduce_mod_p(f, p)
        if discriminant_is_zero_mod(a, p):
            pytest.skip("not squarefree at this prime")
        comps = distinct_degree_components(a)
        prod = (1,)
        for d, comp in comps:
            assert comp.coeffs[-1] == 1
            assert (len(comp.coeffs) - 1) % d == 0
            prod = _omul(prod, comp.coeffs, p)
        # product of monic components equals monic normalization of a
        inv = pow(a.coeffs[-1], p - 2, p)
        monic = tuple(c * inv % p for c in a.coeffs)
        assert prod == monic


def discriminant_is_zero_mod(a, p):
    d = _oderiv(a.coeffs, p)
    if not d:
        return True
    return len(_ogcd(a.coeffs, d, p)) != 1


class TestIrreducible:
    """A squarefree a of degree d is irreducible iff its pattern is (d,)."""

    def test_known(self):
        assert degree_pattern(reduce_mod_p(parse_poly("x^4 - x + 2"), 3)) == (4,)
        assert degree_pattern(reduce_mod_p(parse_poly("x^4 + x"), 2)) == (1, 1, 2)
        assert degree_pattern(reduce_mod_p(parse_poly("x^2 + 1"), 5)) == (1, 1)
        assert degree_pattern(PrimePoly(7, (3, 1))) == (1,)  # degree 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_against_trial_division(self, p):
        irr_table = _irreducibles(p, 4)
        checked = 0
        for d in range(2, 5):
            members = set(irr_table[d])
            for coeffs in _monics(p, d):
                if not _osquarefree(coeffs, p):
                    continue
                a = PrimePoly(p, coeffs)
                assert (degree_pattern(a) == (d,)) == (coeffs in members), (p, coeffs)
                checked += 1
        assert checked > len(irr_table[2]) + len(irr_table[3]) + len(irr_table[4])


# -- differential oracle: sympy's mod-p factorization ----------------------------
# Independent of the in-file oracle above, which is exhaustive only up to
# degree 4 over tiny fields; this one reaches degree 40 and word-size primes,
# where the packed kernel's slot width is widest.

_ORACLE_PRIMES = [
    2,
    3,  # degrees mostly above p
    43,  # above every degree drawn
    197,
    2**31 - 1,
    2**61 - 1,
]


def _random_input(rng, p, sparse, max_deg=40):
    deg = rng.randint(1, max_deg)
    lead = rng.randrange(1, p)
    if sparse:
        low = [0] * deg
        for k in rng.sample(range(deg), min(deg, rng.randint(1, 3))):
            low[k] = rng.randrange(1, p)
    else:
        low = [rng.randrange(p) for _ in range(deg)]
    return tuple(low) + (lead,)


def _sympy_factors(coeffs, p):
    """[(monic factor as ascending tuple, multiplicity)] from sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)), x, modulus=p).factor_list()
    out = []
    for fac, mult in factors:
        cs = [int(c) % p for c in reversed(fac.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append((tuple(c * inv % p for c in cs), mult))
    return out


class TestSympyOracle:
    @pytest.mark.parametrize("p", _ORACLE_PRIMES)
    def test_degree_pattern_and_components(self, p):
        rng = random.Random(f"oracle:{p}")
        checked = attempts = 0
        while checked < 10 and attempts < 60:
            coeffs = _random_input(rng, p, sparse=attempts % 2 == 0)
            attempts += 1
            a = PrimePoly(p, coeffs)
            factors = _sympy_factors(coeffs, p)
            if any(mult > 1 for _, mult in factors):
                with pytest.raises(NotSquarefree):
                    degree_pattern(a)
                continue
            expected = tuple(sorted(len(fac) - 1 for fac, _ in factors))
            assert degree_pattern(a) == expected, (p, coeffs)
            prod = (1,)
            for d, comp in distinct_degree_components(a):
                assert comp.coeffs[-1] == 1
                assert (len(comp.coeffs) - 1) == d * expected.count(d)
                prod = _omul(prod, comp.coeffs, p)
            inv = pow(coeffs[-1], -1, p)
            assert prod == tuple(c * inv % p for c in coeffs), (p, coeffs)
            checked += 1
        assert checked == 10

    @pytest.mark.parametrize("p, n", [(2, 31), (2, 40), (3, 31), (3, 40)])
    def test_primes_below_degree(self, p, n):
        # p < n: x^p mod f is a monomial, so the Frobenius rows start from it
        rng = random.Random(f"small-p:{p}:{n}")
        checked = 0
        for attempt in range(40):
            low = [0] * n
            if attempt % 2:
                low = [rng.randrange(p) for _ in range(n)]
            else:
                for k in rng.sample(range(n), 3):
                    low[k] = rng.randrange(1, p)
            coeffs = tuple(low) + (1,)
            factors = _sympy_factors(coeffs, p)
            if any(mult > 1 for _, mult in factors):
                continue
            expected = tuple(sorted(len(fac) - 1 for fac, _ in factors))
            assert degree_pattern(PrimePoly(p, coeffs)) == expected, (p, coeffs)
            checked += 1
        assert checked >= 5


class TestPackedKernel:
    """The packed product against schoolbook arithmetic, at slot extremes.

    With every coefficient p - 1 the unreduced low slots of a product reach
    n(p-1)^2, and the reduction pass adds up to (n-1)(p-1)^2 more; where
    n(p-1)^2 sits just below a power of two (n = 32 for the Mersenne
    primes, n = 31 for p = 2) a slot one bit narrower would carry.
    """

    @pytest.mark.parametrize(
        "p, n",
        [(2, 31), (3, 40), (197, 40), (2**31 - 1, 32), (2**61 - 1, 32), (2**61 - 1, 1)],
    )
    def test_mul_matches_schoolbook(self, p, n):
        rng = random.Random(f"kernel:{p}:{n}")
        for _ in range(4):
            f = tuple(rng.randrange(p) for _ in range(n)) + (1,)
            ring = _ModRing(f, p)
            full = (p - 1,) * n
            rand = tuple(rng.randrange(p) for _ in range(n))
            for a, b in ((full, full), (full, rand), (rand, rand)):
                got = _trim(tuple(ring.unpack(ring.mul(ring.pack(a), ring.pack(b)), n)))
                _, want = _odivmod(_omul(_trim(a), _trim(b), p), f, p)
                assert got == want, (p, n, a, b, f)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 40])
    @pytest.mark.parametrize("p", [2, 3, 197, 2**31 - 1, 2**61 - 1])
    def test_reduce_matches_slotwise_mod(self, p, n):
        # any slot below 2^w, the bound every product and sum keeps
        rng = random.Random(f"reduce:{p}:{n}")
        ring = _ModRing((1,) * (n + 1), p)
        top = (1 << ring.w) - 1
        edges = [0, p - 1, p, top]
        vectors = [[e] * n for e in edges]
        vectors += [[rng.choice(edges + [rng.randrange(top + 1)]) for _ in range(n)]
                    for _ in range(40)]
        for slots in vectors:
            v = ring.reduce(ring.pack(slots))
            got = [(v >> (ring.w * i)) & ring.mask for i in range(n)]
            assert got == [s % p for s in slots], (p, n, slots)
            assert v >> (ring.w * n) == 0

    @pytest.mark.parametrize("n", [2, 5, 31, 40])
    @pytest.mark.parametrize("p", [2, 3, 197, 2**61 - 1])
    def test_x_pow_matches_schoolbook(self, p, n):
        rng = random.Random(f"xpow:{p}:{n}")
        f = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        ring = _ModRing(f, p)
        exps = {0, 1, n // 2, n - 1, n, n + 1, p, 2 * n + 3}
        for e in sorted(exps):
            got = _trim(tuple(ring.unpack(ring.x_pow(e), n)))
            assert got == _ox_pow(e, f, p), (p, n, e)


def _ox_pow(e, f, p):
    """x^e mod f by schoolbook square-and-multiply."""
    result, base = (1,), _odivmod((0, 1), f, p)[1]
    while e:
        if e & 1:
            result = _odivmod(_omul(result, base, p), f, p)[1]
        base = _odivmod(_omul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _omonic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


class TestGcd:
    """The remainder-only Euclid against the quotient-building one above."""

    @pytest.mark.parametrize("p", [2, 3, 197, 2**61 - 1])
    def test_random_pairs(self, p):
        rng = random.Random(f"gcd:{p}")
        for _ in range(30):
            common = _random_input(rng, p, sparse=False, max_deg=6)
            a = _omul(_random_input(rng, p, sparse=False, max_deg=20), common, p)
            b = _omul(_random_input(rng, p, sparse=rng.random() < 0.5, max_deg=20), common, p)
            assert _gcd(a, b, p) == _omonic(_ogcd(a, b, p), p), (p, a, b)
            assert _gcd(b, a, p) == _gcd(a, b, p)
            # an unplanted pair, usually coprime
            c = _random_input(rng, p, sparse=False, max_deg=20)
            assert _gcd(a, c, p) == _omonic(_ogcd(a, c, p), p), (p, a, c)

    def test_edge_cases(self):
        p = 7
        a = (3, 0, 2, 5)  # non-monic
        b = (1, 4)
        assert _gcd(a, (), p) == _omonic(a, p)
        assert _gcd((), a, p) == _omonic(a, p)
        assert _gcd((), (), p) == ()
        # a | ab with a non-monic, in either order
        ab = _omul(a, (2, 3), p)
        assert _gcd(ab, a, p) == _omonic(a, p)
        assert _gcd(a, ab, p) == _omonic(a, p)
        # equal degrees, sharing exactly the factor b
        c, d = _omul(b, (1, 1), p), _omul(b, (2, 5), p)
        assert len(c) == len(d)
        assert _gcd(c, d, p) == _omonic(b, p)
        # non-monic divisor of a monic dividend: x^2 - 1 and 3x + 3 share x + 1
        assert _gcd((6, 0, 1), (3, 3), p) == (1, 1)
        assert _gcd((5,), (3, 3), p) == (1,)
