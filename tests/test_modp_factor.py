"""Finite-field factorization checked against an independent brute-force oracle.

The oracle below implements schoolbook F_p[x] arithmetic on plain tuples and
factors by trial division over an enumerated irreducible table, sharing no
code with the module under test.
"""

import random
import time
from itertools import product

import pytest

from berger_rank import (
    DenominatorDivisibleByP,
    NotSquarefree,
    PrimePoly,
    UniPoly,
    degree_pattern,
    discriminant,
    parse_poly,
    primes_up_to,
    reduce_mod_p,
)
from berger_rank import modp_factor
from berger_rank.modp_factor import _gcd, _ModRing, _ring_constants

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
    def test_input_errors(self):
        with pytest.raises(ValueError, match="not a machine-word prime"):
            PrimePoly(4, (1, 1))
        with pytest.raises(ValueError, match="degree >= 1"):
            degree_pattern(PrimePoly(5, (3,)))

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

    @pytest.mark.parametrize(
        "p, e, n", [(2, 2, 8), (2, 64, 16), (3, 40, 12), (5, 300, 6), (7, 3, 31), (2**31 - 1, 4, 8)]
    )
    def test_mul_matches_schoolbook_mod_a_prime_power(self, p, e, n):
        # galois_cert lifts a Frobenius in (Z/p^e)[x]/(f) with this kernel:
        # nothing in it needs a prime modulus, only a monic f
        q = p**e
        rng = random.Random(f"kernel:{p}^{e}:{n}")
        for _ in range(3):
            f = tuple(rng.randrange(q) for _ in range(n)) + (1,)
            ring = _ModRing(f, q)
            full = (q - 1,) * n
            rand = tuple(rng.randrange(q) for _ in range(n))
            for a, b in ((full, full), (full, rand), (rand, rand)):
                got = _trim(tuple(ring.unpack(ring.mul(ring.pack(a), ring.pack(b)), n)))
                _, want = _odivmod(_omul(_trim(a), _trim(b), q), f, q)
                assert got == want, (p, e, n, a, b, f)
            slots = [rng.choice([0, q - 1, q, (1 << ring.w) - 1]) for _ in range(n)]
            v = ring.reduce(ring.pack(slots))
            assert [(v >> (ring.w * i)) & ring.mask for i in range(n)] == [s % q for s in slots]

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

    def test_constants_come_from_a_bounded_cache(self):
        # rings of one degree mod one prime share their (n, p) constants, and
        # the cache that keeps them has a finite size
        maxsize = _ring_constants.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
        a, b = _ModRing((1, 2, 0, 1), 5), _ModRing((3, 0, 4, 1), 5)
        assert all(getattr(a, k) is getattr(b, k) for k in ("low", "ones", "even", "lift"))
        assert a.negf != b.negf


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


# -- the Stickelberger exit --------------------------------------------------------
# degree_pattern(a, disc) may stop before the last degree step, from the parity
# of the factor count; every pattern it gives must be the full loop's.

_ODD_PRIMES = [p for p in primes_up_to(200) if p != 2]


def _random_integer_poly(rng, deg, monic, sparse):
    """A squarefree integer polynomial of the given degree, and its discriminant."""
    while True:
        lead = 1 if monic else rng.choice([-1, 1]) * rng.randint(2, 30)
        if sparse:
            low = [0] * deg
            for k in rng.sample(range(deg), min(deg, rng.randint(1, 3))):
                low[k] = rng.choice([-1, 1]) * rng.randint(1, 30)
        else:
            low = [rng.randint(-30, 30) for _ in range(deg)]
        f = UniPoly(low + [lead])
        disc = discriminant(f)
        if disc != 0:
            return f, disc.numerator


def _stickelberger_inputs():
    """Seeded (f, disc) pairs: degrees 2-40, monic and not, sparse and dense."""
    rng = random.Random("stickelberger")
    out = []
    for k, deg in enumerate([2, 3, 4, 5, 7, 8, 9, 12, 16, 20, 27, 33, 40]):
        out.append(_random_integer_poly(rng, deg, monic=k % 2 == 0, sparse=k % 4 < 2))
        out.append(_random_integer_poly(rng, deg, monic=k % 2 == 1, sparse=k % 4 >= 2))
    return out


def _good(f, disc, p):
    return (disc * f.leading_coefficient) % p != 0


_INPUTS = _stickelberger_inputs()


def _count_gcds(monkeypatch):
    calls = []
    real = modp_factor._gcd

    def counting(a, b, p):
        calls.append(p)
        return real(a, b, p)

    monkeypatch.setattr(modp_factor, "_gcd", counting)
    return calls


def _count_f2_steps(monkeypatch):
    """Degree steps the F_2 loop takes: each squares x^(2^(d-1)) once."""
    calls = []
    real = modp_factor._square_f2

    def counting(h, f):
        calls.append(h)
        return real(h, f)

    monkeypatch.setattr(modp_factor, "_square_f2", counting)
    return calls


class TestStickelbergerExit:
    @pytest.mark.parametrize(
        "f, disc", _INPUTS, ids=[f"deg{f.degree}-lc{f.leading_coefficient}" for f, _ in _INPUTS]
    )
    def test_matches_full_loop_and_parity(self, f, disc):
        n = f.degree
        for p in _ODD_PRIMES:
            if not _good(f, disc, p):
                continue
            a = reduce_mod_p(f, p)
            full = degree_pattern(a)
            assert degree_pattern(a, disc) == full, (f, p)
            legendre = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
            assert legendre == (-1) ** (n - len(full)), (f, p, full)

    def test_against_sympy(self):
        checked = 0
        for f, disc in _INPUTS[::3]:
            for p in _ODD_PRIMES[::7]:
                if not _good(f, disc, p):
                    continue
                coeffs = reduce_mod_p(f, p).coeffs
                expected = tuple(sorted(len(fac) - 1 for fac, _ in _sympy_factors(coeffs, p)))
                assert degree_pattern(reduce_mod_p(f, p), disc) == expected, (f, p)
                checked += 1
        assert checked >= 20

    def test_p2_runs_the_full_loop(self, monkeypatch):
        # every unit of F_2 is a square, so no parity is read at p = 2
        calls = _count_f2_steps(monkeypatch)
        checked = 0
        for f, disc in _INPUTS:
            if not _good(f, disc, 2) or f.degree < 4:
                continue
            a = reduce_mod_p(f, 2)
            calls.clear()
            full = degree_pattern(a)
            full_calls = len(calls)
            assert full_calls > 0, f
            calls.clear()
            assert degree_pattern(a, disc) == full, f
            assert len(calls) == full_calls, f
            checked += 1
        assert checked >= 3

    def test_disc_divisible_by_p_is_an_error(self):
        f = parse_poly("x^2 - 3")  # disc 12
        for p in (2, 3):
            with pytest.raises(ValueError):
                degree_pattern(reduce_mod_p(f, p), 12)
        with pytest.raises(ValueError):
            degree_pattern(reduce_mod_p(parse_poly("x^5 - x - 1"), 7), 0)

    def test_one_factor_takes_fewer_gcds(self, monkeypatch):
        f = parse_poly("x^8 - x - 1")
        disc = discriminant(f).numerator
        p = next(
            p for p in _ODD_PRIMES
            if _good(f, disc, p) and degree_pattern(reduce_mod_p(f, p)) == (8,)
        )
        calls = _count_gcds(monkeypatch)
        degree_pattern(reduce_mod_p(f, p))
        full_calls = len(calls)
        calls.clear()
        assert degree_pattern(reduce_mod_p(f, p), disc) == (8,)
        assert len(calls) < full_calls, (p, len(calls), full_calls)


class TestFrobeniusRowsOnDemand:
    """The ring is built only at the first gcd step, and the Q-matrix rows
    beyond x^p only when step 2 runs."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(_ModRing, name)

        def counting(self, *args):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(_ModRing, name, counting)
        return calls

    def test_no_ring_under_the_root_scan_bound(self, monkeypatch):
        # under the bound the first step reads the roots by a residue scan;
        # a quintic then has at most 5 degrees left, in one or two factors
        # of degree >= 2, and the parity of disc says which, so no ring is
        # built whatever the pattern
        f = parse_poly("x^5 - x - 1")
        disc = discriminant(f).numerator
        rings = self._count(monkeypatch, "__init__")
        checked = 0
        for p in _ODD_PRIMES:
            if p * 6 > modp_factor._ROOT_SCAN_BOUND or not _good(f, disc, p):
                continue
            a = reduce_mod_p(f, p)
            full = degree_pattern(a)
            rings.clear()
            assert degree_pattern(a, disc) == full
            assert rings == [], p
            checked += 1
        assert checked >= 8

    def test_one_step_makes_only_x_pow_products(self, monkeypatch):
        # above the bound (p >= 43 for a quintic) a quintic with no root mod
        # p has one or two factors left after step 1, and the parity of disc
        # says which, so the loop ends there
        f = parse_poly("x^5 - x - 1")
        disc = discriminant(f).numerator
        muls = self._count(monkeypatch, "mul")
        rows = self._count(monkeypatch, "frobenius_rows")
        ended = 0
        for p in _ODD_PRIMES:
            if p * 6 <= modp_factor._ROOT_SCAN_BOUND or not _good(f, disc, p):
                continue
            assert p >= 43
            a = reduce_mod_p(f, p)
            if 1 in degree_pattern(a):
                continue
            muls.clear()
            _ModRing(a.coeffs, p).x_pow(p)
            x_pow_muls = len(muls)
            assert x_pow_muls > 0  # p > deg f, so x^p takes squarings
            muls.clear()
            rows.clear()
            assert degree_pattern(a, disc) in ((5,), (2, 3))
            assert (len(muls), rows) == (x_pow_muls, []), p
            ended += 1
        assert ended >= 10

    def test_later_steps_build_the_rows_once(self, monkeypatch):
        f = parse_poly("x^8 - x - 1")
        disc = discriminant(f).numerator
        p = next(
            p for p in _ODD_PRIMES
            if p > 8 and _good(f, disc, p) and degree_pattern(reduce_mod_p(f, p)) == (8,)
        )
        a = reduce_mod_p(f, p)
        muls = self._count(monkeypatch, "mul")
        _ModRing(a.coeffs, p).x_pow(p)
        x_pow_muls = len(muls)
        rows = self._count(monkeypatch, "frobenius_rows")
        muls.clear()
        assert degree_pattern(a) == (8,)  # steps 1 .. 4, no parity
        assert rows == ["frobenius_rows"]
        assert len(muls) == x_pow_muls + 8 - 2  # the rows x^(p j), j = 2 .. 7


# -- the F_2 path ------------------------------------------------------------------
# degree_pattern runs p = 2 on bitmasks; the packed loop, still callable there
# as modp_factor._pattern, is the reference it must match in every output.


def _outcome(pattern_fn, a, disc):
    parts = []
    try:
        return pattern_fn(a, disc, parts), parts
    except NotSquarefree as e:
        return "NotSquarefree", str(e)


class TestF2Path:
    def _check(self, coeffs):
        a = PrimePoly(2, coeffs)
        expected = _outcome(modp_factor._pattern, a, None)
        assert _outcome(degree_pattern, a, None) == expected, coeffs
        if expected[0] != "NotSquarefree":
            # any odd disc is prime to 2; it skips only the squarefree check
            assert _outcome(degree_pattern, a, 1) == expected, coeffs
        return expected[0] == "NotSquarefree"

    def test_every_monic_up_to_degree_12(self):
        repeated = sum(
            self._check(coeffs) for d in range(2, 13) for coeffs in _monics(2, d)
        )
        assert 0 < repeated < 2**13

    def test_random_degree_20_to_300(self):
        rng = random.Random("f2-path")
        repeated = 0
        for k in range(30):
            deg = rng.randint(20, 300)
            low = [0] * deg
            if k % 3:
                low = [rng.randrange(2) for _ in range(deg)]
            else:
                for i in rng.sample(range(deg), 3):
                    low[i] = 1
            repeated += self._check(tuple(low) + (1,))
        assert 0 < repeated < 30

    def test_degree_above_4300_by_construction(self):
        # x^(2^k) + x is the product of every monic irreducible of degree
        # dividing k over F_2, so g8 = (x^256 + x) / (x^16 + x) holds the 30
        # of degree 8, and f = (x^4096 + x) g8 has 2, 1, 2, 3, 9, 335 factors
        # of degrees 1, 2, 3, 4, 6, 12 besides them: degree 4,336
        g8, rem = _odivmod((0, 1) + (0,) * 254 + (1,), (0, 1) + (0,) * 14 + (1,), 2)
        assert not rem and len(g8) == 241
        f = [0] * (4096 + len(g8))
        for i, c in enumerate(g8):
            f[i + 1] ^= c
            f[i + 4096] ^= c
        a = PrimePoly(2, tuple(f))
        counts = {1: 2, 2: 1, 3: 2, 4: 3, 6: 9, 8: 30, 12: 335}
        expected = tuple(d for d, k in sorted(counts.items()) for _ in range(k))
        parts = []
        start = time.perf_counter()
        assert degree_pattern(a, None, parts) == expected
        assert time.perf_counter() - start < 2.0  # the packed loop takes minutes
        assert [(d, k) for d, k, _ in parts] == sorted(counts.items())


# -- the root scan ------------------------------------------------------------------
# While p (deg + 1) <= modp_factor._ROOT_SCAN_BOUND, the packed loop's first
# step reads the roots by a residue scan and divides out their product;
# above it, it takes gcd(x^p - x, f).  On both sides the pattern, the parts
# and the NotSquarefree text must be those of sympy's factorization.


def _scan_primes(n):
    """3, the last odd prime with p (n + 1) under the bound, the first past
    it, and one far past it."""
    bound = modp_factor._ROOT_SCAN_BOUND
    under = [p for p in _ODD_PRIMES if p * (n + 1) <= bound]
    over = [p for p in _ODD_PRIMES if p * (n + 1) > bound]
    return sorted({3, under[-1], over[0], over[len(over) // 2]})


def _sympy_outcome(coeffs, p):
    """``_outcome`` as sympy's factors give it: the pattern and the
    distinct-degree parts, or the NotSquarefree text, which names the least
    degree of a repeated factor."""
    factors = _sympy_factors(coeffs, p)
    repeated = [len(fac) - 1 for fac, mult in factors if mult > 1]
    if repeated:
        text = f"{PrimePoly(p, coeffs)} has a repeated factor of degree {min(repeated)}"
        return "NotSquarefree", text
    parts = []
    for d in sorted({len(fac) - 1 for fac, _ in factors}):
        group = [fac for fac, _ in factors if len(fac) - 1 == d]
        product = (1,)
        for fac in group:
            product = _omul(product, fac, p)
        parts.append((d, len(group), product))
    return tuple(d for d, k, _ in parts for _ in range(k)), parts


class TestRootScan:
    def _poly(self, rng, n, p, roots):
        """A random polynomial of degree n mod p with the given roots planted,
        and a leading coefficient that is not always 1."""
        f = (rng.randrange(1, p),)
        for r in roots:
            f = _omul(f, (-r % p, 1), p)
        rest = n - len(roots)
        return _omul(f, tuple(rng.randrange(p) for _ in range(rest)) + (1,), p)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_against_sympy_on_both_sides_of_the_bound(self, n):
        rng = random.Random(f"root-scan:{n}")
        bound = modp_factor._ROOT_SCAN_BOUND
        seen = {"under": 0, "over": 0, "repeated": 0}
        for p in _scan_primes(n):
            side = "under" if p * (n + 1) <= bound else "over"
            for planted in range(min(n, 3) + 1):
                coeffs = self._poly(rng, n, p, rng.sample(range(p), planted))
                expected = _sympy_outcome(coeffs, p)
                a = PrimePoly(p, coeffs)
                assert _outcome(degree_pattern, a, None) == expected, (p, coeffs)
                if expected[0] == "NotSquarefree":
                    continue
                disc = discriminant(UniPoly(coeffs)).numerator
                assert disc % p
                assert _outcome(degree_pattern, a, disc) == expected, (p, coeffs)
                seen[side] += 1
            # a forced repeated linear factor, alone or beside other roots
            r = rng.randrange(p)
            coeffs = self._poly(rng, n, p, [r, r] + rng.sample(range(p), min(n - 2, 2)))
            expected = _sympy_outcome(coeffs, p)
            assert expected == ("NotSquarefree", f"{PrimePoly(p, coeffs)} has a "
                                "repeated factor of degree 1")
            assert _outcome(degree_pattern, PrimePoly(p, coeffs), None) == expected
            seen["repeated"] += 1
        assert min(seen.values()) > 0, seen
