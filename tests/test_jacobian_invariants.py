"""Genus, dimension, and layer-constant formulas plus their coherence laws."""

import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    FactorizationIncomplete,
    InvalidInput,
    TowerLayer,
    berger_genus,
    c2,
    decomposition_table,
    dim_new_part,
    dim_superelliptic,
)
from berger_rank import exact_poly, jacobian_invariants


class TestGenus:
    def test_known_values(self):
        assert berger_genus(4, 2) == 1
        assert berger_genus(5, 2) == 2
        assert berger_genus(7, 2) == 3
        assert berger_genus(9, 2) == 4
        assert berger_genus(5, 3) == 4
        assert berger_genus(3, 3) == 1
        assert berger_genus(2, 2) == 0

    def test_symmetry(self):
        for m in range(2, 12):
            for n in range(2, 12):
                assert berger_genus(m, n) == berger_genus(n, m)

    def test_parity_always_integral(self):
        # criterion-8 sweep lives in the acceptance suite; spot the corners
        for m in range(2, 51):
            for n in range(2, 51):
                assert berger_genus(m, n) >= 0


class TestDimensions:
    def test_known_values(self):
        # hyperelliptic: dim J of z^2 = f(x), deg f = 2k+1, is k
        assert dim_superelliptic(5, 2) == 2
        assert dim_superelliptic(7, 2) == 3
        # trivial layer
        assert dim_superelliptic(5, 1) == 0
        assert dim_superelliptic(5, 5) == 6
        assert dim_superelliptic(4, 4) == 3

    def test_new_part_values(self):
        assert dim_new_part(5, 5) == 6
        assert dim_new_part(4, 2) == 1
        assert dim_new_part(4, 4) == 2
        assert dim_new_part(5, 2) == 2
        assert dim_new_part(5, 4) == 4

    def test_new_part_branch_condition(self):
        # q | m uses the (m - 2) branch, q does not divide m the (m - 1) branch
        assert dim_new_part(6, 3) == (6 - 2) * 2 // 2
        assert dim_new_part(7, 3) == (7 - 1) * 2 // 2

    @given(st.integers(2, 30), st.sampled_from([2, 3, 5, 7, 11, 13]),
           st.integers(1, 5))
    @settings(max_examples=150)
    def test_dimension_sum(self, m, p, r):
        total = sum(dim_new_part(m, p ** i) for i in range(1, r + 1))
        assert total == dim_superelliptic(m, p ** r)

    def test_errors(self):
        with pytest.raises(InvalidInput):
            dim_superelliptic(1, 2)
        with pytest.raises(InvalidInput):
            dim_new_part(4, 6)  # not a prime power
        with pytest.raises(InvalidInput):
            dim_new_part(4, 1)
        with pytest.raises(InvalidInput, match="m >= 2"):
            dim_new_part(1, 7)

    @pytest.mark.parametrize(
        "q, wanted",
        [
            (2 ** 4096 + 1, r"layer Q is too large: bit_length\(Q\) = 4097 exceeds"),
            (2 ** 16384 + 1, r"layer Q is too large: .* = 16385 exceeds 4096"),
            ((2 ** 521 - 1) * (2 ** 607 - 1), "is not a prime power > 1"),
        ],
        ids=["F12", "F14", "M521*M607"],
    )
    def test_large_non_prime_power_is_refused_unfactored(self, q, wanted):
        # none can be factored within the budget, and none needs to be: F12
        # and F14 are over the layer cap, which comes before the
        # perfect-power roots and primality tests that took seconds at
        # F14's size, and no perfect-power root of the last is prime
        start = time.perf_counter()
        with pytest.raises(InvalidInput, match=wanted):
            dim_new_part(5, q)
        assert time.perf_counter() - start < 2.0

    def test_large_prime_power(self):
        p = 2 ** 127 - 1
        assert dim_new_part(5, p ** 2) == 4 * (p - 1) * p // 2
        assert dim_new_part(5, p) == 4 * (p - 1) // 2
        assert dim_new_part(5, 3 ** 2579) == 4 * 2 * 3 ** 2578 // 2


class TestC2:
    def test_known_values(self):
        assert c2(5, 2, 1) == 4
        assert c2(5, 2, 49) == 4
        assert c2(5, 5, 1) == 16
        assert c2(5, 5, 5) == 20
        assert c2(9, 3, 3) == 18
        assert c2(6, 2, 3) == 5
        assert c2(4, 2, 283) == 3

    def test_errors(self):
        with pytest.raises(InvalidInput, match="m, n >= 2"):
            c2(1, 2, 1)

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 100))
    @settings(max_examples=200)
    def test_periodicity(self, m, n, d):
        assert c2(m, n, d) == c2(m, n, d + gcd(m, n))

    @given(st.integers(2, 20), st.integers(2, 20), st.integers(1, 100))
    @settings(max_examples=100)
    def test_bounds(self, m, n, d):
        value = c2(m, n, d)
        assert (m - 1) * (n - 1) <= value <= (m - 1) * (n - 1) + gcd(m, n) - 1


class TestTowerLayer:
    def test_layer_values(self):
        layer = TowerLayer(7, 2)
        assert (layer.p, layer.r, layer.q) == (7, 2, 49)
        assert TowerLayer(5, 0).q == 1

    def test_errors(self):
        with pytest.raises(InvalidInput):
            TowerLayer(6, 1)
        with pytest.raises(InvalidInput):
            TowerLayer(5, -1)

    def test_cap_precedes_the_primality_test(self, monkeypatch):
        def refuse(n):
            raise AssertionError("primality tested before the layer cap")

        monkeypatch.setattr(jacobian_invariants, "_proved_prime", refuse)
        monkeypatch.setattr(exact_poly, "is_prime", refuse)
        # too large even for r = 0; the second has more digits than the
        # interpreter converts to str, so the message must not print it
        for big, bits in ((2 ** 4096, 4097), (10 ** 5000 + 1, 16610)):
            for r in (0, 1):
                wanted = rf"layer <{bits}-bit p>\^{r} .* = {bits * max(r, 1)} exceeds"
                with pytest.raises(InvalidInput, match=wanted):
                    TowerLayer(big, r)
                with pytest.raises(InvalidInput, match=wanted):
                    decomposition_table(5, big, r)


class TestDecomposition:
    def test_table_4_2_2(self):
        table = decomposition_table(4, 2, 2)
        assert table.rows == ((1, 2, 1), (2, 4, 2))
        assert table.total == 3

    def test_table_r0_is_empty(self):
        table = decomposition_table(7, 3, 0)
        assert table.rows == ()
        assert table.total == 0

    def test_table_errors(self):
        with pytest.raises(InvalidInput):
            decomposition_table(4, 6, 2)
        with pytest.raises(InvalidInput):
            decomposition_table(4, 2, -1)
        with pytest.raises(InvalidInput, match="decomposition_table needs m >= 2"):
            decomposition_table(1, 2, 1)

    def test_table_factors_nothing(self, monkeypatch):
        # the table knows each layer's (p, i), so it takes no perfect-power
        # root; its rows still agree with dim_new_part, which takes them
        expected = {
            (m, p): tuple((i, p ** i, dim_new_part(m, p ** i)) for i in range(1, 8))
            for m in (2, 3, 4, 5, 6, 9, 12) for p in (2, 3, 5, 7)
        }

        def refuse(n, max_k):
            raise FactorizationIncomplete(f"_perfect_power({n}) called")

        monkeypatch.setattr(jacobian_invariants, "_perfect_power", refuse)
        for (m, p), rows in expected.items():
            assert decomposition_table(m, p, 7).rows == rows
        # 1365 * bit_length(7) = 4095, the largest r under MAX_LAYER_BITS
        table = decomposition_table(5, 7, 1365)
        assert len(table.rows) == 1365
        assert table.total == dim_superelliptic(5, 7 ** 1365)
        with pytest.raises(FactorizationIncomplete):
            dim_new_part(5, 49)  # the patch is live: dim_new_part takes roots of q

    @given(st.integers(2, 20), st.sampled_from([2, 3, 5, 7]), st.integers(0, 4))
    @settings(max_examples=100)
    def test_table_consistent(self, m, p, r):
        table = decomposition_table(m, p, r)
        assert len(table.rows) == r
        assert sum(row[2] for row in table.rows) == table.total
        for i, q, d in table.rows:
            assert q == p ** i
            assert d == dim_new_part(m, q)
