"""Genus, dimension, and layer-constant formulas plus their coherence laws."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_rank import (
    CurvePair,
    FactorizationIncomplete,
    InvalidInput,
    MultiVariableError,
    TowerLayer,
    berger_genus,
    c2,
    decomposition_table,
    dim_new_part,
    dim_superelliptic,
    euler_phi,
    parse_poly,
)
from berger_rank import jacobian_invariants


class TestEulerPhi:
    def test_small_values(self):
        assert [euler_phi(q) for q in range(1, 13)] == [
            1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
        ]

    @given(st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=100)
    def test_multiplicative_on_coprime(self, a, b):
        if gcd(a, b) != 1:
            return
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    def test_error(self):
        with pytest.raises(InvalidInput):
            euler_phi(0)


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
        assert dim_new_part(6, 3) == (6 - 2) * euler_phi(3) // 2
        assert dim_new_part(7, 3) == (7 - 1) * euler_phi(3) // 2

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


class TestC2:
    def test_known_values(self):
        assert c2(5, 2, 1) == 4
        assert c2(5, 2, 49) == 4
        assert c2(5, 5, 1) == 16
        assert c2(5, 5, 5) == 20
        assert c2(9, 3, 3) == 18
        assert c2(6, 2, 3) == 5
        assert c2(4, 2, 283) == 3

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


class TestCurvePair:
    def test_valid(self):
        pair = CurvePair(parse_poly("x^5 - x - 1"), parse_poly("y^2 - 1"))
        assert (pair.m, pair.n) == (5, 2)
        assert pair.genus == 2

    def test_distinct_variables_required(self):
        with pytest.raises(MultiVariableError):
            CurvePair(parse_poly("x^5 - x - 1"), parse_poly("x^2 - 1"))

    def test_squarefree_required(self):
        with pytest.raises(InvalidInput):
            CurvePair(parse_poly("x^2 - 2x + 1"), parse_poly("y^2 - 1"))
        with pytest.raises(InvalidInput):
            CurvePair(parse_poly("x^5 - x - 1"), parse_poly("(y-1)^2"))

    def test_degree_bounds(self):
        with pytest.raises(InvalidInput):
            CurvePair(parse_poly("x - 1"), parse_poly("y^2 - 1"))


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

    def test_table_factors_nothing(self, monkeypatch):
        # the table knows each layer's (p, i), so no layer is factored; its
        # rows still agree with dim_new_part, which factors each layer
        expected = {
            (m, p): tuple((i, p ** i, dim_new_part(m, p ** i)) for i in range(1, 8))
            for m in (2, 3, 4, 5, 6, 9, 12) for p in (2, 3, 5, 7)
        }

        def refuse(n):
            raise FactorizationIncomplete(f"factor_int({n}) called")

        monkeypatch.setattr(jacobian_invariants, "factor_int", refuse)
        for (m, p), rows in expected.items():
            assert decomposition_table(m, p, 7).rows == rows
        # 1365 * bit_length(7) = 4095, the largest r under MAX_LAYER_BITS
        table = decomposition_table(5, 7, 1365)
        assert len(table.rows) == 1365
        assert table.total == dim_superelliptic(5, 7 ** 1365)
        with pytest.raises(FactorizationIncomplete):
            dim_new_part(5, 7)  # the patch is live: dim_new_part factors q

    @given(st.integers(2, 20), st.sampled_from([2, 3, 5, 7]), st.integers(0, 4))
    @settings(max_examples=100)
    def test_table_consistent(self, m, p, r):
        table = decomposition_table(m, p, r)
        assert len(table.rows) == r
        assert sum(row[2] for row in table.rows) == table.total
        for i, q, d in table.rows:
            assert q == p ** i
            assert d == dim_new_part(m, q)
