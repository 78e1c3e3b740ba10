"""Cycle index sums: builders, plethysm, derivative, specializations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyagibbs import (
    CycleIndexPoly,
    InnerHasConstantTerm,
    SeriesEngine,
    TruncatedSeries,
    cycle_type,
    geometric,
    multiset_ogf,
    multiset_ogf_product,
    ogf,
    polya_trees,
    seq_ogf,
    z_seq,
    z_set,
)
from polyagibbs.cycleindex import cycle_type_degree, partitions

F = Fraction

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def powered_family(coeffs, n):
    """Family i -> sum_j c_j^i z^j: one orbit per size j of weight c_j,
    under the nu^i weighting."""
    return lambda i: TruncatedSeries([0] + [c**i for c in coeffs], n)


def trees_family(n):
    """Powered Polya-tree series family i -> T^{(i)}, truncated to n // i."""
    eng = SeriesEngine(polya_trees())
    return lambda i: eng.ogf(max(n // i, 1), power=i)


class TestBuilders:
    def test_partition_generator(self):
        for n in range(9):
            assert sum(1 for _ in partitions(n)) == PARTITION_NUMBERS[n]

    def test_z_set_term_count_is_partition_count(self):
        zf = z_set(8)
        for n in range(9):
            assert len(zf.degree_slice(n)) == PARTITION_NUMBERS[n]

    def test_z_set_coefficients_sum_to_one_per_degree(self):
        # sum over partitions of n of prod 1/(i^m_i m_i!) = 1: the terms of
        # each degree are the conjugacy-class weights of the symmetric group
        zf = z_set(10)
        for n in range(11):
            assert sum(zf.degree_slice(n).values()) == 1

    def test_z_set_sample_coefficient(self):
        zf = z_set(6)
        # type 1^2 2^2: 1/(1^2*2! * 2^2*2!) = 1/16
        assert zf.coefficient(cycle_type({1: 2, 2: 2})) == F(1, 16)

    def test_z_seq_is_identity_only(self):
        zf = z_seq(5)
        assert zf.coefficient(cycle_type({1: 3})) == 1
        assert zf.coefficient(cycle_type({1: 2, 2: 1})) == 0


class TestDerivative:
    def test_set_is_its_own_derivative(self):
        # d/dz_1 exp(sum z_i / i) = exp(sum z_i / i)
        assert z_set(9).derivative_z1() == z_set(8)

    def test_seq_derivative_counts_positions(self):
        # d/dz_1 sum z_1^k = sum k z_1^{k-1}
        d = z_seq(6).derivative_z1()
        assert d.coefficient(cycle_type({1: 2})) == 3

    def test_degree_drops(self):
        zf = z_set(6)
        assert all(
            cycle_type_degree(ct) <= 5 for ct in zf.derivative_z1().terms
        )


class TestSpecializations:
    def test_set_ogf_of_atoms_is_geometric(self):
        # multisets of single atoms: one orbit per size
        assert z_set(12).specialize_ogf() == geometric(12, 1)

    def test_plethysm_partitions(self):
        # multisets of nonempty runs of atoms = integer partitions
        n = 12
        runs = TruncatedSeries([F(0)] + [F(1)] * n, n)
        got = z_set(n).plethysm_ogf(lambda i: runs)
        assert list(got.coeffs) == PARTITION_NUMBERS

    def test_plethysm_rejects_constant_term(self):
        with pytest.raises(InnerHasConstantTerm):
            z_set(4).plethysm_ogf(lambda i: geometric(4, 1))

    def test_evaluate_at_matches_exp(self):
        import math

        value, residual = z_set(40).evaluate_at(lambda i: 0.4**i)
        want = math.exp(sum(0.4**i / i for i in range(1, 200)))
        assert value == pytest.approx(want, rel=1e-8)
        assert residual < 1e-6

    def test_json_roundtrip(self):
        zf = z_set(6)
        assert CycleIndexPoly.from_json(zf.to_json()) == zf


class TestOgfPaths:
    def test_exp_sum_equals_per_term_plethysm(self):
        n = 14
        fam = trees_family(n)
        assert multiset_ogf(fam, n) == z_set(n).plethysm_ogf(fam, n)

    def test_exp_sum_equals_factorized_product(self):
        n = 60
        fam = trees_family(n)
        assert multiset_ogf(fam, n) == multiset_ogf_product(fam, n)

    def test_multiset_matches_species_engine(self):
        n = 40
        fam = trees_family(n)
        from polyagibbs import forests

        assert multiset_ogf(fam, n) == ogf(forests(), n)

    def test_seq_ogf_is_quasi_inverse(self):
        n = 20
        g = TruncatedSeries([F(0), F(1, 2)], n)
        # 1/(1 - z/2)
        assert seq_ogf(g, n) == geometric(n, F(1, 2))

    def test_partitions_via_euler_transform(self):
        n = 12
        runs = TruncatedSeries([F(0)] + [F(1)] * n, n)
        got = multiset_ogf(lambda i: runs, n)
        assert list(got.coeffs) == PARTITION_NUMBERS

    def test_rational_family_three_routes(self):
        n = 10
        fam = powered_family([F(1, 2)] * n, n)
        got = multiset_ogf(fam, n)
        assert got == multiset_ogf_product(fam, n)
        assert got == z_set(n).plethysm_ogf(fam, n)
        assert any(type(c) is F for c in got.coeffs)

    def test_integral_family_gives_int(self):
        n = 60
        got = multiset_ogf(trees_family(n), n)
        assert all(type(c) is int for c in got.coeffs)


coefficient = st.one_of(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=4, max_denominator=6),
)


@given(
    st.integers(min_value=1, max_value=10),
    st.lists(coefficient, min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_multiset_routes_agree(n, coeffs):
    fam = powered_family(coeffs, n)
    got = multiset_ogf(fam, n)
    assert got == multiset_ogf_product(fam, n)
    assert got == z_set(n).plethysm_ogf(fam, n)
    if all(F(c).denominator == 1 for c in coeffs):
        assert all(type(c) is int for c in got.coeffs)
