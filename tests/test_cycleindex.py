"""Multiset and sequence OGFs against the term-by-term cycle index sums
of ``oracles``, and sanity checks of those sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import index_value, partitions, plethysm, z_seq, z_set
from polyagibbs import (
    GibbsModel,
    SeriesEngine,
    TruncatedSeries,
    coefficient_ratio_experiment,
    evaluate,
    geometric,
    multiset_ogf,
    multiset_ogf_product,
    ogf,
    parse_dsl,
    polya_trees,
    seq_ogf,
)

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
        degrees = [sum(i * m for i, m in ct) for ct, _ in z_set(8)]
        for n in range(9):
            assert degrees.count(n) == PARTITION_NUMBERS[n]

    def test_z_set_coefficients_sum_to_one_per_degree(self):
        # sum over partitions of n of prod 1/(i^m_i m_i!) = 1: the terms of
        # each degree are the conjugacy-class weights of the symmetric group
        sums = [0] * 11
        for ct, c in z_set(10):
            sums[sum(i * m for i, m in ct)] += c
        assert sums == [1] * 11

    def test_z_set_sample_coefficient(self):
        # type 1^2 2^2: 1/(1^2*2! * 2^2*2!) = 1/16
        assert dict(z_set(6))[((1, 2), (2, 2))] == F(1, 16)

    def test_z_seq_is_identity_only(self):
        terms = dict(z_seq(5))
        assert terms[((1, 3),)] == 1
        assert ((1, 2), (2, 1)) not in terms


@pytest.fixture(scope="module")
def z_set_40():
    # 215,308 cycle types; built once for the tests that evaluate it
    return z_set(40)


class TestSpecializations:
    def test_set_ogf_of_atoms_is_geometric(self):
        # multisets of single atoms: one orbit per size
        atom = TruncatedSeries([0, 1], 12)
        assert plethysm(z_set(12), lambda i: atom, 12) == geometric(12, 1)

    def test_plethysm_partitions(self):
        # multisets of nonempty runs of atoms = integer partitions
        n = 12
        runs = TruncatedSeries([F(0)] + [F(1)] * n, n)
        got = plethysm(z_set(n), lambda i: runs, n)
        assert list(got.coeffs) == PARTITION_NUMBERS

    def test_evaluate_at_matches_exp(self, z_set_40):
        import math

        value, residual = index_value(z_set_40, lambda i: 0.4**i, 40)
        want = math.exp(sum(0.4**i / i for i in range(1, 200)))
        assert value == pytest.approx(want, rel=1e-8)
        assert residual < 1e-6

    def test_residual_matches_degree_recurrence(self, z_set_40):
        # on forests at rho (truncation 200) the residual is the degree
        # 21..40 part summed directly, not a difference of two sums near
        # 2.78, so it equals the recurrence's fsum of the same part
        from polyagibbs import GibbsModel, forests

        model = GibbsModel.from_species(forests(), truncation=200)
        rho = model.rho.rho
        args = lambda i: model.inner_value(i, rho**i)
        _, want = model.outer_index_value(args)
        _, residual = index_value(z_set_40, args, 40)
        assert residual == pytest.approx(want, rel=1e-12, abs=0)


class TestOgfPaths:
    def test_exp_sum_equals_per_term_plethysm(self):
        n = 14
        fam = trees_family(n)
        assert multiset_ogf(fam, n) == plethysm(z_set(n), fam, n)

    def test_exp_sum_equals_factorized_product(self):
        n = 60
        fam = trees_family(n)
        assert multiset_ogf(fam, n) == multiset_ogf_product(fam, n)

    def test_multiset_matches_species_engine(self):
        n = 40
        fam = trees_family(n)
        from polyagibbs import forests

        assert multiset_ogf(fam, n) == ogf(forests(), n)

    @pytest.mark.parametrize(
        "make",
        [
            # powered streams differ, and the coefficients are Fractions
            pytest.param(
                lambda: GibbsModel.from_species(
                    parse_dsl("T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);"),
                    truncation=60,
                ),
                id="weighted-trees-set",
            ),
            pytest.param(
                lambda: GibbsModel.from_series(
                    [0] + [F(1, k**2) * F(2, 3) ** k for k in range(1, 61)], truncation=60
                ),
                id="sized-set",
            ),
            # test_asymptotics' SEQ model; below truncation 165 the tail
            # model cannot evaluate its remainder series
            pytest.param(
                lambda: GibbsModel.from_series(
                    [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 171)],
                    outer="SEQ",
                    truncation=170,
                ),
                id="sized-seq",
            ),
        ],
    )
    def test_remainder_series_is_the_cycle_index_route(self, make):
        # (F')(G): the Euler transform of the powered inner streams for SET
        # (SET' = SET), the square of the quasi-inverse for SEQ; the ratio
        # experiment's constant is this series at rho
        model = make()
        n, engine, inner = model.truncation, model.engine, model.inner_id
        if model.outer == "SET":
            want = multiset_ogf(lambda i: engine.ogf(n // i, node=inner, power=i), n)
        else:
            q = seq_ogf(model.inner_ogf(1), n)
            want = q * q
        got = model.remainder_ogf
        assert [(type(c), c) for c in got.coeffs] == [(type(c), c) for c in want.coeffs]
        assert any(type(c) is F for c in got.coeffs)
        constant = coefficient_ratio_experiment(model).constant
        assert constant.hex() == evaluate(want, model.rho.rho).value.hex()

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
        assert got == plethysm(z_set(n), fam, n)
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
    assert got == plethysm(z_set(n), fam, n)
    if all(F(c).denominator == 1 for c in coeffs):
        assert all(type(c) is int for c in got.coeffs)
