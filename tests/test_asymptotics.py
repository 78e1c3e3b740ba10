"""Subexponentiality diagnostics and the ratio limit."""

import math
from fractions import Fraction

import pytest

from polyagibbs import (
    GibbsModel,
    InnerNotSubexponential,
    InsufficientData,
    diagnose_subexponential,
    forests,
    geometric,
    coefficient_ratio_experiment,
    ogf,
    parse_dsl,
    polya_trees,
    series_from_terms,
)
from polyagibbs.asymptotics import _scaled_floats, _self_convolution

F = Fraction


def power_law_series(n, beta=3, half=2):
    """g_k = k^-beta half^-k: a textbook subexponential sequence with
    radius of convergence ``half`` and a convergent value there."""
    return series_from_terms(
        [(k, F(1, k**beta) * F(1, half) ** k) for k in range(1, n + 1)], n
    )


class TestDiagnostics:
    def test_power_law_sequence_looks_subexponential(self):
        rep = diagnose_subexponential(power_law_series(600))
        assert rep.d == 1
        assert rep.rho.rho == pytest.approx(2.0, abs=2e-3)
        half, top = sorted(rep.ratio_deviation)
        assert rep.ratio_deviation[top] < rep.ratio_deviation[half]
        assert rep.convolution_deviation[top] < rep.convolution_deviation[half]
        assert rep.convolution_deviation[top] < 0.05

    def test_tree_sequence_deviations_are_moderate(self):
        rep = diagnose_subexponential(ogf(polya_trees(), 400))
        top = max(rep.ratio_deviation)
        assert rep.ratio_deviation[top] < 0.05
        assert rep.convolution_deviation[top] < 0.2

    def test_short_sequence_rejected(self):
        with pytest.raises(InsufficientData):
            diagnose_subexponential(geometric(10, 1))

    def test_even_lattice(self):
        g = series_from_terms(
            [(2 * k, F(1, k**3 * 2**k)) for k in range(1, 201)], 400
        )
        rep = diagnose_subexponential(g)
        assert rep.d == 2


def _loop_convolution_track(g, rho):
    """The self-convolution track as one fsum per n over a generator of
    index pairs: the reference of the vectorised products."""
    h = _scaled_floats(g, rho)
    nz = [n for n in g.nonzero_indices if n > 0]
    return [
        (n, math.fsum(h[i] * h[n - i] for i in nz if 0 < i < n and (n - i) in h) / h[n])
        for n in nz
    ]


def _bits(track):
    return [(n, x.hex()) for n, x in track]


class TestConvolutionTrack:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: ogf(forests(), 400),
            lambda: ogf(parse_dsl("B := ATOM + ATOM * B * B;"), 401),
            lambda: power_law_series(600),
        ],
        ids=["forests-span-1", "binary-trees-span-2", "power-law-fractions"],
    )
    def test_track_is_bit_identical_to_the_loop(self, make):
        g = make()
        rep = diagnose_subexponential(g)
        assert _bits(rep.convolution_track) == _bits(_loop_convolution_track(g, rep.rho.rho))

    def test_overflowing_products_are_inf_without_a_warning(self):
        # the suite turns RuntimeWarning into an error, so numpy's overflow
        # warning would fail here; Python float products overflow silently
        h = {n: 1e200 * n for n in range(1, 41)}
        nz = sorted(h)
        want = [math.fsum(h[i] * h[n - i] for i in range(1, n)) for n in nz]
        got = _self_convolution(h, nz)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert math.isinf(got[-1]) and got[0] == 0.0

    def test_infinite_terms_next_to_gaps_stay_infinite(self):
        # an absent index must not meet an inf as 0.0 * inf = nan
        h = {n: (math.inf if n == 7 else 0.5**n) for n in range(2, 60) if n % 5}
        nz = sorted(h)
        want = [math.fsum(h[i] * h[n - i] for i in nz if i < n and (n - i) in h) for n in nz]
        got = _self_convolution(h, nz)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert math.isinf(got[nz.index(9)])


class TestRatioLimit:
    def test_forest_constant_is_reciprocal_radius(self):
        # for rooted trees T = z SET(T), the inner series satisfies
        # T(rho) = rho * F(rho) with T(rho) = 1 at the radius, so the
        # multiset constant F(rho) equals 1 / rho
        model = GibbsModel.from_species(forests(), truncation=400)
        rep = coefficient_ratio_experiment(model)
        assert rep.constant == pytest.approx(1 / model.rho.rho, rel=5e-3)
        paths = rep.constant_paths
        assert paths["cycle_index"] == pytest.approx(
            paths["species_engine"], rel=1e-9
        )
        half, top = sorted(rep.deviation)
        assert rep.deviation[top] < 0.02
        assert rep.deviation[top] < rep.deviation[half]

    def test_polynomial_inner_rejected(self):
        model = GibbsModel.from_series([0, 1, 1], truncation=60)
        with pytest.raises(InnerNotSubexponential):
            coefficient_ratio_experiment(model)

    def test_sequence_outer(self):
        # SEQ outer with a small enough inner that G(rho) < 1
        coeffs = [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 301)]
        model = GibbsModel.from_series(coeffs, outer="SEQ", truncation=300)
        rep = coefficient_ratio_experiment(model)
        paths = rep.constant_paths
        assert paths["cycle_index"] == pytest.approx(
            paths["species_engine"], rel=1e-6
        )
        top = max(rep.deviation)
        assert rep.deviation[top] < 0.05
