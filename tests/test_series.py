"""Truncated-series arithmetic, evaluation, and radius extrapolation."""

import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import lattice_offset, series_from_json, series_to_json
from polyagibbs import (
    InsufficientData,
    PreconditionError,
    TailNotControlled,
    TruncatedSeries,
    evaluate,
    geometric,
    radius_estimate,
    series_from_terms,
)
from polyagibbs.cycleindex import seq_ogf
from polyagibbs import series as series_module
from polyagibbs.series import _tail_sum, cauchy_terms, exact_div, exp_weighted

F = Fraction


def poly(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs], len(coeffs) - 1)


small_series = st.lists(
    st.fractions(min_value=0, max_value=4, max_denominator=6),
    min_size=1,
    max_size=9,
).map(lambda cs: TruncatedSeries(cs, 10))


class TestArithmetic:
    def test_mul_matches_double_loop(self):
        a = poly(1, 2, 0, 3)
        b = TruncatedSeries([F(0), F(5), F(7)], 3)
        c = a * b
        for n in range(4):
            expect = sum(a[k] * b[n - k] for k in range(n + 1))
            assert c[n] == expect

    @given(small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_scalar_mul(self):
        assert F(1, 2) * poly(2, 4) == poly(1, 2)

    def test_pow(self):
        g = poly(0, 1, 1)
        assert g**3 == g * g * g
        assert g**0 == TruncatedSeries([F(1)], 2)

    def test_coefficients_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            poly(1, -1)

    def test_getitem_beyond_truncation_raises(self):
        with pytest.raises(IndexError):
            poly(1, 2)[5]


class TestExactTypes:
    def test_int_and_fraction_coefficients_are_one_series(self):
        a, b = TruncatedSeries([1, 2]), TruncatedSeries([F(1), F(2)])
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) and series_to_json(a) == series_to_json(b)

    def test_integral_coefficients_are_stored_as_int(self):
        g = TruncatedSeries([F(4, 2), F(1, 3), 0.5], 3)
        assert [type(c) for c in g.coeffs] == [int, Fraction, Fraction, int]

    def test_exact_div(self):
        assert type(exact_div(12, 4)) is int and exact_div(12, 4) == 3
        assert exact_div(7, 2) == F(7, 2)
        assert exact_div(F(1, 2), 3) == F(1, 6)

    def test_exp_falls_back_to_fractions(self):
        n = 12
        got = TruncatedSeries([0, 1], n).exp()
        assert list(got.coeffs) == [F(1, factorial(m)) for m in range(n + 1)]
        assert all(type(got[m]) is Fraction for m in range(2, n + 1))

    def test_exp_of_integral_euler_argument_stays_int(self):
        # exp(sum_i z^i / i) has weighted argument k * a_k = 1 for all k
        n = 20
        got = TruncatedSeries([0] + [F(1, k) for k in range(1, n + 1)], n).exp()
        assert all(type(c) is int for c in got.coeffs)

    def test_no_float_coefficients(self):
        from polyagibbs import (
            forests,
            multiset_ogf,
            multiset_ogf_product,
            ogf,
            parse_dsl,
            seq_ogf,
        )

        rational = parse_dsl("T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);")
        half = TruncatedSeries([0, F(1, 2), 1], 8)
        made = [
            half.exp(),
            half * half,
            F(1, 3) * half,
            seq_ogf(half, 8),
            ogf(forests(), 30),
            ogf(rational, 30),
            multiset_ogf(lambda i: half, 8),
            multiset_ogf_product(lambda i: half, 8),
        ]
        for g in made:
            assert all(type(c) in (int, Fraction) for c in g.coeffs)


class TestExp:
    def test_exp_of_log_geometric(self):
        # exp(sum z^i / i) = 1/(1-z)
        n = 30
        arg = TruncatedSeries([F(0)] + [F(1, i) for i in range(1, n + 1)], n)
        assert arg.exp() == geometric(n)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(PreconditionError):
            poly(1, 1).exp()

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=4),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=4),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_exp_additive(self, xs, ys):
        a = TruncatedSeries([F(0)] + xs, 8)
        b = TruncatedSeries([F(0)] + ys, 8)
        assert (a + b).exp() == a.exp() * b.exp()

    def test_substitute_power(self):
        g = poly(0, 1, 2)
        sub = g.substitute_power(3, truncation=8)
        assert sub.coeffs == (F(0),) * 3 + (F(1),) + (F(0),) * 2 + (F(2), F(0), F(0))


def _loop_cauchy_sum(a, b, m):
    """sum_k a_k b_{m-k} over the nonzero a_k, k >= 1, as a plain loop."""
    acc = 0
    for k in range(1, m + 1):
        if k < len(a) and a[k]:
            acc += a[k] * b[m - k]
    return acc


def _loop_exp_weighted(weighted, sums=None):
    """exp_weighted as a plain loop that skips degrees off the argument's
    semigroup: the reference of the C-level sums.  Each degree's sum is
    appended to ``sums`` when it is given."""
    n = len(weighted) - 1
    nonzero = [k for k in range(1, n + 1) if weighted[k]]
    out = [0] * (n + 1)
    out[0] = 1
    reachable = [False] * (n + 1)
    reachable[0] = True
    for m in range(1, n + 1):
        acc = 0
        hit = False
        for k in nonzero:
            if k > m:
                break
            if reachable[m - k]:
                hit = True
                acc += weighted[k] * out[m - k]
        if sums is not None:
            sums.append(acc)
        if hit:
            reachable[m] = True
            out[m] = exact_div(acc, m)
    return TruncatedSeries(out)


def _loop_seq_ogf(g, n):
    out = [0] * (n + 1)
    out[0] = 1
    for m in range(1, n + 1):
        acc = 0
        for k in g.nonzero_indices:
            if k > m:
                break
            acc += g[k] * out[m - k]
        out[m] = acc
    return TruncatedSeries(out)


def _typed(xs):
    return [(x, type(x)) for x in xs]


def _tree_counts(n):
    from polyagibbs import ogf, polya_trees

    return ogf(polya_trees(), n)


# arguments of the three kinds the exact recurrences see: integral (the
# Euler-transform argument of rooted trees), rational with zeros on a
# lattice, and one whose entries include Fraction(0)
def _integral_argument(n=200):
    t = _tree_counts(n)
    return [0] + [sum(d * t[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, n + 1)]


_RATIONAL_ARGUMENT = [0] + [F(k, 3) if k % 3 else 0 for k in range(1, 61)]
_FRACTION_ZERO_ARGUMENT = [F(0), F(0), F(2), F(0), F(1, 5), F(0), 4, F(0), F(7, 2)] + [F(0)] * 32


class TestExactLoops:
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "a",
        [
            [0] + list(range(1, 41)),
            [0, 0, 3, 0, 5] + [0] * 36,
            [0, F(1, 2), 0, F(0), F(3, 4)] + [1] * 36,
            [0, 2, 3, F(5, 2)] + [0] * 37,
        ],
    )
    @pytest.mark.parametrize(
        "b",
        [
            list(range(1, 41)),
            [1, 0, F(1, 3), F(0), 2, 0] * 7,
            [1, F(0), 0, 5] * 10,
        ],
    )
    def test_cauchy_terms_sum_to_the_loop_in_value_and_type(self, a, b, m):
        nonzero = [x for x in a[1:] if x]
        got = sum(cauchy_terms(a[1:], nonzero, b[:m], m))
        want = _loop_cauchy_sum(a, b, m)
        assert (got, type(got)) == (want, type(want))

    @pytest.mark.parametrize(
        "weighted",
        [_integral_argument(), _RATIONAL_ARGUMENT, _FRACTION_ZERO_ARGUMENT],
        ids=["integral", "rational", "fraction-zero"],
    )
    def test_exp_weighted_matches_the_loop(self, weighted):
        got, want = exp_weighted(weighted), _loop_exp_weighted(weighted)
        assert _typed(got.coeffs) == _typed(want.coeffs)

    def test_exp_weighted_sums_keep_the_loops_types(self, monkeypatch):
        # int weights with Fraction weights at indices that skip degrees:
        # a Fraction weight times the 0 of an unreachable degree must not
        # turn a sum that the loop keeps in int into a Fraction
        weighted = [0, 0, 4, F(1), 0, 0, 6, F(1, 2)] + [0] * 16
        want = []
        _loop_exp_weighted(weighted, want)
        got = []
        monkeypatch.setattr(
            series_module, "exact_div", lambda a, m: got.append(a) or exact_div(a, m)
        )
        exp_weighted(weighted)
        assert _typed(got) == _typed(want)
        # degree 4 reads the weight F(1) at index 3 against the 0 at degree 1
        assert _typed(got[3:4]) == [(8, int)]

    @pytest.mark.parametrize(
        "coeffs",
        [list(_tree_counts(200).coeffs), _RATIONAL_ARGUMENT, _FRACTION_ZERO_ARGUMENT],
        ids=["integral", "rational", "fraction-zero"],
    )
    def test_seq_ogf_matches_the_loop(self, coeffs):
        g = TruncatedSeries(coeffs)
        n = g.truncation
        assert _typed(seq_ogf(g, n).coeffs) == _typed(_loop_seq_ogf(g, n).coeffs)


class TestLattice:
    def test_span_of_even_series(self):
        g = series_from_terms([(2, F(1)), (6, F(3)), (10, F(1))], 12)
        assert g.lattice_span() == 4
        assert lattice_offset(g) == 2
        assert series_from_terms([(2, 1), (4, 1), (8, 1)], 10).lattice_span() == 2

    def test_span_single_term(self):
        assert series_from_terms([(3, F(5))], 10).lattice_span() == 3

    def test_span_dense(self):
        assert geometric(20, F(1, 2)).lattice_span() == 1


class TestJson:
    def test_roundtrip(self):
        g = series_from_terms([(0, F(1)), (3, F(7, 2))], 5)
        assert series_from_json(series_to_json(g)) == g

    def test_format_uses_exact_rationals(self):
        g = poly(1, "1/3")
        assert '"1/3"' in series_to_json(g)


class TestEvaluate:
    def test_polynomial_short_circuit(self):
        ev = evaluate(TruncatedSeries([1, 2, 3], 10), 0.5)
        assert ev.tail == 0.0
        assert ev.value == pytest.approx(1 + 1 + 0.75)

    def test_geometric_value(self):
        ev = evaluate(geometric(120), 0.5)
        assert ev.value == pytest.approx(2.0, rel=1e-9)

    def test_geometric_with_weights(self):
        # g_n = (1/3)^n evaluated at 1: sums to 3/2
        ev = evaluate(geometric(100, F(1, 3)), 1.0)
        assert ev.value == pytest.approx(1.5, rel=1e-9)

    def test_algebraic_decay_tail(self):
        # g_n = n^{-3}: partial sums converge to zeta(3); the fitted tail
        # must close most of the truncation gap
        n = 300
        g = TruncatedSeries([F(0)] + [F(1, k**3) for k in range(1, n + 1)], n)
        ev = evaluate(g, 1.0)
        zeta3 = 1.2020569031595943
        assert abs(ev.value - zeta3) < 1e-4
        assert abs(ev.partial - zeta3) > 5e-6  # the partial sum alone is off

    def test_divergent_raises(self):
        g = TruncatedSeries([F(2) ** n for n in range(60)], 59)
        with pytest.raises(TailNotControlled):
            evaluate(g, 1.0)

    @given(st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_x(self, x):
        g = geometric(80)
        assert evaluate(g, x).value <= evaluate(g, x + 0.05).value + 1e-12


TAIL_BETAS = (-1.5, -0.3, 0.0, 1e-12, 0.3, 1.0, 1.5, 3.0)
TAIL_STEPS = (1 / 50, 1 / 400)


class TestTailSum:
    """sum_{m>=1} r^m (1 + m*s)^(-beta) against oracles that share no code
    with the quadrature."""

    @pytest.mark.parametrize("s", TAIL_STEPS)
    @pytest.mark.parametrize("beta", [b for b in TAIL_BETAS if b > 1])
    def test_unit_ratio_is_hurwitz_zeta(self, beta, s):
        from scipy.special import zeta

        exact = s ** (-beta) * zeta(beta, 1.0 + 1.0 / s)
        assert _tail_sum(1.0, beta, s) == pytest.approx(exact, rel=1e-12)

    def test_unit_ratio_at_the_fitted_window(self):
        # the r = 1 branch of evaluate once summed 763.76 here
        assert _tail_sum(1.0, 1.5, 1 / 400) == pytest.approx(799.5003124997, rel=1e-12)

    @pytest.mark.parametrize("s", TAIL_STEPS)
    @pytest.mark.parametrize("beta", TAIL_BETAS)
    @pytest.mark.parametrize("r", [0.3, 0.9])
    def test_small_ratio_is_direct_sum(self, r, beta, s):
        exact = math.fsum(r**m * (1.0 + m * s) ** (-beta) for m in range(1, 2000))
        assert _tail_sum(r, beta, s) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("s", TAIL_STEPS)
    @pytest.mark.parametrize("beta", TAIL_BETAS)
    @pytest.mark.parametrize("r", [0.9999, 1 - 1e-9])
    def test_ratio_near_one_is_lerch_transcendent(self, r, beta, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            rr, b, ss = mpmath.mpf(r), mpmath.mpf(beta), mpmath.mpf(s)
            exact = float(ss ** (-b) * rr * mpmath.lerchphi(rr, b, 1 + 1 / ss))
        assert _tail_sum(r, beta, s) == pytest.approx(exact, rel=1e-12)

    def test_underflowing_ratio_has_no_tail(self):
        # lattice step 4 at x = 1e-100: the fitted ratio underflows to 0
        ev = evaluate(geometric(60).substitute_power(4, truncation=240), 1e-100)
        assert ev.ratio == 0.0 and ev.tail == 0.0 and ev.value == 1.0

    def test_unconverged_quadrature_raises(self, monkeypatch):
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (1.0, 1e-6, {}))
        with pytest.raises(TailNotControlled):
            _tail_sum(0.99, 1.5, 1 / 400)


class TestRadius:
    @pytest.mark.parametrize("c", [F(1, 2), F(1, 3), F(2)])
    def test_pure_geometric(self, c):
        est = radius_estimate(geometric(60, c))
        assert est.rho == pytest.approx(1.0 / float(c), abs=1e-9)
        assert est.span == 1

    def test_polynomially_corrected(self):
        # g_n = n^{-3} 2^{-n} has radius 2; the 1/n-extrapolated estimate
        # must land within 1e-3 (the raw last ratio does not)
        n = 800
        g = TruncatedSeries(
            [F(0)] + [F(1, k**3 * 2**k) for k in range(1, n + 1)], n
        )
        est = radius_estimate(g)
        assert abs(est.rho - 2.0) < 1e-3
        raw = float(g[n - 1] / g[n])
        assert abs(raw - 2.0) > 5e-3

    def test_even_lattice(self):
        g = series_from_terms(
            [(2 * k, F(1, 4**k)) for k in range(1, 30)], 60
        )
        est = radius_estimate(g)
        assert est.span == 2
        assert est.rho == pytest.approx(2.0, abs=1e-6)

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            radius_estimate(poly(0, 1, 1))
