"""Windowed diagnostics for heavy-tailed coefficient sequences and the
giant-component ratio limit.

Membership of a sequence in the subexponential class (lattice span d,
ratios g_n/g_{n+d} -> rho^d, self-convolution (1/g_n) sum g_i g_{n-i} ->
2 g(rho) < infinity) is a tail property that no truncation can certify, so
every report here states last-window deviations, never verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    InnerNotSubexponential,
    InsufficientData,
    TailNotControlled,
)
from .series import (
    Evaluation,
    RadiusEstimate,
    TruncatedSeries,
    evaluate,
    radius_estimate,
)


def _window(points: List[int], end: int) -> List[int]:
    """Last 10% (at least 10) of the lattice points not exceeding ``end``."""
    pts = [n for n in points if n <= end]
    w = max(10, len(pts) // 10)
    return pts[-w:]


def _scaled_floats(g: TruncatedSeries, rho: float) -> Dict[int, float]:
    """g_n * rho^n as floats; the scaling cancels in every ratio used here
    and keeps magnitudes inside float range."""
    out = {}
    log_rho = math.log(rho)
    for n in g.nonzero_indices:
        num, den = g[n].numerator, g[n].denominator
        lv = math.log(num) - math.log(den) + n * log_rho
        out[n] = math.exp(lv) if -700 < lv < 700 else float("inf")
    return out


def _self_convolution(h: Dict[int, float], nz: List[int]) -> List[float]:
    """For each n in nz, ``math.fsum`` of h_i * h_{n-i} over 0 < i < n with
    both indices in nz, the terms in ascending i; every h_i is positive.

    The products of one n form one numpy multiply over the array of the
    h_i; an IEEE double product is the same in numpy as in Python, so the
    terms are those of the scalar loop, and ``fsum`` rounds their sum
    exactly as it did.  An absent index (a lattice span d > 1, or a gap)
    holds 0.0, so its pairs add +0.0 terms, which leave the exact sum as
    it is; ``np.fmax(p, 0.0)`` turns the nan of a 0.0 * inf back into
    0.0 and leaves every product of positive values as it is.  A product
    that overflows is ``inf``, as a Python float product is, without
    numpy's overflow warning.
    """
    import numpy as np

    top = nz[-1]
    vals = np.zeros(top + 1)
    vals[nz] = [h[n] for n in nz]
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n in nz:
            # index i - 1 holds the pair (i, n - i), i = 1 .. n-1
            prods = vals[1:n] * vals[n - 1 : 0 : -1]
            sums.append(math.fsum(np.fmax(prods, 0.0, out=prods).tolist()))
    return sums


@dataclass
class SubexpReport:
    d: int
    rho: RadiusEstimate
    ratio_track: List[Tuple[int, float]]
    convolution_track: List[Tuple[int, float]]
    g_at_rho: Optional[Evaluation]
    ratio_deviation: Dict[int, float]
    convolution_deviation: Dict[int, float]
    verdict_hint: str

    def to_dict(self):
        return {
            "d": self.d,
            "rho": self.rho.rho,
            "rho_spread": self.rho.spread,
            "ratio_track": self.ratio_track,
            "convolution_track": self.convolution_track,
            "g_at_rho": None if self.g_at_rho is None else self.g_at_rho.value,
            "ratio_deviation": self.ratio_deviation,
            "convolution_deviation": self.convolution_deviation,
            "verdict_hint": self.verdict_hint,
        }


def diagnose_subexponential(g: TruncatedSeries) -> SubexpReport:
    """Ratio and self-convolution tracks of a coefficient sequence, with
    last-window relative deviations reported at the full truncation and at
    half of it (so a reader can see whether the deviations shrink).

    The O(N^2) products of the self-convolution track are numpy multiplies
    (:func:`_self_convolution`), one per n; each sum is still one exactly
    rounded ``math.fsum`` over the same terms, so the track is bit-for-bit
    the scalar loop's."""
    nz = [n for n in g.nonzero_indices if n > 0]
    if len(nz) < 20:
        raise InsufficientData("need at least 20 nonzero coefficients")
    d = g.lattice_span()
    est = radius_estimate(g)
    rho = est.rho
    h = _scaled_floats(g, rho)

    ratio_track = [
        (n, h[n] / h[n + d] * rho**d) for n in nz if n + d in h
    ]
    # the rho^n scaling cancels: h_i h_{n-i} / h_n = g_i g_{n-i} / g_n
    conv_track = [(n, s / h[n]) for n, s in zip(nz, _self_convolution(h, nz))]

    g_at_rho: Optional[Evaluation] = None
    hint = ""
    try:
        g_at_rho = evaluate(g, rho)
    except TailNotControlled as e:
        hint = f"series appears non-summable at its radius ({e}); "

    ratio_dev: Dict[int, float] = {}
    conv_dev: Dict[int, float] = {}
    track_r = dict(ratio_track)
    track_c = dict(conv_track)
    top = nz[-1]
    for end in (top // 2, top):
        wr = [n for n in _window(sorted(track_r), end)]
        ratio_dev[end] = max(abs(track_r[n] / rho**d - 1.0) for n in wr)
        if g_at_rho is not None:
            target = 2.0 * g_at_rho.value
            wc = [n for n in _window(sorted(track_c), end)]
            conv_dev[end] = max(abs(track_c[n] / target - 1.0) for n in wc)
    if g_at_rho is not None and not hint:
        hint = (
            "windowed deviations only; membership in the subexponential "
            "class cannot be certified from a truncation"
        )
    return SubexpReport(
        d=d,
        rho=est,
        ratio_track=ratio_track,
        convolution_track=conv_track,
        g_at_rho=g_at_rho,
        ratio_deviation=ratio_dev,
        convolution_deviation=conv_dev,
        verdict_hint=hint,
    )


@dataclass
class RatioLimitReport:
    constant: float
    constant_paths: Dict[str, float]
    track: List[Tuple[int, float]]
    deviation: Dict[int, float]
    rho: float


def coefficient_ratio_experiment(model) -> RatioLimitReport:
    """Ratio of composite to inner coefficients against the limit constant.

    The constant is computed on two independent code paths at identical
    truncation: via the z_1-derivative of the outer cycle index turned
    into a one-variable series (cycle-index calculus), and via the
    engine-built composite series (species recurrences); both are then
    evaluated at rho with the same tail model and must agree closely.

    Path 1 reads the powered inner series G_i (the inner class under the
    nu^i weighting) to degree N // i.  For SET it forms
    exp(sum_i G_i(z^i)/i) with :func:`~polyagibbs.cycleindex.multiset_ogf`,
    one Euler transform of the summed weighted argument (in `int` when the
    weights are integral); for SEQ it squares the quasi-inverse of G_1.
    Path 2 reads the engine's stream of the composite node, filled by the
    engine's own per-degree SET/SEQ recurrence.
    """
    from .cycleindex import multiset_ogf, seq_ogf

    inner = model.inner_ogf(1)
    if inner.is_polynomial_within():
        raise InnerNotSubexponential(
            "inner series is polynomial; the ratio limit hypotheses fail"
        )
    rho = model.rho.rho
    comp = model.composite_ogf
    N = comp.truncation

    # path 1: d/dz_1 of the outer cycle index, as a series in one variable.
    # SET: d/dz_1 Z_SET = Z_SET, so the derived series is the Euler
    # transform of the powered inner family.  SEQ: d/dz_1 Z_SEQ =
    # (1/(1-z_1))^2, the square of the quasi-inverse.
    # powered inner streams are only needed up to degree N // i
    def fam(i: int):
        return model.engine.ogf(max(N // i, 1), node=model.inner_id, power=i)

    if model.outer == "SET":
        derived = multiset_ogf(fam, N)
    else:
        q = seq_ogf(fam(1).truncate(N), N)
        derived = q * q
    c_cycle = evaluate(derived, rho).value

    # path 2: the engine-built remainder series ((F')(G) for SET is the
    # composite itself, for SEQ its square)
    c_species = evaluate(model.remainder_ogf, rho).value

    hc = _scaled_floats(comp, rho)
    hi = _scaled_floats(inner, rho)
    track = sorted((n, hc[n] / hi[n]) for n in hi if n > 0 and n in hc)
    tr = dict(track)
    top = track[-1][0]
    dev = {}
    for end in (top // 2, top):
        win = _window([n for n, _ in track], end)
        dev[end] = max(abs(tr[n] / c_cycle - 1.0) for n in win)
    return RatioLimitReport(
        constant=c_cycle,
        constant_paths={"cycle_index": c_cycle, "species_engine": c_species},
        track=track,
        deviation=dev,
        rho=rho,
    )
