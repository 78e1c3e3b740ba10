"""Truncated univariate power series with exact non-negative rational
coefficients.

Coefficients are `fractions.Fraction` values; all arithmetic is exact.
Floating point enters only through :func:`evaluate` and
:func:`radius_estimate`, which report their own error estimates.  The tail
estimate of :func:`evaluate` models the last-window term ratios as
``r(n) = r_inf * (n/(n+d))**beta``, i.e. geometric decay with an algebraic
correction; a plain geometric majorant systematically underestimates the
tail of algebraically-decaying series at their radius.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import InsufficientData, PreconditionError, TailNotControlled

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_TRUNCATION = 256


def _as_fraction(x) -> Fraction:
    f = Fraction(x)
    if f < 0:
        raise ValueError("coefficients must be non-negative")
    return f


def _log2_fraction(f: Fraction) -> float:
    """log2 of a positive Fraction, safe for huge numerators/denominators."""
    return math.log2(f.numerator) - math.log2(f.denominator)


class TruncatedSeries:
    """A power series known exactly up to (and including) degree N."""

    __slots__ = ("_coeffs", "_nonzero")

    def __init__(self, coeffs: Sequence, truncation: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be >= 0")
            if len(cs) > truncation + 1:
                cs = cs[: truncation + 1]
            else:
                cs.extend([ZERO] * (truncation + 1 - len(cs)))
        elif not cs:
            cs = [ZERO]
        self._coeffs = tuple(cs)
        self._nonzero = tuple(i for i, c in enumerate(self._coeffs) if c)

    # -- basic accessors -------------------------------------------------

    @property
    def truncation(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def nonzero_indices(self) -> tuple:
        return self._nonzero

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n < len(self._coeffs):
            return self._coeffs[n]
        raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        return self._coeffs[: n + 1] == other._coeffs[: n + 1]

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._coeffs[:6])
        return f"TruncatedSeries([{head}, ...], N={self.truncation})"

    def is_polynomial_within(self, slack: int = 2) -> bool:
        """True if trailing coefficients vanish, i.e. the truncation window
        shows no evidence of an infinite tail."""
        if not self._nonzero:
            return True
        span = self.lattice_span()
        return self._nonzero[-1] <= self.truncation - (slack + 1) * span

    # -- lattice ---------------------------------------------------------

    def lattice_span(self) -> int:
        """Span d of the index lattice carrying the nonzero coefficients.

        With >= 2 nonzero indices this is the gcd of their differences
        (allowing a shifted residue class); a single nonzero index n > 0
        yields span n; the zero or constant series yields span 1.
        """
        nz = self._nonzero
        if not nz:
            return 1
        if len(nz) == 1:
            return max(nz[0], 1)
        d = 0
        for i in nz[1:]:
            d = gcd(d, i - nz[0])
        return max(d, 1)

    def lattice_offset(self) -> int:
        nz = self._nonzero
        if not nz:
            return 0
        return nz[0] % self.lattice_span()

    # -- arithmetic ------------------------------------------------------

    def truncate(self, n: int) -> "TruncatedSeries":
        if n >= self.truncation:
            return self
        return TruncatedSeries(self._coeffs[: n + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)]
        )

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            n = min(self.truncation, other.truncation)
            out = [ZERO] * (n + 1)
            for i in self._nonzero:
                if i > n:
                    break
                ci = self._coeffs[i]
                for j in other._nonzero:
                    k = i + j
                    if k > n:
                        break
                    out[k] += ci * other._coeffs[j]
            return TruncatedSeries(out)
        c = _as_fraction(other)
        return TruncatedSeries([c * x for x in self._coeffs])

    __rmul__ = __mul__

    def substitute_power(self, k: int, truncation: int | None = None) -> "TruncatedSeries":
        """Return g(z^k), by default at the same truncation order.

        A larger target truncation is exact as long as this series covers
        degree truncation // k, since the result is supported on multiples
        of k."""
        if k < 1:
            raise ValueError("power must be >= 1")
        n = self.truncation if truncation is None else truncation
        if self.truncation < n // k:
            raise PreconditionError(
                f"need source coefficients up to degree {n // k} for z^{k}"
            )
        out = [ZERO] * (n + 1)
        for i in self._nonzero:
            if i * k > n:
                break
            out[i * k] = self._coeffs[i]
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential via n*e_n = sum_k k*a_k*e_{n-k}.

        Rejects a nonzero constant term: exp of a nonzero rational is not
        a rational, so it is not representable here.
        """
        if self._coeffs[0] != 0:
            raise PreconditionError(
                "exp requires a zero constant term (exact arithmetic)"
            )
        n = self.truncation
        weighted = {k: k * self._coeffs[k] for k in self._nonzero}
        out = [ZERO] * (n + 1)
        out[0] = ONE
        # Skip indices off the argument's semigroup: e_m can only be nonzero
        # when m is a sum of nonzero argument indices.
        reachable = [False] * (n + 1)
        reachable[0] = True
        for m in range(1, n + 1):
            acc = ZERO
            hit = False
            for k in self._nonzero:
                if k > m:
                    break
                if reachable[m - k]:
                    hit = True
                    acc += weighted[k] * out[m - k]
            if hit:
                reachable[m] = True
                out[m] = acc / m
        return TruncatedSeries(out)

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = TruncatedSeries([ONE], truncation=self.truncation)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "truncation": self.truncation,
                "span": self.lattice_span(),
                "coeffs": [
                    f"{c.numerator}/{c.denominator}" for c in self._coeffs
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        data = json.loads(text)
        coeffs = [Fraction(s) for s in data["coeffs"]]
        return cls(coeffs, truncation=data["truncation"])


def series_from_terms(terms: Iterable, truncation: int) -> TruncatedSeries:
    """Build a series from (index, coefficient) pairs."""
    out = [ZERO] * (truncation + 1)
    for n, c in terms:
        if 0 <= n <= truncation:
            out[n] += Fraction(c)
    return TruncatedSeries(out)


def geometric(truncation: int, ratio=1) -> TruncatedSeries:
    r = Fraction(ratio)
    return TruncatedSeries([r**n for n in range(truncation + 1)])


# -- floating-point evaluation ------------------------------------------


@dataclass
class Evaluation:
    """Result of evaluating a truncated series at a point x >= 0.

    ``partial`` is the exact partial sum (as a float), ``tail`` the modelled
    tail mass beyond the truncation, and ``value = partial + tail``.
    ``ratio`` and ``decay`` are the fitted per-lattice-step limit ratio and
    algebraic decay exponent of the term sequence.
    """

    partial: float
    tail: float
    ratio: float
    decay: float
    window: int

    @property
    def value(self) -> float:
        return self.partial + self.tail


def _term_log2(c: Fraction, n: int, log2x: float) -> float:
    return _log2_fraction(c) + n * log2x


def _fit_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least squares y = a + b*x; returns (a, b)."""
    m = len(xs)
    mx = sum(xs) / m
    my = sum(ys) / m
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return my, 0.0
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - b * mx, b


def _window_size(npoints: int) -> int:
    return max(10, npoints // 10)


def _tail_sum(r: float, beta: float, step_over_n: float) -> float:
    """sum_{m>=1} r^m (1 + m*s)^(-beta) with s = d/N, by direct summation
    plus an integral bound for the slowly-convergent part."""
    total = 0.0
    term_cap = 200_000
    m = 1
    while m <= term_cap:
        t = (r**m) * (1.0 + m * step_over_n) ** (-beta)
        total += t
        if t < 1e-17 * (1.0 + total):
            return total
        m += 1
    # Remaining mass: integral of r^m (1+m s)^(-beta) dm over [m, inf).
    from scipy.integrate import quad

    rest, _ = quad(
        lambda u: math.exp(u * math.log(r)) * (1.0 + u * step_over_n) ** (-beta),
        m,
        math.inf,
        limit=200,
    )
    return total + rest


def evaluate(g: TruncatedSeries, x: float, window: int | None = None) -> Evaluation:
    """Partial sum of g at x plus a modelled tail estimate.

    The tail is inferred from the ratios of the last-window terms, fitted as
    ``ratio(n) = r_inf * (n/(n+d))**beta``.  Raises :class:`TailNotControlled`
    when the fitted limit ratio is >= 1 without an integrable algebraic
    correction (beta <= 1).
    """
    if x < 0:
        raise PreconditionError("evaluation point must be >= 0")
    nz = g.nonzero_indices
    if x == 0.0:
        return Evaluation(float(g[0]), 0.0, 0.0, 0.0, 0)
    if not nz:
        return Evaluation(0.0, 0.0, 0.0, 0.0, 0)

    log2x = math.log2(x)
    logs = {n: _term_log2(g[n], n, log2x) for n in nz}
    # Exponent-safe partial sum: rescale by the largest term.
    peak = max(logs.values())
    scale = 2.0**peak if -900 < peak < 900 else None
    if scale is None:
        partial = math.fsum(2.0**lv for lv in logs.values())
    else:
        partial = scale * math.fsum(2.0 ** (lv - peak) for lv in logs.values())

    if g.is_polynomial_within():
        return Evaluation(partial, 0.0, 0.0, 0.0, 0)

    d = g.lattice_span()
    # Ratio window over consecutive lattice points.
    pts = [n for n in nz if n > 0 and n + d in logs]
    w = window if window is not None else _window_size(len(pts))
    pts = pts[-w:]
    if len(pts) < 3:
        raise TailNotControlled("too few terms to control the tail")
    # log ratio(n) = log r_inf + beta * log(n/(n+d))
    xs = [math.log(n / (n + d)) for n in pts]
    ys = [(logs[n + d] - logs[n]) * math.log(2.0) for n in pts]
    a, beta = _fit_line(xs, ys)
    r_inf = math.exp(a)
    last = pts[-1] + d
    last_term = 2.0 ** logs[last]
    # Fit noise at the boundary: a ratio marginally above 1 together with a
    # safely integrable algebraic correction is treated as ratio exactly 1.
    if 1.0 < r_inf <= 1.0 + 1e-3 and beta > 1.1:
        r_inf = 1.0
    if r_inf > 1.0 + 1e-9 or (r_inf > 1.0 - 1e-9 and beta <= 1.0 + 1e-9):
        raise TailNotControlled(
            f"term ratios do not stabilise below 1 (r={r_inf:.6g}, beta={beta:.3g})"
        )
    r = min(r_inf, 1.0)
    tail = last_term * _tail_sum(r, beta, d / last)
    return Evaluation(partial, tail, r_inf, beta, len(pts))


@dataclass
class RadiusEstimate:
    rho: float
    span: int
    spread: float
    window: int

    def as_tuple(self):
        return self.rho, self.span


def radius_estimate(g: TruncatedSeries, window: int | None = None) -> RadiusEstimate:
    """Extrapolated limit of (g_n / g_{n+d})^(1/d) over the last window.

    The ratio sequence is fitted as A + B/n and the intercept A reported as
    rho; the spread is the largest fit residual (plus a float-noise floor).
    """
    nz = g.nonzero_indices
    d = g.lattice_span()
    pts = [n for n in nz if g[n] and n + d <= g.truncation and g[n + d]]
    if len(pts) < 3:
        raise InsufficientData("need at least 3 consecutive lattice ratios")
    w = window if window is not None else _window_size(len(pts))
    pts = pts[-w:]
    if len(pts) < 3:
        raise InsufficientData("window too small for extrapolation")
    ratios = []
    for n in pts:
        lr = (_log2_fraction(g[n]) - _log2_fraction(g[n + d])) / d
        ratios.append(2.0**lr)
    xs = [1.0 / n for n in pts]
    a, b = _fit_line(xs, ratios)
    resid = max(abs(r - (a + b * x)) for r, x in zip(ratios, xs))
    spread = resid + 1e-12 * abs(a)
    return RadiusEstimate(rho=a, span=d, spread=spread, window=len(pts))
