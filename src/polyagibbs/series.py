"""Truncated univariate power series with exact non-negative rational
coefficients.

A coefficient is a Python `int` when it is integral and a
`fractions.Fraction` otherwise; the two are equal and hash-equal, so the
choice never shows in comparisons, cache keys or printed output.  All
arithmetic is exact: every exact division goes through :func:`exact_div`,
which stays in `int` when the divisor divides and falls back to `Fraction`.
Floating point enters only through :func:`evaluate` and
:func:`radius_estimate`, which report their own error estimates.  The tail
estimate of :func:`evaluate` models the last-window term ratios as
``r(n) = r_inf * (n/(n+d))**beta``, i.e. geometric decay with an algebraic
correction; a plain geometric majorant systematically underestimates the
tail of algebraically-decaying series at their radius.  The modelled tail
beyond the last term is that term times

    sum_{m>=1} r^m (1 + m*s)^(-beta) = s^(-beta) r Phi(r, beta, 1 + 1/s),

s = d/N, where Phi is the Lerch transcendent (a Hurwitz zeta at r = 1).
:func:`_tail_sum` computes it as one Gamma-weighted integral of negative-
order polylogarithms, with `scipy.integrate.quad` to a relative 1e-13, and
raises :class:`TailNotControlled` when the quadrature does not converge.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

from .errors import InsufficientData, PreconditionError, TailNotControlled

DEFAULT_TRUNCATION = 256


def as_exact(x):
    """x as an `int` when it is integral, else as a `Fraction`."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, m: int):
    """a / m exactly: ``a // m`` when m divides the `int` a, else a
    `Fraction`.  (``int / int`` is a float, so no exact path divides with
    a bare ``/``.)"""
    if type(a) is int:
        q, r = divmod(a, m)
        if not r:
            return q
    return Fraction(a, m)


def _coefficient(x):
    x = as_exact(x)
    if x < 0:
        raise ValueError("coefficients must be non-negative")
    return x


def _log2_fraction(f) -> float:
    """log2 of a positive int or Fraction, safe for huge numerators and
    denominators."""
    return math.log2(f.numerator) - math.log2(f.denominator)


class TruncatedSeries:
    """A power series known exactly up to (and including) degree N."""

    __slots__ = ("_coeffs", "_nonzero")

    def __init__(self, coeffs: Sequence, truncation: int | None = None):
        cs = [_coefficient(c) for c in coeffs]
        if truncation is not None:
            if truncation < 0:
                raise ValueError("truncation must be >= 0")
            if len(cs) > truncation + 1:
                cs = cs[: truncation + 1]
            else:
                cs.extend([0] * (truncation + 1 - len(cs)))
        elif not cs:
            cs = [0]
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

    def __getitem__(self, n: int):
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
            out = [0] * (n + 1)
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
        c = _coefficient(other)
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
        out = [0] * (n + 1)
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
        return exp_weighted([k * c for k, c in enumerate(self._coeffs)])

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = TruncatedSeries([1], truncation=self.truncation)
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


def exp_weighted(weighted: Sequence) -> TruncatedSeries:
    """exp(A) to degree len(weighted) - 1, given the weighted coefficients
    ``weighted[k] = k * a_k`` of A (``weighted[0]`` is ignored), via
    n*e_n = sum_k k*a_k*e_{n-k}.

    Taking k*a_k rather than a_k lets a caller whose a_k are not integral
    but whose k*a_k are (the Euler transform) stay in `int`.
    """
    n = len(weighted) - 1
    nonzero = [k for k in range(1, n + 1) if weighted[k]]
    out = [0] * (n + 1)
    out[0] = 1
    # Skip indices off the argument's semigroup: e_m can only be nonzero
    # when m is a sum of nonzero argument indices.
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
        if hit:
            reachable[m] = True
            out[m] = exact_div(acc, m)
    return TruncatedSeries(out)


def series_from_terms(terms: Iterable, truncation: int) -> TruncatedSeries:
    """Build a series from (index, coefficient) pairs."""
    out = [0] * (truncation + 1)
    for n, c in terms:
        if 0 <= n <= truncation:
            out[n] += as_exact(c)
    return TruncatedSeries(out)


def geometric(truncation: int, ratio=1) -> TruncatedSeries:
    r = as_exact(ratio)
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


def _term_log2(c, n: int, log2x: float) -> float:
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


_TAIL_EPSREL = 1e-13


def _eulerian(j: int) -> list[int]:
    """Coefficients of the Eulerian polynomial A_j, lowest degree first."""
    row = [1]
    for n in range(2, j + 1):
        # A(n, i) = (i + 1) A(n-1, i) + (n - i) A(n-1, i-1)
        row = [(i + 1) * a + (n - i) * b for i, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def _tail_sum(r: float, beta: float, s: float) -> float:
    """sum_{m>=1} r^m (1 + m*s)^(-beta) = s^(-beta) r Phi(r, beta, 1 + 1/s),
    with Phi the Lerch transcendent, from its integral representation.

    Write r = e^(-eps) and shift beta to b = beta + k > 1/2 with
    k = max(0, ceil(1/2 - beta)).  Then
    (1 + m*s)^(-beta) = (1 + m*s)^k (1 + m*s)^(-b),
    (1 + m*s)^(-b) = Gamma(b)^(-1) int_0^inf t^(b-1) e^(-t(1 + m*s)) dt;
    expanding (1 + m*s)^k and summing over m under the integral gives

        Gamma(b)^(-1) int_0^inf t^(b-1) e^(-t)
            sum_{j<=k} C(k, j) s^j Li_{-j}(e^(-(eps + t*s))) dt,

    where Li_{-j}(q) = sum_m m^j q^m = q A_j(q) / (1 - q)^(j+1) with A_j the
    Eulerian polynomial.  The t^(b-1) singularity at 0 (t^(b-2) when
    eps = 0, where beta > 1 and k = 0) is integrated with an algebraic
    weight over [0, c]; [c, 1] and [1, inf) are integrated plainly.  Raises
    :class:`TailNotControlled` when a piece's error estimate exceeds its
    relative tolerance.
    """
    if r == 0.0:
        return 0.0
    from scipy.integrate import quad

    eps = -math.log(r)
    k = max(0, math.ceil(0.5 - beta))
    b = beta + k
    terms = [(math.comb(k, j) * s**j, _eulerian(j)) for j in range(k + 1)]

    def kernel(x: float) -> float:
        # sum_j C(k, j) s^j Li_{-j}(e^(-x)); 1 - q computed as -expm1(-x)
        q, p = math.exp(-x), -math.expm1(-x)
        total = 0.0
        for j, (scale, poly) in enumerate(terms):
            a = 0.0
            for coeff in reversed(poly):
                a = a * q + coeff
            total += scale * a / p ** (j + 1)
        return q * total

    def body(t: float) -> float:
        return t ** (b - 1.0) * math.exp(-t) * kernel(eps + t * s)

    if eps == 0.0:
        # t * Li_0(e^(-t*s)) = t / expm1(t*s) -> 1/s as t -> 0
        head = lambda t: math.exp(-t) * (t / math.expm1(t * s) if t else 1.0 / s)
        wvar = (b - 2.0, 0.0)
    else:
        head = lambda t: math.exp(-t) * kernel(eps + t * s)
        wvar = (b - 1.0, 0.0)
    c = min(max(eps / s, 1e-3), 1.0)
    pieces = (
        (head, 0.0, c, {"weight": "alg", "wvar": wvar}),
        (body, c, 1.0, {}),
        (body, 1.0, math.inf, {}),
    )
    total = 0.0
    for f, lo, hi, weight in pieces:
        value, err, *_ = quad(
            f, lo, hi, epsabs=0.0, epsrel=_TAIL_EPSREL, full_output=1, **weight
        )
        if err > _TAIL_EPSREL * abs(value):
            raise TailNotControlled(
                f"tail integral over [{lo:g}, {hi:g}] not converged "
                f"(value {value:.6g}, error estimate {err:.3g})"
            )
        total += value
    return total / math.gamma(b)


def evaluate(g: TruncatedSeries, x: float, window: int | None = None) -> Evaluation:
    """Partial sum of g at x plus a modelled tail estimate.

    The tail is inferred from the ratios of the last-window terms, fitted as
    ``ratio(n) = r_inf * (n/(n+d))**beta``.  Raises :class:`TailNotControlled`
    when the fitted limit ratio is >= 1 without an integrable algebraic
    correction (beta <= 1), or when the tail integral does not converge.
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
