"""Truncated cycle index sums in the variables z_1, z_2, ... (z_i carrying
degree i), with plethystic substitution, the formal derivative in z_1, and
the ordinary-generating-function specialization z_i <- z^i.

A cycle type is stored sparsely as a sorted tuple of (cycle_length,
multiplicity) pairs; a :class:`CycleIndexPoly` maps cycle types to exact
rational coefficients and keeps only types of weighted degree <= N.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, Tuple

from .errors import InnerHasConstantTerm, PreconditionError
from .series import TruncatedSeries, cauchy_terms, exp_weighted

CycleType = Tuple[Tuple[int, int], ...]


def cycle_type(multiplicities: Dict[int, int]) -> CycleType:
    """Canonical sparse form of a cycle type given as {length: count}."""
    items = tuple(sorted((i, m) for i, m in multiplicities.items() if m))
    for i, m in items:
        if i < 1 or m < 0:
            raise ValueError("cycle lengths must be >= 1, counts >= 0")
    return items


def cycle_type_degree(ct: CycleType) -> int:
    return sum(i * m for i, m in ct)


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple]:
    """All integer partitions of n with parts <= max_part, as descending
    tuples."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for head in range(max_part, 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


def _partition_to_type(parts: tuple) -> CycleType:
    mult: Dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    return cycle_type(mult)


class CycleIndexPoly:
    """Multivariate truncated cycle index polynomial."""

    __slots__ = ("terms", "truncation")

    def __init__(self, terms: Dict[CycleType, Fraction], truncation: int):
        self.truncation = truncation
        self.terms = {
            ct: Fraction(c)
            for ct, c in terms.items()
            if c and cycle_type_degree(ct) <= truncation
        }
        for c in self.terms.values():
            if c < 0:
                raise ValueError("cycle index coefficients must be >= 0")

    def coefficient(self, ct: CycleType) -> Fraction:
        return self.terms.get(ct, 0)

    def degree_slice(self, k: int) -> Dict[CycleType, Fraction]:
        return {
            ct: c for ct, c in self.terms.items() if cycle_type_degree(ct) == k
        }

    def __eq__(self, other):
        if not isinstance(other, CycleIndexPoly):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        a = {c: v for c, v in self.terms.items() if cycle_type_degree(c) <= n}
        b = {c: v for c, v in other.terms.items() if cycle_type_degree(c) <= n}
        return a == b

    def __hash__(self):
        return hash((self.truncation, frozenset(self.terms.items())))

    # -- operations ------------------------------------------------------

    def derivative_z1(self) -> "CycleIndexPoly":
        """Formal partial derivative d/dz_1; weighted degree drops by one."""
        out: Dict[CycleType, Fraction] = {}
        for ct, c in self.terms.items():
            mult = dict(ct)
            m1 = mult.get(1, 0)
            if not m1:
                continue
            mult[1] = m1 - 1
            out[cycle_type(mult)] = out.get(cycle_type(mult), 0) + c * m1
        return CycleIndexPoly(out, max(self.truncation - 1, 0))

    def plethysm_ogf(
        self,
        inner: Callable[[int], TruncatedSeries],
        truncation: int | None = None,
    ) -> TruncatedSeries:
        """Substitute z_i <- inner(i)(z^i) term by term; returns the OGF of
        the composite class.

        Every inner series must have zero constant term.
        """
        n = self.truncation if truncation is None else truncation
        cache: Dict[int, TruncatedSeries] = {}

        def arg(i: int) -> TruncatedSeries:
            if i not in cache:
                g = inner(i)
                if g[0] != 0:
                    raise InnerHasConstantTerm(
                        f"inner series for cycle length {i} has g(0) != 0"
                    )
                cache[i] = g.substitute_power(i, n) if i > 1 else g.truncate(n)
            return cache[i]

        out = [0] * (n + 1)
        one = TruncatedSeries([1], truncation=n)
        for ct, c in self.terms.items():
            prod = one
            for i, m in ct:
                prod = prod * (arg(i) ** m)
            for k in prod.nonzero_indices:
                out[k] += c * prod[k]
        return TruncatedSeries(out)

    def specialize_ogf(self, truncation: int | None = None) -> TruncatedSeries:
        """z_i <- z^i, i.e. the OGF of the species (one orbit per
        |U|! symmetries)."""
        n = self.truncation if truncation is None else truncation
        out = [0] * (n + 1)
        for ct, c in self.terms.items():
            deg = cycle_type_degree(ct)
            if deg <= n:
                out[deg] += c
        return TruncatedSeries(out)

    def evaluate_at(
        self, args: Callable[[int], float]
    ) -> tuple[float, float]:
        """Numeric value of the truncated polynomial at z_i = args(i).

        Returns (value, residual) where the residual is the part of the
        value of degree above N/2 — an honest indicator of truncation
        sensitivity — summed directly with ``math.fsum``, not as a
        difference of two near-equal sums.
        """
        cache: Dict[int, float] = {}

        def a(i: int) -> float:
            if i not in cache:
                v = float(args(i))
                if v < 0:
                    raise ValueError("arguments must be >= 0")
                cache[i] = v
            return cache[i]

        total = 0.0
        upper = []
        for ct, c in self.terms.items():
            term = float(c)
            for i, m in ct:
                term *= a(i) ** m
            total += term
            if cycle_type_degree(ct) > self.truncation // 2:
                upper.append(term)
        return total, math.fsum(upper)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        entries = []
        for ct, c in sorted(self.terms.items()):
            entries.append(
                {
                    "cycle_type": {str(i): m for i, m in ct},
                    "coeff": f"{c.numerator}/{c.denominator}",
                }
            )
        return json.dumps({"truncation": self.truncation, "terms": entries})

    @classmethod
    def from_json(cls, text: str) -> "CycleIndexPoly":
        data = json.loads(text)
        terms: Dict[CycleType, Fraction] = {}
        for e in data["terms"]:
            ct = cycle_type({int(i): m for i, m in e["cycle_type"].items()})
            terms[ct] = Fraction(e["coeff"])
        return cls(terms, data["truncation"])


def z_set(truncation: int) -> CycleIndexPoly:
    """Truncated cycle index of SET: exp(sum_i z_i / i).

    The coefficient of a cycle type with multiplicities (m_i) is
    prod_i 1/(i^m_i * m_i!), one term per integer partition of each
    degree <= N.
    """
    terms: Dict[CycleType, Fraction] = {}
    for n in range(truncation + 1):
        for parts in partitions(n):
            ct = _partition_to_type(parts)
            denom = 1
            for i, m in ct:
                denom *= i**m * math.factorial(m)
            terms[ct] = Fraction(1, denom)
    return CycleIndexPoly(terms, truncation)


def z_seq(truncation: int) -> CycleIndexPoly:
    """Truncated cycle index of SEQ: sum_k z_1^k (identity symmetries
    only)."""
    terms: Dict[CycleType, Fraction] = {}
    for k in range(truncation + 1):
        ct = cycle_type({1: k}) if k else ()
        terms[ct] = 1
    return CycleIndexPoly(terms, truncation)


def multiset_ogf(
    inner: Callable[[int], TruncatedSeries], truncation: int
) -> TruncatedSeries:
    """OGF of multisets of a weighted class, exp(sum_i G_i(z^i)/i), computed
    as a single formal exponential of the summed argument.

    The argument enters through its weighted coefficients
    k*a_k = sum_{i*j=k} j * g^{(i)}_j, which are integers when the family
    is integral, so the Euler transform runs in `int` then; the family
    G_i = inner(i) must cover degree truncation // i.
    """
    weighted = [0] * (truncation + 1)
    for i in range(1, truncation + 1):
        g = inner(i)
        if g[0] != 0:
            raise InnerHasConstantTerm("multiset inner class must have no size-0 objects")
        if g.truncation < truncation // i:
            raise PreconditionError(
                f"need source coefficients up to degree {truncation // i} for z^{i}"
            )
        nz = g.nonzero_indices
        if nz and nz[0] * i > truncation:
            # inner min size i-fold exceeds truncation; later i only grow it
            break
        for j in nz:
            if i * j > truncation:
                break
            weighted[i * j] += j * g[j]
    return exp_weighted(weighted)


def multiset_ogf_product(
    inner: Callable[[int], TruncatedSeries], truncation: int
) -> TruncatedSeries:
    """Same OGF as :func:`multiset_ogf`, but evaluated through the
    multivariate exp structure of Z_SET one variable at a time:
    prod_i exp(G_i(z^i)/i), one rational exponential and one dense product
    per cycle length.

    This is the per-variable factorization of the plethysm
    Z_SET(G(z), G_2(z^2), ...); explicit per-term plethysm over cycle
    types is equivalent but only feasible at small truncation.  Tests use
    it as the oracle of :func:`multiset_ogf`, which sums the argument
    first and runs one exponential: the factorised route costs O(N^3)
    rational operations against O(N^2) integer ones there.
    """
    result = TruncatedSeries([1], truncation=truncation)
    for i in range(1, truncation + 1):
        g = inner(i)
        if g[0] != 0:
            raise InnerHasConstantTerm("multiset inner class must have no size-0 objects")
        sub = g.substitute_power(i, truncation)
        if not sub.nonzero_indices:
            if g.nonzero_indices and g.nonzero_indices[0] * i > truncation:
                break
            continue
        result = result * (Fraction(1, i) * sub).exp()
    return result


def seq_ogf(inner: TruncatedSeries, truncation: int) -> TruncatedSeries:
    """OGF of sequences, 1/(1 - g), via c_n = sum_k g_k c_{n-k}: each sum
    runs in C over :func:`~polyagibbs.series.cauchy_terms`, with the exact
    values and types of the plain loop."""
    g = inner.truncate(truncation)
    if g[0] != 0:
        raise InnerHasConstantTerm("sequence inner class must have no size-0 objects")
    a = g.coeffs[1:]
    nonzero = [c for c in a if c]
    out = [0] * (truncation + 1)
    out[0] = 1
    for n in range(1, truncation + 1):
        out[n] = sum(cauchy_terms(a, nonzero, out, n))
    return TruncatedSeries(out)
