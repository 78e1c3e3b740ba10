"""Counting series of the two outer structures over an inner class: the
multiset OGF exp(sum_i G_i(z^i)/i), which is the SET cycle index
exp(sum_i z_i/i) under z_i <- G_i(z^i), and the sequence OGF 1/(1 - G(z)),
which is the SEQ cycle index 1/(1 - z_1) under z_1 <- G(z).  Both are read
by recurrence, never term by term over cycle types.

No job of the package calls them: the engine fills the same series by its
own SET and SEQ recurrences, and the tests check those recurrences against
these, coefficient for coefficient.  :func:`multiset_ogf_product`, a
slower route to the multiset OGF, stays because the benchmark's span table
names it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import InnerHasConstantTerm, PreconditionError
from .series import TruncatedSeries, cauchy_terms, exp_weighted


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
    Z_SET(G(z), G_2(z^2), ...).  Tests use it as an oracle of
    :func:`multiset_ogf`, which sums the argument first and runs one
    exponential: the factorised route costs O(N^3) rational operations
    against O(N^2) integer ones there.  It stays in the package, not in
    ``tests/``, because the benchmark's span table names it.
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
