"""Term-by-term cycle index sums of SET and SEQ, the oracles of the
package's recurrences (``multiset_ogf``, ``outer_index_value``,
``set_symmetry_law``).  A cycle type is a sorted tuple of (cycle length,
multiplicity) pairs; an index is a list of (cycle type, coefficient)
terms in degree order."""

import math
from collections import Counter
from fractions import Fraction
from functools import cache

from polyagibbs import DiscreteLaw, TruncatedSeries


def partitions(n, max_part=None):
    """Integer partitions of n with parts <= max_part, descending tuples."""
    if n == 0:
        yield ()
    for head in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - head, head):
            yield (head,) + rest


def z_set(truncation):
    """Terms of exp(sum_i z_i / i) up to weighted degree N: the cycle type
    with multiplicities (m_i) has coefficient prod_i 1/(i^m_i * m_i!)."""
    terms = []
    for n in range(truncation + 1):
        for parts in partitions(n):
            ct = tuple(sorted(Counter(parts).items()))
            denom = math.prod(i**m * math.factorial(m) for i, m in ct)
            terms.append((ct, Fraction(1, denom)))
    return terms


def z_seq(truncation):
    """Terms of sum_k z_1^k up to degree N."""
    return [(((1, k),) if k else (), 1) for k in range(truncation + 1)]


def plethysm(terms, inner, n):
    """The OGF Z(G_1(z), G_2(z^2), ...) to degree n, with G_i = inner(i),
    formed as one series product per term."""
    arg = cache(lambda i: inner(i).substitute_power(i, n))
    out = [0] * (n + 1)
    for ct, c in terms:
        prod = TruncatedSeries([1], n)
        for i, m in ct:
            prod = prod * arg(i) ** m
        for k in prod.nonzero_indices:
            out[k] += c * prod[k]
    return TruncatedSeries(out)


def term_values(terms, args):
    """(cycle type, float value of the term) at z_i = args(i)."""
    a = cache(lambda i: float(args(i)))
    for ct, c in terms:
        v = float(c)
        for i, m in ct:
            v *= a(i) ** m
        yield ct, v


def index_value(terms, args, truncation):
    """Value of the index at z_i = args(i), and the ``math.fsum`` of its
    terms of degree above truncation // 2."""
    total, upper = 0.0, []
    for ct, v in term_values(terms, args):
        total += v
        if sum(i * m for i, m in ct) > truncation // 2:
            upper.append(v)
    return total, math.fsum(upper)


def cycle_type_law(terms, args):
    """Law of the cycle type, proportional to each term's value."""
    entries, weights = zip(*[(ct, v) for ct, v in term_values(terms, args) if v > 0])
    return DiscreteLaw(entries, weights)
