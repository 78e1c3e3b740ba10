"""Exact-size random generation of unlabelled objects, weight-proportional.

The recursive method walks the compiled species program and at each node
converts counting-series coefficients into branching probabilities:

* UNION picks a side proportionally to the two size-n weights,
* PRODUCT picks the split k proportionally to a_k * b_{n-k},
* SEQ picks the first block size s proportionally to s_k * c_{n-s},
* SET picks a pair (d, j) with probability d * g_d^{(p*j)} * b_{n-dj} /
  (n * b_n), inserts j identical copies of a size-d orbit drawn under the
  nu^{p*j} weighting, and recurses on the remaining size.  Summing over the
  distinct orbits of a multiset telescopes to weight / b_n, so the output
  law is exactly weight-proportional over orbits.

Every cumulative table, here and in :mod:`polyagibbs.gibbs`, is a
:class:`DiscreteLaw`: entries with normalised cumulative probabilities,
sampled by one uniform and a bisection.  The sampler dispatches on the
kind tag of a node id and caches one law per (node id, power, size), keyed
by plain ints; sampling after the first draw of a given size is table
lookups plus bisection.  Each node kind has one handler, a plain module
function of the sampler that reads its cached law and bisects ``cum``
inline, so a SET or PRODUCT node costs one Python call and a sampler holds
no reference cycle.  A law is published to the cache only once it is
built, so threads may share a sampler.  A draw starts at the root or at
any node id, so a :class:`~polyagibbs.gibbs.GibbsModel` keeps one sampler:
composites are drawn at its root and the inner objects of the rejection
path at the inner node's id, from one cache of laws.

A block of 256 draws or more, as the rejection sampler of
:mod:`polyagibbs.gibbs` takes, reads a bucket index of the table first
(:meth:`DiscreteLaw.invert`, the guide tables of Chen and Asau 1974), and
numpy's ``searchsorted`` only for the uniforms whose bucket holds a
cumulative; every draw is still the entry that the bisection gives, so no
random stream changes.  ``GibbsModel.prepare_draws`` builds the arrays and
index of every law of a rejection block before a pool forks, so the
workers inherit them.  The orbit lists that a limit law reads are built
with the cyclic garbage collector paused (see
:class:`polyagibbs.species.Enumerator`).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict

from .errors import EmptySize, SpecError, ZeroMass
from .engine import SeriesEngine, factor_terms
from .species import (
    ATOM_OBJ,
    EPS_OBJ,
    SpeciesSpec,
    by_kind,
    fail,
)


# the shortest array of uniforms that DiscreteLaw.invert passes through its
# bucket index: below it, the index's fixed cost of a few numpy calls
# outweighs what it saves over a binary search per uniform
_INDEXED = 256


class DiscreteLaw:
    """Law on the sequence ``entries`` with probabilities proportional to
    ``weights``.

    ``cum`` holds the cumulative probabilities and ``total`` the sum of the
    weights.  Exact weights (`int` or `Fraction`) keep exact prefix sums,
    and ``int / int`` is correctly rounded like ``float(Fraction)``, so
    each cumulative probability is correctly rounded.
    """

    __slots__ = ("entries", "total", "cum", "_arrays")

    def __init__(self, entries, weights):
        prefix = list(accumulate(weights))
        if not prefix or prefix[-1] <= 0:
            raise ZeroMass("all weights of the law vanish")
        self.entries = entries
        self.total = prefix[-1]
        self.cum = [float(a / self.total) for a in prefix]
        self._arrays = None

    def sample(self, rng: random.Random):
        return self.entries[bisect_right(self.cum, rng.random())]

    def arrays(self) -> tuple:
        """``cum`` and ``entries`` as numpy arrays, and the bucket index of
        :meth:`invert` as 32-bit ints, built on first use and kept."""
        if self._arrays is None:
            import numpy as np

            cum = np.asarray(self.cum)
            k = 1 << max(4, (16 * len(self.cum) - 1).bit_length())
            edges = np.arange(k + 1) / k
            # the index after the entries whose cumulative is at most b / k,
            # or -1 when a cumulative lies strictly inside the bucket
            low = cum.searchsorted(edges[:-1], side="right")
            high = cum.searchsorted(edges[1:], side="left")
            index = np.where(low == high, low, -1).astype(np.int32)
            self._arrays = (cum, np.asarray(self.entries), index)
        return self._arrays

    def sample_array(self, gen, size: int):
        """``size`` independent draws from a ``numpy.random.Generator``, as
        an array of entries: :meth:`invert` of ``gen.random(size)``, which
        reads the bucket index for a block of 256 draws or more and gives
        each uniform the entry of ``bisect_right`` on ``cum``, as
        :meth:`sample` does."""
        return self.invert(gen.random(size))

    def invert(self, u):
        """The entries that the uniforms of the array ``u`` select, each
        the one that :meth:`sample` gives for it: ``bisect_right`` of the
        uniform on ``cum``.

        A long array reads a bucket index first (the guide tables of Chen
        and Asau 1974): [0, 1) is cut into k buckets of width 1/k, k the
        least power of two >= max(16, 16 * len(entries)), so ``u * k`` is
        exact.  A uniform whose bucket holds no cumulative strictly inside
        it takes the bucket's entry, which is ``bisect_right``'s for every
        uniform of the bucket; the few others, and every uniform of a short
        array, are inverted by numpy's ``searchsorted`` with
        ``side="right"``."""
        cum, entries, index = self.arrays()
        if len(u) < _INDEXED:
            return entries.take(cum.searchsorted(u, side="right"), axis=0)
        at = index.take((u * len(index)).astype(index.dtype))
        miss = (at < 0).nonzero()[0]
        if len(miss):
            at[miss] = cum.searchsorted(u[miss], side="right")
        return entries.take(at, axis=0)


# law terms: (engine, id, children, power, size) -> (entry, weight) pairs.
# Each indexes filled streams and counts the same coefficients, in the same
# order, as a loop of one engine.at call per term.  PRODUCT and SEQ read
# one long range through engine.factor_terms; SET reads a short range per
# copy count j, too short to pay for that call, so it fills a stream only
# when an index reaches past its end.


def _product_terms(eng, i, left, right, power, n):
    """(k, a_k * b_{n-k}) for the splits k of a PRODUCT with a_k != 0."""
    for k, a, b in factor_terms(eng, left, right, power, 0, n):
        yield k, a * b


def _set_terms(eng, i, inner, power, n):
    stream, c = eng.stream, ()
    for j in range(1, n + 1):
        g = ()
        for d in range(1, n // j + 1):
            if len(g) <= d:
                g = stream(inner, power * j, d)
            if g[d]:
                m = n - d * j
                if len(c) <= m:
                    c = stream(i, power, m)
                yield (d, j), d * g[d] * c[m]


def _seq_terms(eng, i, inner, power, n):
    for s, g, c in factor_terms(eng, inner, i, power, 1, n):
        yield s, g * c


def _table_terms(eng, i, inner, power, n):
    return eng.orbits(i, n, power)


# node handlers: (sampler, id, power, size, rng) -> object.  They are plain
# functions of the sampler, not bound methods or closures, so a sampler
# holds no reference cycle and is freed as soon as its last user drops it.
# Each reads its cached law and draws from it inline, by the rule of
# DiscreteLaw.sample: one uniform and a bisection on ``cum``.


def _union(s, i: int, power: int, n: int, rng):
    left, right = s._args[i]
    a = s.engine.at(left, power, n)
    b = s.engine.at(right, power, n)
    if not a and not b:
        raise EmptySize(f"no objects of size {n}")
    # one uniform per visit, also when a side is empty
    u = rng.random()
    side = int(u * float(a + b) >= float(a)) if a and b else int(not a)
    branch = right if side else left
    return ("tag", side, s._draw[branch](s, branch, power, n, rng))


def _product(s, i: int, power: int, n: int, rng):
    left, right = s._args[i]
    law = s._tables.get((i, power, n)) or s._law(_product_terms, i, power, n)
    k = law.entries[bisect_right(law.cum, rng.random())]
    draw = s._draw
    return (
        "prod",
        draw[left](s, left, power, k, rng),
        draw[right](s, right, power, n - k, rng),
    )


def _set(s, i: int, power: int, n: int, rng):
    """A SET object of node i: each step draws (size d, copies j) and one
    orbit of size d under nu^(power * j), inserted j times."""
    inner = s._args[i][0]
    draw, tables = s._draw[inner], s._tables
    parts = []
    while n > 0:
        law = tables.get((i, power, n)) or s._law(_set_terms, i, power, n)
        d, j = law.entries[bisect_right(law.cum, rng.random())]
        orbit = draw(s, inner, power * j, d, rng)
        if j == 1:
            parts.append(orbit)
        else:
            parts.extend([orbit] * j)
        n -= d * j
    parts.sort()
    return ("set", tuple(parts))


def _seq(s, i: int, power: int, n: int, rng):
    """A SEQ object of node i: each step draws the size of the next block
    and one orbit of that size."""
    inner = s._args[i][0]
    draw, tables = s._draw[inner], s._tables
    parts = []
    while n > 0:
        law = tables.get((i, power, n)) or s._law(_seq_terms, i, power, n)
        d = law.entries[bisect_right(law.cum, rng.random())]
        parts.append(draw(s, inner, power, d, rng))
        n -= d
    return ("seq", tuple(parts))


def _weighted(s, i: int, power: int, n: int, rng):
    # a factor c^{p n} is constant on the size-n slice, so the conditional
    # law equals the inner one
    inner = s._args[i][0]
    return s._draw[inner](s, inner, power, n, rng)


def _table(s, i: int, power: int, n: int, rng):
    law = s._tables.get((i, power, n)) or s._law(_table_terms, i, power, n)
    return law.entries[bisect_right(law.cum, rng.random())]


def _empty(message: str):
    raise EmptySize(message)


def _cannot_sample(*_):
    raise SpecError("cannot sample node Derive")


class ExactSampler:
    """Draws size-n orbits of a species with probability proportional to
    their weight: of the spec's root, or of any node of its program by id.
    The sampler reads the program and the streams of its engine, so
    samplers sharing an engine share one program."""

    def __init__(self, spec: SpeciesSpec, engine: SeriesEngine | None = None):
        self.engine = engine or SeriesEngine(spec)
        self.program = self.engine.program
        self.root = self.program.id_of(spec.root)
        self._tables: Dict[tuple, DiscreteLaw] = {}
        # the program's list, which it only ever appends to
        self._args = self.program.args
        # each id's handler is looked up once: a draw follows child ids
        # only, and the program adds nothing later but the derivatives of
        # DERIVE nodes, which are counted and never drawn
        self._draw = [self._kinds[k] for k in self.program.kind]

    def sample(self, n: int, rng: random.Random, power: int = 1, node: int | None = None):
        """A size-n orbit of the node with id ``node``, or of the root when
        ``node`` is None, under the nu^power weighting."""
        if n < 0:
            raise EmptySize(f"no objects of negative size {n}")
        i = self.root if node is None else node
        return self._draw[i](self, i, power, n, rng)

    def _law(self, terms, i: int, power: int, n: int) -> DiscreteLaw:
        """Builds the law of node i at (power, n) from the nonzero (entry,
        weight) pairs of ``terms``; callers read the cache first."""
        pairs = [(e, w) for e, w in terms(self.engine, i, *self._args[i], power, n) if w]
        if not pairs:
            raise EmptySize(f"no objects of size {n}")
        entries, weights = zip(*pairs)
        return self._tables.setdefault((i, power, n), DiscreteLaw(entries, weights))

    _kinds = by_kind(
        ATOM=lambda s, i, p, n, rng: ATOM_OBJ if n == 1 else _empty(f"no atom of size {n}"),
        EPSILON=lambda s, i, p, n, rng: (
            EPS_OBJ if n == 0 else _empty(f"no empty object of size {n}")
        ),
        ZERO=lambda s, i, p, n, rng: _empty("the empty species has no objects"),
        SIZED=lambda s, i, p, n, rng: (
            ("blob", n) if s.program.sized(i, n) else _empty(f"no sized orbit at size {n}")
        ),
        UNION=_union,
        PRODUCT=_product,
        SET=_set,
        SEQ=_seq,
        WEIGHT=_weighted,
        TABLE=_table,
        DERIVE=_cannot_sample,
        FAIL=fail,
    )
