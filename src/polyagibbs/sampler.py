"""Exact-size random generation of unlabelled objects, weight-proportional.

The recursive method walks the species expression and at each node converts
counting-series coefficients into branching probabilities:

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
sampled by one uniform and a bisection.  The sampler caches one law per
(node, power, size); sampling after the first draw of a given size is
table lookups plus bisection.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Dict

from .errors import EmptySize, SpecError, ZeroMass
from .engine import SeriesEngine
from .species import (
    Atom,
    AtomMultiplicative,
    Compose,
    EPS_OBJ,
    ATOM_OBJ,
    Enumerator,
    Epsilon,
    Node,
    Product,
    Ref,
    SetOf,
    SeqOf,
    Sized,
    SpeciesSpec,
    TableWeight,
    Union,
    UnitWeight,
    Weighted,
    Zero,
)


class DiscreteLaw:
    """Law on the sequence ``entries`` with probabilities proportional to
    ``weights``.

    ``cum`` holds the cumulative probabilities and ``total`` the sum of the
    weights.  Fraction weights keep exact prefix sums, so each cumulative
    probability is correctly rounded.  ``mass_defect`` records mass the
    entries leave out, such as a truncated tail.
    """

    __slots__ = ("entries", "total", "cum", "mass_defect")

    def __init__(self, entries, weights, mass_defect: float = 0.0):
        prefix = list(accumulate(weights))
        if not prefix or prefix[-1] <= 0:
            raise ZeroMass("all weights of the law vanish")
        self.entries = entries
        self.total = prefix[-1]
        self.cum = [float(a / self.total) for a in prefix]
        self.mass_defect = mass_defect

    def sample(self, rng: random.Random):
        return self.entries[bisect_right(self.cum, rng.random())]

    def prob(self, entry) -> float:
        try:
            i = self.entries.index(entry)
        except ValueError:
            return 0.0
        return self.cum[i] - (self.cum[i - 1] if i else 0.0)


class ExactSampler:
    """Draws size-n orbits of a species with probability proportional to
    their weight."""

    def __init__(self, spec: SpeciesSpec, engine: SeriesEngine | None = None):
        self.spec = spec
        self.engine = engine or SeriesEngine(spec)
        self._tables: Dict[tuple, DiscreteLaw] = {}
        self._enum: Enumerator | None = None

    def sample(self, n: int, rng: random.Random, power: int = 1):
        return self._sample(self.spec.root, power, n, rng)

    # internal

    def _coeff(self, node: Node, power: int, n: int) -> Fraction:
        return self.engine.coeff(node, power, n)

    def _table(self, key, build) -> DiscreteLaw:
        tab = self._tables.get(key)
        if tab is None:
            tab = self._tables[key] = build()
        return tab

    def _sample(self, node: Node, power: int, n: int, rng: random.Random):
        if isinstance(node, Atom):
            if n != 1:
                raise EmptySize(f"no atom of size {n}")
            return ATOM_OBJ
        if isinstance(node, Epsilon):
            if n != 0:
                raise EmptySize(f"no empty object of size {n}")
            return EPS_OBJ
        if isinstance(node, Zero):
            raise EmptySize("the empty species has no objects")
        if isinstance(node, Sized):
            if not (1 <= n < len(node.coeffs)) or not node.coeffs[n]:
                raise EmptySize(f"no sized orbit at size {n}")
            return ("blob", n)
        if isinstance(node, Ref):
            return self._sample(self.spec.resolve(node.name), power, n, rng)
        if isinstance(node, Union):
            a = self._coeff(node.left, power, n)
            b = self._coeff(node.right, power, n)
            if not a and not b:
                raise EmptySize(f"no objects of size {n}")
            side = 1 if rng.random() * float(a + b) >= float(a) else 0
            if a and not b:
                side = 0
            if b and not a:
                side = 1
            branch = node.left if side == 0 else node.right
            return ("tag", side, self._sample(branch, power, n, rng))
        if isinstance(node, Product):
            k = self._table(
                ("prod", node, power, n), lambda: self._product_table(node, power, n)
            ).sample(rng)
            return (
                "prod",
                self._sample(node.left, power, k, rng),
                self._sample(node.right, power, n - k, rng),
            )
        if isinstance(node, (SetOf, Compose)) and (
            isinstance(node, SetOf) or node.outer == "SET"
        ):
            return ("set", tuple(sorted(self._sample_multiset(node, power, n, rng))))
        if isinstance(node, (SeqOf, Compose)):
            return ("seq", tuple(self._sample_sequence(node, power, n, rng)))
        if isinstance(node, Weighted):
            if isinstance(node.model, (UnitWeight, AtomMultiplicative)):
                # a factor c^{p n} is constant on the size-n slice, so the
                # conditional law equals the inner one
                return self._sample(node.inner, power, n, rng)
            if isinstance(node.model, TableWeight):
                return self._sample_by_enumeration(node, power, n, rng)
            raise SpecError(f"unknown weight model {type(node.model).__name__}")
        raise SpecError(f"cannot sample node {type(node).__name__}")

    def _product_table(self, node: Product, power: int, n: int):
        entries, weights = [], []
        for k in range(n + 1):
            a = self._coeff(node.left, power, k)
            if not a:
                continue
            b = self._coeff(node.right, power, n - k)
            if b:
                entries.append(k)
                weights.append(a * b)
        if not entries:
            raise EmptySize(f"no objects of size {n}")
        return DiscreteLaw(entries, weights)

    def _sample_multiset(self, node: Node, power: int, n: int, rng) -> list:
        inner = node.inner
        parts = []
        while n > 0:
            d, j = self._table(
                ("set", node, power, n), lambda: self._set_table(node, inner, power, n)
            ).sample(rng)
            orbit = self._sample(inner, power * j, d, rng)
            parts.extend([orbit] * j)
            n -= d * j
        return parts

    def _set_table(self, node: Node, inner: Node, power: int, n: int):
        entries, weights = [], []
        for j in range(1, n + 1):
            for d in range(1, n // j + 1):
                g = self._coeff(inner, power * j, d)
                if not g:
                    continue
                rest = self._coeff(node, power, n - d * j)
                if rest:
                    entries.append((d, j))
                    weights.append(d * g * rest)
        if not entries:
            raise EmptySize(f"no objects of size {n}")
        return DiscreteLaw(entries, weights)

    def _sample_sequence(self, node: Node, power: int, n: int, rng) -> list:
        inner = node.inner
        blocks = []
        while n > 0:
            s = self._table(
                ("seq", node, power, n), lambda: self._seq_table(node, inner, power, n)
            ).sample(rng)
            blocks.append(self._sample(inner, power, s, rng))
            n -= s
        return blocks

    def _seq_table(self, node: Node, inner: Node, power: int, n: int):
        entries, weights = [], []
        for s in range(1, n + 1):
            g = self._coeff(inner, power, s)
            if not g:
                continue
            rest = self._coeff(node, power, n - s)
            if rest:
                entries.append(s)
                weights.append(g * rest)
        if not entries:
            raise EmptySize(f"no objects of size {n}")
        return DiscreteLaw(entries, weights)

    def _sample_by_enumeration(self, node: Node, power: int, n: int, rng):
        if self._enum is None:
            self._enum = Enumerator(self.spec)
        orbits = self._enum.enumerate(node, n, power)
        if not orbits:
            raise EmptySize(f"no objects of size {n}")
        return DiscreteLaw([o for o, _ in orbits], [w for _, w in orbits]).sample(rng)
