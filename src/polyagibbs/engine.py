"""Exact counting-series engine for weighted species.

For a species node S and an integer power p >= 1 the engine produces the
coefficients of the ordinary generating function of S under the powered
weighting nu^p, degree by degree:

* SET uses the weighted Euler-transform recurrence
  n * b_n = sum_k q_k b_{n-k} with q_k = sum_{d|k} d * s_d^{(p*k/d)},
* SEQ uses the quasi-inverse recurrence c_n = sum_k s_k^{(p)} c_{n-k},
* PRODUCT is a Cauchy convolution, UNION a sum, DERIVE a structural
  rewrite (product rule; SET' = SET * inner', SEQ' = SEQ * inner' * SEQ).

Everything is exact.  Values read from SIZED coefficients, TABLE weights
and WEIGHT constants are normalised with :func:`~polyagibbs.series.as_exact`,
so a spec whose weights are all integral yields streams of Python `int`;
a rational weight p/q makes the same code produce `Fraction` values.  The
one division, in the SET recurrence, goes through
:func:`~polyagibbs.series.exact_div`.  Cost is O(N^2) per stream, with
streams shared across all powers that a composite pulls in.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from .errors import IllFoundedRecursion, SpecError
from .series import TruncatedSeries, as_exact, exact_div
from .species import (
    Atom,
    Compose,
    Derive,
    Enumerator,
    Epsilon,
    Node,
    Product,
    Ref,
    SetOf,
    SeqOf,
    Sized,
    SpeciesSpec,
    Union,
    UnitWeight,
    AtomMultiplicative,
    TableWeight,
    Weighted,
    Zero,
    derive_node,
)


class SeriesEngine:
    """Lazy per-(node, power) coefficient streams for one species spec."""

    def __init__(self, spec: SpeciesSpec):
        self.spec = spec
        self._defs: Dict[str, Node] = dict(spec.defs)
        self._arr: Dict[Tuple[Node, int], list] = {}
        self._q: Dict[Tuple[Node, int], list] = {}
        self._derived: Dict[Node, Node] = {}
        self._busy: set = set()
        self._enum: Enumerator | None = None
        # arrays grow by appends; a reentrant lock keeps concurrent
        # samplers from interleaving fills of the same stream
        self._lock = threading.RLock()

    # public API

    def coeff(self, node: Node, power: int, n: int):
        """[z^n] of the node's series under nu^power: an `int` when
        integral, else a `Fraction`."""
        arr = self._arr.get((node, power))
        if arr is not None and len(arr) > n:
            return arr[n]
        with self._lock:
            return self._coeff_locked(node, power, n)

    def _coeff_locked(self, node: Node, power: int, n: int):
        arr = self._arr.setdefault((node, power), [])
        while len(arr) <= n:
            m = len(arr)
            key = (node, power, m)
            if key in self._busy:
                raise IllFoundedRecursion(
                    "recursive definition does not increase size"
                )
            self._busy.add(key)
            try:
                value = self._compute(node, power, m)
            finally:
                self._busy.discard(key)
            arr.append(value)
        return arr[n]

    def ogf(self, truncation: int, node: Node | None = None, power: int = 1) -> TruncatedSeries:
        node = self.spec.root if node is None else node
        return TruncatedSeries(
            [self.coeff(node, power, n) for n in range(truncation + 1)],
            truncation,
        )

    # node dispatch

    def _compute(self, node: Node, power: int, n: int):
        if isinstance(node, Atom):
            return 1 if n == 1 else 0
        if isinstance(node, Epsilon):
            return 1 if n == 0 else 0
        if isinstance(node, Zero):
            return 0
        if isinstance(node, Sized):
            if 1 <= n < len(node.coeffs):
                return as_exact(node.coeffs[n]) ** power
            return 0
        if isinstance(node, Ref):
            return self.coeff(self._resolve(node.name), power, n)
        if isinstance(node, Union):
            return self.coeff(node.left, power, n) + self.coeff(
                node.right, power, n
            )
        if isinstance(node, Product):
            total = 0
            for k in range(n + 1):
                a = self.coeff(node.left, power, k)
                if a:
                    total += a * self.coeff(node.right, power, n - k)
            return total
        if isinstance(node, (SetOf, Compose)) and (
            isinstance(node, SetOf) or node.outer == "SET"
        ):
            return self._set_coeff(node, node.inner, power, n)
        if isinstance(node, (SeqOf, Compose)):
            return self._seq_coeff(node, node.inner, power, n)
        if isinstance(node, Weighted):
            return self._weighted_coeff(node, power, n)
        if isinstance(node, Derive):
            if node not in self._derived:
                self._derived[node] = derive_node(node.inner, self._defs)
            return self.coeff(self._derived[node], power, n)
        raise SpecError(f"cannot count node {type(node).__name__}")

    # helpers

    def _resolve(self, name: str) -> Node:
        if name not in self._defs:
            raise SpecError(f"undefined species name {name!r}")
        return self._defs[name]

    def _check_positive_min_size(self, node: Node, inner: Node, power: int):
        if self.coeff(inner, power, 0) != 0:
            raise SpecError(
                "inner species of SET/SEQ/COMPOSE must have no size-0 objects"
            )

    def _set_coeff(self, node: Node, inner: Node, power: int, n: int):
        if n == 0:
            self._check_positive_min_size(node, inner, power)
            return 1
        arr = self._arr[(node, power)]
        q = self._q.setdefault((node, power), [0])
        while len(q) <= n:
            k = len(q)
            qk = 0
            for d in range(1, k + 1):
                if k % d == 0:
                    sd = self.coeff(inner, power * (k // d), d)
                    if sd:
                        qk += d * sd
            q.append(qk)
        total = 0
        for k in range(1, n + 1):
            if q[k]:
                total += q[k] * arr[n - k]
        return exact_div(total, n)

    def _seq_coeff(self, node: Node, inner: Node, power: int, n: int):
        if n == 0:
            self._check_positive_min_size(node, inner, power)
            return 1
        arr = self._arr[(node, power)]
        total = 0
        for k in range(1, n + 1):
            sk = self.coeff(inner, power, k)
            if sk:
                total += sk * arr[n - k]
        return total

    def _weighted_coeff(self, node: Weighted, power: int, n: int):
        model = node.model
        if isinstance(model, UnitWeight):
            return self.coeff(node.inner, power, n)
        if isinstance(model, AtomMultiplicative):
            return self.coeff(node.inner, power, n) * as_exact(model.c) ** (power * n)
        if isinstance(model, TableWeight):
            # no closed recurrence through an arbitrary table: fall back to
            # exhaustive enumeration (guarded to small sizes)
            if self._enum is None:
                self._enum = Enumerator(self.spec)
            return as_exact(sum(w for _, w in self._enum.enumerate(node, n, power)))
        raise SpecError(f"unknown weight model {type(model).__name__}")


_ENGINES: Dict[SpeciesSpec, SeriesEngine] = {}


def engine_for(spec: SpeciesSpec) -> SeriesEngine:
    eng = _ENGINES.get(spec)
    if eng is None:
        eng = _ENGINES[spec] = SeriesEngine(spec)
    return eng


def ogf(spec: SpeciesSpec, truncation: int, power: int = 1) -> TruncatedSeries:
    """Counting series of the species under the nu^power weighting."""
    return engine_for(spec).ogf(truncation, power=power)
