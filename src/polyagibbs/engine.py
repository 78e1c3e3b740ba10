"""Exact counting-series engine for weighted species.

For a species node S and an integer power p >= 1 the engine produces the
coefficients of the ordinary generating function of S under the powered
weighting nu^p, degree by degree:

* SET uses the weighted Euler-transform recurrence
  n * b_n = sum_k q_k b_{n-k} with q_k = sum_{d|k} d * s_d^{(p*k/d)},
* SEQ uses the quasi-inverse recurrence c_n = sum_k s_k^{(p)} c_{n-k},
* PRODUCT is a Cauchy convolution, UNION a sum, and DERIVE the stream of
  its inner node's derivative, which :meth:`Program.derivative
  <polyagibbs.species.Program.derivative>` adds to the program on ids (sum
  and product rules; SET' = SET * inner', SEQ' = SEQ * inner' * SEQ) the
  first time the DERIVE is counted.

The engine counts the spec's compiled :class:`~polyagibbs.species.Program`,
with one handler per kind tag and one stream per (node id, power).
Everything is exact.  SIZED coefficients, TABLE weights and WEIGHT
constants are normalised with :func:`~polyagibbs.series.as_exact`, so a
spec whose weights are all integral yields streams of Python `int`; a
rational weight p/q makes the same code produce `Fraction` values.  The
one division, in the SET recurrence, goes through
:func:`~polyagibbs.series.exact_div`.  Cost is O(N^2) per stream, with
streams shared across all powers that a composite pulls in.  The SET and
SEQ sums run in C over :func:`~polyagibbs.series.cauchy_terms`, the
products with the nonzero q_k; every coefficient is the plain loop's, in
value and in type.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from .errors import EmptySize, IllFoundedRecursion, SpecError
from .series import TruncatedSeries, as_exact, cauchy_terms, exact_div
from .species import Enumerator, Node, Program, SpeciesSpec, by_kind, fail


class SeriesEngine:
    """Lazy per-(node id, power) coefficient streams for one species spec."""

    def __init__(self, spec: SpeciesSpec):
        self.spec = spec
        self.program = Program(spec)
        self._arr: Dict[Tuple[int, int], list] = {}
        self._q: Dict[Tuple[int, int], tuple] = {}
        self._busy: set = set()
        self._enum: Enumerator | None = None
        # arrays grow by appends; a reentrant lock keeps concurrent
        # samplers from interleaving fills of the same stream
        self._lock = threading.RLock()

    # public API

    def coeff(self, node: Node | int, power: int, n: int):
        """[z^n] of the node's series under nu^power: an `int` when
        integral, else a `Fraction`.  A negative n raises :class:`EmptySize`
        (:meth:`at`, the inner loop of every count, does not check)."""
        if n < 0:
            raise EmptySize(f"no objects of negative size {n}")
        return self.at(self.program.id_of(node), power, n)

    def at(self, i: int, power: int, n: int):
        """:meth:`coeff` of the node with id i."""
        arr = self._arr.get((i, power))
        if arr is not None and len(arr) > n:
            return arr[n]
        with self._lock:
            arr = self._arr.setdefault((i, power), [])
            compute = self._count[self.program.kind[i]]
            while len(arr) <= n:
                key = (i, power, len(arr))
                if key in self._busy:
                    raise IllFoundedRecursion()
                self._busy.add(key)
                try:
                    value = compute(self, i, power, key[2])
                finally:
                    self._busy.discard(key)
                arr.append(value)
            return arr[n]

    def ogf(
        self, truncation: int, node: Node | int | None = None, power: int = 1
    ) -> TruncatedSeries:
        i = self.program.root if node is None else self.program.id_of(node)
        return TruncatedSeries(
            [self.at(i, power, n) for n in range(truncation + 1)],
            truncation,
        )

    # node handlers: (engine, id, power, degree) -> coefficient

    def _recurrence(self, i: int, power: int, n: int, term, divisor: int):
        """c_n = (sum_k q_k c_{n-k}) / divisor with q_k = term(inner, power, k):
        the Euler transform for SET (divisor n), the quasi-inverse for SEQ."""
        inner = self.program.args[i][0]
        if n == 0:
            if self.at(inner, power, 0) != 0:
                raise SpecError(
                    "inner species of SET/SEQ/COMPOSE must have no size-0 objects"
                )
            return 1
        # q_1, q_2, ... and its nonzero terms, as cauchy_terms reads them
        q, nonzero = self._q.setdefault((i, power), ([], []))
        while len(q) < n:
            qk = term(inner, power, len(q) + 1)
            if qk:
                nonzero.append(qk)
            q.append(qk)
        total = sum(cauchy_terms(q, nonzero, self._arr[(i, power)], n))
        return total if divisor == 1 else exact_div(total, divisor)

    def _euler_term(self, inner: int, power: int, k: int):
        """q_k = sum_{d | k} d * s_d^{(power * k / d)}."""
        qk = 0
        for d in range(1, k + 1):
            if k % d == 0:
                sd = self.at(inner, power * (k // d), d)
                if sd:
                    qk += d * sd
        return qk

    def _derive(self, i: int, power: int, n: int):
        """The coefficient of the derivative of DERIVE node i's inner node.
        A DERIVE of the same spec DERIVE asked for at the same size while
        this one is counted closes a cycle on which the size never shrinks
        and the derivative order grows without end."""
        source = self.program.data[i]
        key = ("DERIVE", i if source is None else source, power, n)
        if key in self._busy:
            raise IllFoundedRecursion()
        self._busy.add(key)
        try:
            return self.at(self.program.derivative(self.program.args[i][0]), power, n)
        finally:
            self._busy.discard(key)

    def orbits(self, i: int, n: int, power: int) -> list:
        """The enumerated orbits of node i: TABLE weights have no closed
        recurrence, so they are counted and drawn by exhaustive enumeration
        (guarded to small sizes)."""
        with self._lock:
            if self._enum is None:
                self._enum = Enumerator(self.program)
            return self._enum.enumerate(i, n, power)

    # plain functions, not bound methods: an engine holds no reference
    # cycle, so it is freed as soon as its last user drops it
    _count = by_kind(
        ATOM=lambda e, i, p, n: 1 if n == 1 else 0,
        EPSILON=lambda e, i, p, n: 1 if n == 0 else 0,
        ZERO=lambda e, i, p, n: 0,
        SIZED=lambda e, i, p, n: e.program.sized(i, n) ** p,
        UNION=lambda e, i, p, n: sum(e.at(c, p, n) for c in e.program.args[i]),
        PRODUCT=lambda e, i, p, n: sum(
            w for _, w in product_terms(e, i, *e.program.args[i], p, n)
        ),
        SET=lambda e, i, p, n: e._recurrence(i, p, n, e._euler_term, n),
        SEQ=lambda e, i, p, n: e._recurrence(i, p, n, e.at, 1),
        WEIGHT=lambda e, i, p, n: (
            e.at(e.program.args[i][0], p, n) * e.program.data[i] ** (p * n)
        ),
        TABLE=lambda e, i, p, n: as_exact(sum(w for _, w in e.orbits(i, n, p))),
        DERIVE=_derive,
        FAIL=fail,
    )


def product_terms(eng: SeriesEngine, i: int, left: int, right: int, power: int, n: int):
    """(k, a_k * b_{n-k}) for the splits k of a PRODUCT with a_k != 0: the
    terms of its coefficient, and the law of its split in the sampler."""
    for k in range(n + 1):
        a = eng.at(left, power, k)
        if a:
            yield k, a * eng.at(right, power, n - k)


def ogf(spec: SpeciesSpec, truncation: int, power: int = 1) -> TruncatedSeries:
    """Counting series of the species under the nu^power weighting, from a
    fresh engine that is freed with the result's last caller."""
    return SeriesEngine(spec).ogf(truncation, power=power)
