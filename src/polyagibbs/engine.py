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
with one handler per kind tag and one stream per (node id, power).  When
every weight of the program is 1 (:attr:`Program.unit
<polyagibbs.species.Program.unit>`), nu^p = nu, so :meth:`SeriesEngine.at`
and :meth:`SeriesEngine.stream` read every power as power 1 and one stream
per node serves all powers.

The engine owns the program's one :class:`~polyagibbs.species.Enumerator`.
A TABLE coefficient is the sum of that enumerator's orbit weights, to size
``DEFAULT_SIZE_GUARD`` (14) even after a model's limit law, which lists
its orbits from the same memo, raises the enumerator's guard to its cap.
Past the largest size of a tabled orbit every TABLE coefficient is 0, so a
table whose keys all fit under the guard is counted to any truncation.

Everything is exact.  SIZED coefficients, WEIGHT constants and TABLE
sums are normalised with :func:`~polyagibbs.series.as_exact`, so a spec
whose weights are all integral yields streams of Python `int` (and the
enumerator, which multiplies by the same constants, `int` weights); a
rational weight p/q makes the same code produce `Fraction` values.  The
one division, in the SET recurrence, goes through
:func:`~polyagibbs.series.exact_div`.

Cost is O(N^2) arithmetic per stream, with each stream shared by every
term that reads it, and Python calls per coefficient rather than per
term.  A SET of a unit-weight program to degree N fills one inner stream,
not one per power up to N.  A term loop takes each stream it reads from
:meth:`SeriesEngine.stream`, filled, and indexes the list, filling it in
the order a loop of one :meth:`SeriesEngine.at` call per term would, so
the same coefficients are counted and the same specs refused.  PRODUCT
(and the sampler's PRODUCT and SEQ laws) run over :func:`factor_terms`,
which picks the nonzero terms in C.  The Euler term q_k visits only the
divisors of k.  The SET and SEQ sums
run in C over :func:`~polyagibbs.series.cauchy_terms`, the products with
the nonzero q_k; every coefficient is the plain loop's, in value and in
type.
"""

from __future__ import annotations

import threading
from itertools import compress
from typing import Dict, Tuple

from .errors import EmptySize, IllFoundedRecursion, SizeGuardExceeded, SpecError
from .series import TruncatedSeries, as_exact, cauchy_terms, exact_div
from .species import DEFAULT_SIZE_GUARD, Enumerator, Node, Program, SpeciesSpec, by_kind, fail


class SeriesEngine:
    """Lazy coefficient streams for one species spec: one per (node id,
    power), or one per node id when the program's weights are all 1."""

    def __init__(self, spec: SpeciesSpec):
        self.program = Program(spec)
        self._arr: Dict[Tuple[int, int], list] = {}
        self._q: Dict[Tuple[int, int], tuple] = {}
        self._busy: set = set()
        # the program's one enumerator, for TABLE weights and limit laws
        self.enumerator = Enumerator(self.program)
        # arrays grow by appends; a reentrant lock keeps concurrent
        # samplers from interleaving fills of the same stream
        self._lock = threading.RLock()

    # public API

    def coeff(self, node: Node | int, power: int, n: int):
        """[z^n] of the node's series under nu^power: an `int` when
        integral, else a `Fraction`.  A negative n raises :class:`EmptySize`."""
        return self.at(self.program.id_of(node), power, n)

    def at(self, i: int, power: int, n: int):
        """:meth:`coeff` of the node with id i."""
        if self.program.unit:
            power = 1
        arr = self._arr.get((i, power))
        if arr is not None and 0 <= n < len(arr):
            return arr[n]
        if n < 0:
            raise EmptySize(f"no objects of negative size {n}")
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

    def stream(self, i: int, power: int, n: int):
        """The coefficients of node i under nu^power, filled through degree
        n, for callers to read and never write: the engine's own list, which
        only grows by appends, so an index below its length is final."""
        if self.program.unit:
            power = 1
        arr = self._arr.get((i, power), ())
        if len(arr) <= n:
            self.at(i, power, n)
            arr = self._arr[(i, power)]
        return arr

    def ogf(
        self, truncation: int, node: Node | int | None = None, power: int = 1
    ) -> TruncatedSeries:
        i = self.program.root if node is None else self.program.id_of(node)
        return TruncatedSeries(
            self.stream(i, power, truncation)[: truncation + 1], truncation
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

    def _product(self, i: int, power: int, n: int):
        """sum_k a_k * b_{n-k} over the splits k with a_k != 0."""
        left, right = self.program.args[i]
        return sum(a * b for _, a, b in factor_terms(self, left, right, power, 0, n))

    def _euler_term(self, inner: int, power: int, k: int):
        """q_k = sum_{d | k} d * s_d^{(power * k / d)}."""
        qk = 0
        for d in _divisors(k):
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
        """The enumerated orbits of TABLE node i: TABLE weights have no
        closed recurrence, so they are counted and drawn by exhaustive
        enumeration, to size ``DEFAULT_SIZE_GUARD`` even where a limit law
        has raised the enumerator's own guard.  Past the table's support
        there is no orbit to enumerate, at any size."""
        if n > self.program.data[i].support:
            return []
        if n > DEFAULT_SIZE_GUARD:
            raise SizeGuardExceeded(f"size {n} exceeds enumeration guard {DEFAULT_SIZE_GUARD}")
        return self.enumerator.enumerate(i, n, power)

    # plain functions, not bound methods: an engine holds no reference
    # cycle, so it is freed as soon as its last user drops it
    _count = by_kind(
        ATOM=lambda e, i, p, n: 1 if n == 1 else 0,
        EPSILON=lambda e, i, p, n: 1 if n == 0 else 0,
        ZERO=lambda e, i, p, n: 0,
        SIZED=lambda e, i, p, n: e.program.sized(i, n) ** p,
        UNION=lambda e, i, p, n: sum(e.at(c, p, n) for c in e.program.args[i]),
        PRODUCT=_product,
        SET=lambda e, i, p, n: e._recurrence(i, p, n, e._euler_term, n),
        SEQ=lambda e, i, p, n: e._recurrence(i, p, n, e.at, 1),
        WEIGHT=lambda e, i, p, n: (
            e.at(e.program.args[i][0], p, n) * e.program.data[i] ** (p * n)
        ),
        TABLE=lambda e, i, p, n: as_exact(sum(w for _, w in e.orbits(i, n, p))),
        DERIVE=_derive,
        FAIL=fail,
    )


def _divisors(k: int) -> list:
    """The divisors of k >= 1 in ascending order."""
    small, large = [], []
    d = 1
    while d * d < k:
        if k % d == 0:
            small.append(d)
            large.append(k // d)
        d += 1
    if d * d == k:
        small.append(d)
    return small + large[::-1]


def factor_terms(eng: SeriesEngine, a: int, b: int, power: int, lo: int, n: int):
    """(k, a_k, b_{n-k}) for lo <= k <= n with a_k != 0, in ascending k,
    where a_k and b_m are the coefficients of nodes a and b under nu^power.

    Each stream is filled once and then indexed, in the order of a loop
    that reads a_k and then, if it is nonzero, b_{n-k}: a through its first
    nonzero a_k0, b through n - k0, then a through n.  So the same
    coefficients are counted in the same order, and an ill-founded or
    invalid spec raises the same error."""
    arr, k = (), lo
    while k <= n:
        if len(arr) <= k:
            arr = eng.stream(a, power, k)
        if arr[k]:
            break
        k += 1
    else:
        return iter(())
    brr = eng.stream(b, power, n - k)
    eng.stream(a, power, n)
    mask = arr[k : n + 1]
    return zip(
        compress(range(k, n + 1), mask),
        compress(mask, mask),
        compress(brr[n - k :: -1], mask),
    )


def ogf(spec: SpeciesSpec, truncation: int, power: int = 1) -> TruncatedSeries:
    """Counting series of the species under the nu^power weighting, from a
    fresh engine that is freed with the result's last caller."""
    return SeriesEngine(spec).ogf(truncation, power=power)
