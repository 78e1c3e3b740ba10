"""Boltzmann-type random generation for composite species up to symmetry.

A :class:`GibbsModel` packages an outer structure, SET or SEQ, over an
inner weighted species, together with the cached counting series the
samplers and limit laws need:

* the powered inner series family ``i -> G^{nu^i}``,
* the composite series and the remainder-species series,
* the estimated radius of convergence ``rho`` of the inner series.

Sampling follows the symmetry-first recipe: draw a cycle type of the outer
structure with argument values ``G^{nu^i}(y^i)``, then for each cycle of
length ``l`` draw one inner object under the ``nu^l`` weighting from the
Boltzmann law at ``y^l`` and attach ``l`` identical copies.  The induced
law on composite orbits is the Boltzmann law of the composite series at
``y``: :meth:`GibbsModel.sample_composite` returns that orbit, and
conditioning on total size gives the weight-proportional law of
:meth:`GibbsModel.sample_S_n`.

Size distributions are truncated at the model truncation and renormalized.
All closed-form expectations computed here use the same truncated values,
so sampler-vs-formula comparisons are exact identities up to Monte Carlo
noise.

Cycle counts, block sizes, the longer cycles of a SET symmetry and limit
remainders are drawn from a :class:`~polyagibbs.sampler.DiscreteLaw`.
The model builds each law once per (stage, parameters) and caches it, so
repeated draws at one parameter, as in the rejection sampler, only sample.
One cached size law per (power, x) serves every partial sum of a powered
inner series: its ``total`` is :meth:`GibbsModel.inner_value`, hence the
cycle intensities, and its entries are the block sizes.  It reads the
coefficients only until its float sum stops changing, so a new cycle
length costs a few dozen coefficients, not the whole powered series.
Symmetries and block sizes are drawn without objects, a block of attempts
at a time, as numpy arrays (:meth:`GibbsModel._attempt_block`); inner
objects are drawn with the caller's ``random.Random`` only for the
attempts that are kept, and only for what the caller reads:
:meth:`GibbsModel.draws` draws every copy, :meth:`GibbsModel.remainders`
only the copies that stay once a maximal one is deleted, and
:meth:`GibbsModel.component_counts` none.  Attempts for size n run at the
parameter where their mean size is n (:meth:`GibbsModel.tuned_parameter`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import count, repeat
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .engine import SeriesEngine
from .errors import (
    EmptySize,
    PreconditionError,
    RejectionBudgetExceeded,
    TailNotControlled,
    ZeroMass,
)
from .sampler import DiscreteLaw, ExactSampler
from .series import RadiusEstimate, TruncatedSeries, evaluate, exact_log, radius_estimate
from .species import (
    Compose,
    Node,
    STAR_OBJ,
    SpeciesSpec,
    _collector_paused,
    object_size,
    sized_species,
    spec as make_spec,
)

PLACEHOLDER = ("placeholder",)

# neglected intensity sum of a SET symmetry draw
_SET_TAIL = 1e-12

# failed attempts in a row after which the rejection sampler gives up
_REJECTION_BUDGET = 2_000_000

# Boltzmann attempts drawn per numpy block.  A rejection stream starts with
# _FIRST_BLOCK attempts and doubles up to _BLOCK, so that a single draw, as
# from sample_S_n, does not pay for a block that a long stream amortises.
_FIRST_BLOCK = 128
_BLOCK = 2048

# bisection steps of the rejection tuning: its t = y / rho is found to 2^-40
_TUNING_STEPS = 40

# degree of the truncated outer cycle index that the cycle-statistics check
# evaluates; the residual is its part above half
_INDEX_DEGREE = 40


@dataclass(frozen=True)
class FragmentRecord:
    """Remainder of a composite object after deleting a maximal component."""

    remainder: object
    remainder_size: int
    component_count: int
    largest_size: int


def _set_index_parts(a: List[float], e0: float) -> List[float]:
    """e_0 .. e_K, K = len(a) - 1, of e0 * exp(sum_i a_i z^i / i), by
    k e_k = sum_{i<=k} a_i e_{k-i}; each sum is one ``math.fsum``, so a
    zero a_i adds an exact +0.0 term and leaves it as it is."""
    e = [e0]
    for k in range(1, len(a)):
        e.append(math.fsum(a[i] * e[k - i] for i in range(1, k + 1)) / k)
    return e


def _term(c, x: float, n: int) -> float:
    """c * x**n as a float, log-scaled when the count c overflows a float."""
    try:
        return float(c) * x**n
    except OverflowError:
        if x == 0:
            return 0.0
        return math.exp(exact_log(c) + n * math.log(x))


def _size_law(terms: Iterable[Tuple[int, object]], y: float) -> DiscreteLaw:
    """Law P(size = n) proportional to g_n y^n over the (n, g_n) pairs of
    ``terms``.  Reading stops once three successive terms leave the float
    sum of the weights unchanged (``total + w == total``), the one rule of
    every partial sum of a model.  Inside the disc of convergence the terms
    decay geometrically, so later terms change neither ``total`` nor any
    cumulative probability, whatever the scale of the values: the law is
    bit-identical to the one over all terms."""
    sizes, weights = [], []
    total, flat = 0.0, 0
    for n, c in terms:
        w = _term(c, y, n)
        if total + w == total:
            flat += 1
            if flat >= 3:
                break
        else:
            flat = 0
        total += w
        if w > 0:
            sizes.append(n)
            weights.append(w)
    return DiscreteLaw(sizes, weights)


def _poisson_law(lam: float) -> DiscreteLaw:
    """Law of a Poisson(lam) count: weights lam^k / k!, read like a size
    law until their float sum stops changing."""
    return _size_law(((k, Fraction(1, math.factorial(k))) for k in count()), lam)


def set_symmetry_law(inner_values: Callable[[int], float]) -> Tuple[DiscreteLaw | None, ...]:
    """Law of a SET symmetry whose number of i-cycles is Poisson(y_i / i),
    independent over i, with y_i = inner_values(i).

    Returns the laws of the fixpoint count, of the count of longer cycles
    (an aggregated Poisson) and of their lengths i >= 2, whose ``total`` is
    that Poisson's mean; the last two are None when no longer cycle has
    mass.  The cut index is chosen so the neglected intensity sum is below
    ``_SET_TAIL``.
    """
    lams = _intensity_table(inner_values, _SET_TAIL)
    fixpoint = _poisson_law(lams[0][1] if lams and lams[0][0] == 1 else 0.0)
    rest = [(i, lam) for i, lam in lams if i > 1]
    if not rest:
        return fixpoint, None, None
    longer = DiscreteLaw([i for i, _ in rest], [lam for _, lam in rest])
    return fixpoint, _poisson_law(longer.total), longer


def sample_set_symmetry(law: Tuple[DiscreteLaw | None, ...], rng: random.Random) -> tuple:
    """Cycle type, as sorted (length, count) pairs, drawn from a
    :func:`set_symmetry_law`: the i >= 2 cycles are drawn from the
    aggregated Poisson and then assigned lengths, which induces the same
    independent law."""
    fixpoint, more, longer = law
    counts: Dict[int, int] = {}
    m1 = fixpoint.sample(rng)
    if m1:
        counts[1] = m1
    if more is not None:
        for _ in range(more.sample(rng)):
            i = longer.sample(rng)
            counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(counts.items()))


def _intensity_table(
    inner_values: Callable[[int], float], tail: float
) -> List[Tuple[int, float]]:
    lams = []
    i = 1
    prev = math.inf
    while True:
        lam = inner_values(i) / i
        if lam < 0 or not math.isfinite(lam):
            raise TailNotControlled(f"invalid intensity at cycle length {i}")
        lams.append((i, lam))
        if i >= 3 and lam < tail and lam <= prev:
            break
        if i > 500:
            raise TailNotControlled(
                "cycle-length intensities do not decay below the tail target"
            )
        prev = lam
        i += 1
    return [(i, lam) for i, lam in lams if lam > 0]


class AttemptBlock(NamedTuple):
    """m Boltzmann attempts drawn as arrays, sizes only.  ``lengths`` and
    ``sizes`` hold one (cycle length, inner size) pair per cycle: first the
    fixpoints of every attempt, attempt by attempt, then their longer
    cycles.  Attempt a's pairs sit at ``offsets[a]:offsets[a + 1]`` and
    ``offsets[m + a]:offsets[m + a + 1]``; ``owner`` maps each pair to its
    attempt, and ``totals[a]`` is attempt a's total size."""

    offsets: object
    owner: object
    lengths: object
    sizes: object
    totals: object

    def pairs(self, a: int) -> Iterator[Tuple[int, int]]:
        o, m = self.offsets, len(self.totals)
        for lo, hi in ((o[a], o[a + 1]), (o[m + a], o[m + a + 1])):
            yield from zip(self.lengths[lo:hi].tolist(), self.sizes[lo:hi].tolist())

    def hits(self, n: int) -> Iterator[Tuple[int, List[Tuple[int, int]]]]:
        """(a, the pairs of attempt a) for every attempt a of total size n,
        in attempt order, the pairs in :meth:`pairs` order.  The pairs of
        all such attempts are gathered in one pass over the arrays."""
        import numpy as np

        hit = self.totals == n
        at = np.flatnonzero(hit[self.owner])
        # a stable sort by attempt keeps each attempt's fixpoints first
        at = at[np.argsort(self.owner[at], kind="stable")]
        flat = list(zip(self.lengths[at].tolist(), self.sizes[at].tolist()))
        found = np.flatnonzero(hit)
        ends = np.bincount(self.owner[at], minlength=len(hit))[found].cumsum()
        start = 0
        for a, end in zip(found.tolist(), ends.tolist()):
            yield a, flat[start:end]
            start = end


class GibbsModel:
    """Composite model F over G with cached series and one exact sampler,
    which draws composites at the root and inner objects at the inner id."""

    def __init__(self, composite: SpeciesSpec, truncation: int = 200):
        # one compiled program, shared by the engine and the sampler
        self.engine = SeriesEngine(composite)
        program = self.engine.program
        root = program.nodes[program.root]
        if not isinstance(root, Compose):
            raise PreconditionError(
                "model root must be a COMPOSE(SET|SEQ, inner) species"
            )
        self.spec = composite
        self.outer = root.outer
        self.inner_node: Node = root.inner
        self.inner_id: int = program.args[program.root][0]
        self.sampler = ExactSampler(composite, self.engine)
        self.truncation = truncation
        self._laws: Dict[tuple, object] = {}

    # -- constructors

    @classmethod
    def from_species(cls, composite: SpeciesSpec, truncation: int = 200) -> "GibbsModel":
        return cls(composite, truncation)

    @classmethod
    def from_series(
        cls, inner_coeffs, outer: str = "SET", truncation: int | None = None
    ) -> "GibbsModel":
        """Model whose inner class is given only by its counting sequence
        (one orbit per size, weight = coefficient)."""
        coeffs = [Fraction(c) for c in inner_coeffs]
        inner = sized_species(coeffs).root
        n = truncation if truncation is not None else max(200, len(coeffs))
        return cls(make_spec(Compose(outer, inner)), n)

    # -- cached series

    def inner_ogf(self, power: int = 1) -> TruncatedSeries:
        return self._law(
            ("ogf", power),
            lambda: self.engine.ogf(self.truncation, node=self.inner_id, power=power),
        )

    @cached_property
    def composite_ogf(self) -> TruncatedSeries:
        s = self.engine.ogf(self.truncation)
        if s.is_polynomial_within():
            raise PreconditionError("composite series must not be polynomial")
        return s

    @property
    def remainder_ogf(self) -> TruncatedSeries:
        """Series of the remainder species: the outer-derived structure
        composed with the inner class.  SET' = SET gives the composite
        series back; SEQ' = SEQ * SEQ gives its square."""
        if self.outer == "SET":
            return self.composite_ogf
        return self.composite_ogf * self.composite_ogf

    @cached_property
    def rho(self) -> RadiusEstimate:
        return radius_estimate(self.inner_ogf(1))

    @cached_property
    def span(self) -> int:
        return self.inner_ogf(1).lattice_span()

    # -- partial evaluations (consistent with the truncated samplers)

    def inner_value(self, power: int, x: float) -> float:
        """Partial sum of the powered inner series at x up to the model
        truncation: the ``total`` of :meth:`_inner_law`, which stops reading
        on the rule of :func:`_size_law`, or 0.0 when every term vanishes
        (x = 0, or all terms underflow)."""
        try:
            return self._inner_law(power, x).total
        except ZeroMass:
            return 0.0

    def _inner_law(self, power: int, x: float) -> DiscreteLaw:
        """Law of the size of an inner object under the nu^power weighting
        at x, cached under ("size", power, x); the inner size of an l-cycle
        at y has the law at (l, y**l)."""
        return self._law(
            ("size", power, x), lambda: _size_law(self._inner_terms(power), x)
        )

    def _inner_terms(self, power: int) -> Iterator[Tuple[int, object]]:
        """(n, coefficient) of the powered inner series for n up to the
        truncation, skipping zeros; coefficients are computed only as far
        as they are read."""
        stream, i, arr = self.engine.stream, self.inner_id, ()
        for n in range(1, self.truncation + 1):
            if len(arr) <= n:
                arr = stream(i, power, n)
            c = arr[n]
            if c:
                yield n, c

    def _law(self, key: tuple, build: Callable[[], object]):
        """The law, series or value cached under (stage, parameters),
        built on first use and published only once complete."""
        law = self._laws.get(key)
        if law is None:
            law = self._laws[key] = build()
        return law

    # -- samplers

    def _seq_law(self, y: float) -> DiscreteLaw:
        """Law of the geometric block count of one SEQ at y."""
        g = self.inner_value(1, y)
        if g >= 1.0:
            raise TailNotControlled(
                "SEQ outer needs inner series value < 1 at the parameter"
            )
        return _size_law(((k, 1) for k in count()), g)

    def _attempt_laws(self, y: float) -> Tuple[DiscreteLaw | None, ...]:
        """Laws of an attempt's symmetry at y: a SET's
        :func:`set_symmetry_law`, whose intensities build the inner size
        laws of every cycle length, or a SEQ's block count and two Nones."""
        if self.outer == "SET":
            return self._law(
                ("set", y), lambda: set_symmetry_law(lambda i: self.inner_value(i, y**i))
            )
        return self._law(("seq", y), lambda: self._seq_law(y)), None, None

    def _attempt_block(self, y: float, gen, size: int) -> AttemptBlock:
        """``size`` independent Boltzmann attempts at y, sizes only, drawn
        with the ``numpy.random.Generator`` ``gen``.  The cycle counts,
        the lengths of longer cycles and the inner sizes are each drawn for
        the whole block by inversion on the cached laws.  The inner sizes
        of the longer cycles take one uniform each from one draw, in the
        order of a stable sort by cycle length, so each length's law
        inverts one slice of it."""
        import numpy as np

        fix, more, longer = self._attempt_laws(y)
        counts = np.zeros(2 * size, dtype=np.int64)
        counts[:size] = fix.sample_array(gen, size)
        if more is not None:
            counts[size:] = more.sample_array(gen, size)
        offsets = np.zeros(2 * size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        fixed = int(offsets[size])
        lengths = np.ones(int(offsets[-1]), dtype=np.int64)
        sizes = np.empty_like(lengths)
        sizes[:fixed] = self._inner_law(1, y).sample_array(gen, fixed)
        if more is not None:
            rest = lengths[fixed:] = longer.sample_array(gen, len(lengths) - fixed)
            u = gen.random(len(rest))
            order = np.argsort(rest, kind="stable")
            per_length = np.bincount(rest)
            ls = per_length.nonzero()[0]
            rest_sizes, start = sizes[fixed:], 0
            for l, end in zip(ls.tolist(), per_length[ls].cumsum().tolist()):
                rest_sizes[order[start:end]] = self._inner_law(l, y**l).invert(u[start:end])
                start = end
        # counts[size + a] counts attempt a's longer cycles, whose pairs
        # follow the fixpoint pairs of every attempt
        owner = np.repeat(np.arange(2 * size), counts)
        owner[fixed:] -= size
        totals = np.bincount(owner, weights=lengths * sizes, minlength=size)
        return AttemptBlock(offsets, owner, lengths, sizes, totals)

    def _orbit(self, pairs: Iterable[Tuple[int, int]], rng: random.Random):
        """The composite orbit of (cycle_length, inner_size) pairs: one
        weight-proportional inner object per cycle, drawn in pair order
        under the powered weighting, in ``cycle_length`` identical copies."""
        sample, inner = self.sampler.sample, self.inner_id
        copies = []
        for l, s in pairs:
            copies.extend([sample(s, rng, l, inner)] * l)
        if self.outer == "SET":
            return ("set", tuple(sorted(copies)))
        return ("seq", tuple(copies))

    def sample_composite(self, y: float, rng: random.Random):
        """One Boltzmann composite orbit at parameter y: symmetry, then one
        weight-proportional inner object per cycle (under the powered
        weighting), shared by the cycle's atoms."""
        import numpy as np

        block = self._attempt_block(y, np.random.default_rng(rng.getrandbits(128)), 1)
        return self._orbit(block.pairs(0), rng)

    def tuned_parameter(self, n: int) -> float:
        """Rejection tuning: the y in (0, rho] at which a Boltzmann attempt
        has mean size n on the composite stream, E_y[N] = n (Duchon,
        Flajolet, Louchard and Schaeffer 2004), or rho when the mean at rho
        is below n.  The acceptance c_n y^n / F(y) has log-derivative
        (n - E_y[N]) / y, so this y maximises it on (0, rho].  Built once
        per n and cached."""
        return self._law(("tuned", n), lambda: self._mean_size_root(n))

    def _mean_size_root(self, n: int) -> float:
        """Bisection for E_y[N] = n over y = rho * t, t in (0, 1], with the
        terms c_k (y/rho)^k rho^k kept in logs, so neither a large count nor
        a composite radius below rho overflows.  The mean increases with t,
        and the result is rho times a dyadic t."""
        import numpy as np

        comp, rho = self.composite_ogf, self.rho.rho
        ks = np.array(comp.nonzero_indices, dtype=float)
        logs = np.array([exact_log(comp[k]) for k in comp.nonzero_indices]) + ks * math.log(rho)

        def mean(t: float) -> float:
            w = logs + ks * math.log(t)
            e = np.exp(w - w.max())
            return float(ks @ e) / float(e.sum())

        if mean(1.0) < n:
            return rho
        lo, hi = 0.0, 1.0
        for _ in range(_TUNING_STEPS):
            mid = 0.5 * (lo + hi)
            if mean(mid) < n:
                lo = mid
            else:
                hi = mid
        return rho * hi

    def prepare_draws(self, n: int, method: str) -> None:
        """Build the tables that size-n draws by ``method`` read first:
        for ``"rejection"``, the tuned parameter, the attempt laws at it
        and the numpy arrays and bucket index of every law that an attempt
        block draws from.  Called before a pool forks, so that every worker
        inherits them instead of building its own."""
        self._require_size(n)
        if method == "rejection":
            y = self.tuned_parameter(n)
            fix, more, longer = self._attempt_laws(y)
            laws = [fix, self._inner_law(1, y)]
            if more is not None:
                laws += [more, longer] + [self._inner_law(l, y**l) for l in longer.entries]
            for law in laws:
                law.arrays()

    def _require_size(self, n: int) -> None:
        if n < 0 or self.engine.at(self.engine.program.root, 1, n) == 0:
            raise EmptySize(f"no composite objects of size {n}")

    def sample_S_n(self, n: int, rng: random.Random, method: str = "exact_recursive"):
        """Size-n composite orbit, weight-proportional: the first item of
        :meth:`draws`."""
        return next(self.draws(n, rng, method))

    def draws(
        self, n: int, rng: random.Random, method: str = "exact_recursive"
    ) -> Iterator:
        """Independent weight-proportional size-n composite orbits.

        ``"exact_recursive"`` draws each item with the model's exact
        sampler at the root.
        ``"rejection"`` turns each attempt of total n that
        :meth:`_accepted` keeps, at :meth:`tuned_parameter`, into its
        orbit: every copy of every cycle, with the inner objects drawn with
        ``rng`` when the orbit is yielded.  The experiments read
        :meth:`remainders` and :meth:`component_counts` instead, which
        draw less."""
        self._require_size(n)
        if method == "exact_recursive":
            sample = self.sampler.sample
            return (sample(n, rng) for _ in repeat(None))
        if method != "rejection":
            raise PreconditionError(f"unknown sampling method {method!r}")
        return (self._orbit(pairs, rng) for pairs in self._accepted(n, rng))

    def component_counts(
        self, n: int, rng: random.Random, method: str = "exact_recursive"
    ) -> Iterator[int]:
        """Component counts of independent size-n draws.  For
        ``"rejection"`` a count is the sum of the cycle lengths of a kept
        attempt, and no inner object is drawn; otherwise it is the length
        of an exact draw."""
        if method == "rejection":
            self._require_size(n)
            return (sum(l for l, _ in pairs) for pairs in self._accepted(n, rng))
        return (len(s[1]) for s in self.draws(n, rng, method))

    def _accepted(self, n: int, rng: random.Random) -> Iterator[List[Tuple[int, int]]]:
        """The (cycle length, inner size) pairs of every Boltzmann attempt
        of total size n, in attempt order.  Attempts are drawn at the tuned
        parameter in blocks of ``_FIRST_BLOCK`` doubling up to ``_BLOCK``,
        with a ``numpy.random.Generator`` seeded once from ``rng``; they are
        i.i.d., so each kept attempt is an exact draw (Duchon, Flajolet,
        Louchard and Schaeffer 2004, section 6).  ``_REJECTION_BUDGET``
        failed attempts in a row raise :class:`RejectionBudgetExceeded`."""
        import numpy as np

        y = self.tuned_parameter(n)
        gen = np.random.default_rng(rng.getrandbits(128))
        missed, size = 0, _FIRST_BLOCK
        while True:
            block = self._attempt_block(y, gen, size)
            start = 0
            for a, pairs in block.hits(n):
                missed += a - start
                if missed >= _REJECTION_BUDGET:
                    break
                yield pairs
                missed, start = 0, a + 1
            else:
                missed += size - start
            if missed >= _REJECTION_BUDGET:
                raise RejectionBudgetExceeded(
                    f"no size-{n} draw within {_REJECTION_BUDGET} attempts at y*={y:.6g}"
                )
            size = min(2 * size, _BLOCK)

    # -- remainders

    def remainders(
        self, n: int, rng: random.Random, method: str = "exact_recursive"
    ) -> Iterator[FragmentRecord]:
        """Remainders of independent size-n draws, each after deleting one
        uniformly chosen maximal component.  ``"exact_recursive"`` draws
        the whole object and calls :meth:`extract_remainder`.
        ``"rejection"`` picks the deleted copy from a kept attempt's sizes
        and draws inner objects only for the copies that remain."""
        if method == "rejection":
            self._require_size(n)
            return (self._kept_remainder(pairs, rng) for pairs in self._accepted(n, rng))
        return (self.extract_remainder(s, rng) for s in self.draws(n, rng, method))

    def _kept_remainder(self, pairs: List[Tuple[int, int]], rng: random.Random) -> FragmentRecord:
        """The remainder of the orbit of ``pairs`` after deleting a uniformly
        chosen copy of the largest inner size, with one ``rng.randrange``
        over those copies in pair order.  An l-cycle that holds the deleted
        copy keeps l - 1 copies of its inner object, and under SEQ the hole
        takes the deleted block's place; the deleted copy itself is never
        drawn."""
        if not pairs:
            raise PreconditionError("composite object has no components")
        biggest = max(s for _, s in pairs)
        hole = rng.randrange(sum(l for l, s in pairs if s == biggest))
        sample, inner = self.sampler.sample, self.inner_id
        kept, total, count = [], 0, 0
        for l, s in pairs:
            total += l * s
            count += l
            keep = l
            if s == biggest:
                if 0 <= hole < l:
                    keep -= 1
                    if self.outer == "SEQ":
                        kept.append(STAR_OBJ)
                hole -= l
            if keep:
                kept.extend([sample(s, rng, l, inner)] * keep)
        remainder = ("set", tuple(sorted(kept))) if self.outer == "SET" else ("seq", tuple(kept))
        return FragmentRecord(
            remainder=remainder,
            remainder_size=total - biggest,
            component_count=count,
            largest_size=biggest,
        )

    def extract_remainder(self, s, rng: random.Random) -> FragmentRecord:
        """Delete one uniformly chosen maximal component; the remainder is
        the derived-outer composite orbit (for SET simply the remaining
        multiset, for SEQ the sequence with a * at the hole)."""
        kind, children = s[0], s[1]
        if not children:
            raise PreconditionError("composite object has no components")
        sizes = [object_size(c) for c in children]
        biggest = max(sizes)
        candidates = [i for i, sz in enumerate(sizes) if sz == biggest]
        i = candidates[rng.randrange(len(candidates))]
        if kind == "set":
            rest = children[:i] + children[i + 1 :]
            remainder = ("set", tuple(sorted(rest)))
        else:
            remainder = ("seq", children[:i] + (STAR_OBJ,) + children[i + 1 :])
        return FragmentRecord(
            remainder=remainder,
            remainder_size=sum(sizes) - biggest,
            component_count=len(children),
            largest_size=biggest,
        )

    def limit_remainder_distribution(self, cap: int) -> "LimitLaw":
        """Boltzmann limit law of the remainder at the estimated radius:
        P(R = o) = weight(o) rho^{|o|} / D with D the remainder-species
        series at rho; exact orbit probabilities up to size ``cap`` plus
        the residual tail mass, with a sensitivity from the rho spread.
        The law is built once per cap and cached."""
        return self._law(("limit", cap), lambda: self._limit_law(cap))

    def _limit_law(self, cap: int) -> "LimitLaw":
        """One pass over the remainder orbits collects their keys, float
        weights and sizes; the probabilities at rho and at rho -/+ spread
        are then arrays, and the sensitivity is the largest change of an
        entry."""
        import numpy as np

        if self.outer == "SEQ":
            self._seq_remainder_ratio()
        enum = self.engine.enumerator
        # the guard rises in place, so the orbits listed so far stay memoised
        enum.guard = max(enum.guard, cap)
        # one collector pause for the whole build, not one per enumerated
        # size: each resume would start collections that walk the lists
        # just built, once per generation they pass through
        with _collector_paused:
            remainder_ogf = self.remainder_ogf
            keys, weights, sizes = [], [], []
            for key, weight, size in self._remainder_orbits(cap):
                keys.append(key)
                weights.append(float(weight))
                sizes.append(size)
            weights = np.array(weights, dtype=float)
            sizes = np.array(sizes, dtype=np.intp)

            def probs_at(r: float):
                """weight * r**size / D of every orbit, D the remainder
                series at r; ``r**size`` is Python's float power, as in the
                scalar expression, so every entry is the float that it
                gives."""
                D = evaluate(remainder_ogf, r).value
                if D <= 0:
                    raise ZeroMass("remainder series evaluates to zero")
                scale = np.array([r**s for s in range(cap + 1)], dtype=float)
                return weights * scale[sizes] / D

            rho, spread = self.rho.rho, self.rho.spread
            probs = probs_at(rho)
            sens = 0.0
            if keys:
                for shifted in (rho - spread, rho + spread):
                    sens = max(sens, float(np.max(np.abs(probs_at(shifted) - probs))))
            probs = dict(zip(keys, probs.tolist()))
            tail = 1.0 - math.fsum(probs.values())
            return LimitLaw(probs, tail, cap, sens, rho)

    def _remainder_orbits(self, cap: int):
        """(canonical remainder, weight, size) for all remainder orbits of
        size <= cap."""
        enum = self.engine.enumerator
        if self.outer == "SET":
            for n in range(cap + 1):
                for o, w in enum.enumerate_root(n):
                    yield o, w, n
        else:
            # a derived sequence is a pair of sequences; encode as one
            # sequence with a * at the junction
            for n in range(cap + 1):
                for o, w in enum.enumerate_root(n):
                    left = o[1]
                    for cut in range(len(left) + 1):
                        yield ("seq", left[:cut] + (STAR_OBJ,) + left[cut:]), w, n

    def _seq_remainder_ratio(self) -> float:
        """G(rho) of a SEQ model, the ratio of its remainder's geometric
        block counts; :class:`ZeroMass` when it is not below 1."""
        q = self.inner_value(1, self.rho.rho)
        if q >= 1:
            raise ZeroMass("sequence model has no finite limit remainder")
        return q

    def limit_component_count_law(self, cap: int) -> Tuple[Dict[int, float], float]:
        """Exact law of the component count of the limit remainder.

        For a SET outer the count is sum_i i * m_i with the cycle
        multiplicities m_i independent Poisson(G^(i)(rho^i) / i), a compound
        Poisson whose probabilities follow the recurrence
        k p_k = sum_i i lam_i p_{k-i}.  For a SEQ outer the remainder is a
        pair of sequences, so the count is the sum of two independent
        geometric lengths with parameter G(rho).

        Returns probabilities for counts 0..cap plus the residual tail mass.
        The law is built once per cap and cached; callers must not change
        the dict.
        """
        return self._law(("count", cap), lambda: self._count_law(cap))

    def _count_law(self, cap: int) -> Tuple[Dict[int, float], float]:
        rho = self.rho.rho
        if self.outer == "SET":
            lams = dict(
                _intensity_table(lambda i: self.inner_value(i, rho**i), 1e-15)
            )
            # the i = 1 intensity converges slowly (it is the inner series
            # at its radius); the fitted tail model sharpens it
            lams[1] = evaluate(self.inner_ogf(1), rho).value
            a = [0.0] + [i * lams.get(i, 0.0) for i in range(1, cap + 1)]
            p = _set_index_parts(a, math.exp(-math.fsum(lams.values())))
        else:
            q = self._seq_remainder_ratio()
            p = [(k + 1) * (1.0 - q) ** 2 * q**k for k in range(cap + 1)]
        probs = {k: pk for k, pk in enumerate(p)}
        return probs, max(0.0, 1.0 - math.fsum(p))

    def sample_hat_S_n(
        self, n: int, rng: random.Random, law: "LimitLaw" | None = None
    ):
        """Coupled approximation: draw the limit remainder R; if |R| < n,
        attach a weight-proportional inner object of size n - |R| at the
        hole, else return the placeholder."""
        if law is None or law.cap < n - 1:
            law = self.limit_remainder_distribution(n - 1)
        key = law.sample(rng)
        if key is LimitLaw.TAIL:
            return PLACEHOLDER
        size = object_size(key)
        if size >= n:
            return PLACEHOLDER
        giant = self.sampler.sample(n - size, rng, 1, self.inner_id)
        if self.outer == "SET":
            return ("set", tuple(sorted(key[1] + (giant,))))
        i = key[1].index(STAR_OBJ)
        return ("seq", key[1][:i] + (giant,) + key[1][i + 1 :])

    # -- cycle statistics

    def outer_index_value(self, args: Callable[[int], float]) -> Tuple[float, float]:
        """Value of the outer cycle index truncated to degree 40 at
        z_i = args(i), and its residual, the part of degree above 20.

        The degree-k part e_k follows k e_k = sum_{i<=k} a_i e_{k-i} for
        SET = exp(sum_i z_i / i) and e_k = a_1 e_{k-1} for SEQ = sum_k z_1^k,
        from e_0 = 1; this is the polynomial that ``tests/oracles.py`` sums
        term by term, without its one term per partition."""
        if self.outer == "SET":
            e = _set_index_parts(
                [0.0] + [float(args(i)) for i in range(1, _INDEX_DEGREE + 1)], 1.0
            )
        else:
            a1 = float(args(1))
            e = [1.0]
            for _ in range(_INDEX_DEGREE):
                e.append(a1 * e[-1])
        return math.fsum(e), math.fsum(e[_INDEX_DEGREE // 2 + 1 :])

    def cycle_statistics_pgf_check(
        self, y_point: float, w_point: float, samples: int, rng: random.Random
    ) -> "PgfReport":
        """Monte Carlo check of the joint transform E[y^f w^h] at the
        radius, where f counts outer fixpoints and h is the total size
        attached to longer cycles, against :meth:`outer_index_value` with
        the same truncated argument values."""
        import numpy as np

        rho = self.rho.rho
        gen = np.random.default_rng(rng.getrandbits(128))
        total = sq = 0.0
        for done in range(0, samples, _BLOCK):
            k = min(_BLOCK, samples - done)
            block = self._attempt_block(rho, gen, k)
            f = np.diff(block.offsets[: k + 1])
            fixed = block.offsets[k]
            fixed_size = np.bincount(
                block.owner[:fixed], weights=block.sizes[:fixed], minlength=k
            )
            v = y_point**f * w_point ** (block.totals - fixed_size)
            total += float(v.sum())
            sq += float(v @ v)
        mc = total / samples
        var = max(sq / samples - mc * mc, 0.0)
        se = math.sqrt(var / samples)

        def args_num(i: int) -> float:
            if i == 1:
                return y_point * self.inner_value(1, rho)
            return self.inner_value(i, (w_point * rho) ** i)

        num, num_resid = self.outer_index_value(args_num)
        den, den_resid = self.outer_index_value(lambda i: self.inner_value(i, rho**i))
        exact = num / den
        return PgfReport(mc, se, exact, max(num_resid, den_resid), samples)


class LimitLaw:
    """Exact limit remainder law up to a size cap, plus tail mass."""

    TAIL = ("tail",)

    def __init__(self, probs, tail, cap, sensitivity, rho):
        self.probs: Dict[object, float] = probs
        self.tail = tail
        self.cap = cap
        self.sensitivity = sensitivity
        self.rho = rho
        self._law = DiscreteLaw(
            list(probs) + [LimitLaw.TAIL], list(probs.values()) + [tail]
        )
        self.total = self._law.total

    def sample(self, rng: random.Random):
        return self._law.sample(rng)


@dataclass(frozen=True)
class PgfReport:
    estimate: float
    standard_error: float
    exact: float
    truncation_residual: float
    samples: int

    @property
    def sigmas(self) -> float:
        if self.standard_error == 0:
            return 0.0 if self.estimate == self.exact else math.inf
        return abs(self.estimate - self.exact) / self.standard_error
