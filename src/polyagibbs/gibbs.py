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

Size distributions are truncated at the model truncation and renormalized;
``boltzmann_size_distribution`` records the neglected mass as the law's
``mass_defect``.  All closed-form expectations computed here use the same
truncated values, so sampler-vs-formula comparisons are exact identities up
to Monte Carlo noise.

Block sizes, the longer cycles of a SET symmetry and limit remainders are
drawn from a :class:`~polyagibbs.sampler.DiscreteLaw`.
The model builds each law once per (stage, parameters) and caches it, so
repeated draws at one parameter, as in the rejection sampler, only sample.
A block-size law reads the powered inner coefficients only until its float
sum stops changing, so a new cycle length costs a few dozen coefficients,
not the whole powered series up to the truncation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .cycleindex import CycleIndexPoly, CycleType
from .engine import SeriesEngine
from .errors import (
    EmptySize,
    PreconditionError,
    RejectionBudgetExceeded,
    TailNotControlled,
    ZeroMass,
)
from .sampler import DiscreteLaw, ExactSampler
from .series import RadiusEstimate, TruncatedSeries, evaluate, radius_estimate
from .species import (
    Compose,
    Enumerator,
    Node,
    STAR_OBJ,
    SpeciesSpec,
    object_size,
    sized_species,
    spec as make_spec,
)

PLACEHOLDER = ("placeholder",)

_LOG_EPS = 1e-18

# neglected intensity sum of a SET symmetry draw
_SET_TAIL = 1e-12

# attempts the rejection sampler makes before it gives up
_REJECTION_BUDGET = 2_000_000

# degree of the truncated outer cycle index that the cycle-statistics check
# and the radius-shift probe evaluate; the residual is its part above half
_INDEX_DEGREE = 40


@dataclass(frozen=True)
class FragmentRecord:
    """Remainder of a composite object after deleting a maximal component."""

    remainder: object
    remainder_size: int
    component_count: int
    largest_size: int


def _term(c, x: float, n: int) -> float:
    """c * x**n as a float, log-scaled when the count c overflows a float."""
    try:
        return float(c) * x**n
    except OverflowError:
        if x == 0:
            return 0.0
        c = Fraction(c)
        return math.exp(
            math.log(c.numerator) - math.log(c.denominator) + n * math.log(x)
        )


def _size_law(
    terms: Iterable[Tuple[int, object]], y: float, mass_defect: float
) -> DiscreteLaw:
    """Law P(size = n) proportional to g_n y^n over the (n, g_n) pairs of
    ``terms``.  Reading stops once three successive terms leave the float
    sum of the weights unchanged (``total + w == total``);
    ``GibbsModel.inner_value`` stops on a different rule, three successive
    terms with ``t < 1e-18 * (1 + total)``.  Inside the disc of convergence
    the terms decay geometrically, so every later size would get a
    cumulative probability of exactly 1.0 and could never be drawn: the law
    is bit-identical to the one over all terms."""
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
    return DiscreteLaw(sizes, weights, mass_defect)


def boltzmann_size_distribution(series: TruncatedSeries, y: float) -> DiscreteLaw:
    """Discrete law P(size = n) proportional to g_n y^n, over n up to the
    truncation, with the neglected tail mass reported (estimated via the
    fitted tail model when the series is not polynomial)."""
    if y < 0:
        raise PreconditionError("Boltzmann parameter must be >= 0")
    ev = evaluate(series, y)
    if ev.value <= 0:
        raise ZeroMass("series evaluates to zero mass")
    terms = ((n, series[n]) for n in series.nonzero_indices)
    return _size_law(terms, y, ev.tail / ev.value)


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson by inversion; adequate for the small means used here."""
    if lam <= 0:
        return 0
    u = rng.random()
    p = math.exp(-lam)
    k, acc = 0, p
    while u >= acc:
        k += 1
        p *= lam / k
        acc += p
        if k > 10_000:
            raise TailNotControlled("Poisson inversion failed to terminate")
    return k


SetSymmetryLaw = Tuple[float, DiscreteLaw | None]


def set_symmetry_law(inner_values: Callable[[int], float]) -> SetSymmetryLaw:
    """Law of a SET symmetry whose number of i-cycles is Poisson(y_i / i),
    independent over i, with y_i = inner_values(i).

    Returns the fixpoint intensity and a law of the lengths i >= 2 whose
    ``total`` is their aggregated Poisson mean (None when no longer cycle
    has mass).  The cut index is chosen so the neglected intensity sum is
    below ``_SET_TAIL``.
    """
    lams = _intensity_table(inner_values, _SET_TAIL)
    fixpoint = lams[0][1] if lams and lams[0][0] == 1 else 0.0
    rest = [(i, lam) for i, lam in lams if i > 1]
    if not rest:
        return fixpoint, None
    return fixpoint, DiscreteLaw([i for i, _ in rest], [lam for _, lam in rest])


def sample_set_symmetry(law: SetSymmetryLaw, rng: random.Random) -> CycleType:
    """Cycle type drawn from a :func:`set_symmetry_law`: the i >= 2 cycles
    are drawn from the aggregated Poisson and then assigned lengths, which
    induces the same independent law."""
    fixpoint, longer = law
    counts: Dict[int, int] = {}
    m1 = _poisson(rng, fixpoint)
    if m1:
        counts[1] = m1
    if longer is not None:
        for _ in range(_poisson(rng, longer.total)):
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


def general_symmetry_law(
    zf: CycleIndexPoly, inner_values: Callable[[int], float]
) -> DiscreteLaw:
    """Law of the cycle type, proportional to coeff(lambda) *
    prod_i y_i^{m_i} over the stored cycle-index terms."""
    entries, weights = [], []
    for ct, coeff in zf.terms.items():
        w = float(coeff)
        for i, m in ct:
            w *= inner_values(i) ** m
        if w > 0:
            entries.append(ct)
            weights.append(w)
    return DiscreteLaw(entries, weights)


class GibbsModel:
    """Composite model F over G with cached series and samplers."""

    def __init__(self, composite: SpeciesSpec, truncation: int = 200):
        # one compiled program, shared by the engine and both samplers
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
        self.inner_spec = composite.with_root(root.inner)
        self.truncation = truncation
        self._inner_ogf: Dict[int, TruncatedSeries] = {}
        self._composite_ogf: TruncatedSeries | None = None
        self._rho: RadiusEstimate | None = None
        self._sampler: ExactSampler | None = None
        self._inner_sampler: ExactSampler | None = None
        self._laws: Dict[tuple, object] = {}
        self._value_cache: Dict[tuple, float] = {}
        self._enum: Enumerator | None = None

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
        s = self._inner_ogf.get(power)
        if s is None:
            s = self._inner_ogf[power] = self.engine.ogf(
                self.truncation, node=self.inner_id, power=power
            )
        return s

    @property
    def composite_ogf(self) -> TruncatedSeries:
        if self._composite_ogf is None:
            s = self.engine.ogf(self.truncation)
            if s.is_polynomial_within():
                raise PreconditionError("composite series must not be polynomial")
            self._composite_ogf = s
        return self._composite_ogf

    @property
    def remainder_ogf(self) -> TruncatedSeries:
        """Series of the remainder species: the outer-derived structure
        composed with the inner class.  SET' = SET gives the composite
        series back; SEQ' = SEQ * SEQ gives its square."""
        if self.outer == "SET":
            return self.composite_ogf
        return self.composite_ogf * self.composite_ogf

    @property
    def rho(self) -> RadiusEstimate:
        if self._rho is None:
            self._rho = radius_estimate(self.inner_ogf(1))
        return self._rho

    @property
    def span(self) -> int:
        return self.inner_ogf(1).lattice_span()

    def exact_sampler(self) -> ExactSampler:
        if self._sampler is None:
            self._sampler = ExactSampler(self.spec, self.engine)
        return self._sampler

    def inner_sampler(self) -> ExactSampler:
        if self._inner_sampler is None:
            self._inner_sampler = ExactSampler(self.inner_spec, self.engine)
        return self._inner_sampler

    def enumerator(self) -> Enumerator:
        if self._enum is None:
            self._enum = Enumerator(self.engine.program, guard=16)
        return self._enum

    # -- partial evaluations (consistent with the truncated samplers)

    def inner_value(self, power: int, x: float) -> float:
        """Partial sum of the powered inner series at x, truncated at the
        model truncation, with geometric early exit."""
        key = (power, x)
        v = self._value_cache.get(key)
        if v is not None:
            return v
        total, low = 0.0, 0
        for n, c in self._inner_terms(power):
            t = _term(c, x, n)
            total += t
            if t < _LOG_EPS * (1.0 + total):
                low += 1
                if low >= 3:
                    break
            else:
                low = 0
        self._value_cache[key] = total
        return total

    def _inner_terms(self, power: int) -> Iterator[Tuple[int, object]]:
        """(n, coefficient) of the powered inner series for n up to the
        truncation, skipping zeros; coefficients are computed only as far
        as they are read."""
        at, i = self.engine.at, self.inner_id
        for n in range(1, self.truncation + 1):
            c = at(i, power, n)
            if c:
                yield n, c

    def _law(self, key: tuple, build: Callable[[], object]):
        """The law cached under (stage, parameters), built on first use and
        published only once complete."""
        law = self._laws.get(key)
        if law is None:
            law = build()
            self._laws[key] = law
        return law

    # -- samplers

    def sample_symmetry_sizes(self, y: float, rng: random.Random) -> List[Tuple[int, int]]:
        """(cycle_length, inner_size) per cycle, objects not materialized."""
        values = lambda i: self.inner_value(i, y**i)
        if self.outer == "SET":
            law = self._law(("set", y), lambda: set_symmetry_law(values))
            ct = sample_set_symmetry(law, rng)
        else:
            g = self.inner_value(1, y)
            if g >= 1.0:
                raise TailNotControlled(
                    "SEQ outer needs inner series value < 1 at the parameter"
                )
            k = 0
            while rng.random() < g:
                k += 1
            ct = ((1, k),) if k else ()
        out = []
        for l, m in ct:
            yl = y**l
            law = self._law(
                ("size", l, yl), lambda: _size_law(self._inner_terms(l), yl, 0.0)
            )
            for _ in range(m):
                out.append((l, law.sample(rng)))
        return out

    def _orbit(self, pairs: List[Tuple[int, int]], rng: random.Random):
        """The composite orbit of (cycle_length, inner_size) pairs: one
        weight-proportional inner object per cycle, drawn in pair order
        under the powered weighting, in ``cycle_length`` identical copies."""
        sampler = self.inner_sampler()
        copies = []
        for l, s in pairs:
            copies.extend([sampler.sample(s, rng, power=l)] * l)
        if self.outer == "SET":
            return ("set", tuple(sorted(copies)))
        return ("seq", tuple(copies))

    def sample_composite(self, y: float, rng: random.Random):
        """One Boltzmann composite orbit at parameter y: symmetry, then one
        weight-proportional inner object per cycle (under the powered
        weighting), shared by the cycle's atoms."""
        return self._orbit(self.sample_symmetry_sizes(y, rng), rng)

    def tuned_parameter(self, n: int) -> float:
        """Rejection tuning y* = rho (1 - 1/n)^{1/d}, clipped to (0, rho]."""
        d = self.span
        rho = self.rho.rho
        y = rho * (1.0 - 1.0 / max(n, 2)) ** (1.0 / d)
        return min(max(y, 1e-12), rho)

    def sample_S_n(self, n: int, rng: random.Random, method: str = "exact_recursive"):
        """Size-n composite orbit, weight-proportional."""
        if self.engine.at(self.engine.program.root, 1, n) == 0:
            raise EmptySize(f"no composite objects of size {n}")
        if method == "exact_recursive":
            return self.exact_sampler().sample(n, rng)
        if method != "rejection":
            raise PreconditionError(f"unknown sampling method {method!r}")
        ystar = self.tuned_parameter(n)
        for _ in range(_REJECTION_BUDGET):
            pairs = self.sample_symmetry_sizes(ystar, rng)
            if sum(l * s for l, s in pairs) == n:
                return self._orbit(pairs, rng)
        raise RejectionBudgetExceeded(
            f"no size-{n} draw within {_REJECTION_BUDGET} attempts at y*={ystar:.6g}"
        )

    # -- remainders

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
        the residual tail mass, with a sensitivity from the rho spread."""
        if cap > self.enumerator().guard:
            self._enum = Enumerator(self.engine.program, guard=cap)
        rho = self.rho.rho
        probs = self._limit_probs(cap, rho)
        spread = self.rho.spread
        sens = 0.0
        for shifted in (rho - spread, rho + spread):
            p2 = self._limit_probs(cap, shifted)
            sens = max(
                sens,
                max(abs(p2[k] - probs[k]) for k in probs) if probs else 0.0,
            )
        tail = 1.0 - math.fsum(probs.values())
        return LimitLaw(probs, tail, cap, sens, rho)

    def _limit_probs(self, cap: int, rho: float) -> Dict[object, float]:
        D = evaluate(self.remainder_ogf, rho).value
        if D <= 0:
            raise ZeroMass("remainder series evaluates to zero")
        probs: Dict[object, float] = {}
        for key, weight, size in self._remainder_orbits(cap):
            probs[key] = float(weight) * rho**size / D
        return probs

    def _remainder_orbits(self, cap: int):
        """(canonical remainder, weight, size) for all remainder orbits of
        size <= cap."""
        enum = self.enumerator()
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

    def limit_component_count_law(self, cap: int) -> Tuple[Dict[int, float], float]:
        """Exact law of the component count of the limit remainder.

        For a SET outer the count is sum_i i * m_i with the cycle
        multiplicities m_i independent Poisson(G^(i)(rho^i) / i), a compound
        Poisson whose probabilities follow the recurrence
        k p_k = sum_i i lam_i p_{k-i}.  For a SEQ outer the remainder is a
        pair of sequences, so the count is the sum of two independent
        geometric lengths with parameter G(rho).

        Returns probabilities for counts 0..cap plus the residual tail mass.
        """
        rho = self.rho.rho
        if self.outer == "SET":
            lams = dict(
                _intensity_table(lambda i: self.inner_value(i, rho**i), 1e-15)
            )
            # the i = 1 intensity converges slowly (it is the inner series
            # at its radius); the fitted tail model sharpens it
            lams[1] = evaluate(self.inner_ogf(1), rho).value
            total = math.fsum(lams.values())
            p = [math.exp(-total)]
            for k in range(1, cap + 1):
                p.append(
                    math.fsum(
                        i * lam * p[k - i] for i, lam in lams.items() if i <= k
                    )
                    / k
                )
        else:
            q = self.inner_value(1, rho)
            if q >= 1:
                raise ZeroMass("sequence model has no finite limit remainder")
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
        giant = self.inner_sampler().sample(n - size, rng)
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
        from e_0 = 1; this is the polynomial that
        :meth:`~polyagibbs.cycleindex.CycleIndexPoly.evaluate_at` sums term
        by term, without its one term per partition."""
        if self.outer == "SET":
            a = [0.0] + [float(args(i)) for i in range(1, _INDEX_DEGREE + 1)]
            e = [1.0]
            for k in range(1, _INDEX_DEGREE + 1):
                e.append(math.fsum(a[i] * e[k - i] for i in range(1, k + 1)) / k)
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
        rho = self.rho.rho
        total = 0.0
        sq = 0.0
        for _ in range(samples):
            f, h = 0, 0
            for l, s in self.sample_symmetry_sizes(rho, rng):
                if l == 1:
                    f += 1
                else:
                    h += l * s
            v = y_point**f * w_point**h
            total += v
            sq += v * v
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
