"""Term-by-term cycle index sums of SET and SEQ, the oracles of the
package's recurrences (``multiset_ogf``, ``outer_index_value``,
``set_symmetry_law``), the engine's and sampler's term loops with one
``SeriesEngine.at`` call per term, an engine with one stream per (node,
power) for unit-weight programs too, an enumerator of its own that sorts
its lists by comparing the objects, the limit-law build with one pass
over the orbits per radius, and the SET and SEQ draw handlers that build
every part list and sort every SET.  A cycle type is a sorted tuple of
(cycle length, multiplicity) pairs; an index is a list of (cycle type,
coefficient) terms in degree order."""

import itertools
import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache

from polyagibbs import (
    DiscreteLaw,
    EmptySize,
    IllFoundedRecursion,
    LimitLaw,
    SeriesEngine,
    SizeGuardExceeded,
    SpecError,
    TruncatedSeries,
    ZeroMass,
    canonicalize,
    mark_one_atom,
)
from polyagibbs.sampler import _seq_terms, _set_terms
from polyagibbs.series import evaluate
from polyagibbs.species import (
    ATOM_OBJ,
    DEFAULT_SIZE_GUARD,
    EPS_OBJ,
    K_SEQ,
    K_SET,
    STAR_OBJ,
    by_kind,
    fail,
)


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


# The term loops of the engine and the sampler with one SeriesEngine.at call
# per term: the reference for the package's loops over filled streams, which
# must yield the same pairs and count the same coefficients in the same order.


def product_terms(eng, i, left, right, power, n):
    for k in range(n + 1):
        a = eng.at(left, power, k)
        if a:
            yield k, a * eng.at(right, power, n - k)


def set_terms(eng, i, inner, power, n):
    for j in range(1, n + 1):
        for d in range(1, n // j + 1):
            g = eng.at(inner, power * j, d)
            if g:
                yield (d, j), d * g * eng.at(i, power, n - d * j)


def seq_terms(eng, i, inner, power, n):
    for s in range(1, n + 1):
        g = eng.at(inner, power, s)
        if g:
            yield s, g * eng.at(i, power, n - s)


def euler_term(eng, inner, power, k):
    """q_k = sum_{d | k} d * s_d^{(power * k / d)}, over every d <= k."""
    qk = 0
    for d in range(1, k + 1):
        if k % d == 0:
            sd = eng.at(inner, power * (k // d), d)
            if sd:
                qk += d * sd
    return qk


class PerPowerEngine(SeriesEngine):
    """The engine that fills one stream per (node, power) whatever the
    weights: the reference for the engine's one stream per node of a
    unit-weight program, where nu^p = nu."""

    def at(self, i, power, n):
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

    def stream(self, i, power, n):
        arr = self._arr.get((i, power), ())
        if len(arr) <= n:
            self.at(i, power, n)
            arr = self._arr[(i, power)]
        return arr


# An enumerator of its own, whose lists are sorted by comparing the objects
# as tuples: PRODUCT and SET orbits take every product, SEQ lists recurse on
# themselves outside the memo, and the limit-law build walks the orbits once
# per radius.  Weights follow the engine's number rule: leaves weigh the
# `int` 1 and a WEIGHT multiplies by the compiled constant c^(power * n).
# The reference for the package's enumerator, which builds its lists in the
# order of their byte keys and reads the orbits once, and must give the same
# lists, with the same weight types, and the same floats.


class LoopEnumerator:
    """Exhaustive enumeration over the ids of a compiled program, with a
    handler table of its own and every list sorted by its objects."""

    def __init__(self, program, guard=DEFAULT_SIZE_GUARD):
        self.program = program
        self.guard = guard
        self._memo = {}
        self._busy = set()

    def enumerate(self, node, n, power=1):
        if n < 0:
            raise EmptySize(f"no objects of negative size {n}")
        if n > self.guard:
            raise SizeGuardExceeded(f"size {n} exceeds enumeration guard {self.guard}")
        return self._enumerate(self.program.id_of(node), n, power)

    def enumerate_root(self, n, power=1):
        return self.enumerate(self.program.root, n, power)

    def _enumerate(self, i, n, power):
        key = (i, n, power)
        result = self._memo.get(key)
        if result is not None:
            return result
        if key in self._busy:
            raise IllFoundedRecursion()
        self._busy.add(key)
        try:
            result = self._list[self.program.kind[i]](self, i, n, power)
        finally:
            self._busy.discard(key)
        result.sort(key=lambda p: p[0])
        self._memo[key] = result
        return result

    def _product(self, i, n, power):
        left, right = self.program.args[i]
        out = []
        for k in range(n + 1):
            lo = self._enumerate(left, k, power)
            if lo:
                ro = self._enumerate(right, n - k, power)
                out += [(("prod", a, b), wa * wb) for a, wa in lo for b, wb in ro]
        return out

    def _collection(self, head, parts, i, n, power):
        inner = self.program.args[i][0]
        if self._enumerate(inner, 0, power):
            raise SpecError("inner species of SET/SEQ/COMPOSE must have no size-0 objects")
        return [((head, c), w) for c, w in parts(i, inner, n, power)]

    def _multisets(self, i, inner, n, power):
        by_size = {s: self._enumerate(inner, s, power) for s in range(1, n + 1)}
        sizes = [s for s in range(1, n + 1) if by_size[s]]
        out = []

        def rec(remaining, size_idx, chosen, weight):
            if remaining == 0:
                out.append((tuple(sorted(chosen)), weight))
                return
            if size_idx >= len(sizes):
                return
            s = sizes[size_idx]
            for k in range(remaining // s + 1):
                if k == 0:
                    rec(remaining, size_idx + 1, chosen, weight)
                    continue
                for combo in itertools.combinations_with_replacement(by_size[s], k):
                    w = weight
                    objs = []
                    for o, ow in combo:
                        w *= ow
                        objs.append(o)
                    rec(remaining - k * s, size_idx + 1, chosen + tuple(objs), w)

        rec(n, 0, (), 1)
        return out

    def _sequences(self, i, inner, n, power):
        if n == 0:
            return [((), 1)]
        out = []
        for s in range(1, n + 1):
            heads = self._enumerate(inner, s, power)
            if not heads:
                continue
            tails = self._sequences(i, inner, n - s, power)
            for o, ow in heads:
                for t, tw in tails:
                    out.append(((o,) + t, ow * tw))
        return out

    def _weighted(self, i, n, power):
        f = self.program.data[i] ** (power * n)
        return [(o, w * f) for o, w in self._enumerate(self.program.args[i][0], n, power)]

    def _tabled(self, i, n, power):
        model = self.program.data[i]
        out = []
        for o, w in self._enumerate(self.program.args[i][0], n, power):
            f = model.factor(o, n)
            if f:
                out.append((o, w * f**power))
        return out

    def _derive(self, i, n, power):
        if any((i, m, power) in self._busy for m in range(n)):
            raise IllFoundedRecursion()
        seen = {}
        for o, w in self._enumerate(self.program.args[i][0], n + 1, power):
            for marked in mark_one_atom(o):
                seen[canonicalize(marked)] = w
        return list(seen.items())

    _list = by_kind(
        ATOM=lambda e, i, n, p: [(ATOM_OBJ, 1)] if n == 1 else [],
        EPSILON=lambda e, i, n, p: [(EPS_OBJ, 1)] if n == 0 else [],
        ZERO=lambda e, i, n, p: [],
        SIZED=lambda e, i, n, p: [(("blob", n), e.program.sized(i, n) ** p)]
        if e.program.sized(i, n) else [],
        UNION=lambda e, i, n, p: [
            (("tag", side, o), w)
            for side, c in enumerate(e.program.args[i])
            for o, w in e._enumerate(c, n, p)
        ],
        PRODUCT=_product,
        SET=lambda e, i, n, p: e._collection("set", e._multisets, i, n, p),
        SEQ=lambda e, i, n, p: e._collection("seq", e._sequences, i, n, p),
        WEIGHT=_weighted,
        TABLE=_tabled,
        DERIVE=_derive,
        FAIL=fail,
    )


def remainder_orbits(outer, enum, cap):
    """(canonical remainder, weight, size) of every remainder orbit of size
    <= cap; a derived sequence is one sequence with a * at the junction."""
    for n in range(cap + 1):
        for o, w in enum.enumerate_root(n):
            if outer == "SET":
                yield o, w, n
            else:
                left = o[1]
                for cut in range(len(left) + 1):
                    yield ("seq", left[:cut] + (STAR_OBJ,) + left[cut:]), w, n


def limit_probs(model, enum, cap, rho):
    D = evaluate(model.remainder_ogf, rho).value
    if D <= 0:
        raise ZeroMass("remainder series evaluates to zero")
    probs = {}
    for key, weight, size in remainder_orbits(model.outer, enum, cap):
        probs[key] = float(weight) * rho**size / D
    return probs


def limit_law(model, enum, cap):
    """The limit remainder law of ``model`` with the orbits of ``enum``,
    walked once at rho and once at each of rho -/+ spread."""
    rho = model.rho.rho
    probs = limit_probs(model, enum, cap, rho)
    spread = model.rho.spread
    sens = 0.0
    for shifted in (rho - spread, rho + spread):
        p2 = limit_probs(model, enum, cap, shifted)
        sens = max(sens, max(abs(p2[k] - probs[k]) for k in probs) if probs else 0.0)
    tail = 1.0 - math.fsum(probs.values())
    return LimitLaw(probs, tail, cap, sens, rho)


# The attempt block of the rejection sampler as one inversion per law: a
# draw per cycle length for the sizes of longer cycles, every uniform
# inverted by numpy's ``searchsorted`` on the law's ``cum``, and ``owner``
# built from ``arange(2 * size) % size``.  The reference for the package's
# block, which must give the same arrays and leave the generator in the
# same state.


def searchsorted_draws(law, gen, size):
    """``size`` draws of ``law`` with ``gen``, each uniform inverted on
    ``cum`` with ``side="right"`` like ``bisect_right``."""
    import numpy as np

    cum, entries = np.asarray(law.cum), np.asarray(law.entries)
    return entries[cum.searchsorted(gen.random(size), side="right")]


def attempt_block(model, y, gen, size):
    """``size`` Boltzmann attempts of ``model`` at y, sizes only, as the
    arrays (offsets, owner, lengths, sizes, totals) of an AttemptBlock."""
    import numpy as np

    fix, more, longer = model._attempt_laws(y)
    counts = np.zeros(2 * size, dtype=np.int64)
    counts[:size] = searchsorted_draws(fix, gen, size)
    if more is not None:
        counts[size:] = searchsorted_draws(more, gen, size)
    offsets = np.zeros(2 * size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    fixed = int(offsets[size])
    lengths = np.ones(int(offsets[-1]), dtype=np.int64)
    sizes = np.empty_like(lengths)
    sizes[:fixed] = searchsorted_draws(model._inner_law(1, y), gen, fixed)
    if more is not None:
        rest = lengths[fixed:] = searchsorted_draws(longer, gen, len(lengths) - fixed)
        rest_sizes = sizes[fixed:]
        for l in np.bincount(rest).nonzero()[0].tolist():
            at = rest == l
            rest_sizes[at] = searchsorted_draws(
                model._inner_law(l, y**l), gen, int(np.count_nonzero(at))
            )
    owner = np.repeat(np.arange(2 * size) % size, counts)
    totals = np.bincount(owner, weights=lengths * sizes, minlength=size)
    return offsets, owner, lengths, sizes, totals


# Names that only tests read: a law's probability of one entry, the exact
# JSON form of a series and the residue class of its index lattice.


def law_prob(law, entry):
    """The probability of ``entry`` under ``law``, read off ``cum``; 0.0
    for an entry the law does not list."""
    try:
        i = law.entries.index(entry)
    except ValueError:
        return 0.0
    return law.cum[i] - (law.cum[i - 1] if i else 0.0)


def series_to_json(s):
    """The truncation, lattice span and exact rational coefficients of a
    series, as JSON."""
    return json.dumps(
        {
            "truncation": s.truncation,
            "span": s.lattice_span(),
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in s.coeffs],
        }
    )


def series_from_json(text):
    data = json.loads(text)
    return TruncatedSeries([Fraction(c) for c in data["coeffs"]], data["truncation"])


def lattice_offset(s):
    """The residue of the first nonzero index modulo the lattice span, or 0
    for the zero series."""
    nz = s.nonzero_indices
    return nz[0] % s.lattice_span() if nz else 0


# -- the SET and SEQ draw handlers of polyagibbs.sampler as they were before
# an empty SET or SEQ became one shared object and a one-part SET skipped
# its sort.  A sampler whose SET and SEQ ids draw through them is the
# draw-for-draw oracle of the current handlers.


def oracle_set(s, i, power, n, rng):
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


def oracle_seq(s, i, power, n, rng):
    inner = s._args[i][0]
    draw, tables = s._draw[inner], s._tables
    parts = []
    while n > 0:
        law = tables.get((i, power, n)) or s._law(_seq_terms, i, power, n)
        d = law.entries[bisect_right(law.cum, rng.random())]
        parts.append(draw(s, inner, power, d, rng))
        n -= d
    return ("seq", tuple(parts))


def with_oracle_blocks(sampler):
    """``sampler``, its SET and SEQ ids now drawing through
    :func:`oracle_set` and :func:`oracle_seq`; every other handler is the
    sampler's own, and reaches its children through the same list."""
    handlers = {K_SET: oracle_set, K_SEQ: oracle_seq}
    sampler._draw = [handlers.get(k, d) for k, d in zip(sampler.program.kind, sampler._draw)]
    return sampler
