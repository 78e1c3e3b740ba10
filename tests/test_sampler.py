"""Exact-size sampling: law agreement with enumeration, determinism."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import law_prob, with_oracle_blocks
from test_golden import MIXED, MIXED_INNER
from polyagibbs import (
    ATOM,
    DiscreteLaw,
    Enumerator,
    ExactSampler,
    SeqOf,
    SetOf,
    Weighted,
    forests,
    object_size,
    parse_dsl,
    parse_spec,
    polya_trees,
    sized_species,
    spec,
)
from polyagibbs.errors import EmptySize, SpecError, ZeroMass
from polyagibbs.sampler import _INDEXED, _product_terms, _set_terms, _table_terms
from polyagibbs.species import ATOM_OBJ, EPS_OBJ, TableWeight, by_kind, fail

F = Fraction


def empirical_z_scores(species, n, samples, seed):
    """Largest |z| over all orbits of size n between observed and expected
    frequencies under the weight-proportional law."""
    en = Enumerator(species)
    table = en.enumerate_root(n)
    total = sum(w for _, w in table)
    sampler = ExactSampler(species)
    rng = random.Random(seed)
    counts = {o: 0 for o, _ in table}
    for _ in range(samples):
        counts[sampler.sample(n, rng)] += 1
    worst = 0.0
    for o, w in table:
        p = float(w / total)
        se = (p * (1 - p) / samples) ** 0.5
        if se:
            worst = max(worst, abs(counts[o] / samples - p) / se)
    return worst


class TestLawAgreement:
    def test_forests_size_5(self):
        assert empirical_z_scores(forests(), 5, 20000, seed=7) < 4.0

    def test_trees_size_6(self):
        assert empirical_z_scores(polya_trees(), 6, 20000, seed=11) < 4.0

    def test_weighted_union(self):
        s = parse_dsl("M := WEIGHT(ATOM, 1/3) * SEQ(ATOM) + ATOM * SET(ATOM);")
        assert empirical_z_scores(s, 4, 20000, seed=3) < 4.0

    def test_seq_blocks(self):
        s = parse_dsl("P := COMPOSE(SEQ, ATOM + ATOM * ATOM);")
        assert empirical_z_scores(s, 5, 20000, seed=19) < 4.0


class TestBehaviour:
    def test_samples_have_requested_size(self):
        from polyagibbs import object_size

        sampler = ExactSampler(forests())
        rng = random.Random(0)
        for n in (1, 3, 7, 12):
            for _ in range(20):
                assert object_size(sampler.sample(n, rng)) == n

    def test_deterministic_for_fixed_seed(self):
        a = [ExactSampler(forests()).sample(8, random.Random(5)) for _ in range(2)]
        assert a[0] == a[1]
        run = lambda: [
            ExactSampler(forests()).sample(8, rng)
            for rng in [random.Random(5)]
            for _ in range(1)
        ]
        assert run() == run()

    def test_negative_size_is_empty(self):
        with pytest.raises(EmptySize):
            ExactSampler(forests()).sample(-3, random.Random(1))

    def test_zero_mass_size(self):
        s = parse_dsl("E := ATOM * ATOM;")
        with pytest.raises(EmptySize):
            ExactSampler(s).sample(3, random.Random(1))

    @pytest.mark.parametrize("text, head", [
        ("T := ATOM * SET(T); F := COMPOSE(SET, T);", "set"),
        ("L := ATOM * SEQ(L); F := COMPOSE(SEQ, L);", "seq"),
    ])
    def test_an_empty_set_or_seq_takes_no_uniform(self, text, head):
        sampler = ExactSampler(parse_dsl(text))
        rng = random.Random(9)
        state = rng.getstate()
        first, second = sampler.sample(0, rng), sampler.sample(0, rng)
        assert first == (head, ()) and first is second
        assert rng.getstate() == state


class _FirstUniform(random.Random):
    """A seeded stream whose first uniform is ``u``."""

    def __init__(self, u, seed):
        super().__init__(seed)
        self.first = u

    def random(self):
        u, self.first = self.first, None
        return super().random() if u is None else u


class TestUnionPastTheFloatRange:
    """Counts beyond the float range, where ``float(a + b)`` overflows: the
    UNION side is the exact test u * (a + b) >= a."""

    SPEC = "T := ATOM * SET(T) + ATOM * SEQ(T);"

    @pytest.mark.parametrize("n", [500, 700])
    def test_draws_have_the_requested_size(self, n):
        sampler = ExactSampler(parse_spec(self.SPEC))
        left, right = sampler.program.args[sampler.root]
        with pytest.raises(OverflowError):
            float(sampler.engine.at(left, 1, n) + sampler.engine.at(right, 1, n))
        assert object_size(sampler.sample(n, random.Random(n))) == n

    def test_the_side_is_the_exact_test(self):
        n = 500
        sampler = ExactSampler(parse_spec(self.SPEC))
        left, right = sampler.program.args[sampler.root]
        a, b = sampler.engine.at(left, 1, n), sampler.engine.at(right, 1, n)
        u = float(Fraction(a, a + b))
        sides = []
        for v in (math.nextafter(u, 0), u, math.nextafter(u, 1)):
            o = sampler.sample(n, _FirstUniform(v, 3))
            assert o[1] == int(Fraction(v) * (a + b) >= a)
            sides.append(o[1])
        assert sides[0] == 0 and sides[2] == 1


class TestDiscreteLaw:
    def test_fraction_weights_give_correctly_rounded_cumulatives(self):
        law = DiscreteLaw("abc", [F(1, 3), F(1, 3), F(1, 3)])
        assert law.total == 1
        assert law.cum == [float(F(1, 3)), float(F(2, 3)), 1.0]
        assert law_prob(law, "b") == pytest.approx(1 / 3, abs=1e-15)
        assert law_prob(law, "z") == 0.0

    def test_zero_weight_entry_is_never_drawn(self):
        law = DiscreteLaw([1, 2, 3], [0.5, 0.0, 0.5])
        rng = random.Random(2)
        assert {law.sample(rng) for _ in range(2000)} == {1, 3}

    def test_no_mass_raises(self):
        with pytest.raises(ZeroMass):
            DiscreteLaw([], [])
        with pytest.raises(ZeroMass):
            DiscreteLaw([1], [F(0)])

    def test_array_draws_invert_like_bisect(self):
        # the vectorised draw inverts each uniform on cum by the rule of
        # sample, including uniforms that land exactly on a cumulative
        import numpy as np
        from bisect import bisect_right

        law = DiscreteLaw([3, 5, 8], [1, 2, 1])

        class Fixed:
            def random(self, size):
                return np.array([0.0, 0.25, 0.5, 0.75, 0.999][:size])

        want = [law.entries[bisect_right(law.cum, u)] for u in Fixed().random(5)]
        assert law.sample_array(Fixed(), 5).tolist() == want == [3, 5, 5, 8, 8]


    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 50),
                st.fractions(min_value=0, max_value=50, max_denominator=1000),
                st.floats(0, 50, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=300,
        ).filter(lambda ws: sum(ws) > 0),
        st.lists(st.floats(0, 1, exclude_max=True), max_size=20),
    )
    def test_indexed_draws_invert_like_bisect(self, weights, extra):
        # the bucket index and its searchsorted fallback give the entry of
        # bisect_right for every uniform: each cumulative, each bucket edge
        # b / k, their float neighbours, 0 and the largest uniform below 1
        import math
        from bisect import bisect_right

        import numpy as np

        law = DiscreteLaw(list(range(len(weights))), weights)
        k = len(law.arrays()[2])
        assert k >= max(16, 16 * len(weights)) and k & (k - 1) == 0
        points = set(law.cum) | {b / k for b in range(k)}
        us = {0.0, 1.0 - 2.0**-53, *extra}
        for x in points:
            us |= {x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)}
        us = sorted(u for u in us if 0.0 <= u < 1.0)
        # repeated up to the length that reads the index
        us *= -(-_INDEXED // len(us))

        class Fixed:
            def random(self, size):
                assert size == len(us)
                return np.array(us)

        got = law.sample_array(Fixed(), len(us)).tolist()
        assert got == [law.entries[bisect_right(law.cum, u)] for u in us]
        # a short array, which skips the index, inverts alike
        assert law.invert(np.array(us[:8])).tolist() == got[:8]


# -- the recursive handlers as they were before they read their tables
# inline: each node draws through DiscreteLaw.sample and reads the program's
# args, and SET and SEQ share one handler.  They pin the objects and the
# order of every uniform the sampler takes.


def _oracle_seq_terms(eng, i, inner, power, n):
    for s in range(1, n + 1):
        g = eng.at(inner, power, s)
        if g:
            yield (s, 1), g * eng.at(i, power, n - s)


def _oracle_blocks(terms, head, s, i, power, n, rng):
    inner = s.program.args[i][0]
    draw, tables = s._draw[inner], s._tables
    parts = []
    while n > 0:
        law = tables.get((i, power, n)) or s._law(terms, i, power, n)
        d, j = law.sample(rng)
        orbit = draw(s, inner, power * j, d, rng)
        parts.extend([orbit] * j)
        n -= d * j
    return (head, tuple(sorted(parts) if head == "set" else parts))


def _oracle_union(s, i, power, n, rng):
    left, right = s.program.args[i]
    a = s.engine.at(left, power, n)
    b = s.engine.at(right, power, n)
    if not a and not b:
        raise EmptySize(f"no objects of size {n}")
    u = rng.random()
    side = int(u * float(a + b) >= float(a)) if a and b else int(not a)
    branch = right if side else left
    return ("tag", side, s._draw[branch](s, branch, power, n, rng))


def _oracle_product(s, i, power, n, rng):
    left, right = s.program.args[i]
    k = (s._tables.get((i, power, n)) or s._law(_product_terms, i, power, n)).sample(rng)
    return (
        "prod",
        s._draw[left](s, left, power, k, rng),
        s._draw[right](s, right, power, n - k, rng),
    )


def _oracle_raise(message):
    raise EmptySize(message)


class OracleSampler(ExactSampler):
    _kinds = by_kind(
        ATOM=lambda s, i, p, n, rng: ATOM_OBJ if n == 1 else _oracle_raise("atom"),
        EPSILON=lambda s, i, p, n, rng: EPS_OBJ if n == 0 else _oracle_raise("eps"),
        ZERO=lambda s, i, p, n, rng: _oracle_raise("zero"),
        SIZED=lambda s, i, p, n, rng: (
            ("blob", n) if s.program.sized(i, n) else _oracle_raise("sized")
        ),
        UNION=_oracle_union,
        PRODUCT=_oracle_product,
        SET=partial(_oracle_blocks, _set_terms, "set"),
        SEQ=partial(_oracle_blocks, _oracle_seq_terms, "seq"),
        WEIGHT=lambda s, i, p, n, rng: s._draw[s.program.args[i][0]](
            s, s.program.args[i][0], p, n, rng
        ),
        TABLE=lambda s, i, p, n, rng: (
            s._tables.get((i, p, n)) or s._law(_table_terms, i, p, n)
        ).sample(rng),
        DERIVE=None,
        FAIL=fail,
    )



def _table_spec():
    # every SEQ(ATOM + ATOM * ATOM) orbit of size at most 4 gets its own
    # weight, so the TABLE law has several entries; bigger orbits weigh 0
    runs = parse_dsl("R := SEQ(ATOM + ATOM * ATOM);")
    en = Enumerator(runs)
    weights = {}
    for n in range(1, 5):
        for k, (orbit, _) in enumerate(en.enumerate_root(n)):
            weights[orbit] = Fraction(k + 1, n)
    return spec(SetOf(Weighted(runs.root, TableWeight.from_dict(weights))), dict(runs.defs))


SPECS = {
    "forests": (forests, range(1, 25)),
    "mixed-set": (lambda: parse_dsl(MIXED_INNER + " F := COMPOSE(SET, B);"), range(1, 16)),
    "mixed-seq": (lambda: parse_dsl(MIXED_INNER + " F := COMPOSE(SEQ, B);"), range(1, 16)),
    "sized-set": (lambda: spec(SetOf(sized_species([0, 2, 3, 0, 1]).root)), range(1, 14)),
    "sized-seq": (lambda: spec(SeqOf(sized_species([0, 1, 0, 5]).root)), range(1, 14)),
    "table": (_table_spec, range(1, 9)),
}


class TestHandlersMatchTheRecursiveOracle:
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_same_objects_and_rng_state(self, name, power):
        make, sizes = SPECS[name]
        new, old = ExactSampler(make()), OracleSampler(make())
        rng_new, rng_old = random.Random(f"{name}:{power}"), random.Random(f"{name}:{power}")
        drawn = 0
        for n in sizes:
            if not new.engine.at(new.root, power, n):
                continue
            for _ in range(20):
                got = new.sample(n, rng_new, power=power)
                assert got == old.sample(n, rng_old, power=power)
                drawn += 1
        assert drawn >= 100
        assert rng_new.getstate() == rng_old.getstate()

    def test_empty_sizes_raise_like_the_oracle(self):
        for sampler in (ExactSampler(parse_dsl("E := ATOM * ATOM;")),
                        OracleSampler(parse_dsl("E := ATOM * ATOM;"))):
            with pytest.raises(EmptySize):
                sampler.sample(3, random.Random(1))


# (spec, least number of objects drawn).  MIXED has a DERIVE node, which
# the sampler does not draw: most of its draws end with one SpecError on
# both sides once they reach it
BLOCK_SPECS = {
    "forests": ("T := ATOM * SET(T); F := COMPOSE(SET, T);", 100),
    "mixed": (MIXED, 1),
    "mixed-inner-set": (MIXED_INNER + " F := COMPOSE(SET, B);", 100),
    "mixed-inner-seq": (MIXED_INNER + " F := COMPOSE(SEQ, B);", 100),
    "seq-trees": ("L := ATOM * SEQ(L);", 100),
}


def _outcome(sampler, n, rng, power):
    try:
        return sampler.sample(n, rng, power=power)
    except SpecError as e:
        return str(e)


class TestBlockHandlersMatchTheirOracle:
    """Draw for draw, the SET and SEQ handlers give the objects of the
    handlers that built every part list and sorted every SET
    (``oracles.with_oracle_blocks``), and take the same uniforms."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(BLOCK_SPECS))
    def test_same_objects_and_rng_state(self, name, power, seed):
        text, least = BLOCK_SPECS[name]
        new = ExactSampler(parse_dsl(text))
        old = with_oracle_blocks(ExactSampler(parse_dsl(text)))
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        drawn = 0
        for n in range(61):
            if not new.engine.at(new.root, power, n):
                continue
            for _ in range(3):
                got = _outcome(new, n, rng_new, power)
                assert got == _outcome(old, n, rng_old, power)
                assert rng_new.getstate() == rng_old.getstate()
                drawn += not isinstance(got, str)
        assert drawn >= least
