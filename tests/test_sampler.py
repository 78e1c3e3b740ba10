"""Exact-size sampling: law agreement with enumeration, determinism."""

import random
from fractions import Fraction

import pytest

from polyagibbs import (
    ATOM,
    DiscreteLaw,
    Enumerator,
    ExactSampler,
    forests,
    parse_dsl,
    polya_trees,
)
from polyagibbs.errors import EmptySize, ZeroMass

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

    def test_zero_mass_size(self):
        s = parse_dsl("E := ATOM * ATOM;")
        with pytest.raises(EmptySize):
            ExactSampler(s).sample(3, random.Random(1))


class TestDiscreteLaw:
    def test_fraction_weights_give_correctly_rounded_cumulatives(self):
        law = DiscreteLaw("abc", [F(1, 3), F(1, 3), F(1, 3)])
        assert law.total == 1
        assert law.cum == [float(F(1, 3)), float(F(2, 3)), 1.0]
        assert law.prob("b") == pytest.approx(1 / 3, abs=1e-15)
        assert law.prob("z") == 0.0

    def test_zero_weight_entry_is_never_drawn(self):
        law = DiscreteLaw([1, 2, 3], [0.5, 0.0, 0.5])
        rng = random.Random(2)
        assert {law.sample(rng) for _ in range(2000)} == {1, 3}

    def test_no_mass_raises(self):
        with pytest.raises(ZeroMass):
            DiscreteLaw([], [])
        with pytest.raises(ZeroMass):
            DiscreteLaw([1], [F(0)])
