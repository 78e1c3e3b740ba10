"""Property tests over random small specs: the engine, the enumerator and
the exact sampler agree on every spec that counts and enumerates without a
SpecError (ill-founded recursion, empty objects inside SET or SEQ, a
derivative through a non-unit weight).  The sampler draws no DERIVE, so
specs with one are only counted and enumerated."""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from polyagibbs import (
    ATOM,
    EPSILON,
    Derive,
    Enumerator,
    ExactSampler,
    Product,
    Ref,
    SeqOf,
    SeriesEngine,
    SetOf,
    SpecError,
    Union,
    Weighted,
    canonicalize,
    multinomial_radius,
    object_size,
    parse_dsl,
    spec,
)
from polyagibbs.species import K_DERIVE, AtomMultiplicative

MAX_N = 6

weights = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3)])
trees = st.recursive(
    st.sampled_from([ATOM, EPSILON, Ref("R")]),
    lambda children: st.one_of(
        st.builds(Union, children, children),
        st.builds(Product, children, children),
        st.builds(SetOf, children),
        st.builds(SeqOf, children),
        st.builds(Derive, children),
        st.builds(lambda c, w: Weighted(c, AtomMultiplicative(w)), children, weights),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(root=trees, body=trees)
def test_engine_enumerator_and_sampler_agree(root, body):
    s = spec(root, {"R": body})
    engine, enum = SeriesEngine(s), Enumerator(s)
    try:
        counts = {(p, n): engine.coeff(s.root, p, n) for p in (1, 2) for n in range(MAX_N + 1)}
        orbits = {(p, n): enum.enumerate_root(n, p) for p in (1, 2) for n in range(MAX_N + 1)}
    except SpecError:
        reject()
    for key, count in counts.items():
        assert count == sum(w for _, w in orbits[key])
    if K_DERIVE in engine.program.kind:
        return
    sampler = ExactSampler(s, engine)
    rng = random.Random(0)
    for n in range(MAX_N + 1):
        support = {o for o, _ in orbits[(1, n)]}
        for o in support:
            c = canonicalize(o)
            assert canonicalize(c) == c
        for _ in range(5 if support else 0):
            draw = sampler.sample(n, rng)
            assert draw in support
            assert object_size(draw) == n


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(root=trees, body=trees)
def test_sampler_follows_enumerated_weights(root, body):
    # at the largest n <= MAX_N with two orbits or more, the TV between
    # 2000 draws and the weight-proportional law stays within the
    # multinomial bound, mean term included, at level 1 - 1e-3
    s = spec(root, {"R": body})
    enum = Enumerator(s)
    try:
        orbits = [enum.enumerate_root(n) for n in range(MAX_N + 1)]
        sampler = ExactSampler(s)
        sampler.engine.coeff(s.root, 1, MAX_N)
    except SpecError:
        reject()
    if K_DERIVE in sampler.program.kind:
        reject()
    table = next((o for o in reversed(orbits) if len(o) >= 2), None)
    if table is None:
        reject()
    n, draws = object_size(table[0][0]), 2000
    total = sum(w for _, w in table)
    rng = random.Random(0)
    counts = Counter(sampler.sample(n, rng) for _ in range(draws))
    tv = 0.5 * sum(abs(counts[o] / draws - float(w / total)) for o, w in table)
    assert set(counts) <= {o for o, _ in table}
    assert tv <= multinomial_radius(len(table), draws, 1e-3)


def test_engine_and_enumerator_agree_on_a_second_derivative():
    s = parse_dsl("T := ATOM * SET(T); D := DERIVE(DERIVE(T));")
    engine, enum = SeriesEngine(s), Enumerator(s)
    counts = [engine.coeff(s.root, 1, n) for n in range(MAX_N + 1)]
    assert counts == [2, 9, 34, 119, 401, 1316, 4247]
    assert counts == [sum(w for _, w in enum.enumerate_root(n)) for n in range(MAX_N + 1)]
