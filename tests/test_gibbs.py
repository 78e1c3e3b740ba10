"""Composite Boltzmann model: size laws, symmetry draws, remainder limit."""

import functools
import hashlib
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from oracles import (
    LoopEnumerator,
    attempt_block,
    cycle_type_law,
    index_value,
    law_prob,
    limit_law,
    remainder_orbits,
    z_seq,
    z_set,
)
from test_golden import MIXED_INNER
from polyagibbs import (
    AtomMultiplicative,
    EmptySize,
    Enumerator,
    ExactSampler,
    GibbsModel,
    LimitLaw,
    PreconditionError,
    RejectionBudgetExceeded,
    SeriesEngine,
    SizeGuardExceeded,
    SpecError,
    SpeciesSpec,
    TableWeight,
    ZeroMass,
    canonicalize,
    forests,
    multinomial_radius,
    object_size,
    object_to_string,
    ogf,
    parse_dsl,
    polya_trees,
    sample_set_symmetry,
    set_symmetry_law,
    sized_species,
)
from polyagibbs.gibbs import PLACEHOLDER, _size_law
from polyagibbs.sampler import DiscreteLaw

F = Fraction


FOREST_TEXT = "T := ATOM * SET(T); F := COMPOSE(SET, T);"
# SEQ models whose inner series G is not below 1 at its radius rho, where
# its partial sum to truncation 60 reads 60 (lists, rho = 1) and 54.5
# (MIXED_INNER blocks, rho = 0.618)
SEQ_WITHOUT_REMAINDER = [
    pytest.param("L := ATOM + ATOM * L; F := COMPOSE(SEQ, L);", id="lists"),
    pytest.param(MIXED_INNER + " F := COMPOSE(SEQ, B);", id="mixed-inner"),
]


@functools.cache
def _block_model(text):
    return GibbsModel.from_species(parse_dsl(text), truncation=200)


@pytest.fixture(scope="module")
def forest_model():
    return GibbsModel.from_species(forests(), truncation=200)


@pytest.fixture(scope="module")
def deep_forest_model():
    # tree counts pass the largest float near size 650
    return GibbsModel.from_species(forests(), truncation=1000)


class TestSizeLaw:
    def test_early_exit_keeps_every_drawable_size(self, forest_model):
        # the block-size law stops reading coefficients once the float sum
        # stops changing; on the sizes it can draw it must be bit-identical
        # to the law over the whole powered series
        for l in (1, 2, 5):
            for y in (0.2, forest_model.rho.rho):
                yl = y**l
                short = _size_law(forest_model._inner_terms(l), yl)
                series = forest_model.inner_ogf(l)
                sizes = list(series.nonzero_indices)
                full = DiscreteLaw(sizes, [float(series[n]) * yl**n for n in sizes])
                k = len(short.entries)
                assert short.total == full.total
                assert short.entries == full.entries[:k]
                assert short.cum == full.cum[:k]
                assert all(c == 1.0 for c in full.cum[k:])
                if l > 1:
                    assert k < len(sizes) // 2

    def test_samples_follow_law(self):
        t = ogf(polya_trees(), 60)
        law = _size_law(((n, t[n]) for n in t.nonzero_indices), 0.3)
        rng = random.Random(23)
        n = 20000
        hits = sum(1 for _ in range(n) if law.sample(rng) == 1)
        p = law_prob(law, 1)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * se


class TestSymmetryDraws:
    def test_set_fixpoint_count_is_poisson(self):
        rng = random.Random(5)
        n = 20000
        law = set_symmetry_law(lambda i: 0.3**i)
        mean = sum(
            dict(sample_set_symmetry(law, rng)).get(1, 0)
            for _ in range(n)
        ) / n
        assert abs(mean - 0.3) < 4 * math.sqrt(0.3 / n)

    def test_general_route_agrees_with_set_route(self, forest_model):
        # drawing the cycle type from the stored SET cycle index terms must
        # induce the same law as the Poisson construction, drawn one at a
        # time or as a block of model attempts
        n = 8000
        vals = lambda i: 0.35**i
        set_law = set_symmetry_law(vals)
        rng = random.Random(9)
        scalar = [sample_set_symmetry(set_law, rng) for _ in range(n)]
        assert _cycle_type_tv(scalar, cycle_type_law(z_set(24), vals), rng) < 0.035

        block = forest_model._attempt_block(0.3, np.random.default_rng(9), n)
        blocked = [
            tuple(sorted(Counter(l for l, _ in block.pairs(a)).items())) for a in range(n)
        ]
        general = cycle_type_law(z_set(24), lambda i: forest_model.inner_value(i, 0.3**i))
        assert _cycle_type_tv(blocked, general, random.Random(9)) < 0.035


def _cycle_type_tv(drawn, general_law, rng) -> float:
    """TV between the empirical laws of the cycle types ``drawn`` and of as
    many draws from ``general_law``."""
    a = Counter(drawn)
    b = Counter(general_law.sample(rng) for _ in drawn)
    return 0.5 * sum(abs(a[k] - b[k]) for k in a.keys() | b.keys()) / len(drawn)


class TestInnerValue:
    def test_small_values_keep_their_mass(self):
        # terms near 1e-20: a stopping rule with an absolute cut would read
        # three of them and lose 15% of the sum
        coeffs = [F(0)] + [F(1, 10**20 * n * n) for n in range(1, 201)]
        model = GibbsModel.from_series(coeffs, truncation=200)
        want = math.fsum(float(c) * 0.99**n for n, c in enumerate(coeffs))
        assert model.inner_value(1, 0.99) == pytest.approx(want, rel=1e-15)

    def test_vanishing_terms_give_zero(self, forest_model):
        for i in (1, 2, 5):
            assert forest_model.inner_value(i, 0.0) == 0.0
        # every term c y^n underflows to 0.0
        model = GibbsModel.from_series([F(0)] + [F(1, 10**300)] * 20, truncation=20)
        assert model.inner_value(1, 1e-100) == 0.0


class TestModelBasics:
    def test_requires_compose_root(self):
        with pytest.raises(PreconditionError):
            GibbsModel.from_species(polya_trees())

    def test_ref_root_is_resolved(self):
        s = parse_dsl("T := ATOM * SET(T); MODEL := COMPOSE(SET, T);")
        assert GibbsModel.from_species(s, truncation=40).outer == "SET"

    def test_radius_estimate(self, forest_model):
        assert forest_model.rho.rho == pytest.approx(0.3383219, abs=2e-4)
        assert forest_model.span == 1

    def test_composite_size_law_matches_coefficients(self, forest_model):
        y = 0.3
        rng = random.Random(41)
        n = 20000
        counts = {}
        for _ in range(n):
            s = object_size(forest_model.sample_composite(y, rng))
            counts[s] = counts.get(s, 0) + 1
        b = forest_model.composite_ogf
        direct = [float(b[k]) * y**k for k in range(forest_model.truncation + 1)]
        z = math.fsum(direct)
        for k in (0, 1, 2, 4):
            p = direct[k] / z
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(k, 0) / n - p) < 4.5 * se

    def test_composite_draws_are_pinned(self, forest_model):
        # sample_composite and the rejection sampler share one attempt
        # block and one materialiser; the digest fixes their RNG order: 128
        # bits to seed the block's numpy generator, then one inner object
        # per cycle, fixpoints first
        rng = random.Random(2718)
        lines = [
            object_to_string(forest_model.sample_composite(0.3, rng))
            for _ in range(200)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "13d6b791fe93e8d441f44e8a2d743fa0520586db2e78cfbcbb28dfc9f8f22a65"
        )

    def test_rejection_sampler_matches_enumeration(self, forest_model):
        en = Enumerator(forests())
        table = en.enumerate_root(6)
        total = sum(w for _, w in table)
        rng = random.Random(77)
        n = 4000
        counts = {o: 0 for o, _ in table}
        for _ in range(n):
            counts[forest_model.sample_S_n(6, rng, method="rejection")] += 1
        worst = 0.0
        for o, w in table:
            p = float(w / total)
            se = math.sqrt(p * (1 - p) / n)
            worst = max(worst, abs(counts[o] / n - p) / se)
        assert worst < 4.5


class TestDraws:
    def test_sequence_outer_rejection_matches_enumeration(self):
        spec = parse_dsl("T := ATOM * SET(T); F := COMPOSE(SEQ, T);")
        model = GibbsModel.from_species(spec, truncation=200)
        table = Enumerator(spec).enumerate_root(6)
        total = sum(w for _, w in table)
        n = 4000
        counts = {o: 0 for o, _ in table}
        for s in islice(model.draws(6, random.Random(78), "rejection"), n):
            counts[s] += 1
        worst = 0.0
        for o, w in table:
            p = float(w / total)
            se = math.sqrt(p * (1 - p) / n)
            worst = max(worst, abs(counts[o] / n - p) / se)
        assert worst < 4.5

    def test_block_hits_gather_the_pairs_of_each_attempt(self, forest_model):
        block = forest_model._attempt_block(0.33, np.random.default_rng(4), 2048)
        for n in (0, 1, 6, 12):
            want = [
                (a, list(block.pairs(a)))
                for a in range(2048)
                if block.totals[a] == n
            ]
            assert want and list(block.hits(n)) == want

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("size", [1, 128, 2048])
    @pytest.mark.parametrize("text, n", [
        (FOREST_TEXT, 8),
        (FOREST_TEXT, 12),
        ("L := ATOM + ATOM * L; F := COMPOSE(SEQ, L);", 8),
    ])
    def test_block_is_the_loop_block(self, text, n, size, seed):
        # the grouped draw, the bucket index and the owner built without a
        # modulus give the arrays of one searchsorted draw per cycle length
        model = _block_model(text)
        y = model.tuned_parameter(n)
        if n == 12 and text == FOREST_TEXT:
            assert y == model.rho.rho
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model._attempt_block(y, gen, size)
        want = attempt_block(model, y, ref, size)
        for name, a, b in zip(got._fields, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_uniform_draws_split_and_join(self):
        # the grouped draw takes as one array the uniforms that per-length
        # draws took one after another
        for a, b in [(0, 5), (7, 0), (3, 11), (1000, 24)]:
            one, two = np.random.default_rng(9), np.random.default_rng(9)
            split = np.concatenate([one.random(a), one.random(b)])
            assert np.array_equal(split, two.random(a + b))
            assert one.bit_generator.state == two.bit_generator.state

    def test_prepared_laws_have_their_arrays(self, forest_model):
        forest_model.prepare_draws(8, "rejection")
        y = forest_model.tuned_parameter(8)
        fix, more, longer = forest_model._attempt_laws(y)
        laws = [fix, more, longer, forest_model._inner_law(1, y)]
        laws += [forest_model._inner_law(l, y**l) for l in longer.entries]
        assert all(law._arrays is not None for law in laws)

    @pytest.mark.parametrize("method", ["exact_recursive", "rejection"])
    def test_exact_stream_repeats_sample_S_n(self, forest_model, method):
        # a sample_S_n draw is the first item of a draws stream, and an
        # exact stream is a run of sample_S_n draws
        a, b = random.Random(31), random.Random(31)
        first = [next(forest_model.draws(11, a, method)) for _ in range(40)]
        assert first == [forest_model.sample_S_n(11, b, method) for _ in range(40)]
        assert a.getstate() == b.getstate()
        if method == "exact_recursive":
            c = random.Random(31)
            assert list(islice(forest_model.draws(11, c, method), 40)) == first
            assert c.getstate() == a.getstate()

    def test_rejection_draws_have_the_size(self, forest_model):
        rng = random.Random(4)
        assert {object_size(s) for s in islice(forest_model.draws(9, rng, "rejection"), 300)} == {9}
        assert object_size(forest_model.sample_S_n(9, rng, method="rejection")) == 9

    def test_negative_size_is_empty(self, forest_model):
        rng = random.Random(1)
        with pytest.raises(EmptySize):
            forest_model.sample_S_n(-3, rng)
        for method in ("exact_recursive", "rejection"):
            with pytest.raises(EmptySize):
                forest_model.draws(-3, rng, method)

    def test_unknown_method(self, forest_model):
        with pytest.raises(PreconditionError):
            forest_model.draws(5, random.Random(1), "inversion")

    def test_budget_counts_attempts_since_last_acceptance(self, forest_model, monkeypatch):
        # at y*(30) an attempt has total 30 with probability about 3e-3, so
        # five attempts leave the budget spent
        monkeypatch.setattr("polyagibbs.gibbs._REJECTION_BUDGET", 5)
        with pytest.raises(RejectionBudgetExceeded):
            forest_model.sample_S_n(30, random.Random(3), method="rejection")
        with pytest.raises(RejectionBudgetExceeded):
            list(islice(forest_model.draws(30, random.Random(3), "rejection"), 10))


class TestInnerDraws:
    """Inner orbits are drawn by the model's sampler at the inner node: the
    orbit, and the rng state after it, of a sampler rooted at the inner
    node on the model's engine."""

    @pytest.mark.parametrize("text", [
        FOREST_TEXT,
        "T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);",
        "L := ATOM + ATOM * L; F := COMPOSE(SEQ, L);",
    ], ids=["forests", "weighted-forests", "lists"])
    def test_inner_draws_are_the_inner_root_draws(self, text):
        model = GibbsModel.from_species(parse_dsl(text), truncation=40)
        ref = ExactSampler(SpeciesSpec(model.inner_node, model.spec.defs), model.engine)
        for s, l in [(1, 1), (3, 1), (7, 1), (12, 1), (5, 2), (4, 3), (6, 4), (2, 9)]:
            for seed in range(3):
                a, b = random.Random(seed), random.Random(seed)
                got = model.sampler.sample(s, a, l, model.inner_id)
                assert got == ref.sample(s, b, power=l)
                assert a.getstate() == b.getstate()

    def test_rejection_remainders_reuse_the_exact_tables(self, monkeypatch):
        # the inner laws that exact draws built are the ones that rejection
        # remainders read: none of them is built again
        built = []
        law = ExactSampler._law

        def spy(self, terms, i, power, n):
            built.append((i, power, n))
            return law(self, terms, i, power, n)

        monkeypatch.setattr(ExactSampler, "_law", spy)
        model = GibbsModel.from_species(forests(), truncation=200)
        rng = random.Random(7)
        list(islice(model.draws(40, rng, "exact_recursive"), 200))
        exact = set(built)
        built.clear()
        list(islice(model.remainders(12, rng, "rejection"), 2000))
        assert any(i == model.inner_id for i, _, _ in exact)
        assert built and not exact & set(built)


class TestTuning:
    @pytest.mark.parametrize("n", [8, 12, 40])
    def test_mean_size_root_accepts_at_least_the_old_parameter(self, forest_model, n):
        # c_n y^n / F(y) on the truncated composite series: its log has
        # derivative (n - E_y[N]) / y, so it peaks where E_y[N] = n, or at
        # rho when the mean at rho is below n
        comp, rho = forest_model.composite_ogf, forest_model.rho.rho

        def acceptance(y):
            terms = [float(c) * y**k for k, c in enumerate(comp.coeffs)]
            return terms[n] / math.fsum(terms)

        y = forest_model.tuned_parameter(n)
        assert y <= rho
        assert acceptance(y) > acceptance(rho * (1 - 1 / n))

    def test_parameter_is_built_once_per_n(self, forest_model, monkeypatch):
        y = forest_model.tuned_parameter(9)
        monkeypatch.setattr(
            GibbsModel, "_mean_size_root", lambda self, n: pytest.fail("rebuilt")
        )
        assert forest_model.tuned_parameter(9) == y

    def test_supercritical_sequence_draws(self):
        # L(y) = y / (1 - y) reaches 1 at y = 1/2, half the inner radius:
        # at rho (1 - 1/n) the SEQ law has no mass, at the mean-size root
        # the composite series converges
        model = GibbsModel.from_species(
            parse_dsl("L := ATOM + ATOM * L; F := COMPOSE(SEQ, L);")
        )
        draws = list(islice(model.draws(10, random.Random(5), "rejection"), 200))
        assert len(draws) == 200
        assert {object_size(s) for s in draws} == {10}
        assert model.tuned_parameter(10) < 0.5


class TestRemainders:
    def test_extraction_accounting(self, forest_model):
        rng = random.Random(13)
        for _ in range(50):
            s = forest_model.sample_S_n(9, rng)
            frag = forest_model.extract_remainder(s, rng)
            assert frag.remainder_size + frag.largest_size == 9
            assert frag.component_count == len(s[1])
            assert frag.largest_size == max(object_size(c) for c in s[1])

    def test_extraction_of_a_component_5000_deep(self, forest_model):
        # a component deeper than the interpreter's recursion limit
        tree = ("prod", ("atom",), ("set", ()))
        chain = tree
        for _ in range(4999):
            chain = ("prod", ("atom",), ("set", (chain,)))
        s = ("set", (tree, chain))
        frag = forest_model.extract_remainder(s, random.Random(1))
        assert frag.remainder == ("set", (tree,))
        assert (frag.largest_size, frag.remainder_size, frag.component_count) == (5000, 1, 2)
        seq = forest_model.extract_remainder(("seq", (chain, tree)), random.Random(1))
        assert seq.remainder == ("seq", (("star",), tree))

    @pytest.mark.parametrize("outer", ["SET", "SEQ"])
    def test_rejection_component_counts_are_draw_lengths(self, outer):
        model = GibbsModel.from_species(
            parse_dsl(f"T := ATOM * SET(T); F := COMPOSE({outer}, T);"), truncation=200
        )
        counts = list(islice(model.component_counts(9, random.Random(21), "rejection"), 300))
        draws = islice(model.draws(9, random.Random(21), "rejection"), 300)
        assert counts == [len(s[1]) for s in draws]

    @pytest.mark.parametrize("outer", ["SET", "SEQ"])
    def test_rejection_remainders_follow_the_exact_law(self, outer):
        # the kept-only remainder against the size-6 remainder law built by
        # enumeration: every composite orbit weighted by its weight, each of
        # its maximal components deleted with equal probability
        spec = parse_dsl(f"T := ATOM * SET(T); F := COMPOSE({outer}, T);")
        model = GibbsModel.from_species(spec, truncation=200)
        exact = Counter()
        table = Enumerator(spec).enumerate_root(6)
        total = sum(w for _, w in table)
        for s, w in table:
            sizes = [object_size(c) for c in s[1]]
            maximal = [i for i, k in enumerate(sizes) if k == max(sizes)]
            for i in maximal:
                rest = s[1][:i] + s[1][i + 1 :]
                key = ("set", tuple(sorted(rest))) if outer == "SET" else (
                    ("seq", s[1][:i] + (("star",),) + s[1][i + 1 :])
                )
                exact[key] += w / total / len(maximal)
        n = 20000
        frags = list(islice(model.remainders(6, random.Random(22), "rejection"), n))
        assert all(f.remainder_size + f.largest_size == 6 for f in frags)
        empirical = Counter(f.remainder for f in frags)
        assert set(empirical) <= set(exact)
        tv = 0.5 * math.fsum(abs(empirical[k] / n - float(p)) for k, p in exact.items())
        assert tv < multinomial_radius(len(exact), n, 1e-3)

    def test_limit_law_normalizes(self, forest_model):
        law = forest_model.limit_remainder_distribution(10)
        assert law.total == pytest.approx(1.0, abs=1e-9)
        assert 0 < law.tail < 0.4
        assert law.sensitivity < 0.01
        # smallest remainder for a SET outer is the empty multiset, with
        # probability 1 / D(rho)
        from polyagibbs.series import evaluate

        D = evaluate(forest_model.remainder_ogf, law.rho).value
        assert law.probs[("set", ())] == pytest.approx(1.0 / D, rel=1e-12)

    def test_limit_law_is_built_once_per_cap(self, forest_model):
        law = forest_model.limit_remainder_distribution(6)
        assert forest_model.limit_remainder_distribution(6) is law
        again = forest_model._limit_law(6)
        assert again.probs == law.probs and again.tail == law.tail

    def test_count_law_is_built_once_per_cap(self, forest_model):
        law = forest_model.limit_component_count_law(7)
        assert forest_model.limit_component_count_law(7) is law
        assert forest_model._count_law(7) == law

    @pytest.mark.parametrize("text", SEQ_WITHOUT_REMAINDER)
    def test_a_seq_model_without_a_finite_remainder_says_so(self, text):
        # both laws raise the one check, the limit law before it squares
        # the composite series or lists an orbit
        model = GibbsModel.from_species(parse_dsl(text), truncation=60)
        message = "sequence model has no finite limit remainder"
        with pytest.raises(ZeroMass, match=message):
            model.limit_remainder_distribution(6)
        assert "composite_ogf" not in model.__dict__
        assert model.engine.enumerator._memo == {}
        with pytest.raises(ZeroMass, match=message) as info:
            model.limit_component_count_law(6)
        # the message names the partial sum G(rho) it measured, and rho
        rho = model.rho.rho
        q = model.inner_value(1, rho)
        assert q >= 1
        assert str(info.value).endswith(f": G(rho) = {q:.6g} >= 1 at rho = {rho:.6g}")

    def test_limit_law_tail_shrinks_with_cap(self, forest_model):
        t1 = forest_model.limit_remainder_distribution(4).tail
        t2 = forest_model.limit_remainder_distribution(9).tail
        assert t2 < t1

    def test_component_count_law_brackets_orbit_pushforward(self, forest_model):
        # exact count probabilities must sit between the capped orbit
        # push-forward and that push-forward plus its unenumerated tail,
        # up to the small disagreement of the two tail models
        law = forest_model.limit_remainder_distribution(10)
        push = {}
        for key, p in law.probs.items():
            c = len(key[1])
            push[c] = push.get(c, 0.0) + p
        probs, tail = forest_model.limit_component_count_law(15)
        assert tail < 1e-6
        assert sum(probs.values()) + tail == pytest.approx(1.0, abs=1e-9)
        for c in range(6):
            lo = push.get(c, 0.0)
            assert lo - 0.005 <= probs[c] <= lo + law.tail + 0.005

    def test_hat_sampler_output_sizes(self, forest_model):
        law = forest_model.limit_remainder_distribution(11)
        rng = random.Random(3)
        placeholders = 0
        for _ in range(300):
            o = forest_model.sample_hat_S_n(12, rng, law=law)
            if o == PLACEHOLDER:
                placeholders += 1
            else:
                assert object_size(o) == 12
        assert placeholders / 300 < law.tail + 0.1

    def test_hat_law_approaches_exact_law(self, forest_model):
        # exact total variation between the conditioned law and the coupled
        # approximation, computable because both laws are explicit; it must
        # shrink as n grows
        def exact_tv(n):
            en = Enumerator(forests())
            table = en.enumerate_root(n)
            total = sum(w for _, w in table)
            law = forest_model.limit_remainder_distribution(n - 1)
            hat = {}
            exact = dict(table)
            for key, p in law.probs.items():
                rest = key[1]
                size = object_size(key)
                # enumerate the giants, splitting p across them by weight
                giants = forest_model.engine.enumerator.enumerate(
                    forest_model.inner_node, n - size
                )
                gt = sum(w for _, w in giants)
                for g, w in giants:
                    o = ("set", tuple(sorted(rest + (g,))))
                    hat[o] = hat.get(o, 0.0) + p * float(w / gt)
            tv = 0.5 * sum(
                abs(float(w / total) - hat.get(o, 0.0)) for o, w in table
            )
            tv += 0.5 * sum(
                p for o, p in hat.items() if o not in exact
            )
            tv += 0.5 * law.tail
            return tv

        tvs = [exact_tv(n) for n in (6, 9, 12)]
        assert tvs[2] < tvs[1] < tvs[0]


def _bits(xs):
    return [x.hex() for x in xs]


class TestLimitLawBuild:
    """The limit law from one pass over the orbits, whose weights are `int`
    unless a factor is a `Fraction`, is bit for bit the law of the loops in
    ``tests/oracles.py``."""

    @pytest.mark.parametrize(
        "text, cap",
        [
            ("T := ATOM * SET(T); F := COMPOSE(SET, T);", 12),
            ("T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);", 10),
            ("T := ATOM * SET(T); W := WEIGHT(T, 1/3); F := COMPOSE(SET, W);", 10),
        ],
        ids=["forests", "weighted-atom", "weighted-tree"],
    )
    def test_law_is_the_loop_law(self, text, cap):
        model = GibbsModel.from_species(parse_dsl(text), truncation=200)
        law = model.limit_remainder_distribution(cap)
        want = limit_law(model, LoopEnumerator(model.engine.program, guard=cap), cap)
        assert list(law.probs) == list(want.probs)
        assert _bits(law.probs.values()) == _bits(want.probs.values())
        assert _bits([law.tail, law.sensitivity, law.total]) == _bits(
            [want.tail, want.sensitivity, want.total]
        )
        assert type(law.sensitivity) is float

    def test_seq_remainder_orbits_are_the_loop_orbits(self):
        # the SEQ forest's limit law does not get through the tail sum, so
        # the orbits that would build it are compared on their own
        model = GibbsModel.from_species(
            parse_dsl("T := ATOM * SET(T); F := COMPOSE(SEQ, T);"), truncation=60
        )
        model.engine.enumerator.guard = 9
        got = list(model._remainder_orbits(9))
        want = list(remainder_orbits(
            "SEQ", LoopEnumerator(model.engine.program, guard=9), 9
        ))
        assert [(k, w, type(w), n) for k, w, n in got] == [
            (k, w, type(w), n) for k, w, n in want
        ]
        assert len(got) > 1000

    def test_a_larger_cap_keeps_the_memo(self):
        # cap 17 is past the enumerator's default guard of 14; the guard
        # rises in place, so the orbits listed for cap 12 are reused
        coeffs = [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 101)]
        model = GibbsModel.from_series(coeffs, truncation=100)
        small = model.limit_remainder_distribution(12)
        enum = model.engine.enumerator
        memo = dict(enum._memo)
        large = model.limit_remainder_distribution(17)
        assert model.engine.enumerator is enum and enum.guard == 17
        assert all(enum._memo[key] is orbits for key, orbits in memo.items())
        assert len(large.probs) > len(small.probs)
        assert all(large.probs[k] == p for k, p in small.probs.items())


    def test_a_derive_may_read_one_size_past_the_cap(self):
        # the inner's DERIVE lists ATOM * ATOM one size up; the guard bounds
        # the remainder sizes the law asks for, not that read
        from polyagibbs.species import ATOM, Compose, Derive, Product, Union, Weighted, spec

        coeffs = [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 101)]
        marked = Weighted(Derive(Product(ATOM, ATOM)), AtomMultiplicative(F(1, 8)))
        composite = spec(Compose("SET", Union(sized_species(coeffs).root, marked)))
        model = GibbsModel(composite, truncation=100)
        small = model.limit_remainder_distribution(15)
        large = model.limit_remainder_distribution(16)
        assert max(object_size(k) for k in large.probs) == 16
        assert all(large.probs[k] == p for k, p in small.probs.items())

    def test_a_limit_law_keeps_the_table_bound(self):
        # a limit law may list orbits past size 14, but TABLE weights are
        # still counted only to size 14, by the same enumeration guard,
        # inside the table's support (here to size 15)
        from polyagibbs.species import ATOM, Compose, SeqOf, Union, Weighted, spec

        coeffs = [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 15)]
        pair = canonicalize(("seq", (("atom",), ("atom",))))
        long = ("seq", (("atom",),) * 15)
        table = Weighted(SeqOf(ATOM), TableWeight.from_dict({pair: F(1, 8), long: F(1, 8)}))
        inner = Union(sized_species(coeffs).root, table)
        model = GibbsModel(spec(Compose("SET", inner)), truncation=14)
        law = model.limit_remainder_distribution(17)
        assert max(object_size(k) for k in law.probs) == 17
        assert model.engine.coeff(table, 1, 2) == F(1, 8)
        with pytest.raises(SizeGuardExceeded, match="^size 15 exceeds enumeration guard 14$"):
            model.engine.coeff(table, 1, 15)

    def test_a_table_is_counted_to_any_truncation_past_its_support(self):
        # a TABLE weighs nothing past its largest key, so its counts need no
        # enumeration there, and a model holding one builds at truncation 40
        from polyagibbs.species import ATOM, Compose, Product, Ref, SeqOf, SetOf, Union, Weighted, spec

        pair = canonicalize(("seq", (("atom",), ("atom",))))
        table = Weighted(SeqOf(ATOM), TableWeight.from_dict({pair: F(5, 2)}))
        s = spec(Compose("SET", Union(Ref("T"), table)), {"T": Product(ATOM, SetOf(Ref("T")))})
        model = GibbsModel(s, truncation=40)
        enum = Enumerator(s)
        for power in (1, 2, 3):
            counts = model.engine.ogf(40, node=table, power=power).coeffs
            want = [sum(w for _, w in enum.enumerate(table, n, power)) for n in range(15)]
            assert list(counts[:15]) == want and want[2] == F(5, 2) ** power
            assert not any(counts[15:])
        want = [sum(w for _, w in enum.enumerate_root(n)) for n in range(11)]
        assert list(model.composite_ogf.coeffs[:11]) == want
        law = model.limit_remainder_distribution(6)
        assert len(law.probs) == 107 and abs(law.total - 1) < 1e-12


class TestCycleStatistics:
    def test_trivial_point_is_exact(self, forest_model):
        rep = forest_model.cycle_statistics_pgf_check(
            1.0, 1.0, samples=200, rng=random.Random(1)
        )
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)
        assert rep.exact == pytest.approx(1.0, abs=1e-9)

    def test_interior_point_within_monte_carlo_error(self, forest_model):
        rep = forest_model.cycle_statistics_pgf_check(
            0.7, 0.9, samples=20000, rng=random.Random(99)
        )
        assert rep.sigmas < 4.0
        assert rep.truncation_residual < 1e-6


class TestOuterIndexValue:
    def test_forest_pgf_denominator(self, forest_model):
        # Z_SET(G(rho), G_2(rho^2), ...) truncated to degree 40, the value
        # the term-by-term sum over z_set(40) gives
        rho = forest_model.rho.rho
        value, residual = forest_model.outer_index_value(
            lambda i: forest_model.inner_value(i, rho**i)
        )
        assert value == pytest.approx(2.7772187558270236, rel=1e-12)
        assert 0 < residual < 1e-8

    def test_sequence_outer_matches_cycle_index(self):
        coeffs = [F(0)] + [F(1, 2 * k**3 * 2**k) for k in range(1, 101)]
        model = GibbsModel.from_series(coeffs, outer="SEQ", truncation=100)
        rho = model.rho.rho
        args = lambda i: model.inner_value(i, rho**i)
        value, residual = model.outer_index_value(args)
        want, want_residual = index_value(z_seq(40), args, 40)
        assert value == pytest.approx(want, rel=1e-12)
        assert residual == pytest.approx(want_residual, rel=1e-9)


class TestLargeTruncation:
    def test_count_law_matches_shallow_truncation(
        self, deep_forest_model, forest_model
    ):
        probs, tail = deep_forest_model.limit_component_count_law(12)
        assert math.fsum(probs.values()) + tail == pytest.approx(1.0, abs=1e-9)
        shallow, _ = forest_model.limit_component_count_law(12)
        assert max(abs(probs[k] - shallow[k]) for k in probs) < 5e-3

    def test_count_law_tail_sums_converge(self, deep_forest_model):
        # the tail sum's quadrature once warned "probably divergent" at
        # truncation 80 and "roundoff error" at truncation 1000
        shallow = GibbsModel.from_species(forests(), truncation=80)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in (shallow, deep_forest_model):
                probs, tail = model.limit_component_count_law(12)
                assert math.fsum(probs.values()) + tail == pytest.approx(1.0, abs=1e-9)

    def test_rejection_draw(self, deep_forest_model):
        s = deep_forest_model.sample_S_n(8, random.Random(1), method="rejection")
        assert object_size(s) == 8

    def test_composite_draw_at_radius(self, deep_forest_model):
        rho = deep_forest_model.rho.rho
        deep_forest_model.sample_composite(rho, random.Random(2))


class TestThreadSafety:
    def test_shared_cold_model_draws_match_sequential_runs(self):
        # one model, cold caches, four threads: engine fills, the compiled
        # program and the sampler tables are shared, and each thread's
        # draws must equal a sequential run of the same seed
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        text = "B := ATOM + ATOM * SEQ(B); T := ATOM * SET(T) + B; F := COMPOSE(SET, T);"
        sizes = (8, 16, 32, 48)
        start = threading.Barrier(4, timeout=60)

        def draws(model, seed, wait=False):
            if wait:
                start.wait()
            rng = random.Random(seed)
            return [model.sample_S_n(n, rng) for n in sizes for _ in range(20)]

        shared = GibbsModel.from_species(parse_dsl(text), truncation=40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda s: draws(shared, s, wait=True), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for seed in range(4):
            fresh = GibbsModel.from_species(parse_dsl(text), truncation=40)
            assert got[seed] == draws(fresh, seed)


class TestLifetime:
    def test_model_is_freed_without_the_cycle_collector(self):
        # no reference cycle through the engine, the samplers or the
        # enumerator: a model a caller drops frees its streams and tables
        # at once, which keeps peak memory flat over many models
        import gc
        import weakref

        text = "B := ATOM + ATOM * SEQ(B); T := ATOM * SET(T) + B; F := COMPOSE(SET, T);"
        enabled = gc.isenabled()
        gc.disable()
        try:
            model = GibbsModel.from_species(parse_dsl(text), truncation=30)
            model.sample_S_n(10, random.Random(1))
            model.sample_S_n(6, random.Random(1), method="rejection")
            model.limit_remainder_distribution(5)
            parts = (model, model.engine, model.sampler, model.engine.enumerator)
            refs = [weakref.ref(p) for p in parts]
            del model, parts
            assert all(r() is None for r in refs)
        finally:
            if enabled:
                gc.enable()

    def test_derive_leaves_no_cycle(self):
        # a DERIVE adds its derivative to the program when first counted;
        # a derivative that is refused leaves nothing behind
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            text = "T := ATOM * SET(T); D := ATOM * DERIVE(T); F := COMPOSE(SET, D);"
            model = GibbsModel.from_species(parse_dsl(text), truncation=30)
            model.inner_ogf(2)
            model.composite_ogf
            bad = SeriesEngine(parse_dsl("D := ATOM * DERIVE(WEIGHT(ATOM, 2));"))
            for _ in range(2):
                try:
                    bad.coeff(bad.program.root, 1, 1)
                except SpecError:
                    pass
                else:
                    raise AssertionError("an underivable DERIVE was counted")
            refs = [weakref.ref(p) for p in (model, model.engine, bad, bad.program)]
            del model, bad
            assert all(r() is None for r in refs)
        finally:
            if enabled:
                gc.enable()
