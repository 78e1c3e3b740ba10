"""Composite Boltzmann model: size laws, symmetry draws, remainder limit."""

import hashlib
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from oracles import cycle_type_law, index_value, z_seq, z_set
from polyagibbs import (
    EmptySize,
    Enumerator,
    GibbsModel,
    LimitLaw,
    PreconditionError,
    RejectionBudgetExceeded,
    SeriesEngine,
    SpecError,
    forests,
    object_size,
    object_to_string,
    ogf,
    parse_dsl,
    polya_trees,
    sample_set_symmetry,
    set_symmetry_law,
)
from polyagibbs.gibbs import PLACEHOLDER, _size_law
from polyagibbs.sampler import DiscreteLaw

F = Fraction


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
        p = law.prob(1)
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

    def test_exact_stream_repeats_sample_S_n(self, forest_model):
        a, b = random.Random(31), random.Random(31)
        stream = list(islice(forest_model.draws(11, a, "exact_recursive"), 40))
        assert stream == [forest_model.sample_S_n(11, b) for _ in range(40)]
        assert a.getstate() == b.getstate()

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
        # at y*(30) an attempt has total 30 with probability about 1e-3, so
        # five attempts leave the budget spent
        monkeypatch.setattr("polyagibbs.gibbs._REJECTION_BUDGET", 5)
        with pytest.raises(RejectionBudgetExceeded):
            forest_model.sample_S_n(30, random.Random(3), method="rejection")
        with pytest.raises(RejectionBudgetExceeded):
            list(islice(forest_model.draws(30, random.Random(3), "rejection"), 10))


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
                giants = forest_model.enumerator().enumerate(
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
            parts = (model, model.engine, model.exact_sampler(),
                     model.inner_sampler(), model.enumerator())
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
