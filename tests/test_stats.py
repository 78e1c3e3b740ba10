"""Empirical laws, confidence radii, and the two sampling experiments."""

import math
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from polyagibbs import (
    EmpiricalLaw,
    GibbsModel,
    KeyMismatch,
    PreconditionError,
    component_count_experiment,
    deviation_radius,
    forests,
    multinomial_radius,
    remainder_convergence_experiment,
    tv_distance,
)
from polyagibbs.stats import _run_jobs, _usable_cpus, component_count_reports

F = Fraction


@pytest.fixture(scope="module")
def forest_model():
    return GibbsModel.from_species(forests(), truncation=200)


class TestTvDistance:
    def test_identical_laws(self):
        assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == (0.0, 0.0)

    def test_disjoint_laws(self):
        tv, _ = tv_distance({"a": 1.0}, {"b": 1.0})
        assert tv == pytest.approx(1.0)

    def test_empirical_against_dict(self):
        law = EmpiricalLaw()
        for _ in range(30):
            law.add("a")
        for _ in range(70):
            law.add("b")
        tv, radius = tv_distance(law, {"a": 0.3, "b": 0.7})
        assert tv == pytest.approx(0.0, abs=1e-12)
        assert radius == pytest.approx(deviation_radius(100))

    def test_tail_buckets_compare(self):
        law = EmpiricalLaw()
        for _ in range(90):
            law.add("a")
        for _ in range(10):
            law.add(None, in_tail=True)
        tv, _ = tv_distance(law, ({"a": 0.9}, 0.1))
        assert tv == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_dict_rejected(self):
        with pytest.raises(KeyMismatch):
            tv_distance({"a": 0.5}, {"a": 0.5, "b": 0.2})

    def test_bit_identical_to_summing_over_the_key_union(self):
        # the reference sums |p_k - q_k| over the union of keys, the exact
        # law's keys first; the law has shared keys, empirical-only keys
        # and a nonzero tail on both sides
        rng = random.Random(5)
        weights = [rng.random() ** 3 for _ in range(300)]
        q_tail = 0.0123
        q = {k: (1 - q_tail) * w / math.fsum(weights) for k, w in enumerate(weights)}
        law = EmpiricalLaw()
        for _ in range(4000):
            if rng.random() < 0.01:
                law.add(None, in_tail=True)
            else:
                law.add(rng.randrange(100, 400))
        p = {k: c / law.total for k, c in law.counts.items()}
        assert set(p) - set(q) and set(p) & set(q) and set(q) - set(p)
        union = (
            [abs(p.get(k, 0.0) - qk) for k, qk in q.items()]
            + [abs(pk) for k, pk in p.items() if k not in q]
            + [abs(law.tail_bucket / law.total - q_tail)]
        )
        tv, _ = tv_distance(law, (q, q_tail))
        assert tv == 0.5 * math.fsum(union)

    def test_radii_are_sane(self):
        assert deviation_radius(100_000) < 0.006
        assert multinomial_radius(286, 100_000, delta=0.01) < 0.032
        assert multinomial_radius(286, 1_000) > multinomial_radius(286, 100_000)


class TestEmpiricalLaw:
    def test_merge_preserves_totals(self):
        a, b = EmpiricalLaw(), EmpiricalLaw()
        rng = random.Random(2)
        for _ in range(50):
            a.add(rng.randrange(4))
        for _ in range(30):
            b.add(rng.randrange(4), in_tail=rng.random() < 0.2)
        merged = EmpiricalLaw()
        merged.merge(a)
        merged.merge(b)
        assert merged.total == 80
        assert merged.tail_bucket == b.tail_bucket
        assert sum(merged.counts.values()) + merged.tail_bucket == 80

    def test_self_consistency_below_radius(self):
        # sampling from a known four-point law, the empirical TV must fall
        # inside the 99% radius (seeded, so deterministic)
        probs = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
        rng = random.Random(8)
        law = EmpiricalLaw()
        n = 20000
        keys, cum = list(probs), []
        acc = 0.0
        for k in keys:
            acc += probs[k]
            cum.append(acc)
        import bisect

        for _ in range(n):
            law.add(keys[bisect.bisect_right(cum, rng.random())])
        tv, radius = tv_distance(law, probs)
        assert tv < radius


class TestExperiments:
    def test_remainder_trend(self, forest_model):
        rep = remainder_convergence_experiment(
            forest_model, sizes=[10, 20], samples=4000, cap=8, seed=42
        )
        assert [r.n for r in rep.rows] == [10, 20]
        assert rep.rows[1].tv < rep.rows[0].tv
        assert rep.decreasing
        for r in rep.rows:
            assert r.samples == 4000
            assert 0 <= r.tv <= 1

    def test_worker_count_does_not_change_result(self, forest_model):
        kw = dict(sizes=[12], samples=2000, cap=6, seed=7)
        a = remainder_convergence_experiment(forest_model, workers=1, **kw)
        b = remainder_convergence_experiment(forest_model, workers=4, **kw)
        assert a.to_dict() == b.to_dict()

    def test_lattice_guard(self):
        # inner supported on even sizes only: odd composite sizes are off
        # the lattice and must be rejected up front
        model = GibbsModel.from_series(
            [F(1, 2**k) if k % 2 == 0 and k > 0 else 0 for k in range(121)],
            truncation=120,
        )
        with pytest.raises(PreconditionError):
            remainder_convergence_experiment(model, sizes=[7], samples=10, cap=4, seed=1)

    def test_component_counts(self, forest_model):
        rep = component_count_experiment(
            forest_model, n=20, samples=4000, seed=11, cap=10
        )
        assert rep.exact_law_total == pytest.approx(1.0, abs=1e-6)
        assert rep.exact_tail < 1e-4
        assert rep.tv < rep.radius + 0.05
        assert rep.samples == 4000
        # one giant component is always present
        assert 0 not in rep.empirical.counts

    def test_component_trend(self, forest_model):
        a = component_count_experiment(
            forest_model, n=10, samples=3000, seed=5, cap=8
        )
        b = component_count_experiment(
            forest_model, n=20, samples=3000, seed=5, cap=8
        )
        assert b.tv < a.tv


def _chunk_probe(rng, k):
    return k, rng.random(), os.getpid()


class TestChunkRunner:
    @pytest.mark.skipif(_usable_cpus() < 2, reason="needs two usable CPUs")
    def test_chunks_run_in_child_processes_in_index_order(self):
        # a lambda cannot be pickled: the children inherit it through the fork
        (parts,) = _run_jobs(5, [("probe", 7, lambda rng, k: _chunk_probe(rng, k))], 2, 2)
        (alone,) = _run_jobs(5, [("probe", 7, _chunk_probe)], 2, 1)
        assert [p[:2] for p in parts] == [p[:2] for p in alone]
        assert [p[0] for p in parts] == [2, 2, 2, 1]
        assert os.getpid() not in {p[2] for p in parts}
        assert {p[2] for p in alone} == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_single_chunk_runs_in_process_for_any_worker_count(self):
        # the pool is capped by the chunk count: one chunk never forks
        (parts,) = _run_jobs(5, [("probe", 5, _chunk_probe)], 10, 10**6)
        assert [p[0] for p in parts] == [5]
        assert parts[0][2] == os.getpid()

    @pytest.mark.skipif(_usable_cpus() < 2, reason="needs two usable CPUs")
    def test_remainder_experiment_forks_one_pool_for_all_sizes(
        self, forest_model, monkeypatch
    ):
        import concurrent.futures

        pools = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        kw = dict(sizes=[8, 10, 12], samples=2500, cap=6, seed=9)
        alone = remainder_convergence_experiment(forest_model, workers=1, **kw)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        pooled = remainder_convergence_experiment(forest_model, workers=2, **kw)
        assert len(pools) == 1
        assert pooled.to_dict() == alone.to_dict()
        # each size keeps its own chunk seeds: the rows are those of
        # one-size runs
        for n, row in zip(kw["sizes"], alone.rows):
            one = remainder_convergence_experiment(
                forest_model, **dict(kw, sizes=[n]), workers=1
            )
            assert one.rows == [row]

    @pytest.mark.skipif(_usable_cpus() < 2, reason="needs two usable CPUs")
    def test_component_reports_fork_one_pool_for_all_sizes(
        self, forest_model, monkeypatch
    ):
        import concurrent.futures

        pools = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        kw = dict(samples=2500, cap=6, seed=9)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        pooled = component_count_reports(forest_model, [8, 10, 12], workers=2, **kw)
        assert len(pools) == 1
        # each size keeps its own chunk seeds: the reports are those of
        # one-size runs in-process
        for rep in pooled:
            one = component_count_experiment(forest_model, rep.n, workers=1, **kw)
            assert (rep.tv, rep.radius, rep.empirical) == (one.tv, one.radius, one.empirical)

    def test_jobs_keep_their_chunk_results_apart(self):
        jobs = [("probe", 5, _chunk_probe), ("other", 3, _chunk_probe)]
        got = _run_jobs(5, jobs, 2, 1)
        assert got == [_run_jobs(5, [job], 2, 1)[0] for job in jobs]
        assert [[p[0] for p in part] for part in got] == [[2, 2, 1], [2, 1]]
