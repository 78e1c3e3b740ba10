"""Empirical-law machinery: total-variation estimates between sampled
fragment laws and exact limit laws, with closed-form confidence radii.

Sampling is organized in fixed-size chunks, each driven by its own RNG
seeded from (seed, label, chunk index), where the label names the job and
its size: ``("remainder", n)``, ``("components", n)``, or ``"sample:n"``
for a ``sample`` transcript.  Chunks are merged in index order, so the
aggregate counts — and every downstream report — are identical for any
worker count.  With more than one worker the chunks run in forked
child processes, which inherit the parent's built laws and tables and
send back only their chunk results; otherwise they run in-process.
"""

from __future__ import annotations

import gc
import math
import os
import random
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Dict, List, Tuple

from .errors import KeyMismatch, PreconditionError
from .gibbs import GibbsModel, LimitLaw

CHUNK = 2000

TAIL = LimitLaw.TAIL


@dataclass
class EmpiricalLaw:
    """Counts over canonical keys plus a tail bucket for observations
    beyond the enumeration cap."""

    counts: Dict[object, int] = field(default_factory=dict)
    total: int = 0
    tail_bucket: int = 0

    def add(self, key, in_tail: bool = False):
        if in_tail:
            self.tail_bucket += 1
        else:
            self.counts[key] = self.counts.get(key, 0) + 1
        self.total += 1

    def merge(self, other: "EmpiricalLaw"):
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self.tail_bucket += other.tail_bucket
        self.total += other.total


def deviation_radius(samples: int, delta: float = 0.01) -> float:
    """McDiarmid-type bound: the empirical TV deviates from its mean by
    more than sqrt(ln(2/delta)/(2N)) with probability at most delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def multinomial_radius(keys: int, samples: int, delta: float = 0.01) -> float:
    """Upper confidence bound for the TV between the empirical measure of N
    iid draws and their true K-point law, holding with probability at least
    1 - delta: (1/2)(sqrt(K/N) + sqrt(2 ln(1/delta)/N)).  The first term
    bounds the mean of the TV; the second, equal to sqrt(ln(1/delta)/(2N)),
    is McDiarmid's bound on its deviation above that mean."""
    return 0.5 * (
        math.sqrt(keys / samples) + math.sqrt(2.0 * math.log(1.0 / delta) / samples)
    )


def tv_distance(p, q, delta: float = 0.01) -> Tuple[float, float]:
    """Total variation plus a confidence radius at level 1 - delta.

    ``p`` is an EmpiricalLaw or an exact dict-with-tail; ``q`` is an exact
    law: a LimitLaw, or a (dict, tail) pair, or a plain dict summing to 1.
    For an empirical ``p`` the radius is McDiarmid's deviation radius only
    (:func:`deviation_radius`): it bounds how far the empirical TV strays
    from its mean, and leaves out the (1/2) sqrt(K/N) bound on that mean
    which :func:`multinomial_radius` adds.  For an exact ``p`` it is 0.
    """
    q_probs, q_tail = _exact_parts(q)
    if isinstance(p, EmpiricalLaw):
        if p.total == 0:
            raise PreconditionError("empty empirical law")
        p_probs = {k: c / p.total for k, c in p.counts.items()}
        p_tail, radius = p.tail_bucket / p.total, deviation_radius(p.total, delta)
    else:
        (p_probs, p_tail), radius = _exact_parts(p), 0.0
    # sum |p_k - q_k| over the union of keys without visiting the exact
    # law's keys in Python: take every |q_k|, and for each key of p that q
    # also has, swap |q_k| for |p_k - q_k|.  The exact sum of the terms is
    # the same, and fsum rounds it correctly, so the result is too.
    terms = [abs(p_tail - q_tail)]
    for k, pk in p_probs.items():
        qk = q_probs.get(k)
        if qk is None:
            terms.append(abs(pk))
        else:
            terms += (-abs(qk), abs(pk - qk))
    acc = math.fsum(chain(map(abs, q_probs.values()), terms))
    return 0.5 * acc, radius


def _exact_parts(q):
    if isinstance(q, LimitLaw):
        return q.probs, q.tail
    if isinstance(q, tuple) and len(q) == 2 and isinstance(q[0], dict):
        return q[0], q[1]
    if isinstance(q, dict):
        total = math.fsum(q.values())
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise KeyMismatch(
                f"exact law without a tail must sum to 1 (got {total})"
            )
        return q, 0.0
    raise KeyMismatch(f"unsupported law type {type(q).__name__}")


def _chunk_rng(seed: int, label, index: int) -> random.Random:
    return random.Random(f"{seed}:{label}:{index}")


# (seed, jobs) of the chunks a process pool is running, set before the
# pool forks so that children inherit it and no closure is pickled
_JOB = None


def _run_one(task):
    j, i, k = task
    seed, jobs = _JOB
    label, _, worker_fn = jobs[j]
    return worker_fn(_chunk_rng(seed, label, i), k)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_jobs(seed: int, jobs: list, chunk: int, workers: int) -> List[list]:
    """Deterministic chunked sampling for several jobs at once.  Job j is a
    (label, samples, worker_fn) triple: its chunk i draws up to ``chunk`` of
    the job's ``samples`` with its own RNG seeded from (seed, label, i), and
    each job's chunk results come back in index order regardless of the
    worker count.

    The chunks of all jobs run in one pool of min(workers, chunks, usable
    CPUs) forked processes, so the fork is paid once, and in-process when
    that is at most one, when the platform cannot fork, or when other
    threads are alive (a fork could copy a lock one of them holds).  Every
    child has exited when this returns."""
    global _JOB
    plan = [
        (j, i, min(chunk, samples - done))
        for j, (_, samples, _) in enumerate(jobs)
        for i, done in enumerate(range(0, samples, chunk))
    ]
    results = None
    size = min(workers, len(plan), _usable_cpus())
    if size > 1 and threading.active_count() == 1:
        # imported here, so that runs that never fork do not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            _JOB = (seed, jobs)
            # objects frozen before the fork are left alone by the
            # children's collector, so it does not touch (and copy) the
            # parent's pages
            gc.freeze()
            try:
                with ProcessPoolExecutor(
                    size, mp_context=multiprocessing.get_context("fork")
                ) as pool:
                    results = list(pool.map(_run_one, plan))
            finally:
                gc.unfreeze()
                _JOB = None
    if results is None:
        results = [
            jobs[j][2](_chunk_rng(seed, jobs[j][0], i), k) for j, i, k in plan
        ]
    per_job = [[] for _ in jobs]
    for (j, _, _), result in zip(plan, results):
        per_job[j].append(result)
    return per_job


def _size_laws(model, kind, sizes, samples, seed, workers, method, tally):
    """One empirical law per size: build every size's draw tables, then run
    the chunks of all sizes in one plan, so a pool is forked once.  Chunk i
    of size n returns ``tally(n, rng, k)`` for its k draws, with the RNG of
    label (kind, n), and the chunks are merged in index order."""
    for n in sizes:
        model.prepare_draws(n, method)
    jobs = [((kind, n), samples, partial(tally, n)) for n in sizes]
    laws = []
    for chunks in _run_jobs(seed, jobs, CHUNK, workers):
        law = EmpiricalLaw()
        for part in chunks:
            law.merge(part)
        laws.append(law)
    return laws


@dataclass
class TvRow:
    n: int
    tv: float
    radius: float
    samples: int
    empirical_tail: float
    exact_tail: float


@dataclass
class TrendReport:
    rows: List[TvRow]
    cap: int
    decreasing: bool
    seed: int

    def to_dict(self):
        return {
            "cap": self.cap,
            "decreasing": self.decreasing,
            "seed": self.seed,
            "rows": [
                {
                    "n": r.n,
                    "tv": r.tv,
                    "radius": r.radius,
                    "samples": r.samples,
                    "empirical_tail": r.empirical_tail,
                    "exact_tail": r.exact_tail,
                }
                for r in self.rows
            ],
        }


def remainder_convergence_experiment(
    model: GibbsModel,
    sizes: List[int],
    samples: int,
    cap: int,
    seed: int,
    workers: int = 1,
    method: str = "exact_recursive",
) -> TrendReport:
    """For each size n: sample size-n composites, delete a maximal
    component, and compare the empirical remainder law (canonical forms up
    to ``cap`` plus a tail bucket) against the exact limit law.  The
    reported TV sequence is the finite-size stand-in for the limit
    statement (TV -> 0)."""
    d = model.span
    for n in sizes:
        if n % d != 0:
            raise PreconditionError(
                f"size {n} is off the lattice (span {d})"
            )
    limit = model.limit_remainder_distribution(cap)

    def tally(n: int, rng: random.Random, k: int) -> EmpiricalLaw:
        law = EmpiricalLaw()
        for frag in islice(model.remainders(n, rng, method), k):
            law.add(frag.remainder, in_tail=frag.remainder_size > cap)
        return law

    laws = _size_laws(model, "remainder", sizes, samples, seed, workers, method, tally)
    rows = []
    for n, emp in zip(sizes, laws):
        tv, radius = tv_distance(emp, limit)
        rows.append(
            TvRow(
                n=n,
                tv=tv,
                radius=radius,
                samples=emp.total,
                empirical_tail=emp.tail_bucket / emp.total,
                exact_tail=limit.tail,
            )
        )
    decreasing = all(a.tv > b.tv for a, b in zip(rows, rows[1:]))
    return TrendReport(rows=rows, cap=cap, decreasing=decreasing, seed=seed)


@dataclass
class ComponentCountReport:
    n: int
    tv: float
    radius: float
    samples: int
    exact_law_total: float
    empirical: EmpiricalLaw
    exact: Dict[int, float]
    exact_tail: float
    seed: int


def component_count_reports(
    model: GibbsModel,
    sizes: List[int],
    samples: int,
    seed: int,
    cap: int = 12,
    workers: int = 1,
    method: str = "exact_recursive",
) -> List[ComponentCountReport]:
    """For each size n: the empirical law of the component count of a
    size-n composite against the exact law of 1 + (components of the limit
    remainder).  The chunks of all sizes run in one plan."""
    counts, exact_tail = model.limit_component_count_law(cap)
    exact = {1 + c: p for c, p in counts.items() if p > 0}
    total = math.fsum(exact.values()) + exact_tail

    def tally(n: int, rng: random.Random, k: int) -> EmpiricalLaw:
        law = EmpiricalLaw()
        for c in islice(model.component_counts(n, rng, method), k):
            # counts larger than anything the capped remainder law can
            # produce land in the tail bucket
            law.add(c, in_tail=c > cap + 1)
        return law

    laws = _size_laws(model, "components", sizes, samples, seed, workers, method, tally)
    reports = []
    for n, emp in zip(sizes, laws):
        tv, radius = tv_distance(emp, (exact, exact_tail))
        reports.append(
            ComponentCountReport(
                n=n,
                tv=tv,
                radius=radius,
                samples=emp.total,
                exact_law_total=total,
                empirical=emp,
                exact=exact,
                exact_tail=exact_tail,
                seed=seed,
            )
        )
    return reports


def component_count_experiment(
    model: GibbsModel,
    n: int,
    samples: int,
    seed: int,
    cap: int = 12,
    workers: int = 1,
    method: str = "exact_recursive",
) -> ComponentCountReport:
    """The component-count report of one size n; see
    :func:`component_count_reports`."""
    (report,) = component_count_reports(model, [n], samples, seed, cap, workers, method)
    return report
