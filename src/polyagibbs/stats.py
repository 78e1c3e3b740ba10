"""Empirical-law machinery: total-variation estimates between sampled
fragment laws and exact limit laws, with closed-form confidence radii.

Sampling is organized in fixed-size chunks, each driven by its own RNG
seeded from (seed, size, chunk index).  Chunks are merged in index order,
so the aggregate counts — and every downstream report — are identical for
any worker count.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, Tuple

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
    """
    q_probs, q_tail = _exact_parts(q)
    if isinstance(p, EmpiricalLaw):
        if p.total == 0:
            raise PreconditionError("empty empirical law")
        keys = set(p.counts) | set(q_probs)
        acc = math.fsum(
            [abs(p.counts.get(k, 0) / p.total - q_probs.get(k, 0.0)) for k in keys]
            + [abs(p.tail_bucket / p.total - q_tail)]
        )
        return 0.5 * acc, deviation_radius(p.total, delta)
    p_probs, p_tail = _exact_parts(p)
    keys = set(p_probs) | set(q_probs)
    acc = math.fsum(
        [abs(p_probs.get(k, 0.0) - q_probs.get(k, 0.0)) for k in keys]
        + [abs(p_tail - q_tail)]
    )
    return 0.5 * acc, 0.0


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


def _run_chunks(
    seed: int,
    label,
    samples: int,
    chunk: int,
    workers: int,
    worker_fn: Callable[[random.Random, int], object],
) -> list:
    """Deterministic chunked sampling: chunk i draws up to ``chunk`` of the
    ``samples`` with its own RNG seeded from (seed, label, i), and the
    per-chunk results come back in index order regardless of the worker
    count."""
    plan = list(
        enumerate(min(chunk, samples - done) for done in range(0, samples, chunk))
    )
    if workers <= 1:
        return [worker_fn(_chunk_rng(seed, label, i), k) for i, k in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(worker_fn, _chunk_rng(seed, label, i), k) for i, k in plan
        ]
        return [fut.result() for fut in futures]


def _merged(parts: List[EmpiricalLaw]) -> EmpiricalLaw:
    law = EmpiricalLaw()
    for part in parts:
        law.merge(part)
    return law


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

    rows = []
    for n in sizes:
        def worker(rng: random.Random, k: int, n=n) -> EmpiricalLaw:
            law = EmpiricalLaw()
            for s in islice(model.draws(n, rng, method), k):
                frag = model.extract_remainder(s, rng)
                law.add(frag.remainder, in_tail=frag.remainder_size > cap)
            return law

        emp = _merged(
            _run_chunks(seed, ("remainder", n), samples, CHUNK, workers, worker)
        )
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


def component_count_experiment(
    model: GibbsModel,
    n: int,
    samples: int,
    seed: int,
    cap: int = 12,
    workers: int = 1,
    method: str = "exact_recursive",
) -> ComponentCountReport:
    """Empirical law of the component count of a size-n composite against
    the exact law of 1 + (components of the limit remainder)."""
    counts, exact_tail = model.limit_component_count_law(cap)
    exact = {1 + c: p for c, p in counts.items() if p > 0}
    total = math.fsum(exact.values()) + exact_tail

    def worker(rng: random.Random, k: int) -> EmpiricalLaw:
        law = EmpiricalLaw()
        for s in islice(model.draws(n, rng, method), k):
            c = len(s[1])
            # counts larger than anything the capped remainder law can
            # produce land in the tail bucket
            law.add(c, in_tail=c > cap + 1)
        return law

    emp = _merged(
        _run_chunks(seed, ("components", n), samples, CHUNK, workers, worker)
    )
    tv, radius = tv_distance(emp, (exact, exact_tail))
    return ComponentCountReport(
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
