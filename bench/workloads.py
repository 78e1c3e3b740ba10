"""The three workloads.  Each replays, through the public library API, the
calls one ``polyagibbs`` subcommand makes on the forest spec.

A workload has
* ``setup()``: from spec text to a model whose caches hold what the timed
  phase reads first (timed as ``setup_s``);
* ``round(state, index)``: one round of the same operations, returning the
  number of operations (timed; ``ops_per_s`` is operations per second);
* ``workers``: the worker threads a round runs on;
* ``check_round(state, index)``: light checks right after a round, outside
  the timer;
* ``final_check(state)``: checks that need the larger oracles, run after
  peak memory has been read.

Library functions are looked up on the ``polyagibbs`` package at call time,
so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import checks
import oracles

SPEC = "T := ATOM * SET(T); F := COMPOSE(SET, T);"


class SeriesForest:
    """``polyagibbs asymptotics`` + ``diagnose`` at truncation 400.  Each
    round starts from a fresh model, because the ratio experiment fills
    the powered inner streams of the model it is given."""

    name = "series-forest"
    fresh_setup_per_round = True
    truncation = 400
    workers = 1
    ops_per_round = 1

    def __init__(self, pg, seed: int):
        self.pg = pg
        self.results = []

    def setup(self):
        pg = self.pg
        model = pg.GibbsModel.from_species(pg.parse_spec(SPEC), truncation=self.truncation)
        model.inner_ogf(1)
        model.composite_ogf
        model.rho
        return model

    def round(self, model, index: int) -> int:
        pg = self.pg
        rep = pg.coefficient_ratio_experiment(model)
        # `polyagibbs diagnose` calls engine.ogf(spec, N), which returns the
        # model's composite series; the module-level engine cache behind
        # ogf() would serve every round after the first without work.
        diag = pg.diagnose_subexponential(model.composite_ogf)
        self.results.append((rep.constant, rep.constant_paths, rep.rho, diag.rho.rho, diag.d))
        return 1

    def check_round(self, model, index: int) -> list:
        return [] if self.results[-1] == self.results[0] else ["series results differ between rounds"]

    def final_check(self, model) -> list:
        n = self.truncation
        a = oracles.tree_counts(n + 1)
        fails = []
        if a[1:33] != list(oracles.A000081_PUBLISHED):
            fails.append("tree-count recurrence disagrees with the published A000081 terms")
        inner = model.inner_ogf(1)
        comp = model.composite_ogf
        fails += checks.check_tree_counts([inner[k] for k in range(n + 1)], a)
        fails += checks.check_composite_shift([comp[k] for k in range(n + 1)],
                                              [inner[k] for k in range(n + 1)])
        constant, paths, rho, diag_rho, d = self.results[0]
        fails += checks.check_rel("two-path constants", paths["cycle_index"],
                                  paths["species_engine"], 1e-9)
        fails += checks.check_rel("rho", rho, oracles.OTTER_RHO, RHO_TOL)
        fails += checks.check_rel("diagnose rho", diag_rho, oracles.OTTER_RHO, RHO_TOL)
        fails += checks.check_rel("ratio constant", constant, oracles.OTTER_ALPHA, CONST_TOL)
        if d != 1:
            fails.append(f"diagnose lattice span {d} != 1")
        return fails

    def layer_values(self, model) -> dict:
        constant, _, rho, _, _ = self.results[0]
        return {
            "series.rho_err": abs(rho * oracles.OTTER_ALPHA - 1.0),
            "ratio_const_err": abs(constant * oracles.OTTER_RHO - 1.0),
        }


# Truncation error of the fitted radius and of the tail-modelled value
# F(rho) = 1/rho at N = 400, with about 2x headroom over today's values
# (rho: 3.3e-6; constant: 5.0e-3).
RHO_TOL = 1e-5
CONST_TOL = 1e-2


class SampleForest:
    """``polyagibbs sample --method exact_recursive --workers 1`` at sizes
    20, 40, 80, 160 under truncation 200: each draw is followed by
    ``extract_remainder`` and the JSON transcript line."""

    name = "sample-forest"
    fresh_setup_per_round = False
    truncation = 200
    workers = 1
    sizes = (20, 40, 80, 160)
    per_size = 25
    warmup = 300
    ops_per_round = per_size * len(sizes)

    def __init__(self, pg, seed: int):
        self.pg = pg
        self.seed = seed
        self.components = {n: Counter() for n in self.sizes}
        self.largest = {n: Counter() for n in self.sizes}
        self._round = []

    def _draw(self, model, n, rng):
        s = model.sample_S_n(n, rng, method="exact_recursive")
        frag = model.extract_remainder(s, rng)
        line = json.dumps(
            {
                "n": n,
                "canonical": self.pg.object_to_string(s),
                "largest": frag.largest_size,
                "remainder_size": frag.remainder_size,
                "components": frag.component_count,
            },
            sort_keys=True,
        )
        return s, frag, line

    def setup(self):
        pg = self.pg
        model = pg.GibbsModel.from_species(pg.parse_spec(SPEC), truncation=self.truncation)
        # The same 300 warm-up draws per size in every run, so every run
        # times the same set-up work; the seed drives the timed draws.
        for n in self.sizes:
            rng = random.Random(f"warmup:{n}")
            for _ in range(self.warmup):
                self._draw(model, n, rng)
        return model

    def round(self, model, index: int) -> int:
        out = self._round = []
        for n in self.sizes:
            rng = random.Random(f"{self.seed}:sample:{n}:{index}")
            for _ in range(self.per_size):
                out.append((n,) + self._draw(model, n, rng))
        return len(out)

    def check_round(self, model, index: int) -> list:
        fails = []
        for n, s, frag, line in self._round:
            rec = json.loads(line)
            fails += checks.check_draw(n, s, rec["largest"], rec["remainder_size"],
                                       rec["canonical"])
            trees = [oracles.object_atoms(t) for t in s[1]]
            self.components[n][len(trees)] += 1
            self.largest[n][max(trees)] += 1
            if rec["components"] != len(trees) or rec["largest"] != max(trees):
                fails.append(f"transcript fields disagree with the draw at n={n}")
        self._round = []
        return fails

    def final_check(self, model) -> list:
        a = oracles.tree_counts(max(self.sizes) + 1)
        counts = oracles.component_count_laws(a, self.sizes)
        largest = oracles.largest_tree_laws(a, self.sizes)
        fails = []
        for n in self.sizes:
            fails += checks.check_law(f"component count n={n}", self.components[n], counts[n])
            fails += checks.check_law(f"largest tree n={n}", self.largest[n], largest[n])
        return fails

    def layer_values(self, model) -> dict:
        return {}


class TvRejection:
    """``polyagibbs tv --method rejection --cap 12 --workers 2``: the
    remainder experiment at sizes 8 and 12 and the component-count
    experiment at size 8, 4000 samples each, so that every call splits
    into two 2000-draw chunks for the two workers."""

    name = "tv-rejection"
    fresh_setup_per_round = False
    truncation = 200
    sizes = (8, 12)
    count_size = 8
    samples = 4000
    cap = 12
    workers = 2
    ops_per_round = samples * (len(sizes) + 1)

    def __init__(self, pg, seed: int):
        self.pg = pg
        self.seed = seed
        self.reports = []
        self.law = None

    def setup(self):
        pg = self.pg
        model = pg.GibbsModel.from_species(pg.parse_spec(SPEC), truncation=self.truncation)
        model.rho
        self.law = model.limit_remainder_distribution(self.cap)
        model.limit_component_count_law(self.cap)
        return model

    def round(self, model, index: int) -> int:
        pg = self.pg
        seed = self.seed * 1000 + index
        rep = pg.remainder_convergence_experiment(
            model, sizes=list(self.sizes), samples=self.samples, cap=self.cap,
            seed=seed, workers=self.workers, method="rejection",
        )
        cc = pg.component_count_experiment(
            model, n=self.count_size, samples=self.samples, seed=seed, cap=self.cap,
            workers=self.workers, method="rejection",
        )
        self.reports.append((rep, cc))
        return self.samples * (len(rep.rows) + 1)

    def check_round(self, model, index: int) -> list:
        rep, cc = self.reports[-1]
        fails = []
        if [r.n for r in rep.rows] != list(self.sizes) or any(
            r.samples != self.samples for r in rep.rows
        ) or cc.samples != self.samples:
            fails.append("experiment rows or sample counts differ from the request")
        recomputed = checks.sorted_tv(cc.empirical.counts, cc.empirical.total, cc.exact,
                                      cc.exact_tail, cc.empirical.tail_bucket)
        fails += checks.check_tv_matches("component-count TV", cc.tv, recomputed)
        return fails

    def final_check(self, model) -> list:
        law = self.law
        fails = []
        if abs(law.total - 1.0) > 1e-9:
            fails.append(f"limit-law total {law.total!r} is not 1")
        forests = oracles.forests_up_to(self.cap)
        fails += checks.check_limit_keys(law.probs, forests)
        # every orbit has weight 1, so p(o) rho^-|o| is the same constant 1/D,
        # and D = F(rho) = 1/rho for forests
        scaled = [law.rho ** oracles.object_atoms(o) / p for o, p in law.probs.items()]
        spread = (max(scaled) - min(scaled)) / min(scaled)
        if spread > 1e-9:
            fails.append(f"limit-law probabilities are not proportional to rho^size ({spread:.3g})")
        fails += checks.check_rel("limit-law normaliser", math.fsum(scaled) / len(scaled),
                                  oracles.OTTER_ALPHA, LAW_NORM_TOL)
        a = oracles.tree_counts(self.count_size + 1)
        exact = oracles.component_count_laws(a, [self.count_size])[self.count_size]
        bounds = {n: checks.unreachable_mass(law.probs, law.tail, n, self.cap) for n in self.sizes}
        for rep, cc in self.reports:
            for row in rep.rows:
                fails += checks.check_tv_lower_bound(f"remainder TV n={row.n}", row.tv, bounds[row.n])
            fails += checks.check_law(f"component count n={self.count_size}",
                                      Counter(cc.empirical.counts), exact)
            if abs(cc.exact_law_total - 1.0) > 1e-9:
                fails.append(f"component-count law total {cc.exact_law_total!r} is not 1")
        return fails

    def layer_values(self, model) -> dict:
        return {"series.rho_err": abs(model.rho.rho * oracles.OTTER_ALPHA - 1.0)}


# The tail-modelled F(rho) at truncation 200 is 9.5e-3 below alpha today;
# the tolerance leaves about 2x headroom, as RHO_TOL and CONST_TOL do.
LAW_NORM_TOL = 2e-2


WORKLOADS = {w.name: w for w in (SeriesForest, SampleForest, TvRejection)}
