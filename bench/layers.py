"""Per-layer metrics from the spans of a traced phase.

A ``_s`` or ``_calls`` metric is the time or the number of calls of one
set-up plus one round: totals in set-up spans divided by the traced
set-ups, plus totals in round spans divided by the traced rounds.  Names
marked "self" subtract the time of their traced children; the others count
top-level spans only.  ``_us`` metrics are percentiles of single calls in
the rounds.  A boundary the workload never crosses reads 0.

``trace.ops_per_s`` is the headline ``ops_per_s`` measured with tracing
on; against the untraced run of the same seed it gives the tracing
overhead.
"""

from __future__ import annotations

import math

DRAW_SIZES = (20, 40, 80, 160)
REJECTION_SIZES = (8, 12)

TOTALS = [
    # (metric, span name, "dur" or "self" or "calls")
    ("engine.ogf_s", "engine.ogf", "dur"),
    ("engine.ogf_calls", "engine.ogf", "calls"),
    ("cycleindex.multiset_ogf_product_s", "cycleindex.multiset_ogf_product", "self"),
    ("series.mul_s", "series.mul", "dur"),
    ("series.mul_calls", "series.mul", "calls"),
    ("series.exp_s", "series.exp", "dur"),
    ("series.evaluate_s", "series.evaluate", "dur"),
    ("series.evaluate_calls", "series.evaluate", "calls"),
    ("series.radius_estimate_s", "series.radius_estimate", "dur"),
    ("asymptotics.ratio_experiment_s", "asymptotics.ratio_experiment", "self"),
    ("asymptotics.diagnose_s", "asymptotics.diagnose", "self"),
    ("species.parse_s", "species.parse", "dur"),
    ("species.enumerate_s", "species.enumerate", "dur"),
    ("gibbs.limit_law_s", "gibbs.limit_law", "self"),
    ("gibbs.count_law_s", "gibbs.count_law", "dur"),
    ("stats.experiment_s", "stats.experiment", "dur"),
    ("stats.tv_distance_s", "stats.tv_distance", "dur"),
]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _top_level(spans):
    """Spans with no ancestor of the same name."""
    out = []
    for s in spans:
        parent, nested = s[3], False
        while parent >= 0:
            if spans[parent][0] == s[0]:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            out.append(s)
    return out


def per_layer_metrics(tracer, traced, wl) -> dict:
    spans = []
    for _, thread_spans in tracer.records():
        spans.extend(_top_level(thread_spans))
    setups = max(len(traced.wall["setup"]), 1)
    rounds = max(len(traced.wall["round"]), 1)

    def per_unit(name, field):
        total = {"setup": 0.0, "round": 0.0}
        for s in spans:
            if s[0] == name:
                total[s[4]] += 1 if field == "calls" else (s[2] - s[1] if field == "dur" else s[6])
        return total["setup"] / setups + total["round"] / rounds

    def durations_us(name, phase="round", **attrs):
        return [
            (s[2] - s[1]) * 1e6 for s in spans
            if s[0] == name and s[4] == phase
            and all((s[5] or {}).get(k) == v for k, v in attrs.items())
        ]

    out = {metric: per_unit(name, field) for metric, name, field in TOTALS}

    first = {}
    for s in spans:
        if s[0] == "gibbs.sample_S_n" and s[4] == "setup":
            first.setdefault(s[5]["n"], s[2] - s[1])
    out["sampler.first_draw_s"] = sum(first.values())

    draws = 0
    for n in DRAW_SIZES:
        d = durations_us("sampler.sample", kind="draw", n=n)
        draws += len(d)
        out[f"sampler.draw_us.n{n}.p50"] = percentile(d, 50)
        out[f"sampler.draw_us.n{n}.p99"] = percentile(d, 99)
    out["sampler.draw_count"] = draws
    out["sampler.inner_draw_us.p50"] = percentile(durations_us("sampler.sample", kind="inner"), 50)
    out["gibbs.extract_remainder_us.p50"] = percentile(durations_us("gibbs.extract_remainder"), 50)
    out["species.object_to_string_us.p50"] = percentile(durations_us("species.object_to_string"), 50)
    out["gibbs.sample_S_n_us.p50"] = percentile(durations_us("gibbs.sample_S_n"), 50)
    out["gibbs.symmetry_draw_us.p50"] = percentile(
        [v * 1e6 for v in tracer.hot_durations("gibbs.symmetry_draw")], 50)

    counts = tracer.counts()
    window_attempts = inner_calls = 0
    for n in REJECTION_SIZES:
        ctx = ("gibbs.sample_S_n", n)
        accepted = len(durations_us("gibbs.sample_S_n", n=n, method="rejection"))
        attempts = counts[("gibbs.symmetry_draw", ctx, True)]
        window_attempts += attempts
        attempts += counts[("gibbs.symmetry_draw", ctx, False)]
        inner_calls += counts[("gibbs.inner_value", ctx, True)]
        out[f"gibbs.rejection_acceptance.n{n}"] = accepted / attempts if attempts else 0.0
    out["gibbs.inner_value_calls_per_attempt"] = (
        inner_calls / window_attempts if window_attempts else 0.0)

    out["stats.cpu_per_wall"] = traced.cpu / sum(traced.wall["round"])
    out["trace.ops_per_s"] = traced.ops_per_s
    out.update({"series.rho_err": 0.0, "ratio_const_err": 0.0})
    out.update(wl.layer_values(traced.state))
    return out
