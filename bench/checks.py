"""Output checks for the benchmark workloads, and a self-test that feeds
each check a known-wrong input and expects it to fail.

Every check returns a list of failure messages; an empty list is a pass.
Statistical checks use the multinomial TV radius at level 1 - DELTA, with
DELTA small enough that a correct program fails a run by chance with
probability below 1e-5 even over hundreds of runs.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from oracles import (
    component_count_laws,
    forests_up_to,
    is_canonical_forest,
    object_atoms,
    tree_counts,
)

DELTA = 1e-8


def multinomial_radius(keys: int, samples: int, delta: float = DELTA) -> float:
    """Upper confidence bound on the TV between N iid draws and their true
    K-point law: mean at most sqrt(K/N)/2, plus McDiarmid concentration."""
    return 0.5 * math.sqrt(keys / samples) + math.sqrt(
        math.log(1.0 / delta) / (2.0 * samples)
    )


def sorted_tv(counts: dict, total: int, exact: dict, exact_tail: float = 0.0,
              tail_count: int = 0) -> float:
    """TV between empirical counts and an exact law with a tail bucket,
    summed with math.fsum over keys in sorted order."""
    keys = sorted(set(counts) | set(exact), key=repr)
    terms = [abs(counts.get(k, 0) / total - float(exact.get(k, 0.0))) for k in keys]
    terms.append(abs(tail_count / total - exact_tail))
    return 0.5 * math.fsum(terms)


def check_tree_counts(inner, a) -> list:
    bad = [n for n in range(len(inner)) if inner[n] != a[n]]
    return [f"inner coefficient differs from A000081 at n={bad[0]}"] if bad else []


def check_composite_shift(composite, inner) -> list:
    bad = [n for n in range(len(composite) - 1) if composite[n] != inner[n + 1]]
    return [f"composite[{bad[0]}] != inner[{bad[0] + 1}]"] if bad else []


def check_rel(name: str, value: float, ref: float, tol: float) -> list:
    err = abs(value / ref - 1.0)
    return [] if err <= tol else [f"{name}: relative error {err:.3g} > {tol:g}"]


def check_draw(n: int, obj, largest: int, remainder_size: int, text: str) -> list:
    out = []
    if object_atoms(obj) != n:
        out.append(f"draw has {object_atoms(obj)} atoms, expected {n}")
    if not is_canonical_forest(obj):
        out.append("draw is not a canonical forest")
    if largest + remainder_size != n:
        out.append(f"largest {largest} + remainder {remainder_size} != {n}")
    if text.count("o") != n:
        out.append(f"transcript string has {text.count('o')} atoms, expected {n}")
    return out


def check_law(name: str, counts: Counter, exact: dict, delta: float = DELTA) -> list:
    total = sum(counts.values())
    if not total:
        return [f"{name}: no samples"]
    if set(counts) - set(exact):
        return [f"{name}: impossible values {sorted(set(counts) - set(exact))[:5]}"]
    tv = sorted_tv(counts, total, exact)
    radius = multinomial_radius(len(exact), total, delta)
    return [] if tv <= radius else [f"{name}: TV {tv:.4g} > radius {radius:.4g} (N={total})"]


def check_limit_keys(probs: dict, forests: dict) -> list:
    expected = set().union(*forests.values())
    got = set(probs)
    if got != expected:
        return [f"limit-law keys: {len(got - expected)} unexpected, "
                f"{len(expected - got)} missing"]
    return []


def check_tv_matches(name: str, reported: float, recomputed: float) -> list:
    if abs(reported - recomputed) <= 1e-12:
        return []
    return [f"{name}: reported TV {reported!r} != recomputed {recomputed!r}"]


def unreachable_mass(probs: dict, tail: float, n: int, cap: int) -> float:
    """Limit-law mass on remainders no size-n forest can leave: a remainder
    o is reachable only when |o| + (largest tree of o) <= n, and remainder
    sizes above ``cap`` (the tail bucket) only when n - 1 > cap."""
    terms = []
    for o, p in probs.items():
        sizes = [object_atoms(t) for t in o[1]]
        if sum(sizes) + max(sizes, default=0) > n:
            terms.append(p)
    if n - 1 <= cap:
        terms.append(tail)
    return math.fsum(terms)


def check_tv_lower_bound(name: str, tv: float, bound: float) -> list:
    return [] if tv >= bound - 1e-12 else [f"{name}: TV {tv:.6g} below unreachable mass {bound:.6g}"]


def self_test() -> list:
    """Run each check on a correct and on a known-wrong input; returns the
    failures of the checks themselves (both must behave)."""
    out = []

    def expect(label, good, wrong):
        if good:
            out.append(f"self-test {label}: rejects a correct input: {good}")
        if not wrong:
            out.append(f"self-test {label}: accepts a known-wrong input")

    a = tree_counts(40)
    shifted = [0] + a[:-1]
    expect("tree counts", check_tree_counts(a, a), check_tree_counts(shifted, a))
    f = [a[n + 1] for n in range(39)]
    expect("composite shift", check_composite_shift(f, a),
           check_composite_shift(shifted[:39], a))

    law = component_count_laws(a, [20])[20]
    good = Counter({k: round(float(p) * 4000) for k, p in law.items()})
    moved = dict(law)
    top = max(moved, key=moved.get)
    moved[top] -= Fraction(1, 5)
    moved[top + 1] = moved.get(top + 1, 0) + Fraction(1, 5)
    perturbed = Counter({k: round(float(p) * 4000) for k, p in moved.items()})
    expect("law radius", check_law("count", good, law), check_law("count", perturbed, law))

    forests = forests_up_to(8)
    mixed = next(o for o in sorted(forests[8]) if len(set(o[1])) > 1)
    unsorted = ("set", tuple(reversed(mixed[1])))
    largest = max(object_atoms(t) for t in mixed[1])
    expect("draw", check_draw(8, mixed, largest, 8 - largest, "o" * 8),
           check_draw(9, mixed, largest, 9 - largest, "o" * 9))
    expect("canonical", check_draw(8, mixed, largest, 8 - largest, "o" * 8),
           check_draw(8, unsorted, largest, 8 - largest, "o" * 8))

    probs = {o: 1.0 for n in forests for o in forests[n]}
    missing = dict(probs)
    missing.pop(next(iter(forests[5])))
    expect("limit keys", check_limit_keys(probs, forests), check_limit_keys(missing, forests))
    expect("tv match", check_tv_matches("tv", 0.25, 0.25), check_tv_matches("tv", 0.25, 0.25 + 1e-9))
    expect("tv bound", check_tv_lower_bound("tv", 0.3, 0.2), check_tv_lower_bound("tv", 0.1, 0.2))
    expect("relative", check_rel("x", 1.0, 1.0, 1e-9), check_rel("x", 1.001, 1.0, 1e-9))
    return out
