"""Reference values for the forest model, computed without the program.

Everything here is plain integer arithmetic or a hard-coded published
constant, so a fault in the program's series engine, sampler or enumerator
cannot leak into the values the benchmark checks it against.

Object encoding: the program writes a rooted tree as
``("prod", ("atom",), ("set", children))`` and a forest as
``("set", trees)``, with every ``children``/``trees`` tuple sorted.  The
enumeration below builds the same encoding so limit-law keys can be
compared directly.
"""

from __future__ import annotations

from fractions import Fraction

# Rooted unlabelled trees by number of nodes, n = 1..32 (OEIS A000081).
A000081_PUBLISHED = (
    1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811,
    235381, 634847, 1721159, 4688676, 12826228, 35221832, 97055181,
    268282855, 743724984, 2067174645, 5759636510, 16083734329,
    45007066269, 126186554308, 354426847597, 997171512998, 2809934352700,
)

# Otter's constant alpha = 1/rho for rooted trees (OEIS A051491).
OTTER_ALPHA = 2.9557652856519949747148175241231
OTTER_RHO = 1.0 / OTTER_ALPHA

ATOM = ("atom",)


def divisors(k: int) -> list:
    return [d for d in range(1, k + 1) if k % d == 0]


def tree_counts(n_max: int) -> list:
    """a[n] = number of rooted trees with n nodes, a[0] = 0, by
    a(n+1) = (1/n) sum_{k=1..n} (sum_{d|k} d a(d)) a(n-k+1)."""
    a = [0, 1]
    s = [0]  # s[k] = sum_{d|k} d a(d)
    for n in range(1, n_max):
        s.append(sum(d * a[d] for d in divisors(n)))
        total = sum(s[k] * a[n - k + 1] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("tree-count recurrence left a remainder")
        a.append(total // n)
    return a[: n_max + 1]


def component_count_laws(a: list, sizes) -> dict:
    """{n: {k: Fraction}}: exact law of the number of trees in a uniform
    size-n forest, from the bivariate Euler transform
    n p_n(u) = sum_k q_k(u) p_{n-k}(u), q_k(u) = sum_{d|k} d a(d) u^(k/d)."""
    top = max(sizes)
    p = [[1]]  # p[n][k] = forests of size n with k trees
    q = [None]
    for k in range(1, top + 1):
        qk = [0] * (k + 1)
        for d in divisors(k):
            qk[k // d] += d * a[d]
        q.append(qk)
    for n in range(1, top + 1):
        acc = [0] * (n + 1)
        for k in range(1, n + 1):
            prev = p[n - k]
            for j, c in enumerate(q[k]):
                if c:
                    for i, v in enumerate(prev):
                        if v:
                            acc[i + j] += c * v
        if any(v % n for v in acc):
            raise ArithmeticError("count-law recurrence left a remainder")
        p.append([v // n for v in acc])
    return {n: _normalise(dict(enumerate(p[n]))) for n in sizes}


def largest_tree_laws(a: list, sizes) -> dict:
    """{n: {m: Fraction}}: exact law of the largest tree size in a uniform
    size-n forest, from prod_{j<=m} (1 - z^j)^(-a(j)) taken one factor at a
    time: forests with all trees <= m, minus those with all trees < m."""
    top = max(sizes)
    arr = [1] + [0] * top
    below = {n: 0 for n in sizes}
    counts = {n: {} for n in sizes}
    for m in range(1, top + 1):
        # multiply by sum_j C(a(m)+j-1, j) z^(m j), high degrees first
        for s in range(top, m - 1, -1):
            c, j, extra = 1, 0, 0
            while m * (j + 1) <= s:
                j += 1
                c = c * (a[m] + j - 1) // j
                extra += c * arr[s - m * j]
            arr[s] += extra
        for n in sizes:
            if arr[n] != below[n]:
                counts[n][m] = arr[n] - below[n]
            below[n] = arr[n]
    return {n: _normalise(counts[n]) for n in sizes}


def _normalise(counts: dict) -> dict:
    total = sum(counts.values())
    return {k: Fraction(v, total) for k, v in counts.items() if v}


def trees_up_to(n_max: int) -> dict:
    """{n: sorted list of all rooted trees with n nodes}, exhaustively."""
    trees = {1: [("prod", ATOM, ("set", ()))]}
    for n in range(2, n_max + 1):
        trees[n] = sorted(
            ("prod", ATOM, ("set", children))
            for children in _multisets(trees, n - 1, n - 1)
        )
    return trees


def forests_up_to(n_max: int) -> dict:
    """{n: set of all forests with n nodes}, exhaustively (needs trees up
    to n_max, which :func:`trees_up_to` provides)."""
    trees = trees_up_to(max(n_max, 1))
    return {
        n: {("set", members) for members in _multisets(trees, n, n)}
        for n in range(n_max + 1)
    }


def _multisets(trees: dict, total: int, max_part: int):
    """Sorted tuples of trees with sizes summing to ``total``, generated
    with non-increasing (size, index) so each multiset appears once."""

    def rec(remaining, size_cap, index_cap):
        if remaining == 0:
            yield ()
            return
        for size in range(min(remaining, size_cap), 0, -1):
            pool = trees.get(size, [])
            top = len(pool) if size < size_cap else index_cap
            for i in range(top):
                for rest in rec(remaining - size, size, i + 1):
                    yield rest + (pool[i],)

    for combo in rec(total, max_part, len(trees.get(max_part, []))):
        yield tuple(sorted(combo))


def object_atoms(obj) -> int:
    """Number of atoms of an encoded object, counted without the program."""
    stack, count = [obj], 0
    while stack:
        o = stack.pop()
        if o == ATOM:
            count += 1
        elif o[0] == "prod":
            stack.append(o[1])
            stack.append(o[2])
        elif o[0] == "set":
            stack.extend(o[1])
        else:
            raise ValueError(f"unexpected object head {o[0]!r}")
    return count


def is_canonical_forest(obj) -> bool:
    """True when ``obj`` is a forest in the program's encoding with every
    multiset sorted."""
    stack = [obj]
    while stack:
        o = stack.pop()
        if o == ATOM:
            continue
        if o[0] == "prod":
            if o[1] != ATOM or not isinstance(o[2], tuple) or o[2][0] != "set":
                return False
            stack.append(o[2])
        elif o[0] == "set" and len(o) == 2:
            kids = o[1]
            if any(k[0] != "prod" for k in kids) or list(kids) != sorted(kids):
                return False
            stack.extend(kids)
        else:
            return False
    return True
