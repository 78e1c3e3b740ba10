"""Symbolic weighted species and exact enumeration of unlabelled objects.

A species is an expression tree over the constructors ATOM, EPSILON, SET,
SEQ, COMPOSE, DERIVE, UNION, PRODUCT, WEIGHTED and named recursion, plus
SIZED (one orbit per size with a prescribed rational weight — the escape
hatch for classes given only by their counting series).

A spec is compiled once into a :class:`Program`: every node gets an
integer id, one kind tag and the ids of its children, names are resolved at
compile time, and equal subtrees share one id.  The engine, the exact
sampler and the enumerator dispatch on the kind tag and key their streams,
laws and memos by plain ints, and the program derives ids, not trees: the
derivative of a DERIVE's inner node is added to the program the first time
the DERIVE is counted.  The Node trees are the form that the DSL and the
JSON codec read and write, both through one op table (``OPS``).

Unlabelled objects are canonical nested tuples; two objects are isomorphic
iff their encodings are equal.  Enumeration is the test oracle of the whole
package: it is exhaustive, duplicate-free and weight-exact, but guarded to
small sizes.  A program's engine owns its one :class:`Enumerator`, and
every list is built from that enumerator's memo of smaller lists.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import operator
import re
import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .errors import (
    EmptySize,
    IllFoundedRecursion,
    SizeGuardExceeded,
    SpecError,
)
from .series import as_exact

DEFAULT_SIZE_GUARD = 14


# -- weight models -------------------------------------------------------


@dataclass(frozen=True)
class UnitWeight:
    def factor(self, obj, size: int) -> Fraction:
        return Fraction(1)


@dataclass(frozen=True)
class AtomMultiplicative:
    """Weight c^{size}; the powered weighting nu^i is c^{i*size}."""

    c: Fraction

    def __post_init__(self):
        if self.c <= 0:
            raise SpecError("atom-multiplicative weight must be positive")

    def factor(self, obj, size: int) -> Fraction:
        return self.c**size


@dataclass(frozen=True)
class TableWeight:
    """Explicit per-orbit weights keyed by canonical form; zero outside the
    (finite) support.  A negative weight, or a key that is not a canonical
    object, raises :class:`SpecError`: enumerated orbits are canonical, so
    such a key would never be matched."""

    table: Tuple[Tuple[object, Fraction], ...]

    def __post_init__(self):
        for k, v in self.table:
            if v < 0:
                raise SpecError("table weights must be >= 0")
            try:
                canonical = canonicalize(k) == k
            except (ValueError, TypeError, IndexError):
                canonical = False
            if not canonical:
                raise SpecError(f"table key {k!r} is not a canonical object")

    @classmethod
    def from_dict(cls, d) -> "TableWeight":
        return cls(tuple(sorted((k, Fraction(v)) for k, v in d.items())))

    @cached_property
    def support(self) -> int:
        """The largest size of a tabled orbit: every larger size weighs 0."""
        return max((object_size(k) for k, _ in self.table), default=-1)

    def factor(self, obj, size: int) -> Fraction:
        for k, v in self.table:
            if k == obj:
                return v
        return Fraction(0)


# -- species nodes -------------------------------------------------------


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Atom(Node):
    pass


@dataclass(frozen=True)
class Epsilon(Node):
    pass


@dataclass(frozen=True)
class Zero(Node):
    """The empty species (no objects); arises from derivatives."""


@dataclass(frozen=True)
class SetOf(Node):
    inner: Node


@dataclass(frozen=True)
class SeqOf(Node):
    inner: Node


@dataclass(frozen=True)
class Compose(Node):
    """Composite species with outer structure 'SET' or 'SEQ'."""

    outer: str
    inner: Node

    def __post_init__(self):
        if self.outer not in ("SET", "SEQ"):
            raise SpecError(f"unsupported outer species {self.outer!r}")


@dataclass(frozen=True)
class Derive(Node):
    inner: Node


@dataclass(frozen=True)
class Union(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Product(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Ref(Node):
    name: str


@dataclass(frozen=True)
class Weighted(Node):
    inner: Node
    model: object


@dataclass(frozen=True)
class Sized(Node):
    """One orbit per size n >= 1 with weight coeffs[n]."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[0] != 0:
            raise SpecError("SIZED species may not have size-0 objects")


# op name -> node class.  The JSON form of a node is its op and its
# dataclass fields, with a weight model written as its constant "c"; the
# other ops that are kind names compile to that kind.
OPS = {"ATOM": Atom, "EPSILON": Epsilon, "ZERO": Zero, "SIZED": Sized,
       "SET": SetOf, "SEQ": SeqOf, "COMPOSE": Compose, "DERIVE": Derive,
       "UNION": Union, "PRODUCT": Product, "REF": Ref, "WEIGHT": Weighted}
_OP_OF = {cls: op for op, cls in OPS.items()}


@dataclass(frozen=True)
class SpeciesSpec:
    root: Node
    defs: Tuple[Tuple[str, Node], ...] = ()


def spec(root: Node, defs: Dict[str, Node] | None = None) -> SpeciesSpec:
    return SpeciesSpec(root, tuple(sorted((defs or {}).items())))


ATOM = Atom()
EPSILON = Epsilon()


def polya_trees() -> SpeciesSpec:
    """Rooted unlabelled trees, T = ATOM * SET(T)."""
    return spec(Ref("T"), {"T": Product(ATOM, SetOf(Ref("T")))})


def forests() -> SpeciesSpec:
    """Multisets of rooted unlabelled trees."""
    t = polya_trees()
    return SpeciesSpec(Compose("SET", t.root), t.defs)


def sized_species(coeffs) -> SpeciesSpec:
    return spec(Sized(tuple(Fraction(c) for c in coeffs)))


# -- compiled form -------------------------------------------------------

KINDS = ("ATOM", "EPSILON", "ZERO", "SIZED", "UNION", "PRODUCT", "SET", "SEQ",
         "WEIGHT", "TABLE", "DERIVE", "FAIL")
(K_ATOM, K_EPSILON, K_ZERO, K_SIZED, K_UNION, K_PRODUCT, K_SET, K_SEQ,
 K_WEIGHT, K_TABLE, K_DERIVE, K_FAIL) = range(len(KINDS))


def by_kind(**handlers) -> list:
    """Handlers indexed by kind tag, from keywords named after ``KINDS``."""
    return [handlers[k] for k in KINDS]


def fail(consumer, i: int, *_):
    """The handler of FAIL nodes in every consumer of a program."""
    error = consumer.program.data[i]
    raise type(error)(*error.args)


@dataclass(frozen=True)
class _Fail(Node):
    """Raises a copy of ``error`` when used: a pure alias cycle."""

    error: Exception


class Program:
    """A species spec compiled to integer node ids.

    Node i has a kind tag ``kind[i]`` (an index into ``KINDS``), child ids
    ``args[i]``, a payload ``data[i]`` (SIZED coefficients, WEIGHT constant,
    TABLE model, FAIL error, and for a derived DERIVE the id of the spec's
    DERIVE it descends from) and its source node ``nodes[i]``; COMPOSE
    compiles to SET or SEQ.  A name gets the id of the first non-name node
    of its chain, and a pure alias cycle such as ``X := X;`` is a FAIL node
    raising :class:`IllFoundedRecursion`.  Equal subtrees share one id, and
    ``COMPOSE(outer, X)`` is equal to ``outer(X)``: both get the id of the
    one compiled first, whose node ``nodes[i]`` keeps, so the COMPOSE at the
    root of a model stays ``nodes[root]`` and the body's ``SET(X)`` of a
    forest reuses its id, streams and memos.  The
    nodes reachable from the root are compiled on construction.  A DERIVE
    has its inner node as only child: the enumerator marks its atoms, and
    the engine counts :meth:`derivative` of it, which adds the derived nodes
    (source node None) on first use, because a name whose body derives
    itself has derivatives of every order.  So the program only grows:
    existing ids never change.

    ``unit`` is true when every weight of the program is 1: it has no
    SIZED and no TABLE node, and every WEIGHT constant is 1.  Then the
    weighting nu^p is nu for every power p, so a node's counts under every
    power are its counts under power 1.  It is set once, at compile time;
    the derived nodes of a unit program keep it true, because
    :meth:`derivative` refuses non-unit weights.
    """

    def __init__(self, spec: SpeciesSpec):
        self.kind: List[int] = []
        self.args: List[tuple] = []
        self.data: list = []
        self.nodes: List[Node | None] = []
        self._defs = dict(spec.defs)
        self._ids: Dict[Node, int] = {}
        # (kind, args, payload) -> id of a derived node; id -> derivative
        self._made: Dict[tuple, int] = {}
        self._derivatives: Dict[int, int] = {}
        self.root = self._compile(spec.root)
        self.unit = all(
            k != K_SIZED and k != K_TABLE and (k != K_WEIGHT or c == 1)
            for k, c in zip(self.kind, self.data)
        )

    def id_of(self, node) -> int:
        """The id of a node of the spec; an `int` is taken to be an id."""
        if type(node) is int:
            return node
        i = self._ids.get(_shared(node))
        if i is None:
            raise SpecError(f"{node!r} is not a node of the spec")
        return i

    def sized(self, i: int, n: int):
        """The coefficient of the SIZED node i at size n (0 outside)."""
        coeffs = self.data[i]
        return coeffs[n] if 1 <= n < len(coeffs) else 0

    def derivative(self, i: int) -> int:
        """The id of the derivative of node i, by the rules of Bergeron,
        Labelle and Leroux (1998, §1.4) applied to ids: each id is derived
        once, and new nodes are shared with equal ones.  A SIZED, TABLE or
        non-unit WEIGHT node below i raises its `SpecError` before any node
        is added, so the program stays as it was.  The caller serialises
        calls (the engine holds its lock)."""
        j = self._derivatives.get(i)
        if j is None:
            stack, seen = [i], set()
            while stack:
                k = stack.pop()
                if k in seen or k in self._derivatives:
                    continue
                seen.add(k)
                if self.kind[k] == K_SIZED:
                    raise SpecError("cannot derive a SIZED species")
                if self.kind[k] == K_TABLE or (self.kind[k] == K_WEIGHT and self.data[k] != 1):
                    raise SpecError("derivative through non-unit weights is unsupported")
                stack.extend(self.args[k])
            j = self._derive(i)
        return j

    def _derive(self, i: int) -> int:
        j = self._derivatives.get(i)
        if j is None:
            # the id exists before the children's derivatives, so a name
            # that leads back to i finds it; it fails if never filled in
            j = self._derivatives[i] = self._add(K_FAIL, (), SpecError("unfinished"))
            parts = self._folded(*self._rules[self.kind[i]](self, i))
            self.kind[j], self.args[j], self.data[j] = parts
            self._made.setdefault(parts, j)
        return j

    def _product_rule(self, i: int):
        a, b = self.args[i]
        return K_UNION, (self._node(K_PRODUCT, (self._derive(a), b)),
                         self._node(K_PRODUCT, (a, self._derive(b)))), None

    # (program, id) -> (kind, child ids, payload) of the derivative of the
    # id; SIZED and TABLE are refused by `derivative` before any rule runs
    _rules = by_kind(
        ATOM=lambda p, i: (K_EPSILON, (), None),
        EPSILON=lambda p, i: (K_ZERO, (), None),
        ZERO=lambda p, i: (K_ZERO, (), None),
        SIZED=None,
        UNION=lambda p, i: (K_UNION, tuple(p._derive(c) for c in p.args[i]), None),
        PRODUCT=_product_rule,
        SET=lambda p, i: (K_PRODUCT, (i, p._derive(p.args[i][0])), None),
        SEQ=lambda p, i: (
            K_PRODUCT, (i, p._node(K_PRODUCT, (p._derive(p.args[i][0]), i))), None
        ),
        WEIGHT=lambda p, i: (K_WEIGHT, (p._derive(p.args[i][0]),), 1),
        TABLE=None,
        DERIVE=lambda p, i: (
            K_DERIVE, (p._derive(p.args[i][0]),), i if p.data[i] is None else p.data[i]
        ),
        FAIL=lambda p, i: (K_FAIL, (), p.data[i]),
    )

    def _node(self, kind: int, args: tuple, payload=None) -> int:
        """The id of the node (kind, args, payload), added if new; a
        PRODUCT with a ZERO factor is the one shared ZERO."""
        key = self._folded(kind, args, payload)
        i = self._made.get(key)
        if i is None:
            i = self._made[key] = self._add(*key)
        return i

    def _folded(self, kind: int, args: tuple, payload):
        """The parts of a derived node with structural zeros folded: a
        PRODUCT with a ZERO factor and a UNION of two ZEROs are ZERO, and a
        UNION with one ZERO side takes the parts of the other side, unless
        that side is still being derived (a FAIL placeholder)."""
        if kind == K_PRODUCT or kind == K_UNION:
            zero = [self.kind[c] == K_ZERO for c in args]
            if kind == K_PRODUCT and any(zero) or all(zero):
                return K_ZERO, (), None
            if any(zero):
                other = args[zero.index(False)]
                if self.kind[other] != K_FAIL:
                    return self.kind[other], self.args[other], self.data[other]
        return kind, args, payload

    def _add(self, kind: int, args: tuple, payload, node: Node | None = None) -> int:
        self.kind.append(kind)
        self.args.append(args)
        self.data.append(payload)
        self.nodes.append(node)
        return len(self.kind) - 1

    def _compile(self, node: Node) -> int:
        key = _shared(node)
        i = self._ids.get(key)
        if i is not None:
            return i
        if isinstance(node, Ref):
            i = self._ids[key] = self._resolve(node)
            return i
        kind, children, payload = self._parts(node)
        # the id exists before the children, so recursion finds it
        i = self._ids[key] = self._add(kind, (), payload, node)
        self.args[i] = tuple(self._compile(c) for c in children)
        return i

    def _resolve(self, node: Ref) -> int:
        seen = set()
        while isinstance(node, Ref):
            if node.name in seen:
                return self._compile(_Fail(IllFoundedRecursion()))
            if node.name not in self._defs:
                raise SpecError(f"undefined species name {node.name!r}")
            seen.add(node.name)
            node = self._defs[node.name]
        return self._compile(node)

    def _parts(self, node: Node):
        """(kind, child nodes, payload) of a node that is not a name."""
        if isinstance(node, Compose):
            return KINDS.index(node.outer), (node.inner,), None
        if isinstance(node, Sized):
            return K_SIZED, (), tuple(as_exact(c) for c in node.coeffs)
        if isinstance(node, Weighted):
            model = node.model
            if isinstance(model, TableWeight):
                return K_TABLE, (node.inner,), model
            if not isinstance(model, (UnitWeight, AtomMultiplicative)):
                raise SpecError(f"unknown weight model {type(model).__name__}")
            return K_WEIGHT, (node.inner,), as_exact(getattr(model, "c", 1))
        if isinstance(node, _Fail):
            return K_FAIL, (), node.error
        if type(node) not in _OP_OF:
            raise SpecError(f"cannot compile node {type(node).__name__}")
        children = [getattr(node, f.name) for f in fields(node)]
        return KINDS.index(_OP_OF[type(node)]), children, None


def _shared(node):
    """The key of a node in a program's ids: ``COMPOSE(outer, X)`` is the
    node ``outer(X)``."""
    if isinstance(node, Compose):
        return OPS[node.outer](node.inner)
    return node


# -- canonical objects ---------------------------------------------------

EPS_OBJ = ("eps",)
ATOM_OBJ = ("atom",)
STAR_OBJ = ("star",)


def canonicalize(obj):
    """Deterministic canonical form: recursively canonical children, with
    multiset children sorted.  Idempotent and isomorphism-invariant."""
    head = obj[0]
    if head in ("eps", "atom", "star", "blob"):
        return obj
    if head == "set":
        return ("set", tuple(sorted(canonicalize(c) for c in obj[1])))
    if head == "seq":
        return ("seq", tuple(canonicalize(c) for c in obj[1]))
    if head == "prod":
        return ("prod", canonicalize(obj[1]), canonicalize(obj[2]))
    if head == "tag":
        return ("tag", obj[1], canonicalize(obj[2]))
    raise ValueError(f"unknown object head {head!r}")


def object_size(obj) -> int:
    """Number of (non-star) atoms.  An explicit stack walks the object, so
    its depth meets no recursion limit."""
    size = 0
    stack = [obj]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        obj = pop()
        head = obj[0]
        if head == "prod":
            push(obj[1])
            push(obj[2])
        elif head == "set" or head == "seq":
            extend(obj[1])
        elif head == "atom":
            size += 1
        elif head == "tag":
            push(obj[2])
        elif head == "blob":
            size += obj[1]
        elif head != "eps" and head != "star":
            raise ValueError(f"unknown object head {head!r}")
    return size


def object_to_string(obj) -> str:
    """Compact nested-bracket serialization (stable, for transcripts and
    golden tests).  Heads are tested in the order they are most common in
    drawn objects."""
    head = obj[0]
    if head == "prod":
        return f"({object_to_string(obj[1])}|{object_to_string(obj[2])})"
    if head == "set":
        return "{" + ",".join(map(object_to_string, obj[1])) + "}"
    if head == "atom":
        return "o"
    if head == "seq":
        return "[" + ",".join(map(object_to_string, obj[1])) + "]"
    if head == "tag":
        return f"<{obj[1]}:{object_to_string(obj[2])}>"
    if head == "eps":
        return "e"
    if head == "star":
        return "*" if len(obj) == 1 else f"*{obj[1]}"
    if head == "blob":
        return f"#{obj[1]}"
    raise ValueError(f"unknown object head {head!r}")


def mark_one_atom(obj) -> List[tuple]:
    """All ways of replacing a single atom by a star, each canonical when
    ``obj`` is: only the path from the star to the root is rebuilt, and the
    children of each SET on it are sorted again.  The star is
    ``("star",)`` in an object without stars and ``("star", k + 1)`` in
    one whose highest star label is k (``("star",)`` has label 1), so the
    marks of nested derivatives stay apart."""
    k = _star_label(obj)
    return _mark_atoms(obj, STAR_OBJ if k == 0 else ("star", k + 1))


def _star_label(obj) -> int:
    """The highest star label in the object, 0 if it has no star."""
    head = obj[0]
    if head == "star":
        return obj[1] if len(obj) > 1 else 1
    if head in ("set", "seq"):
        return max(map(_star_label, obj[1]), default=0)
    if head == "prod":
        return max(_star_label(obj[1]), _star_label(obj[2]))
    if head == "tag":
        return _star_label(obj[2])
    return 0


def _mark_atoms(obj, star) -> List[tuple]:
    head = obj[0]
    if head == "atom":
        return [star]
    if head == "blob":
        raise SpecError("cannot derive a SIZED species (no atom structure)")
    if head in ("set", "seq"):
        children = obj[1]
        marks = [children[:i] + (m,) + children[i + 1 :]
                 for i, c in enumerate(children) for m in _mark_atoms(c, star)]
        return [(head, tuple(sorted(t)) if head == "set" else t) for t in marks]
    if head == "prod":
        return ([("prod", m, obj[2]) for m in _mark_atoms(obj[1], star)]
                + [("prod", obj[1], m) for m in _mark_atoms(obj[2], star)])
    if head == "tag":
        return [("tag", obj[1], m) for m in _mark_atoms(obj[2], star)]
    return []


# -- enumeration ---------------------------------------------------------

# the head bytes of the order keys, in the string order of the head names
_HEAD_BYTE = {h: bytes([b]) for b, h in enumerate(
    ("atom", "blob", "eps", "prod", "seq", "set", "star", "tag"), start=1)}
_END = b"\x00"


def _int_key(k: int) -> bytes:
    """A non-negative int as its byte length and its big-endian bytes."""
    body = k.to_bytes((k.bit_length() + 7) // 8, "big")
    return bytes((len(body),)) + body


def order_key(obj) -> bytes:
    """The order key of a canonical object (see :class:`Enumerator`): keys
    compare bytewise as the objects compare as tuples."""
    head = obj[0]
    first = _HEAD_BYTE.get(head)
    if first is None:
        raise ValueError(f"unknown object head {head!r}")
    if head == "prod":
        return first + order_key(obj[1]) + order_key(obj[2])
    if head == "set" or head == "seq":
        return first + b"".join(map(order_key, obj[1])) + _END
    if head == "tag":
        return first + _int_key(obj[1]) + order_key(obj[2])
    if head == "star":
        return first + b"".join(map(_int_key, obj[1:])) + _END
    if head == "blob":
        return first + _int_key(obj[1])
    return first


def _keyed(orbits: list) -> tuple:
    """A list of orbits in key order, and their keys."""
    return orbits, [order_key(o) for o, _ in orbits]


# the weight of ATOM, EPSILON and the empty SET and SEQ, which products skip
_ONE = Fraction(1)


def _times(a, b):
    """a * b, skipping a factor that is an exact `Fraction` 1 when the other
    is a `Fraction` too: the value and type of ``a * b``."""
    if type(a) is Fraction and type(b) is Fraction:
        if a is _ONE or a == 1:
            return b
        if b is _ONE or b == 1:
            return a
    return a * b


_first = operator.itemgetter(0)


def _by_key(runs: list):
    """(key, orbit, extra) for each orbit of ``runs``, a list of (keys,
    orbits, extra) each in key order, in key order.  No two keys are equal,
    so more than one run merge by a sort of their keys alone."""
    if len(runs) == 1:
        keys, orbits, extra = runs[0]
        return zip(keys, orbits, itertools.repeat(extra))
    merged = [entry for keys, orbits, extra in runs
              for entry in zip(keys, orbits, itertools.repeat(extra))]
    merged.sort(key=_first)
    return merged


class _CollectorPause:
    """Context manager that keeps the cyclic garbage collector off while an
    enumeration, or a limit law that reads one, builds its lists.  They
    make no reference cycle, but they allocate many tuples that outlive
    their generation, and each collection of the oldest generation
    re-walks the whole growing memo.

    A depth count under a lock lets nested and concurrent builds share one
    pause: the collector goes back on once, when the last build ends, also
    when a build raises, and only if it was on when the first began."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth and self._resume:
                gc.enable()


_collector_paused = _CollectorPause()


class Enumerator:
    """Exhaustive enumeration of unlabelled objects with exact weights.

    ``enumerate(node, n, power)`` returns the duplicate-free list of
    (canonical object, nu^power weight) pairs of size n, sorted by
    encoding, memoised per (node id, size, power).  A negative n raises
    :class:`EmptySize` and an n above ``guard`` :class:`SizeGuardExceeded`;
    a DERIVE inside may read one size up.  ``spec`` may be an already
    compiled :class:`Program`, whose ids the enumerator then shares.  Calls
    hold a per-instance reentrant lock, so threads sharing an enumerator
    never see a half-built memo entry or mistake a key that another thread
    is enumerating for a cycle.  Lists are built with the cyclic garbage
    collector paused (:class:`_CollectorPause`).

    The encoding of an object is its order key (:func:`order_key`), a
    prefix-free byte string whose bytewise order is the tuple order of the
    objects: one byte per head, in the string order of the head names
    (atom 1, blob 2, eps 3, prod 4, seq 5, set 6, star 7, tag 8); then the
    keys of the parts, with each int as its byte length and its big-endian
    bytes; and a 0 byte that closes the children of each SET and SEQ and
    each star.  Every memoised list has the parallel list of its keys, and
    is built in key order from the keys of its parts, so no list is sorted
    and no two objects are compared: a PRODUCT walks its left orbits and a
    SEQ its head orbits in key order, each followed by the right or tail
    list (SEQ(A) = EPSILON + A * SEQ(A)); a SET of size n takes each inner
    orbit c of size s <= n in key order, followed by the SET orbits of size
    n - s whose first child is >= c, a suffix found by bisecting the keys.
    Only DERIVE's canonical marks are encoded from scratch and sorted.
    """

    def __init__(self, spec: SpeciesSpec | Program, guard: int = DEFAULT_SIZE_GUARD):
        self.guard = guard
        self.program = spec if isinstance(spec, Program) else Program(spec)
        # (id, size, power) -> orbits, and -> their order keys
        self._memo: Dict[tuple, list] = {}
        self._keys: Dict[tuple, list] = {}
        self._busy: set = set()
        self._lock = threading.RLock()

    def enumerate(self, node: Node | int, n: int, power: int = 1) -> list:
        if n < 0:
            raise EmptySize(f"no objects of negative size {n}")
        if n > self.guard:
            raise SizeGuardExceeded(f"size {n} exceeds enumeration guard {self.guard}")
        with _collector_paused, self._lock:
            return self._listed(self.program.id_of(node), n, power)[0]

    def enumerate_root(self, n: int, power: int = 1) -> list:
        return self.enumerate(self.program.root, n, power)

    # internal

    def _listed(self, i: int, n: int, power: int) -> tuple:
        """The memoised orbits of node i at size n and their keys."""
        key = (i, n, power)
        result = self._memo.get(key)
        if result is not None:
            return result, self._keys[key]
        if key in self._busy:
            raise IllFoundedRecursion()
        self._busy.add(key)
        try:
            result, keys = self._list[self.program.kind[i]](self, i, n, power)
        finally:
            self._busy.discard(key)
        # the keys first: a list in the memo always has its keys
        self._keys[key] = keys
        self._memo[key] = result
        return result, keys

    def _product(self, i: int, n: int, power: int) -> tuple:
        """Each left orbit a in key order, followed by every right orbit b
        of the rest of the size: ("prod", a, b) with key 4 + a's + b's."""
        left, right = self.program.args[i]
        runs = []
        for k in range(n + 1):
            lo, lk = self._listed(left, k, power)
            if lo:
                runs.append((lk, lo, self._listed(right, n - k, power)))
        out, keys = [], []
        for ka, (a, wa), (ro, rk) in _by_key(runs):
            pre = _HEAD_BYTE["prod"] + ka
            out += [(("prod", a, b), _times(wa, wb)) for b, wb in ro]
            keys += [pre + kb for kb in rk]
        return out, keys

    def _inner(self, i: int, power: int) -> int:
        """The inner node of a SET or SEQ, which must have no size-0 objects."""
        inner = self.program.args[i][0]
        if self._listed(inner, 0, power)[0]:
            raise SpecError(
                "inner species of SET/SEQ/COMPOSE must have no size-0 objects"
            )
        return inner

    def _multisets(self, i: int, n: int, power: int) -> tuple:
        """Each inner orbit c of size s in key order, followed by every SET
        orbit of size n - s whose first child is >= c: c is then the least
        child, so each multiset is listed once."""
        inner = self._inner(i, power)
        if n == 0:
            return _keyed([(("set", ()), _ONE)])
        runs = []
        for s in range(1, n + 1):
            orbits, ks = self._listed(inner, s, power)
            if orbits:
                runs.append((ks, orbits, (s,) + self._listed(i, n - s, power)))
        head, out, keys = _HEAD_BYTE["set"], [], []
        for kc, (c, wc), (s, rest, rk) in _by_key(runs):
            pre = head + kc
            if s == n:
                # the one SET orbit of size 0 is the empty set
                out.append((("set", (c,)), _times(wc, rest[0][1])))
                keys.append(pre + _END)
                continue
            j = bisect.bisect_left(rk, pre)
            if j < len(rk):
                c = (c,)
                out += [(("set", c + m[1]), _times(wc, wm)) for m, wm in rest[j:]]
                keys += [pre + km[1:] for km in rk[j:]]
        return out, keys

    def _sequences(self, i: int, n: int, power: int) -> tuple:
        """SEQ(A) = EPSILON + A * SEQ(A): each head orbit of size s in key
        order, followed by every memoised SEQ orbit of size n - s."""
        inner = self._inner(i, power)
        if n == 0:
            return _keyed([(("seq", ()), _ONE)])
        runs = []
        for s in range(1, n + 1):
            heads, hk = self._listed(inner, s, power)
            if heads:
                runs.append((hk, heads, self._listed(i, n - s, power)))
        head, out, keys = _HEAD_BYTE["seq"], [], []
        for ko, (o, wo), (tails, tk) in _by_key(runs):
            pre = head + ko
            o = (o,)
            out += [(("seq", o + t[1]), _times(wo, wt)) for t, wt in tails]
            keys += [pre + kt[1:] for kt in tk]
        return out, keys

    def _union(self, i: int, n: int, power: int) -> tuple:
        out, keys = [], []
        for side, c in enumerate(self.program.args[i]):
            orbits, ks = self._listed(c, n, power)
            pre = _HEAD_BYTE["tag"] + _int_key(side)
            out += [(("tag", side, o), w) for o, w in orbits]
            keys += [pre + k for k in ks]
        return out, keys

    def _weighted(self, i: int, n: int, power: int) -> tuple:
        model = self.program.nodes[i].model
        out, keys = [], []
        for (o, w), k in zip(*self._listed(self.program.args[i][0], n, power)):
            f = model.factor(o, n)
            if f:
                out.append((o, w * f**power))
                keys.append(k)
        return out, keys

    def _derive(self, i: int, n: int, power: int) -> tuple:
        """Orbits of size n + 1 of the inner node with one atom marked.
        Reached again while it is busy at a smaller size, the DERIVE
        closes a cycle that gains size on every turn and never ends."""
        if any((i, m, power) in self._busy for m in range(n)):
            raise IllFoundedRecursion()
        seen = {}
        for o, w in self._listed(self.program.args[i][0], n + 1, power)[0]:
            for marked in mark_one_atom(o):
                seen[marked] = w
        listed = sorted(((order_key(o), (o, w)) for o, w in seen.items()), key=_first)
        return [orbit for _, orbit in listed], [k for k, _ in listed]

    # plain functions, not bound methods, so an enumerator holds no
    # reference cycle: (enumerator, id, size, power) -> (orbits, keys)
    _list = by_kind(
        ATOM=lambda e, i, n, p: _keyed([(ATOM_OBJ, _ONE)] if n == 1 else []),
        EPSILON=lambda e, i, n, p: _keyed([(EPS_OBJ, _ONE)] if n == 0 else []),
        ZERO=lambda e, i, n, p: ([], []),
        SIZED=lambda e, i, n, p: _keyed(
            [(("blob", n), e.program.sized(i, n) ** p)] if e.program.sized(i, n) else []
        ),
        UNION=_union,
        PRODUCT=_product,
        SET=_multisets,
        SEQ=_sequences,
        WEIGHT=_weighted,
        TABLE=_weighted,
        DERIVE=_derive,
        FAIL=fail,
    )


def derived_spec(s: SpeciesSpec) -> SpeciesSpec:
    """The derivative of a species: its objects are those of ``s`` with one
    atom marked."""
    return SpeciesSpec(Derive(s.root), s.defs)


# -- spec language: text DSL and JSON ------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>:=|[();,*+])|(?P<ws>\s+|#[^\n]*)|(?P<bad>.)"
)

# the DSL keywords that take their fields as arguments in parentheses
_CALLS = ("SET", "SEQ", "COMPOSE", "DERIVE", "WEIGHT")
_KEYWORDS = {"ATOM", "EPSILON", *_CALLS}


def _rational(value, line=None, column=None) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SpecError(f"expected a rational, got {value!r}", line, column) from None


class _Parser:
    """The tokens of a DSL text and the recursive-descent rules over them:
    methods, not nested closures, so a parse leaves no reference cycle and
    is freed without the cycle collector."""

    def __init__(self, text: str):
        self.items = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "ws":
                continue
            line = text.count("\n", 0, m.start()) + 1
            col = m.start() - text.rfind("\n", 0, m.start())
            if m.lastgroup == "bad":
                raise SpecError(f"unexpected character {m.group()!r}", line, col)
            self.items.append((m.group(), line, col))
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        if self.items:
            _, line, col = self.items[-1]
            return (None, line, col + 1)
        return (None, 1, 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        tok, line, col = self.next()
        if tok != value:
            raise SpecError(f"expected {value!r}, got {tok!r}", line, col)
        return tok

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "+":
            self.next()
            node = Union(node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "*":
            self.next()
            node = Product(node, self.factor())
        return node

    def argument(self, field: str):
        """A COMPOSE's outer name, a WEIGHT's constant, or a species."""
        if field == "outer":
            outer, line, col = self.next()
            if outer not in ("SET", "SEQ"):
                raise SpecError(
                    f"outer species must be SET or SEQ, got {outer!r}", line, col
                )
            return outer
        if field == "model":
            num, line, col = self.next()
            return AtomMultiplicative(_rational(num, line, col))
        return self.expr()

    def factor(self) -> Node:
        tok, line, col = self.next()
        if tok == "ATOM":
            return ATOM
        if tok == "EPSILON":
            return EPSILON
        if tok in _CALLS:
            self.expect("(")
            args = []
            for f in fields(OPS[tok]):
                if args:
                    self.expect(",")
                args.append(self.argument(f.name))
            self.expect(")")
            return OPS[tok](*args)
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok is not None and tok not in _KEYWORDS and tok[0].isalpha():
            return Ref(tok)
        raise SpecError(f"unexpected token {tok!r}", line, col)


def parse_dsl(text: str) -> SpeciesSpec:
    """Parse the statement language, e.g.::

        T := ATOM * SET(T);
        MODEL := COMPOSE(SET, T);

    The last definition is the root of the returned spec.
    """
    parser = _Parser(text)
    defs: Dict[str, Node] = {}
    last_name = None
    while parser.peek()[0] is not None:
        name, line, col = parser.next()
        if name in _KEYWORDS or not name[0].isalpha():
            raise SpecError(f"expected a definition name, got {name!r}", line, col)
        parser.expect(":=")
        defs[name] = parser.expr()
        parser.expect(";")
        last_name = name
    if last_name is None:
        raise SpecError("empty specification", 1, 1)
    return spec(Ref(last_name), defs)


def _node_to_json(node: Node) -> dict:
    if type(node) not in _OP_OF:
        raise SpecError(f"cannot serialize node {type(node).__name__}")
    out = {"op": _OP_OF[type(node)]}
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            out[f.name] = _node_to_json(value)
        elif f.name == "model":
            if not isinstance(value, AtomMultiplicative):
                raise SpecError("only atom-multiplicative weights serialize to JSON")
            out["c"] = str(value.c)
        elif f.name == "coeffs":
            out[f.name] = [str(c) for c in value]
        else:
            out[f.name] = value
    return out


def _node_from_json(data) -> Node:
    op = data.get("op") if isinstance(data, dict) else None
    if not isinstance(op, str) or op not in OPS:
        raise SpecError(f"unknown op {op!r} in JSON spec")
    args = []
    for f in fields(OPS[op]):
        key = "c" if f.name == "model" else f.name
        if key not in data:
            raise SpecError(f"{op} node without {key!r} in JSON spec")
        value = data[key]
        if f.type == "Node":
            value = _node_from_json(value)
        elif f.name == "model":
            value = AtomMultiplicative(_rational(value))
        elif f.name == "coeffs":
            if not isinstance(value, list):
                raise SpecError(f"{op} coeffs must be a list in JSON spec")
            value = tuple(map(_rational, value))
        elif not isinstance(value, str):
            raise SpecError(f"{op} {key!r} must be a string in JSON spec")
        args.append(value)
    return OPS[op](*args)


def spec_to_json(s: SpeciesSpec) -> str:
    return json.dumps(
        {
            "defs": {name: _node_to_json(node) for name, node in s.defs},
            "root": _node_to_json(s.root),
        }
    )


def spec_from_json(text: str) -> SpeciesSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON spec: {e.msg}", e.lineno, e.colno)
    if not isinstance(data, dict) or "root" not in data or not isinstance(
        data.get("defs", {}), dict
    ):
        raise SpecError('a JSON spec is an object with a "root" and optional "defs"')
    defs = {name: _node_from_json(nd) for name, nd in data.get("defs", {}).items()}
    return spec(_node_from_json(data["root"]), defs)


def parse_spec(text: str) -> SpeciesSpec:
    """Parse either the text DSL or the JSON form (detected by a leading
    '{')."""
    if text.lstrip().startswith("{"):
        return spec_from_json(text)
    return parse_dsl(text)
