"""Species expressions: DSL, enumeration, canonical objects, derivation."""

import json
from fractions import Fraction

import pytest

from polyagibbs import (
    ATOM,
    Atom,
    Compose,
    Derive,
    Enumerator,
    IllFoundedRecursion,
    Ref,
    SeqOf,
    SetOf,
    SizeGuardExceeded,
    SpecError,
    Weighted,
    canonicalize,
    derived_spec,
    forests,
    mark_one_atom,
    object_size,
    object_to_string,
    ogf,
    parse_dsl,
    parse_spec,
    polya_trees,
    sized_species,
    spec,
    spec_from_json,
    spec_to_json,
)
from polyagibbs.species import (
    EPSILON,
    OPS,
    AtomMultiplicative,
    Node,
    Product,
    Sized,
    TableWeight,
    Union,
    Zero,
    _Fail,
)

F = Fraction

TREE_COUNTS = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FOREST_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def total(pairs):
    return sum(w for _, w in pairs)


class TestEnumeration:
    def test_rooted_tree_counts(self):
        en = Enumerator(polya_trees())
        for n in range(11):
            assert total(en.enumerate_root(n)) == TREE_COUNTS[n]

    def test_forest_counts(self):
        en = Enumerator(forests())
        for n in range(11):
            assert total(en.enumerate_root(n)) == FOREST_COUNTS[n]

    def test_partition_counts(self):
        part = spec(Compose("SET", Product(ATOM, SeqOf(ATOM))))
        en = Enumerator(part)
        for n in range(11):
            assert total(en.enumerate_root(n)) == PARTITION_COUNTS[n]

    def test_objects_are_canonical_and_distinct(self):
        en = Enumerator(forests())
        for n in range(1, 7):
            pairs = en.enumerate_root(n)
            objs = [o for o, _ in pairs]
            assert len(set(objs)) == len(objs)
            for o in objs:
                assert canonicalize(o) == o
                assert object_size(o) == n

    def test_weighted_atoms_scale_geometrically(self):
        w = spec(Weighted(SeqOf(ATOM), AtomMultiplicative(F(1, 2))))
        en = Enumerator(w)
        for n in range(1, 8):
            assert total(en.enumerate_root(n)) == F(1, 2**n)

    def test_table_weight(self):
        model = TableWeight.from_dict(
            {canonicalize(("seq", (("atom",), ("atom",)))): F(3)}
        )
        en = Enumerator(spec(Weighted(SeqOf(ATOM), model)))
        assert total(en.enumerate_root(2)) == 3
        assert total(en.enumerate_root(3)) == 0

    def test_size_guard(self):
        en = Enumerator(polya_trees(), guard=5)
        with pytest.raises(SizeGuardExceeded):
            en.enumerate_root(6)

    def test_ill_founded_recursion(self):
        bad = spec(Ref("X"), {"X": Ref("X")})
        with pytest.raises(IllFoundedRecursion):
            Enumerator(bad).enumerate_root(1)

    def test_shared_cold_enumerator_matches_sequential_run(self):
        # four threads on one cold enumerator: a key another thread is still
        # enumerating must not look like a cycle, and no thread may read a
        # half-built memo entry
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        expected = Enumerator(forests()).enumerate_root(9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared = Enumerator(forests())
                start = threading.Barrier(4, timeout=60)

                def run(_):
                    start.wait()
                    return shared.enumerate_root(9)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    got = list(pool.map(run, range(4), timeout=120))
                assert got == [expected] * 4
        finally:
            sys.setswitchinterval(interval)


class TestDsl:
    def test_round_trip_trees(self):
        s = parse_dsl("T := ATOM * SET(T);")
        assert total(Enumerator(s).enumerate_root(5)) == 9

    def test_compose_and_root(self):
        s = parse_dsl(
            """
            T := ATOM * SET(T);   # rooted trees
            FOREST := COMPOSE(SET, T);
            """
        )
        assert total(Enumerator(s).enumerate_root(4)) == 9

    def test_union_weight_and_rationals(self):
        s = parse_dsl("M := WEIGHT(ATOM, 1/3) + ATOM * ATOM;")
        en = Enumerator(s)
        assert total(en.enumerate_root(1)) == F(1, 3)
        assert total(en.enumerate_root(2)) == 1

    def test_epsilon_and_seq(self):
        s = parse_dsl("P := COMPOSE(SET, ATOM * SEQ(ATOM));")
        assert total(Enumerator(s).enumerate_root(6)) == 11

    def test_parse_error_has_position(self):
        with pytest.raises(SpecError) as exc:
            parse_dsl("T := ATOM * ;\n")
        assert exc.value.line == 1
        assert exc.value.column > 0

    def test_unknown_token_rejected(self):
        with pytest.raises(SpecError):
            parse_dsl("T := ATOM @ ATOM;")

    def test_missing_semicolon(self):
        with pytest.raises(SpecError):
            parse_dsl("T := ATOM")

    def test_json_round_trip(self):
        s = parse_dsl("T := ATOM * SET(T); F := COMPOSE(SET, T);")
        again = spec_from_json(spec_to_json(s))
        assert again == s
        assert total(Enumerator(again).enumerate_root(6)) == 48

    def test_parse_spec_dispatches_on_format(self):
        s = parse_dsl("T := ATOM * SET(T);")
        assert parse_spec(spec_to_json(s)) == s
        assert parse_spec("T := ATOM * SET(T);") == s

    def test_op_table_names_every_node_class(self):
        assert set(Node.__subclasses__()) - set(OPS.values()) == {_Fail}

    def test_spec_with_every_op_round_trips_through_json(self):
        tree = Union(Product(ATOM, SetOf(Ref("T"))), Zero())
        extra = Product(EPSILON, Sized((F(0), F(1), F(5, 2))))
        weighted = Weighted(SeqOf(Ref("T")), AtomMultiplicative(F(2, 3)))
        s = spec(
            Compose("SEQ", Union(Union(weighted, Derive(Ref("T"))), extra)),
            {"T": tree},
        )
        text = spec_to_json(s)

        def ops(node):
            return {node["op"]}.union(*(ops(v) for v in node.values() if isinstance(v, dict)))

        doc = json.loads(text)
        assert set(OPS) == ops(doc["root"]) | ops(doc["defs"]["T"])
        assert parse_spec(text) == s


class TestDerivation:
    def test_atom_derivative_is_epsilon(self):
        assert list(ogf(derived_spec(spec(ATOM)), 5).coeffs) == [1, 0, 0, 0, 0, 0]

    def test_derived_forest_counts_match_marked_enumeration(self):
        # counting forests with one marked atom, then dividing by nothing:
        # the derived class enumerates one object per (forest, atom orbit
        # choice), which matches collecting mark_one_atom images
        base = Enumerator(forests())
        der = Enumerator(derived_spec(forests()))
        for n in range(1, 7):
            marked = set()
            for o, _ in base.enumerate_root(n):
                marked.update(canonicalize(m) for m in mark_one_atom(o))
            assert total(der.enumerate_root(n - 1)) == len(marked)

    def test_derived_tree_counts_match_marked_enumeration(self):
        base = Enumerator(polya_trees())
        der = Enumerator(derived_spec(polya_trees()))
        for n in range(1, 7):
            marked = set()
            for o, _ in base.enumerate_root(n):
                marked.update(canonicalize(m) for m in mark_one_atom(o))
            assert total(der.enumerate_root(n - 1)) == len(marked)

    def test_sized_species_cannot_be_derived(self):
        derived = derived_spec(sized_species([F(0), F(1), F(1)]))
        with pytest.raises(SpecError, match="cannot derive a SIZED species"):
            ogf(derived, 2)

    def test_nested_derive_stars_are_labelled_apart(self):
        # the second mark of a derivative of a derivative is a new star
        once = mark_one_atom(("seq", (("atom",), ("atom",))))
        assert object_to_string(once[0]) == "[*,o]"
        twice = {canonicalize(m) for o in once for m in mark_one_atom(o)}
        assert sorted(map(object_to_string, twice)) == ["[*,*2]", "[*2,*]"]


class TestObjects:
    def test_rendering(self):
        o = canonicalize(("set", (("atom",), ("seq", (("atom",), ("atom",))))))
        s = object_to_string(o)
        assert "{" in s and "[" in s and "o" in s

    def test_mark_one_atom_counts_positions_up_to_symmetry(self):
        pair = canonicalize(("set", (("atom",), ("atom",))))
        assert len({canonicalize(m) for m in mark_one_atom(pair)}) == 1
        chain = canonicalize(("seq", (("atom",), ("atom",))))
        assert len({canonicalize(m) for m in mark_one_atom(chain)}) == 2

    def test_set_children_are_sorted(self):
        a = canonicalize(("set", (("seq", (("atom",), ("atom",))), ("atom",))))
        b = canonicalize(("set", (("atom",), ("seq", (("atom",), ("atom",))))))
        assert a == b

    def test_set_of_possibly_empty_inner_rejected(self):
        from polyagibbs.species import Epsilon, Union

        bad = spec(SetOf(Union(Epsilon(), Atom())))
        with pytest.raises(SpecError):
            Enumerator(bad).enumerate_root(2)


# -- the recursive walkers as they were before object_size took an explicit
# stack and object_to_string reordered its heads: the oracles of both


def _oracle_size(obj) -> int:
    head = obj[0]
    if head == "atom":
        return 1
    if head == "blob":
        return obj[1]
    if head in ("eps", "star"):
        return 0
    if head in ("set", "seq"):
        return sum(_oracle_size(c) for c in obj[1])
    if head == "prod":
        return _oracle_size(obj[1]) + _oracle_size(obj[2])
    if head == "tag":
        return _oracle_size(obj[2])
    raise ValueError(f"unknown object head {head!r}")


def _oracle_string(obj) -> str:
    head = obj[0]
    if head == "atom":
        return "o"
    if head == "eps":
        return "e"
    if head == "star":
        return "*" if len(obj) == 1 else f"*{obj[1]}"
    if head == "blob":
        return f"#{obj[1]}"
    if head == "set":
        return "{" + ",".join(_oracle_string(c) for c in obj[1]) + "}"
    if head == "seq":
        return "[" + ",".join(_oracle_string(c) for c in obj[1]) + "]"
    if head == "prod":
        return "(" + _oracle_string(obj[1]) + "|" + _oracle_string(obj[2]) + ")"
    if head == "tag":
        return f"<{obj[1]}:{_oracle_string(obj[2])}>"
    raise ValueError(f"unknown object head {head!r}")


_A, _E, _S = ("atom",), ("eps",), ("star",)
HAND_BUILT = [
    _A,
    _E,
    _S,
    ("star", 3),
    ("blob", 7),
    ("set", ()),
    ("seq", ()),
    ("tag", 1, _A),
    ("prod", _E, ("blob", 2)),
    ("seq", (_A, _S, ("star", 2), ("tag", 0, ("prod", _A, ("set", (_A, _A)))))),
    ("set", (("blob", 3), ("blob", 3), ("seq", (_E, _A)), ("tag", 12, ("star", 4)))),
    ("prod", ("tag", 0, ("seq", (("prod", _S, ("blob", 1)), _E))), ("set", (("set", (_A,)),))),
]


class TestObjectWalkers:
    @pytest.mark.parametrize("obj", HAND_BUILT, ids=_oracle_string)
    def test_size_and_string_match_the_recursive_oracles(self, obj):
        assert object_size(obj) == _oracle_size(obj)
        assert object_to_string(obj) == _oracle_string(obj)

    def test_sampled_objects_match_the_recursive_oracles(self):
        import random

        from polyagibbs import ExactSampler

        rng = random.Random(4)
        mixed = parse_dsl(
            "B := ATOM + WEIGHT(ATOM, 2) * SEQ(ATOM + ATOM * ATOM); F := COMPOSE(SEQ, B);"
        )
        for sampler in (ExactSampler(forests()), ExactSampler(mixed)):
            for n in (1, 5, 12, 30):
                for _ in range(10):
                    o = sampler.sample(n, rng)
                    assert object_size(o) == _oracle_size(o) == n
                    assert object_to_string(o) == _oracle_string(o)

    @pytest.mark.parametrize(
        "obj", [("leaf",), ("set", (_A, ("leaf", 1))), ("prod", _A, ("tag", 0, ("?",)))]
    )
    def test_unknown_head_raises(self, obj):
        with pytest.raises(ValueError, match="unknown object head"):
            object_size(obj)
        with pytest.raises(ValueError, match="unknown object head"):
            object_to_string(obj)

    def test_size_of_a_chain_5000_deep(self):
        # deeper than the interpreter's recursion limit
        chain = _A
        for k in range(5000):
            chain = ("prod", _A, ("set", (chain,))) if k % 2 else ("tag", 0, ("seq", (chain, _S)))
        assert object_size(chain) == 2501
        with pytest.raises(RecursionError):
            _oracle_size(chain)
