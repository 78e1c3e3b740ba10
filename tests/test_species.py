"""Species expressions: DSL, enumeration, canonical objects, derivation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import LoopEnumerator
from test_golden import MIXED, MIXED_INNER
from polyagibbs import (
    ATOM,
    Atom,
    Compose,
    Derive,
    EmptySize,
    Enumerator,
    GibbsModel,
    SeriesEngine,
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
    Program,
    Sized,
    TableWeight,
    Union,
    Zero,
    _Fail,
    _collector_paused,
    order_key,
)

F = Fraction

TREE_COUNTS = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
FOREST_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
# a SIZED class with integral and rational weights
BLOB = Sized((F(0), F(2), F(1, 2), F(3)))


def total(pairs):
    return sum(w for _, w in pairs)


# (spec, top size, power) of the orbit-list identity tests; "sized" has
# int weights on either side of an atom
ORBIT_LIST_CASES = [
    pytest.param(s, size, power, id=name if power == 1 else f"{name}-power2")
    for name, s, size in [
        ("mixed", parse_dsl(MIXED), 8),
        ("sized", spec(Compose("SET", Union(Product(ATOM, BLOB), Product(BLOB, ATOM)))), 9),
        ("seq-forest", parse_dsl("T := ATOM * SET(T); F := COMPOSE(SEQ, T);"), 9),
        ("seq-mixed-inner", parse_dsl(MIXED_INNER + " F := COMPOSE(SEQ, B);"), 9),
        ("set-of-seq", parse_dsl("L := ATOM * SEQ(L); F := COMPOSE(SET, L);"), 9),
    ]
    for power in (1, 2)
]


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

    def test_table_keys_are_checked(self):
        # an orbit key that is not canonical would never match an
        # enumerated orbit, so it is refused, as is a negative weight, on
        # direct construction too
        pair = ("set", (("tag", 0, ("atom",)), ("tag", 1, ("prod", ("atom",), ("atom",)))))
        reversed_pair = ("set", pair[1][::-1])
        assert canonicalize(pair) == pair
        counted = TableWeight.from_dict({pair: F(3)})
        s = spec(Weighted(SetOf(Union(ATOM, Product(ATOM, ATOM))), counted))
        assert SeriesEngine(s).ogf(4).coeffs == (0, 0, 0, 3, 0)
        bad = [
            ({reversed_pair: F(3)}, "is not a canonical object"),
            ({("leaf",): F(1)}, "is not a canonical object"),
            ({(): F(1)}, "is not a canonical object"),
            ({5: F(1)}, "is not a canonical object"),
            ({pair: F(-1)}, "must be >= 0"),
        ]
        for table, message in bad:
            with pytest.raises(SpecError, match=message):
                TableWeight.from_dict(table)
            with pytest.raises(SpecError, match=message):
                TableWeight(tuple(table.items()))

    def test_size_guard(self):
        en = Enumerator(polya_trees(), guard=5)
        with pytest.raises(SizeGuardExceeded):
            en.enumerate_root(6)

    def test_negative_size_raises(self):
        # as the engine and the exact sampler do, before any memo entry
        en = Enumerator(forests())
        with pytest.raises(EmptySize, match="^no objects of negative size -2$"):
            en.enumerate_root(-2)
        assert en._memo == {}

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

    @pytest.mark.parametrize("s, size, power", ORBIT_LIST_CASES)
    def test_orbit_lists_are_the_loop_lists(self, s, size, power):
        # every memoised list, in order, value and weight type, against the
        # enumerator that sorts its lists by comparing the objects
        program = Program(s)
        got, want = Enumerator(program), LoopEnumerator(program)
        for n in range(size + 1):
            got.enumerate_root(n, power)
            want.enumerate_root(n, power)
        assert sorted(got._memo) == sorted(want._memo)
        for key, orbits in want._memo.items():
            assert [(o, w, type(w)) for o, w in got._memo[key]] == [
                (o, w, type(w)) for o, w in orbits
            ]

    @pytest.mark.parametrize("s, size, power", ORBIT_LIST_CASES)
    def test_lists_do_not_depend_on_the_call_order(self, s, size, power):
        # every list of an enumerator asked for the top size first is the
        # list of one asked for each size in turn (which may hold sizes the
        # first never reads), and every list's keys are the order keys of
        # its objects, strictly increasing
        program = Program(s)
        top, ascending = Enumerator(program), Enumerator(program)
        top.enumerate_root(size, power)
        for n in range(size + 1):
            ascending.enumerate_root(n, power)
        assert (program.root, size, power) in top._memo
        assert sorted(top._keys) == sorted(top._memo)
        assert sorted(ascending._keys) == sorted(ascending._memo)
        assert set(top._memo) <= set(ascending._memo)
        for key, orbits in top._memo.items():
            assert [(o, w, type(w)) for o, w in orbits] == [
                (o, w, type(w)) for o, w in ascending._memo[key]
            ]
            assert top._keys[key] == ascending._keys[key]
        for key, orbits in ascending._memo.items():
            keys = ascending._keys[key]
            assert keys == [order_key(o) for o, _ in orbits]
            assert all(a < b for a, b in zip(keys, keys[1:]))


class TestProgram:
    @pytest.mark.parametrize("outer, name", [("SET", "T"), ("SEQ", "L")])
    def test_compose_shares_the_id_of_its_outer_node(self, outer, name):
        # COMPOSE(outer, X) is the node outer(X): the body's outer(X) gets
        # the root's id, whose node stays the COMPOSE a model checks
        body = f"{name} := ATOM * {outer}({name});"
        s = parse_dsl(f"{body} F := COMPOSE({outer}, {name});")
        program = Program(s)
        root = program.root
        assert isinstance(program.nodes[root], Compose) and len(program.kind) == 3
        inner = program.args[root][0]
        assert program.args[inner][1] == root
        assert program.id_of(OPS[outer](Ref(name))) == root
        assert program.id_of(Compose(outer, Ref(name))) == root
        model = GibbsModel(s, truncation=20)
        assert model.outer == outer and model.inner_id == inner

        # under an alias of the inner name the COMPOSE and the body's node
        # stay apart; the streams are the same in value and type
        apart = SeriesEngine(parse_dsl(f"{body} A := {name}; F := COMPOSE({outer}, A);"))
        assert len(apart.program.kind) == 4
        shared = SeriesEngine(s)
        for node, power in ((None, 1), (inner, 1), (inner, 2)):
            other = None if node is None else apart.program.id_of(Ref("A"))
            want = list(apart.ogf(40, node=other, power=power).coeffs)
            got = list(shared.ogf(40, node=node, power=power).coeffs)
            assert [(c, type(c)) for c in got] == [(c, type(c)) for c in want]


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


class TestLifetime:
    @pytest.mark.parametrize(
        "text",
        [
            "T := ATOM * SET(T); F := COMPOSE(SET, T);",
            "T := ATOM * SET(T); F := COMPOSE(SET, T * );",
        ],
        ids=["forests", "spec-error"],
    )
    def test_parse_leaves_no_garbage(self, text):
        # the parse holds no reference cycle, so its tokens and rules are
        # freed at once, without the cycle collector, whether it returns
        # or raises
        import gc

        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            try:
                parse_spec(text)
            except SpecError:
                pass
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_enumeration_leaves_no_garbage(self):
        # the SET and SEQ lists are built without self-calling closures,
        # so enumerating forests, building a whole limit law and listing a
        # DERIVE free every temporary without the cycle collector, which
        # they pause while they build
        import gc

        def forest_lists():
            en = Enumerator(forests())
            for n in range(9):
                en.enumerate_root(n)

        def limit_law():
            GibbsModel.from_species(forests(), truncation=100).limit_remainder_distribution(12)

        def derive_lists():
            en = Enumerator(parse_dsl("T := ATOM * SET(T); F := DERIVE(T);"))
            for n in range(8):
                en.enumerate_root(n)

        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for build in (forest_lists, limit_law, derive_lists):
                build()
                assert gc.collect() == 0, build.__name__
        finally:
            if enabled:
                gc.enable()


TWO = canonicalize(("seq", (("atom",), ("atom",))))
TABLE = Weighted(SeqOf(ATOM), TableWeight.from_dict({TWO: F(5, 2)}))


class TestCollectorPause:
    """Enumeration pauses the cyclic collector and leaves it as it found
    it: on or off, after a raise, nested and from two threads at once."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        import gc

        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_pause_nests(self, collector):
        import gc

        with _collector_paused:
            assert not gc.isenabled()
            with _collector_paused:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == collector

    def test_enumerate_restores_the_collector(self, collector):
        import gc

        Enumerator(forests()).enumerate_root(8)
        assert gc.isenabled() == collector

    def test_a_raise_restores_the_collector(self, collector):
        import gc

        with pytest.raises(IllFoundedRecursion):
            Enumerator(parse_dsl("B := ATOM + B * B;")).enumerate_root(3)
        assert gc.isenabled() == collector

    def test_nested_table_count_restores_the_collector(self, collector):
        # the engine counts a TABLE by enumeration, here inside a TABLE
        import gc

        inner = canonicalize(("set", (TWO,)))
        nested = spec(Weighted(SetOf(TABLE), TableWeight.from_dict({inner: F(3)})))
        assert SeriesEngine(nested).ogf(6).coeffs == (0, 0, F(15, 2), 0, 0, 0, 0)
        assert gc.isenabled() == collector

    def test_a_raise_inside_a_nested_pause_restores_the_collector(self, collector):
        # the limit-law build pauses, and its TABLE count pauses again and
        # raises past the enumeration guard, inside the table's support
        import gc

        long = ("seq", (("atom",),) * 15)
        table = Weighted(SeqOf(ATOM), TableWeight.from_dict({TWO: F(5, 2), long: F(1)}))
        s = spec(Compose("SET", Union(Ref("T"), table)), {"T": Product(ATOM, SetOf(Ref("T")))})
        model = GibbsModel.from_species(s, truncation=40)
        with pytest.raises(SizeGuardExceeded):
            model.limit_remainder_distribution(6)
        assert gc.isenabled() == collector

    def test_two_threads_restore_the_collector(self, collector):
        # two models enumerated at once, by two threads each, more threads
        # than cores: the depth count must not lose an entry or an exit
        import gc
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        specs = [forests(), parse_dsl("L := ATOM * SEQ(L); F := COMPOSE(SET, L);")] * 2
        expected = [Enumerator(s).enumerate_root(9) for s in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                start = threading.Barrier(len(specs), timeout=60)

                def run(s):
                    start.wait()
                    return Enumerator(s).enumerate_root(9)

                with ThreadPoolExecutor(max_workers=len(specs)) as pool:
                    got = list(pool.map(run, specs, timeout=120))
                assert got == expected
                assert gc.isenabled() == collector
        finally:
            sys.setswitchinterval(interval)


# canonical objects without blobs, whose atoms can all be marked
_markable = st.recursive(
    st.sampled_from([("atom",), ("eps",), ("star",), ("star", 2)]),
    lambda children: st.one_of(
        st.builds(lambda a, b: ("prod", a, b), children, children),
        st.builds(lambda cs: ("set", tuple(cs)), st.lists(children, max_size=4)),
        st.builds(lambda cs: ("seq", tuple(cs)), st.lists(children, max_size=3)),
        st.builds(lambda side, c: ("tag", side, c), st.integers(0, 1), children),
    ),
    max_leaves=10,
).map(canonicalize)


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(obj=_markable)
    def test_every_mark_of_a_canonical_object_is_canonical(self, obj):
        marks = mark_one_atom(obj)
        assert all(canonicalize(m) == m for m in marks)
        assert len(marks) == object_size(obj)

    def test_derived_orbits_are_the_canonical_marks(self):
        # DERIVE lists the marks as they are, once each
        s = parse_dsl(MIXED)
        en = Enumerator(s)
        derive = s.defs[0][1].left.right
        for n in range(8):
            marks = {canonicalize(m) for o, _ in en.enumerate(derive.inner, n + 1)
                     for m in mark_one_atom(o)}
            assert sorted(o for o, _ in en.enumerate(derive, n)) == sorted(marks)

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


# canonical objects with every head: tags 0 and 1, stars with and without a
# label, and blobs whose size takes several bytes
_leaves = st.one_of(
    st.sampled_from([("atom",), ("eps",), ("star",)]),
    st.builds(lambda k: ("star", k), st.integers(2, 300)),
    st.builds(lambda k: ("blob", k), st.one_of(st.integers(1, 3), st.integers(1, 2**40))),
)
_objects = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(lambda a, b: ("prod", a, b), children, children),
        st.builds(lambda cs: ("set", tuple(cs)), st.lists(children, max_size=3)),
        st.builds(lambda cs: ("seq", tuple(cs)), st.lists(children, max_size=3)),
        st.builds(lambda side, c: ("tag", side, c), st.integers(0, 1), children),
    ),
    max_leaves=8,
).map(canonicalize)


class TestOrderKeys:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(objs=st.lists(_objects, min_size=2, max_size=8))
    def test_keys_order_and_identify_objects_as_tuples(self, objs):
        # a few leaves each, so equal objects and shared prefixes are common
        objs += [objs[0], ("seq", (objs[0], objs[-1])), ("seq", (objs[0],))]
        keys = [order_key(o) for o in objs]
        assert sorted(objs, key=order_key) == sorted(objs)
        for a, ka in zip(objs, keys):
            for b, kb in zip(objs, keys):
                assert (ka == kb) == (a == b)
                assert (ka < kb) == (a < b)
                # prefix-free: no key starts another one
                assert ka == kb or not kb.startswith(ka)

    def test_encoding(self):
        assert order_key(("atom",)) == b"\x01"
        assert order_key(("blob", 258)) == b"\x02\x02\x01\x02"
        assert order_key(("star",)) == b"\x07\x00"
        assert order_key(("star", 2)) == b"\x07\x01\x02\x00"
        assert order_key(("tag", 0, ("eps",))) == b"\x08\x00\x03"
        assert order_key(("set", (("atom",), ("prod", ("atom",), ("seq", ()))))) == (
            b"\x06\x01\x04\x01\x05\x00\x00"
        )
        with pytest.raises(ValueError, match="unknown object head"):
            order_key(("set", (("leaf",),)))


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
