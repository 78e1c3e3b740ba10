"""Coefficient engine: recurrences cross-checked against brute enumeration."""

import math
from fractions import Fraction
from functools import partial

import pytest

import oracles
from polyagibbs import (
    ATOM,
    Compose,
    Derive,
    EmptySize,
    Enumerator,
    GibbsModel,
    IllFoundedRecursion,
    Ref,
    SeqOf,
    SetOf,
    SeriesEngine,
    SpecError,
    Weighted,
    coefficient_ratio_experiment,
    derived_spec,
    diagnose_subexponential,
    forests,
    ogf,
    parse_dsl,
    polya_trees,
    sized_species,
    spec,
)
from polyagibbs.sampler import _product_terms, _seq_terms, _set_terms
from polyagibbs.series import exact_div
from polyagibbs.species import (
    K_PRODUCT,
    K_SEQ,
    K_SET,
    K_UNION,
    K_ZERO,
    AtomMultiplicative,
    Product,
    Program,
    TableWeight,
    canonicalize,
)

F = Fraction

TREE_COUNTS = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def enum_totals(species, upto, power=1):
    en = Enumerator(species)
    return [
        sum(w for _, w in en.enumerate_root(n, power)) for n in range(upto + 1)
    ]


class TestAgainstEnumeration:
    def test_trees(self):
        assert list(ogf(polya_trees(), 12).coeffs) == TREE_COUNTS

    def test_forest_shift_identity(self):
        # a rooted tree is an atom joined to a forest, so the forest count
        # at n equals the tree count at n + 1
        b = ogf(forests(), 11)
        for n in range(12):
            assert b[n] == TREE_COUNTS[n + 1]

    @pytest.mark.parametrize(
        "text",
        [
            "T := ATOM * SET(T);",
            "F := COMPOSE(SET, ATOM * SEQ(ATOM));",
            "B := ATOM + ATOM * B * B;",
            "M := SEQ(ATOM + ATOM * ATOM);",
            "W := WEIGHT(ATOM, 2/3) * SEQ(WEIGHT(ATOM, 1/5));",
        ],
    )
    def test_small_specs(self, text):
        s = parse_dsl(text)
        assert list(ogf(s, 8).coeffs) == enum_totals(s, 8)

    def test_powered_weights(self):
        # the engine's power-p stream carries nu^p, matching enumeration
        s = spec(Weighted(SeqOf(ATOM), AtomMultiplicative(F(1, 3))))
        eng = SeriesEngine(s)
        for p in (1, 2, 3):
            got = eng.ogf(6, power=p)
            assert list(got.coeffs) == enum_totals(s, 6, power=p)

    def test_table_weight(self):
        key = canonicalize(("seq", (("atom",), ("atom",))))
        s = spec(Weighted(SeqOf(ATOM), TableWeight.from_dict({key: F(5, 2)})))
        got = ogf(s, 4)
        assert list(got.coeffs) == [0, 0, F(5, 2), 0, 0]
        assert list(SeriesEngine(s).ogf(4, power=2).coeffs) == [
            0,
            0,
            F(25, 4),
            0,
            0,
        ]

    def test_rational_weight_in_set(self):
        # a rational WEIGHT constant runs through the SET recurrence's
        # exact division on the Fraction path
        s = parse_dsl("T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);")
        got = ogf(s, 8)
        assert list(got.coeffs) == enum_totals(s, 8)
        assert any(type(c) is F for c in got.coeffs)

    @pytest.mark.parametrize(
        "text",
        [
            "T := ATOM * SET(T); F := COMPOSE(SET, T);",
            "T := WEIGHT(ATOM, 2) * SET(T); F := COMPOSE(SET, T);",
            "W := WEIGHT(ATOM, 4/2) * SEQ(ATOM);",
        ],
    )
    def test_integral_specs_give_int_streams(self, text):
        s = parse_dsl(text)
        eng = SeriesEngine(s)
        for p in (1, 2):
            got = eng.ogf(8, power=p)
            assert list(got.coeffs) == enum_totals(s, 8, power=p)
            assert all(type(eng.coeff(s.root, p, n)) is int for n in range(9))

    def test_integral_sized_and_table_give_int(self):
        key = canonicalize(("seq", (("atom",), ("atom",))))
        table = spec(Weighted(SeqOf(ATOM), TableWeight.from_dict({key: F(6, 2)})))
        for s in (sized_species([F(0), F(2), F(3)]), table):
            eng = SeriesEngine(s)
            assert all(type(eng.coeff(s.root, 2, n)) is int for n in range(4))

    def test_sized_species_powers(self):
        s = sized_species([F(0), F(2), F(3)])
        eng = SeriesEngine(s)
        assert list(eng.ogf(3, power=2).coeffs) == [0, 4, 9, 0]

    def test_derived_forests(self):
        d = derived_spec(forests())
        assert list(ogf(d, 6).coeffs) == enum_totals(d, 6)

    def test_composite_with_seq_outer(self):
        s = spec(Compose("SEQ", Ref("T")), dict(polya_trees().defs))
        assert list(ogf(s, 8).coeffs) == enum_totals(s, 8)

    def test_name_whose_body_derives_itself(self):
        # T_n = [n = 1] + (n - 1) T_{n-1} = (n - 1)!: counting T at size n
        # takes derivatives of T of every order up to n, so they are
        # derived as they are counted, and the enumerator needs none
        s = parse_dsl("T := ATOM + ATOM * ATOM * DERIVE(T);")
        counts = list(SeriesEngine(s).ogf(7).coeffs)
        assert counts == [0] + [math.factorial(n - 1) for n in range(1, 8)]
        assert enum_totals(s, 7) == counts

    def test_derivatives_of_every_order_up_to_forty(self):
        # each order adds its nodes once, so the 40th derivative is cheap
        s = parse_dsl("T := ATOM + ATOM * ATOM * DERIVE(T);")
        counts = list(SeriesEngine(s).ogf(40).coeffs)
        assert counts == [0] + [math.factorial(n - 1) for n in range(1, 41)]

    def test_structural_zeros_are_folded(self, monkeypatch):
        # the same derivatives without the fold: every coefficient agrees,
        # and the fold drops most of the nodes
        text = "T := ATOM + ATOM * ATOM * DERIVE(T);"
        folded = SeriesEngine(parse_dsl(text))
        counts = list(folded.ogf(40).coeffs)
        monkeypatch.setattr(Program, "_folded", lambda self, *parts: parts)
        plain = SeriesEngine(parse_dsl(text))
        assert counts == list(plain.ogf(40).coeffs)
        assert len(plain.program.kind) == 3605
        assert len(folded.program.kind) < len(plain.program.kind) // 4
        zeros = [i for i, k in enumerate(folded.program.kind) if k == K_ZERO]
        assert not any(
            set(folded.program.args[i]) & set(zeros)
            for i, k in enumerate(folded.program.kind)
            if k in (K_PRODUCT, K_UNION)
        )

    def test_unit_weight_is_derivable(self):
        # WEIGHT(A, 1) compiles like a unit weight, so it derives
        trees = dict(polya_trees().defs)
        plain = spec(Derive(Ref("T")), trees)
        unit = spec(Derive(Weighted(Ref("T"), AtomMultiplicative(F(1)))), trees)
        assert list(ogf(unit, 10).coeffs) == list(ogf(plain, 10).coeffs)
        assert list(ogf(plain, 6).coeffs) == enum_totals(plain, 6)

    def test_enumerator_keeps_nested_derive_markings_apart(self):
        s = parse_dsl("T := ATOM + ATOM * ATOM * DERIVE(T);")
        assert enum_totals(s, 4)[4] == 6


class TestGuards:
    def test_negative_size_is_empty(self):
        # a negative index must not read the filled stream from its end
        s = forests()
        eng = SeriesEngine(s)
        assert eng.coeff(s.root, 1, 30) == 997171512998
        with pytest.raises(EmptySize):
            eng.coeff(s.root, 1, -1)
        with pytest.raises(EmptySize):
            eng.at(eng.program.root, 1, -1)

    def test_ill_founded(self):
        s = spec(Ref("X"), {"X": Ref("X")})
        with pytest.raises(IllFoundedRecursion):
            ogf(s, 3)

    def test_underivable_derive_fails_only_when_counted(self):
        # the enumerator marks atoms and needs no derivative; counting
        # needs the derivative, which refuses non-unit weights
        s = parse_dsl("D := DERIVE(WEIGHT(ATOM, 2));")
        assert Enumerator(s).enumerate_root(0) == [(("star",), 2)]
        eng = SeriesEngine(s)
        size = len(eng.program.kind)
        for _ in range(2):
            with pytest.raises(SpecError, match="non-unit weights"):
                eng.coeff(s.root, 1, 0)
        assert len(eng.program.kind) == size

    def test_derive_cycle_that_never_shrinks_is_ill_founded(self):
        # R = R' asks for derivatives of every order at one size
        s = parse_dsl("R := DERIVE(R);")
        with pytest.raises(IllFoundedRecursion):
            ogf(s, 3)

    def test_enumerator_refuses_derive_cycle_that_grows(self):
        # R = R' makes the enumerator ask for R at sizes n + 1, n + 2, ...
        # while R is busy at n; it raises as the engine does, before the
        # size guard
        s = parse_dsl("R := DERIVE(R);")
        for n in range(3):
            with pytest.raises(IllFoundedRecursion):
                Enumerator(s).enumerate_root(n)

    def test_set_of_possibly_empty_rejected(self):
        from polyagibbs.species import Epsilon, Union

        s = spec(SetOf(Union(Epsilon(), ATOM)))
        with pytest.raises(SpecError):
            ogf(s, 3)

    def test_seq_of_possibly_empty_rejected(self):
        from polyagibbs.species import Epsilon, Union

        s = spec(SeqOf(Union(ATOM, Epsilon())))
        with pytest.raises(SpecError):
            ogf(s, 3)


def _loop_recurrence(self, i, power, n, term, divisor):
    """The SET/SEQ recurrence as a plain loop over a dense q: the reference
    the engine's sums over cauchy_terms must match in value and type."""
    inner = self.program.args[i][0]
    if n == 0:
        if self.at(inner, power, 0) != 0:
            raise SpecError("inner species of SET/SEQ/COMPOSE must have no size-0 objects")
        return 1
    arr = self._arr[(i, power)]
    q = self._q.setdefault((i, power), [0])
    while len(q) <= n:
        q.append(term(inner, power, len(q)))
    total = 0
    for k in range(1, n + 1):
        if q[k]:
            total += q[k] * arr[n - k]
    return total if divisor == 1 else exact_div(total, divisor)


class LoopEngine(SeriesEngine):
    _recurrence = _loop_recurrence


class TestRecurrenceIdentity:
    @pytest.mark.parametrize(
        "text, n",
        [
            ("T := ATOM * SET(T); F := COMPOSE(SET, T);", 120),
            ("B := ATOM + ATOM * B * B; S := SEQ(B);", 120),
            ("T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);", 60),
            # the odd-size-only B weighted by 1/3 has Fraction(0) at even
            # sizes, which SEQ and SET read as their argument
            ("B := ATOM + ATOM * B * B; W := WEIGHT(B, 1/3); S := SEQ(W) * SET(W);", 60),
        ],
    )
    def test_streams_match_the_loop_in_value_and_type(self, text, n):
        s = parse_dsl(text)
        new, ref = SeriesEngine(s), LoopEngine(s)
        for power in (1, 2):
            new.ogf(n, power=power)
            ref.ogf(n, power=power)
        assert new._arr.keys() == ref._arr.keys()
        for key, stream in ref._arr.items():
            assert [(c, type(c)) for c in new._arr[key]] == [
                (c, type(c)) for c in stream
            ], key

    def test_rational_streams_hold_fraction_zeros(self):
        # the last case above exercises what it says
        eng = SeriesEngine(parse_dsl("B := ATOM + ATOM * B * B; W := WEIGHT(B, 1/3);"))
        w = eng.program.root
        assert [type(eng.at(w, 1, k)) for k in range(4)] == [Fraction] * 4
        assert eng.at(w, 1, 2) == 0


def _logged(handler, eng, i, power, n):
    eng.log.append((i, power, n))
    return handler(eng, i, power, n)


class LoggedEngine(SeriesEngine):
    """Logs (node id, power, degree) as each coefficient's count starts."""

    def __init__(self, spec):
        super().__init__(spec)
        self.log = []

    _count = [partial(_logged, h) for h in SeriesEngine._count]


class PerTermEngine(LoggedEngine):
    """The engine with the per-term ``at`` loops of ``tests/oracles.py``."""

    _euler_term = oracles.euler_term
    _count = list(LoggedEngine._count)
    _count[K_PRODUCT] = partial(
        _logged,
        lambda e, i, p, n: sum(
            w for _, w in oracles.product_terms(e, i, *e.program.args[i], p, n)
        ),
    )


TERM_SPECS = [
    "T := ATOM * SET(T); F := COMPOSE(SET, T);",
    # lattice span 2
    "B := ATOM + ATOM * B * B; F := COMPOSE(SET, B);",
    "L := ATOM + ATOM * L; F := COMPOSE(SEQ, L);",
    # Fraction streams
    "T := WEIGHT(ATOM, 1/2) * SET(T); F := COMPOSE(SET, T);",
    "T := ATOM * SET(T); D := ATOM * DERIVE(T); F := COMPOSE(SET, D);",
    # the left factor SEQ(L) has a size-0 object
    "L := ATOM + ATOM * L; P := SEQ(L) * SET(L);",
]


def _typed(pairs):
    return [(e, w, type(w)) for e, w in pairs]


class TestTermLoopIdentity:
    """The term loops over filled streams against the per-term ``at``
    loops: same pairs, same streams in value and type, and the same
    coefficients counted in the same order."""

    @pytest.mark.parametrize("text", TERM_SPECS)
    def test_streams_and_count_order_match(self, text):
        s = parse_dsl(text)
        new, ref = LoggedEngine(s), PerTermEngine(s)
        for power in (1, 2, 3):
            new.ogf(30, power=power)
            ref.ogf(30, power=power)
        assert new.log == ref.log
        assert new._arr.keys() == ref._arr.keys()
        for key, stream in ref._arr.items():
            assert [(c, type(c)) for c in new._arr[key]] == [
                (c, type(c)) for c in stream
            ], key

    @pytest.mark.parametrize("text", TERM_SPECS)
    def test_law_pairs_and_count_order_match(self, text):
        # fresh engines, so the pairs themselves fill the streams
        s = parse_dsl(text)
        new, ref = LoggedEngine(s), PerTermEngine(s)
        loops = {
            K_PRODUCT: (_product_terms, oracles.product_terms),
            K_SET: (_set_terms, oracles.set_terms),
            K_SEQ: (_seq_terms, oracles.seq_terms),
        }
        args = new.program.args
        ids = [i for i, k in enumerate(new.program.kind) if k in loops]
        checked = 0
        for n in range(13):
            for power in (1, 2, 3):
                for i in ids:
                    ours, theirs = loops[new.program.kind[i]]
                    got = _typed(ours(new, i, *args[i], power, n))
                    assert got == _typed(theirs(ref, i, *args[i], power, n)), (i, power, n)
                    checked += len(got)
        assert checked
        assert new.log == ref.log

    @pytest.mark.parametrize(
        "text, error",
        [
            ("B := ATOM + B * B;", IllFoundedRecursion),
            ("X := X * ATOM + ATOM;", IllFoundedRecursion),
            ("R := DERIVE(R);", IllFoundedRecursion),
            ("S := SET(EPSILON + ATOM);", SpecError),
            ("P := SEQ(ATOM) * SET(EPSILON + ATOM);", SpecError),
        ],
    )
    def test_same_errors_after_the_same_counts(self, text, error):
        s = parse_dsl(text)
        new, ref = LoggedEngine(s), PerTermEngine(s)
        for eng in (new, ref):
            with pytest.raises(error):
                eng.ogf(6)
        assert new.log == ref.log


# every weight 1, so nu^p = nu: one stream per node serves every power
UNIT_SPECS = [t for t in TERM_SPECS if "WEIGHT" not in t] + [
    "T := WEIGHT(ATOM * SET(T), 1); F := COMPOSE(SET, T);",
]
TABLE_SPEC = spec(
    SetOf(
        Weighted(
            SeqOf(ATOM),
            TableWeight.from_dict({canonicalize(("seq", (("atom",), ("atom",)))): F(5, 2)}),
        )
    )
)
# (spec, truncation): the enumerated TABLE stays small
NON_UNIT = [
    pytest.param(lambda: (parse_dsl(TERM_SPECS[3]), 30), id="weight-1/2"),
    pytest.param(
        lambda: (GibbsModel.from_series([0, 1, 2, 3], truncation=30).spec, 30),
        id="from-series",
    ),
    pytest.param(lambda: (TABLE_SPEC, 8), id="table"),
]


class TestUnitWeights:
    """A unit-weight program counts one stream per node for all powers;
    every stream equals the per-power reference's in value and type."""

    @pytest.mark.parametrize("text", UNIT_SPECS)
    def test_streams_match_the_per_power_reference(self, text):
        s = parse_dsl(text)
        new, ref = SeriesEngine(s), oracles.PerPowerEngine(s)
        assert new.program.unit
        for power in (1, 2, 3):
            new.ogf(30, power=power)
            ref.ogf(30, power=power)
        assert new.program.kind == ref.program.kind
        for i in range(len(ref.program.kind)):
            for power in (1, 2, 3):
                got = new.stream(i, power, 30)[:31]
                want = ref.stream(i, power, 30)[:31]
                assert [(c, type(c)) for c in got] == [(c, type(c)) for c in want], (i, power)
        assert {p for _, p in new._arr} == {1}
        assert {p for _, p in ref._arr} >= {1, 2, 3}

    @pytest.mark.parametrize("build", NON_UNIT)
    def test_other_programs_keep_a_stream_per_power(self, build):
        s, n = build()
        new, ref = SeriesEngine(s), oracles.PerPowerEngine(s)
        assert not new.program.unit
        streams = [new.ogf(n, power=p) for p in (1, 2)]
        assert streams[1] != streams[0]
        for p, got in zip((1, 2), streams):
            want = ref.ogf(n, power=p)
            assert [(c, type(c)) for c in got.coeffs] == [(c, type(c)) for c in want.coeffs]

    def test_forest_series_job_fills_one_stream_per_node(self):
        # the calls of one `asymptotics` + `diagnose` run at truncation 400
        model = GibbsModel.from_species(forests(), truncation=400)
        model.inner_ogf(1)
        model.composite_ogf
        model.rho
        coefficient_ratio_experiment(model)
        diagnose_subexponential(model.composite_ogf)
        streams = model.engine._arr
        assert len(streams) == 3
        assert sum(map(len, streams.values())) == 1203


@pytest.mark.xfail(
    strict=True,
    raises=IllFoundedRecursion,
    reason="a PRODUCT reads its left factor through degree n even when the "
    "right factor has no size-0 object; counting B * B needs per-node valuations",
)
@pytest.mark.parametrize(
    "count",
    [
        lambda s, n: SeriesEngine(s).coeff(s.root, 1, n),
        lambda s, n: sum(w for _, w in Enumerator(s).enumerate_root(n)),
    ],
    ids=["engine", "enumerator"],
)
def test_binary_trees_are_counted(count):
    # B := ATOM + B * B is well-founded: the Catalan numbers
    s = parse_dsl("B := ATOM + B * B;")
    assert [count(s, n) for n in range(1, 6)] == [1, 1, 2, 5, 14]


class TestThreadSafety:
    def test_concurrent_fill_is_consistent(self):
        import concurrent.futures

        eng = SeriesEngine(polya_trees())
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futs = [pool.submit(eng.ogf, 200) for _ in range(8)]
            results = [f.result() for f in futs]
        base = list(results[0].coeffs)
        assert all(list(r.coeffs) == base for r in results)
        assert base[:13] == TREE_COUNTS
