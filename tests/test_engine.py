"""Coefficient engine: recurrences cross-checked against brute enumeration."""

import math
from fractions import Fraction

import pytest

from polyagibbs import (
    ATOM,
    Compose,
    Derive,
    EmptySize,
    Enumerator,
    IllFoundedRecursion,
    Ref,
    SeqOf,
    SetOf,
    SeriesEngine,
    SpecError,
    Weighted,
    derived_spec,
    forests,
    ogf,
    parse_dsl,
    polya_trees,
    sized_species,
    spec,
)
from polyagibbs.series import exact_div
from polyagibbs.species import (
    K_PRODUCT,
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
