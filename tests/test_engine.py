"""Coefficient engine: recurrences cross-checked against brute enumeration."""

from fractions import Fraction

import pytest

from polyagibbs import (
    ATOM,
    Compose,
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
from polyagibbs.species import AtomMultiplicative, Product, TableWeight, canonicalize

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


class TestGuards:
    def test_ill_founded(self):
        s = spec(Ref("X"), {"X": Ref("X")})
        with pytest.raises(IllFoundedRecursion):
            ogf(s, 3)

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
