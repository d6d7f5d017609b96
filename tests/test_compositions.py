"""Compositions, words, duality, parts, enumeration."""

import pytest
from hypothesis import given, strategies as st

from zetasigma.compositions import (
    DualityClass,
    depth,
    dual,
    enumerate_compositions,
    even_composition_by_index,
    fin_part,
    format_composition,
    from_word,
    height,
    init_part,
    is_admissible,
    mid_part,
    n_even,
    n_self_dual,
    parse_composition,
    reverse_complement,
    self_dual_class_by_index,
    to_word,
    weight,
)

compositions = st.lists(st.integers(1, 9), min_size=0, max_size=6).map(tuple)
admissibles = compositions.filter(is_admissible)
nonempty_admissibles = admissibles.filter(lambda a: len(a) > 0)


# ---------------------------------------------------------------- words

def test_word_examples():
    assert to_word(()) == ()
    assert to_word((2,)) == (0, 1)
    assert to_word((3, 1)) == (0, 0, 1, 1)
    assert to_word((2, 1, 2)) == (0, 1, 1, 0, 1)
    assert from_word((0, 1, 1, 0, 1)) == (2, 1, 2)


def test_word_never_ends_in_zero_and_rejects():
    with pytest.raises(ValueError):
        from_word((1, 0))
    for a in [(2,), (3, 1), (5, 2, 1)]:
        assert to_word(a)[-1] == 1


@given(compositions)
def test_word_round_trip(a):
    assert from_word(to_word(a)) == a
    assert len(to_word(a)) == weight(a)


# ---------------------------------------------------------------- duality

DUAL_PAIRS = {
    (2,): (2,),
    (3,): (2, 1),
    (4,): (2, 1, 1),
    (4, 1): (3, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 3): (2, 1, 2),
    (5, 1): (3, 1, 1, 1),
    (4, 2): (2, 2, 1, 1),
    (3, 3): (2, 1, 2, 1),
    (3, 1, 2): (2, 3, 1),
    (2, 4): (2, 1, 1, 2),
}


def test_dual_table():
    for a, b in DUAL_PAIRS.items():
        assert dual(a) == b
        assert dual(b) == a


def test_self_dual_small():
    self_dual = {(2, 2), (3, 1), (4, 1, 1), (3, 2, 1), (2, 2, 2), (2, 1, 3)}
    for k in range(0, 7):
        for a in enumerate_compositions(k, "admissible"):
            if 4 <= k <= 6:
                assert (dual(a) == a) == (a in self_dual), a
    assert dual(()) == ()


def test_dual_is_the_reverse_complemented_word():
    # dual reads the entries off directly; the word definition is the oracle
    for k in range(0, 15):
        for a in enumerate_compositions(k, "admissible"):
            assert dual(a) == from_word(reverse_complement(to_word(a))), a


def test_dual_rejects_inadmissible():
    with pytest.raises(ValueError):
        dual((1, 2))


@given(admissibles)
def test_dual_involution_and_depth(a):
    assert dual(dual(a)) == a
    assert weight(dual(a)) == weight(a)
    if a:
        assert depth(a) + depth(dual(a)) == weight(a)
        assert height(a) == height(dual(a))


@given(admissibles)
def test_reverse_complement_matches_dual(a):
    assert from_word(reverse_complement(to_word(a))) == dual(a)


# ---------------------------------------------------------------- parts

def test_parts_examples():
    assert init_part((3, 2)) == (3,)
    assert init_part((2,)) == ()
    assert fin_part((3, 2)) == (2, 2)
    assert fin_part((2, 1, 1)) == ()
    assert fin_part((2, 1, 3, 1)) == (3, 1)
    assert fin_part((2,)) == ()
    assert mid_part((3, 2)) == (2,)
    assert mid_part((4, 1)) == (3,)
    for a in [(), (2, 1, 1, 1)]:
        assert fin_part(a) == ()


@given(nonempty_admissibles)
def test_parts_admissible_and_mid(a):
    for part in (init_part(a), fin_part(a), mid_part(a)):
        assert is_admissible(part)
    assert mid_part(a) == init_part(fin_part(a))
    assert weight(init_part(a)) == weight(a) - a[-1]


def test_fin_is_dual_init_dual():
    # the final part is the structural mirror of the initial part
    for k in range(2, 9):
        for a in enumerate_compositions(k, "admissible"):
            assert fin_part(a) == dual(init_part(dual(a)))


# ---------------------------------------------------------------- classes

def test_class_representative_and_members():
    c = DualityClass.of((2, 1))
    assert c.rep == (3,)
    assert set(c.members) == {(3,), (2, 1)}
    assert DualityClass.of((2, 2)).is_self_dual
    assert not DualityClass.of((3,)).is_self_dual
    with pytest.raises(ValueError):
        DualityClass.of((1, 2))


@given(admissibles)
def test_class_rep_is_max(a):
    c = DualityClass.of(a)
    assert c.rep == max(a, dual(a))
    assert DualityClass.of(dual(a)) == c


# ---------------------------------------------------------------- enumeration

def test_counts():
    assert [len(enumerate_compositions(k, "admissible")) for k in range(2, 13)] == [
        2 ** (k - 2) for k in range(2, 13)
    ]
    b_counts = [1, 0, 1, 1, 3, 4, 10, 16, 36, 64, 136, 256, 528]
    assert [len(enumerate_compositions(k, "classes")) for k in range(0, 13)] == b_counts


def test_enumeration_descending_lex():
    for k in range(15):
        for f in ("admissible", "entries_ge_2", "entries_le_2", "entries_in_23"):
            comps = enumerate_compositions(k, f)
            assert list(comps) == sorted(comps, reverse=True), (k, f)
        reps = [c.rep for c in enumerate_compositions(k, "classes")]
        assert reps == sorted(reps, reverse=True), k
        # the representatives are the admissible a with a >= dual(a)
        assert reps == [a for a in enumerate_compositions(k, "admissible") if a >= dual(a)], k


def test_filters_consistent():
    for k in (6, 7):
        adm = set(enumerate_compositions(k, "admissible"))
        assert set(enumerate_compositions(k, "entries_ge_2")) == {
            a for a in adm if all(e >= 2 for e in a)
        }
        assert set(enumerate_compositions(k, "entries_le_2")) == {
            a for a in adm if all(e <= 2 for e in a)
        }
        assert set(enumerate_compositions(k, "entries_in_23")) == {
            a for a in adm if all(e in (2, 3) for e in a)
        }
    assert set(enumerate_compositions(6, "even_entries")) == {
        (6,), (4, 2), (2, 4), (2, 2, 2)
    }


def test_even_and_self_dual_indexing():
    for k in (0, 2, 4, 6, 8):
        ne, ns = n_even(k), n_self_dual(k)
        assert ne == ns == (1 if k == 0 else 2 ** (k // 2 - 1))
        evens = [even_composition_by_index(k, i) for i in range(ne)]
        assert set(evens) == set(enumerate_compositions(k, "even_entries"))
        assert len(set(evens)) == ne
        sds = [self_dual_class_by_index(k, i) for i in range(ns)]
        assert set(sds) == set(enumerate_compositions(k, "self_dual_classes"))
        for c in sds:
            assert dual(c.rep) == c.rep


def test_self_dual_class_order_is_descending_lex():
    for k in (4, 6, 8):
        listed = enumerate_compositions(k, "self_dual_classes")
        reps = [c.rep for c in listed]
        assert reps == sorted(reps, reverse=True)


# ---------------------------------------------------------------- parsing

def test_parse_format_round_trip():
    assert parse_composition("3,1") == (3, 1)
    assert parse_composition(" 2 , 1 , 2 ") == (2, 1, 2)
    assert parse_composition("()") == ()
    for a in [(), (2,), (4, 1, 2)]:
        assert parse_composition(format_composition(a)) == a
    with pytest.raises(ValueError):
        parse_composition("3,0")
