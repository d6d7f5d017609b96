"""Stuffle product, the first-entry merge, and the finite model phi."""

import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import zetasigma.compositions as compositions_module
import zetasigma.delta as delta_module
from lincomb_oracle import tuple_boxast, tuple_stuffle
from zetasigma.compositions import DualityClass, weight
from zetasigma.delta import delta_explicit
from zetasigma.lincomb import LinComb
from zetasigma.stuffle import boxast, phi, phi_composition, stuffle

# the module, not the function that the package re-exports under its name
stuffle_module = importlib.import_module("zetasigma.stuffle")

small = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)
wide = st.lists(st.integers(1, 6), min_size=0, max_size=4).map(tuple)


def test_stuffle_frozen():
    got = stuffle((3,), (4, 1))
    want = LinComb(
        (((3, 4, 1), 1), ((4, 3, 1), 1), ((4, 1, 3), 1), ((7, 1), 1), ((4, 4), 1))
    )
    assert got == want


def test_stuffle_unit():
    assert stuffle((), (3, 1)) == LinComb.single((3, 1))
    assert stuffle((), ()) == LinComb.single(())


@given(small, small)
def test_stuffle_commutative(a, b):
    assert stuffle(a, b) == stuffle(b, a)


@given(small, small, small)
def test_stuffle_associative(a, b, c):
    x = stuffle(a, b).map_basis(lambda u: stuffle(u, c))
    y = stuffle(b, c).map_basis(lambda v: stuffle(a, v))
    assert x == y


def test_stuffle_term_count():
    # depth-(r,s) stuffle has sum of coefficients = sum_j C(r,j)*C(s,j)*... ;
    # cheap sanity: (1)*(1) has 3 terms, (1,1)*(1) has 5.
    assert sum(c for _, c in stuffle((1,), (1,)).items()) == 3
    assert sum(c for _, c in stuffle((1, 1), (1,)).items()) == 5


def test_ones_stuffle_binomial_expansion():
    # (1^m) * (1^n) = sum over {1,2}-compositions c of m+n with depth r,
    # s = 2r - m - n ones, of C(s, r-m) * c
    for m in range(0, 5):
        for n in range(0, 5):
            got = stuffle((1,) * m, (1,) * n)
            want_terms = []
            for c in _compositions_12(m + n):
                r = len(c)
                s = 2 * r - m - n
                coeff = math.comb(s, r - m) if 0 <= r - m <= s else 0
                if coeff:
                    want_terms.append((c, coeff))
            assert got == LinComb(want_terms), (m, n)


@given(wide, wide)
def test_products_on_codes_match_the_tuple_recursion(a, b):
    assert stuffle_module._composition(stuffle_module._code(a)) == a
    assert stuffle(a, b) == tuple_stuffle(a, b)
    assert boxast(a, b) == tuple_boxast(a, b)


def test_cache_clear_empties_every_memo_of_the_word_formula():
    # a cold start empties the products' memos through stuffle.cache_clear,
    # so every memo that the word formula reads must be emptied by it
    delta_explicit(DualityClass.of((4, 2, 3)))
    stuffle((2, 1), (3,))
    # the products decode their codes through compositions._composition,
    # named here because a cold start of the products leaves the other memo
    # of compositions, the listings of enumerate_compositions, as it is
    memos = [
        val
        for mod in (stuffle_module, delta_module)
        for val in vars(mod).values()
        if hasattr(val, "cache_info") and val.__module__ == mod.__name__
    ] + [compositions_module._composition]
    assert stuffle_module._stuffle in memos
    assert any(memo.cache_info().currsize for memo in memos)
    stuffle.cache_clear()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


def _compositions_12(k):
    if k == 0:
        return [()]
    out = []
    for first in (1, 2):
        if first <= k:
            out.extend((first,) + rest for rest in _compositions_12(k - first))
    return out


# ---------------------------------------------------------------- boxast

def test_boxast_examples():
    assert boxast((3,), (4, 1)) == LinComb.single((7, 1))
    assert boxast((3, 1), (2,)) == LinComb.single((5, 1))
    assert boxast((), ()) == LinComb.single(())
    assert boxast((2,), ()).is_zero
    assert boxast((), (2,)).is_zero
    got = boxast((2, 1), (2, 1))
    # first entries merge to 4; tails (1) * (1) = 2(1,1) + (2)
    assert got == LinComb((((4, 1, 1), 2), ((4, 2), 1)))


@given(small.filter(len), small.filter(len))
def test_boxast_weight_and_symmetry(a, b):
    got = boxast(a, b)
    for c, _ in got.items():
        assert weight(c) == weight(a) + weight(b)
        assert c[0] == a[0] + b[0]
    assert got == boxast(b, a)


def test_products_reject_non_positive_entries():
    for bad in ((0,), (2, 0), (3, -1)):
        for call in (
            lambda: stuffle(bad, (1,)),
            lambda: stuffle((1,), bad),
            lambda: boxast(bad, (2,)),
            lambda: boxast((2,), bad),
        ):
            with pytest.raises(ValueError):
                call()


# ---------------------------------------------------------------- phi

def test_phi_values():
    # phi_{p,q}(a) = q^{-a1} sum_{q>n2>...>nr>p} prod ni^{-ai}
    assert phi_composition(0, 3, (2,)) == Fraction(1, 9)
    assert phi_composition(1, 3, (2, 1)) == Fraction(1, 9) * Fraction(1, 2)
    assert phi_composition(2, 3, (2, 1)) == 0  # no n2 with 3 > n2 > 2
    assert phi_composition(0, 2, (1, 1)) == Fraction(1, 2)
    assert phi(0, 3, LinComb((((2,), 2), ((1, 1), 3)))) == Fraction(2, 9) + 3 * (
        Fraction(1, 3) * (1 + Fraction(1, 2))
    )


def test_phi_rejects_bad_window():
    import pytest

    with pytest.raises(ValueError):
        phi_composition(3, 3, (2,))
    with pytest.raises(ValueError):
        phi_composition(0, 2, ())


def test_phi_multiplicative_on_boxast_exhaustive():
    # exact multiplicativity on the first-entry merge for all nonempty pairs
    # with total weight <= 6 and all 0 <= p < q <= 6
    pool = [a for k in range(1, 6) for a in _all_compositions(k)]
    for a in pool:
        for b in pool:
            if weight(a) + weight(b) > 6:
                continue
            prod = boxast(a, b)
            for q in range(1, 7):
                for p in range(0, q):
                    lhs = phi(p, q, prod)
                    assert lhs == phi_composition(p, q, a) * phi_composition(
                        p, q, b
                    ), (a, b, p, q)


def _all_compositions(k):
    if k == 0:
        return [()]
    out = []
    for first in range(1, k + 1):
        out.extend((first,) + rest for rest in _all_compositions(k - first))
    return out
