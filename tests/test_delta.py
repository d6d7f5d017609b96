"""The map delta: frozen small tables, two computation methods, closed
families, polynomial gradings, and the self-dual submatrix."""

import pytest

from zetasigma.compositions import (
    DualityClass,
    enumerate_compositions,
    even_composition_by_index,
    height,
    n_even,
    self_dual_class_by_index,
    weight,
)
from zetasigma.delta import (
    CLOSED_FAMILIES,
    c_b_poly,
    closed_family,
    delta_class,
    delta_explicit,
    delta_from_word,
    delta_inductive,
    delta_submatrix,
    family_t_family,
    height_graded_family,
)
import zetasigma.delta as delta_module
from linalg_oracle import rank_fraction
from zetasigma.exact_linalg import det_bareiss
from zetasigma.lincomb import LinComb, alpha, class_projection, mu

D = lambda a: delta_class(DualityClass.of(a))

FROZEN_DELTA = {
    (2,): [((2,), 3)],
    (3,): [((3,), 2), ((2, 1), 3)],
    (4,): [((4,), 2), ((3, 1), 2), ((2, 1, 1), 3)],
    (3, 1): [((3, 1), 4), ((2, 2), 3), ((2, 1, 1), 6)],
    (2, 2): [((4,), 1), ((2, 2), 6)],
    (5,): [((5,), 2), ((4, 1), 2), ((3, 1, 1), 2), ((2, 1, 1, 1), 3)],
    (4, 1): [
        ((4, 1), 2),
        ((3, 2), 2),
        ((3, 1, 1), 6),
        ((2, 2, 1), 3),
        ((2, 1, 2), 3),
        ((2, 1, 1, 1), 9),
    ],
    (3, 2): [((4, 1), 1), ((3, 2), 2), ((2, 3), 3), ((2, 2, 1), 6), ((2, 1, 2), 3)],
    (2, 3): [((5,), 1), ((3, 2), 2), ((2, 3), 3), ((2, 1, 2), 3)],
    (3, 3): [
        ((5, 1), 1),
        ((3, 3), 2),
        ((3, 2, 1), 2),
        ((2, 4), 3),
        ((2, 3, 1), 3),
        ((2, 1, 3), 3),
        ((2, 1, 2, 1), 3),
    ],
}


def test_frozen_tables():
    for a, terms in FROZEN_DELTA.items():
        assert D(a) == LinComb(terms), a


def test_empty_class():
    assert delta_class(DualityClass(())) == LinComb.single(())


def test_depth_one_closed_form():
    # twice each (b, 1, ..., 1) for 3 <= b <= a plus three times (2, 1, ..., 1)
    for a in range(2, 13):
        terms = [((b,) + (1,) * (a - b), 2) for b in range(3, a + 1)]
        terms.append(((2,) + (1,) * (a - 2), 3))
        assert D((a,)) == LinComb(terms), a


def test_memo_is_the_one_memo_of_the_recursion():
    # a cold start empties delta._MEMO (and every lru_cache), so the
    # recursion keeps its images there and nowhere else
    memo = delta_module._MEMO
    memo.clear()
    c = DualityClass.of((3, 1, 2, 2))
    image = delta_class(c)
    assert memo[c] is image
    assert all(
        isinstance(key, DualityClass) and isinstance(val, LinComb)
        for key, val in memo.items()
    )
    memo.clear()
    assert delta_class(c) is not image and delta_class(c) == image


def test_explicit_equals_inductive_small():
    # exhaustive up to weight 11 here; the acceptance suite pushes to 12
    for k in range(0, 12):
        for c in enumerate_compositions(k, "classes"):
            assert delta_explicit(c) == delta_class(c), c


def test_word_formula_duality_invariant():
    for k in range(2, 10):
        for c in enumerate_compositions(k, "classes"):
            members = c.members
            first = delta_from_word(members[0])
            for other in members[1:]:
                assert delta_from_word(other) == first, c


def test_word_formula_rejects_inadmissible():
    for bad in ((1,), (1, 2), (1, 1, 1)):
        with pytest.raises(ValueError):
            delta_from_word(bad)


def test_functional_equation():
    # dropping the last entry of every term of delta([a]) equals delta of
    # alpha([a]) (the init/mid/fin sum), for all classes of weight <= 12
    for k in range(1, 13):
        for c in enumerate_compositions(k, "classes"):
            lhs = mu(delta_class(c))
            rhs = delta_inductive(alpha(LinComb.single(c)))
            assert lhs == rhs, c


def test_image_weight_homogeneous():
    for k in range(2, 11):
        for c in enumerate_compositions(k, "classes"):
            img = delta_class(c)
            assert all(weight(b) == k for b, _ in img.items()), c


# ---------------------------------------------------------------- families

FAMILY_GRID = (
    [("even_alternating", (k,)) for k in range(2, 13, 2)]
    + [("all_twos", (m,)) for m in range(1, 7)]
    + [("leshchiner", (k,)) for k in range(2, 13, 2)]
    + [
        ("a_repeated", (a, m))
        for a in range(3, 13)
        for m in range(1, 12 // a + 1)
    ]
    + [
        ("height_one", (u, v))
        for u in range(1, 7)
        for v in range(u, 13 - u)
    ]
    + [
        ("two_ones_v", (u, v))
        for u in range(2, 11)
        for v in range(2, 13 - u)
    ]
    + [("t_family", (k,)) for k in range(0, 13, 2)]
    + [("selfdual_t4", (r,)) for r in range(1, 7)]
)


@pytest.mark.parametrize("name,args", FAMILY_GRID)
def test_closed_family(name, args):
    lhs, rhs = closed_family(name, *args)
    assert delta_inductive(lhs) == rhs, (name, args)


def test_closed_family_errors():
    with pytest.raises(ValueError):
        closed_family("no_such_family", 4)
    with pytest.raises(ValueError):
        closed_family("even_alternating", 5)
    with pytest.raises(ValueError):
        closed_family("a_repeated", 2, 3)
    with pytest.raises(ValueError):
        closed_family("height_one", 3, 2)
    assert set(CLOSED_FAMILIES) == {
        "even_alternating",
        "all_twos",
        "leshchiner",
        "a_repeated",
        "height_one",
        "two_ones_v",
        "t_family",
        "selfdual_t4",
    }


def _at(lc, t):
    return LinComb((b, c.evaluate(t)) for b, c in lc.items())


@pytest.mark.parametrize("k", range(2, 13, 2))
def test_t_family_specializations(k):
    lhs, rhs = family_t_family(k)

    # t = 1: plain alternating signs over all classes
    lhs1, rhs1 = closed_family("even_alternating", k)
    assert _at(lhs, 1) == lhs1
    assert _at(rhs, 1) == rhs1

    # t = 4: four times the 4^(height-1)-weighted family
    lhs4, rhs4 = closed_family("selfdual_t4", k // 2)
    assert _at(lhs, 4) == lhs4.scale(4)
    assert _at(rhs, 4) == rhs4.scale(4)

    # t = -1: coefficients 5^(depth-s), tripled when the first entry is 2
    want = LinComb(
        (b, (3 if b[0] == 2 else 1) * 5 ** (len(b) - sum(1 for e in b if e == 2)))
        for b in enumerate_compositions(k, "even_entries")
    )
    assert _at(rhs, -1) == want
    assert _at(lhs, -1) == class_projection(
        LinComb(
            (a, (-1) ** (len(a) - height(a)))
            for a in enumerate_compositions(k, "admissible")
        )
    )

    # t = -2: coefficients 3^depth 4^(depth-s), doubled when b_1 = 2
    want = LinComb(
        (
            b,
            (2 if b[0] == 2 else 1)
            * 3 ** len(b)
            * 4 ** (len(b) - sum(1 for e in b if e == 2)),
        )
        for b in enumerate_compositions(k, "even_entries")
    )
    assert _at(rhs, -2) == want
    assert _at(lhs, -2) == class_projection(
        LinComb(
            (a, (-1) ** (len(a) - height(a)) * 2 ** height(a))
            for a in enumerate_compositions(k, "admissible")
        )
    )


def test_c_b_poly_examples():
    assert c_b_poly((2,)).coeffs == (0, -3)  # -3t
    assert c_b_poly(()).coeffs == (1,)
    with pytest.raises(ValueError):
        c_b_poly((3,))


# ------------------------------------------------------------ support bounds

def test_odd_entry_bound():
    # every term of delta([a]) has at most weight - 2*height odd entries
    for k in range(2, 11):
        for c in enumerate_compositions(k, "classes"):
            cap = k - 2 * height(c.rep)
            for b, _ in delta_class(c).items():
                odd = sum(1 for e in b if e % 2)
                assert odd <= cap, (c, b)


def test_support_bounds_for_23_compositions():
    # for a with entries in {2,3} and s threes: image entries <= 5,
    # at most s odd entries per term
    for k in range(2, 11):
        for a in enumerate_compositions(k, "entries_in_23"):
            s = sum(1 for e in a if e == 3)
            for b, _ in D(a).items():
                assert max(b) <= 5, (a, b)
                assert sum(1 for e in b if e % 2) <= s, (a, b)


# ---------------------------------------------------- height-graded slices

@pytest.mark.parametrize("k", range(2, 13, 2))
def test_height_graded_slices(k):
    slices = height_graded_family(k)
    assert len(slices) == k // 2
    evens = enumerate_compositions(k, "even_entries")
    rows = []
    for lhs, rhs in slices:
        assert delta_inductive(lhs) == rhs
        rows.append([rhs.coefficient_of(b) for b in evens])
    # the k/2 slices are linearly independent over Q
    assert rank_fraction(rows) == k // 2


# ------------------------------------------------------------- submatrices

FROZEN_SUBMATRIX = {
    0: [[1]],
    2: [[3]],
    4: [[3, 6], [0, 1]],
    6: [[3, 6, 12, 0], [0, 1, 2, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
    8: [
        [3, 6, 12, 0, 6, 24, 0, 0],
        [0, 1, 2, 0, 0, 4, 0, 0],
        [0, 0, 3, 0, 0, 6, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 3, 6, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 4],
        [0, 0, 0, 0, 0, 0, 3, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
}


def test_submatrix_frozen():
    for k, want in FROZEN_SUBMATRIX.items():
        assert delta_submatrix(k) == want, k
    with pytest.raises(ValueError):
        delta_submatrix(3)


DETS = {0: 1, 2: 3, 4: 3, 6: 9, 8: 81, 10: 6561, 12: 43046721}


@pytest.mark.parametrize("k", range(0, 13, 2))
def test_submatrix_determinant(k):
    m = delta_submatrix(k)
    got = det_bareiss(m)
    assert got == DETS[k]
    assert got != 0


def _block_sizes(k):
    # sizes 2^(m(k-2i)) for i = 1..k/2, where the weight-j submatrix has
    # side 2^(j/2-1) for j >= 2 and side 1 for j = 0
    return [n_even(k - 2 * i) for i in range(1, k // 2 + 1)]


@pytest.mark.parametrize("k", range(4, 13, 2))
def test_submatrix_block_structure(k):
    m = delta_submatrix(k)
    n = len(m)
    sizes = _block_sizes(k)
    assert sum(sizes) == n
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)

    # row blocks collect the even compositions with last entry 2i,
    # column blocks the self-dual compositions with last entry i
    for i in range(1, k // 2 + 1):
        for r in range(starts[i - 1], starts[i]):
            assert even_composition_by_index(k, r)[-1] == 2 * i
            assert self_dual_class_by_index(k, r).rep[-1] == i

    for i in range(1, k // 2 + 1):
        for j in range(1, k // 2 + 1):
            block = [
                row[starts[j - 1] : starts[j]]
                for row in m[starts[i - 1] : starts[i]]
            ]
            if j == i:
                assert block == delta_submatrix(k - 2 * i), (k, i)
            elif j != 2 * i:
                assert all(e == 0 for row in block for e in row), (k, i, j)

    # upper triangular with diagonal alternating 3, 1
    for r in range(n):
        for cix in range(r):
            assert m[r][cix] == 0
        assert m[r][r] == (3 if r % 2 == 0 else 1)
