"""Tuple-keyed references: the alpha and delta matrices built from
``LinComb`` images column by column, which the word-level builders in
``zetasigma.exact_linalg`` are tested against, and the stuffle product by
the recursion on entry tuples, which the products on integer codes in
``zetasigma.stuffle`` are tested against."""

from functools import lru_cache

import numpy as np

from zetasigma.compositions import enumerate_compositions
from zetasigma.delta import delta_class, delta_explicit
from zetasigma.lincomb import LinComb, _acc, alpha


def class_row_basis(k: int) -> list:
    """The rows of ``alpha_matrix(k)``: all duality classes of weight < k,
    graded, enumeration order within each weight."""
    return [cls for kp in range(k) for cls in enumerate_compositions(kp, "classes")]


def matrix_from_columns(columns, row_basis) -> np.ndarray:
    """Integer matrix whose j-th column lists the coefficients of
    ``columns[j]`` (a LinComb) on ``row_basis``."""
    index = {b: i for i, b in enumerate(row_basis)}
    A = np.zeros((len(index), len(columns)), dtype=np.int64)
    for j, lc in enumerate(columns):
        A[[index[b] for b, _ in lc.items()], j] = [int(c) for _, c in lc.items()]
    return A


def delta_matrix(k: int) -> np.ndarray:
    """delta at weight k by the recursion, or by the word formula from
    weight 14 on, where the recursion's memo grows large."""
    image = delta_explicit if k >= 14 else delta_class
    cols = [image(c) for c in enumerate_compositions(k, "classes")]
    return matrix_from_columns(cols, enumerate_compositions(k, "admissible"))


def alpha_matrix(k: int) -> np.ndarray:
    cols = [alpha(LinComb.single(c)) for c in enumerate_compositions(k, "classes")]
    return matrix_from_columns(cols, class_row_basis(k))


def _prepend(e: int, lc: LinComb):
    """The terms of ``lc`` with the entry ``e`` put in front of each basis
    composition (injective, so no two terms collide)."""
    return (((e,) + c, v) for c, v in lc.items())


@lru_cache(maxsize=None)
def tuple_stuffle(a: tuple, b: tuple) -> LinComb:
    """The stuffle product of two compositions, by the recursion on their
    first entries."""
    if not a:
        return LinComb.single(b)
    if not b:
        return LinComb.single(a)
    d: dict = {}
    _acc(d, _prepend(a[0], tuple_stuffle(a[1:], b)), 1)
    _acc(d, _prepend(b[0], tuple_stuffle(a, b[1:])), 1)
    _acc(d, _prepend(a[0] + b[0], tuple_stuffle(a[1:], b[1:])), 1)
    return LinComb._wrap(d)


def tuple_boxast(a: tuple, b: tuple) -> LinComb:
    """Merge the first entries and stuffle the tails; empty # empty is the
    empty composition, and empty # (nonempty) is 0."""
    if not a or not b:
        return LinComb.single(()) if not a and not b else LinComb.zero()
    return LinComb(_prepend(a[0] + b[0], tuple_stuffle(a[1:], b[1:])))
