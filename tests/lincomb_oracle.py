"""The alpha and delta matrices built from tuple-keyed ``LinComb`` images,
column by column: the reference that the word-level builders in
``zetasigma.exact_linalg`` are tested against."""

import numpy as np

from zetasigma.compositions import enumerate_compositions
from zetasigma.delta import delta_class, delta_explicit
from zetasigma.lincomb import LinComb, alpha


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
