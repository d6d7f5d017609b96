"""Linear algebra over Q by ``Fraction`` Gauss-Jordan elimination and
fraction-free row-space membership: the reference that the modular
``zetasigma.exact_linalg.certified_kernel`` and ``lattices_equal`` are
tested against.  It shares no code with them."""

from fractions import Fraction
from math import gcd, lcm


def rref_fraction(rows) -> tuple[int, tuple[int, ...], list[list[Fraction]]]:
    """Gauss-Jordan over Q: (rank, pivot columns, reduced nonzero rows)."""
    R = [[Fraction(x) for x in row] for row in rows]
    if not R:
        return 0, (), []
    n = len(R[0])
    pivots: list[int] = []
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, len(R)) if R[i][c]), None)
        if sel is None:
            continue
        R[r], R[sel] = R[sel], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return r, tuple(pivots), R[:r]


def rank_fraction(rows) -> int:
    return rref_fraction(rows)[0]


def fraction_kernel(rows, n_cols: int | None = None) -> list[list[Fraction]]:
    """Kernel basis over Q in reduced form (identity on free columns)."""
    rows = [list(r) for r in rows]
    if n_cols is None:
        if not rows:
            raise ValueError("n_cols is required for an empty matrix")
        n_cols = len(rows[0])
    r, pivots, R = rref_fraction(rows) if rows else (0, (), [])
    pivset = set(pivots)
    free = [c for c in range(n_cols) if c not in pivset]
    out = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        out.append(v)
    return out


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    c = gcd(*v)
    return [x // c for x in v] if c > 1 else v


class RowSpaceQ:
    """Echelonized Q-row-space supporting membership tests.

    Rows are kept as primitive integer vectors and reduced fraction-free:
    a rational input vector is first scaled to an integer one, which spans
    the same line."""

    def __init__(self, rows=()):
        self._rows: dict[int, list[int]] = {}
        for r in rows:
            self.insert(r)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v) -> list[int]:
        den = lcm(*(x.denominator for x in v))
        v = _primitive([int(x * den) for x in v])
        for piv in sorted(self._rows):
            a = v[piv]
            if a:
                row = self._rows[piv]
                g = gcd(a, row[piv])
                b, a = row[piv] // g, a // g
                v = _primitive([b * x - a * y for x, y in zip(v, row)])
        return v

    def insert(self, v) -> bool:
        """Add a vector; True if it enlarged the space."""
        res = self._reduce(v)
        piv = next((i for i, x in enumerate(res) if x), None)
        if piv is None:
            return False
        self._rows[piv] = res
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v))


def lattice_contains(basis, v) -> bool:
    """Membership of a vector in the saturated lattice spanned by
    ``basis``: it is integral and lies in the Q-span."""
    if any(int(x) != x for x in v):
        return False
    return RowSpaceQ(basis).contains([int(x) for x in v])


def lattices_equal(basis_a, basis_b) -> bool:
    """Equality of two saturated lattices: equal vector counts, equal rank
    and mutual Q-span membership of integer bases."""
    a, b = list(basis_a), list(basis_b)
    if len(a) != len(b):
        return False
    ra, rb = RowSpaceQ(a), RowSpaceQ(b)
    if ra.rank != rb.rank:
        return False
    return all(ra.contains(v) for v in b) and all(rb.contains(v) for v in a)
