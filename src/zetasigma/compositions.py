"""Compositions, binary words, duality, and structural decompositions.

A composition is a finite tuple of positive integers ``(a_1, ..., a_r)``.
Throughout the package:

* ``weight(a)``  = a_1 + ... + a_r,
* ``depth(a)``   = r,
* ``height(a)``  = number of entries >= 2,
* ``a`` is *admissible* iff it is empty or a_1 >= 2.

Compositions of weight k are in bijection with binary words of length k
that do not end in 0, via

    word(a) = 0^(a_1 - 1) 1  0^(a_2 - 1) 1  ...  0^(a_r - 1) 1.

The package computes on one integer form of that word, the *code* of
``a``: a sentinel bit, then the word, first letter most significant
(:func:`_code`, :func:`_composition`).  The empty composition is 1, and a
code of weight k has ``bit_length`` k + 1.  An admissible word of weight
k >= 2 is 0 m 1 with m a (k-2)-bit number, and m is the composition's
*row*; the empty composition is row 0 of weight 0.  Descending
lexicographic order on tuples is ascending order on rows: the order of the
admissible and class listings, and of the rows and columns of the ``alpha``
and ``delta`` matrices.

The *dual* of an admissible composition is obtained by reversing and
complementing its word; duality is a weight-preserving involution on
admissible compositions, and ``DualityClass`` is the unordered pair
{a, dual(a)} with a canonical representative.

>>> dual((3,))
(2, 1)
>>> init_part((3, 2)), mid_part((3, 2)), fin_part((3, 2))
((3,), (2,), (2, 2))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Composition = tuple  # tuple[int, ...]
Word = tuple  # tuple[int, ...] of 0/1 bits

#: Guard against silent overflow in downstream machine-width code paths.
MAX_WEIGHT = 63

ENUM_FILTERS = (
    "admissible",
    "classes",
    "even_entries",
    "self_dual_classes",
    "entries_ge_2",
    "entries_le_2",
    "entries_in_23",
)


def check_composition(a: Composition) -> Composition:
    """Validate entries and the weight guard; return ``a`` unchanged."""
    if not all(isinstance(x, int) and x >= 1 for x in a):
        raise ValueError(f"composition entries must be positive integers: {a!r}")
    if sum(a) > MAX_WEIGHT:
        raise ValueError(f"weight {sum(a)} exceeds the supported cap {MAX_WEIGHT}")
    return tuple(a)


def weight(a: Composition) -> int:
    return sum(a)


def depth(a: Composition) -> int:
    return len(a)


def height(a: Composition) -> int:
    return sum(1 for x in a if x >= 2)


def is_admissible(a: Composition) -> bool:
    return len(a) == 0 or a[0] >= 2


def to_word(a: Composition) -> Word:
    """Binary word of ``a``: each entry e contributes e-1 zeros then a one.

    >>> to_word((2,))
    (0, 1)
    >>> to_word((3, 1))
    (0, 0, 1, 1)
    """
    return tuple(map(int, bin(_code(check_composition(a)))[3:]))


def from_word(w: Word) -> Composition:
    """Inverse of :func:`to_word`; rejects words ending in 0.

    >>> from_word((0, 1, 1, 0, 1))
    (2, 1, 2)
    """
    if not all(b in (0, 1) for b in w):
        raise ValueError(f"word bits must be 0/1: {w!r}")
    if len(w) and w[-1] != 1:
        raise ValueError(f"word ends in 0, not in the image of any composition: {w!r}")
    x = 1
    for b in w:
        x = x << 1 | int(b)
    return _composition(x)


def _code(a: Composition) -> int:
    """Integer code of a composition: a sentinel bit, then its word
    (:func:`to_word`), first letter most significant.  The empty
    composition is 1, and a code of weight w has ``bit_length`` w + 1."""
    x = 1
    for e in a:
        x = (x << e) | 1
    return x


@lru_cache(maxsize=None)
def _composition(x: int) -> Composition:
    """Inverse of :func:`_code` (memoized: a product of weight w has at most
    2^(w-1) distinct terms, each decoded many times)."""
    return tuple(map(len, bin(x)[3:].replace("1", "1 ").split()))


def _reversed_complement(i: int, n: int) -> int:
    """The n-bit word of i (n >= 1), reversed and complemented, as a number."""
    return int(format(i, f"0{n}b")[::-1], 2) ^ ((1 << n) - 1)


def reverse_complement(w: Word) -> Word:
    """Reverse the word and flip every bit."""
    return tuple(1 - b for b in reversed(w))


def dual(a: Composition) -> Composition:
    """Dual composition (reverse-complemented word); admissible input only.

    >>> dual((4,))
    (2, 1, 1)
    >>> dual((2, 2))
    (2, 2)
    """
    if not is_admissible(a):
        raise ValueError(f"dual is defined on admissible compositions only: {a!r}")
    return _dual(check_composition(a))


def _dual(a: Composition) -> Composition:
    """:func:`dual` on a tuple already known to be an admissible
    composition.  Read from the right, each entry e contributes 0 1^(e-1)
    to the reverse-complemented word, so an entry e >= 2 ends a run of z
    zeros (one for itself, one per entry 1 just right of it) and gives the
    entries z + 1, then e - 2 ones."""
    out: list[int] = []
    z = 0
    for e in reversed(a):
        z += 1
        if e > 1:
            out.append(z + 1)
            out.extend([1] * (e - 2))
            z = 0
    return tuple(out)


def init_part(a: Composition) -> Composition:
    """Drop the final entry (empty input maps to empty)."""
    check_composition(a)
    return tuple(a[:-1])


def fin_part(a: Composition) -> Composition:
    """Final part of an admissible composition.

    Piecewise: empty, and (2,1,...,1), map to empty; a first entry >= 3 is
    decremented; otherwise (first entry 2, a later entry >= 2) the leading
    (2,1,...,1) prefix is removed.

    >>> fin_part((2, 1, 1))
    ()
    >>> fin_part((3, 2))
    (2, 2)
    >>> fin_part((2, 1, 3, 1))
    (3, 1)
    """
    if not is_admissible(a):
        raise ValueError(f"fin_part requires an admissible composition: {a!r}")
    if len(a) == 0:
        return ()
    if a[0] >= 3:
        return (a[0] - 1,) + tuple(a[1:])
    for i in range(1, len(a)):
        if a[i] >= 2:
            return tuple(a[i:])
    return ()  # a == (2, 1, ..., 1)


def mid_part(a: Composition) -> Composition:
    """Middle part: init and fin commute, and mid is their composition."""
    return init_part(fin_part(a))


def _init_mid_fin(a: Composition) -> tuple:
    """(init, mid, fin) of a tuple already known to be an admissible
    composition; all three are admissible compositions."""
    fin = fin_part(a)
    return a[:-1], fin[:-1], fin


@dataclass(frozen=True, order=True)
class DualityClass:
    """Unordered pair {a, dual(a)} of admissible compositions.

    The canonical representative is the pair member that comes first in the
    package-wide descending lexicographic order (i.e. the tuple-wise larger
    one).

    >>> DualityClass.of((2, 1)).rep
    (3,)
    """

    rep: Composition

    @staticmethod
    def of(a: Composition) -> "DualityClass":
        if not is_admissible(a):
            raise ValueError(f"classes exist for admissible compositions only: {a!r}")
        return _class_of(check_composition(a))

    @property
    def weight(self) -> int:
        return weight(self.rep)

    @property
    def is_self_dual(self) -> bool:
        return dual(self.rep) == self.rep

    @property
    def members(self) -> tuple[Composition, ...]:
        d = dual(self.rep)
        return (self.rep,) if d == self.rep else (self.rep, d)

    def __str__(self) -> str:
        return format_class(self)


def _class_of(a: Composition) -> DualityClass:
    """:meth:`DualityClass.of` on a tuple already known to be an admissible
    composition."""
    return DualityClass(max(a, _dual(a)))


def _dual_rows(m: np.ndarray, w: int) -> np.ndarray:
    """Rows of the duals of the weight-w rows m (w >= 2): reversing and
    complementing 0 m 1 gives 0 m' 1, m' the reversed complement of m."""
    c = ~m
    out = np.zeros_like(m)
    for i in range(w - 2):
        out |= ((c >> i) & 1) << (w - 3 - i)
    return out


def _class_columns(w: int):
    """(column of the class of every weight-w row, representative rows).

    A class's representative is the member with the smaller word, the
    tuple-wise larger one that ``DualityClass.rep`` names, so the columns
    follow ``enumerate_compositions(w, "classes")``."""
    if w < 2:  # the empty composition alone at weight 0, none at weight 1
        return np.zeros(1 - w, dtype=np.int64), np.zeros(1 - w, dtype=np.int64)
    m = np.arange(1 << (w - 2), dtype=np.int64)
    d = _dual_rows(m, w)
    rep = m <= d
    return (np.cumsum(rep) - 1)[np.minimum(m, d)], np.flatnonzero(rep)


@lru_cache(maxsize=None)
def enumerate_compositions(k: int, filter: str) -> tuple:
    """Complete, duplicate-free listing for one of the supported filters.

    Orders: ``even_entries`` and ``self_dual_classes`` follow the base-2 word
    indexing (see :func:`even_composition_by_index` /
    :func:`self_dual_class_by_index`); all other filters use descending
    lexicographic order on entry tuples.

    >>> enumerate_compositions(4, "classes")
    (DualityClass(rep=(4,)), DualityClass(rep=(3, 1)), DualityClass(rep=(2, 2)))
    """
    if k < 0:
        raise ValueError("weight must be non-negative")
    if k > MAX_WEIGHT:
        raise ValueError(f"weight {k} exceeds the supported cap {MAX_WEIGHT}")
    if filter not in ENUM_FILTERS:
        raise ValueError(f"unknown filter {filter!r}; expected one of {ENUM_FILTERS}")

    if filter == "even_entries":
        if k % 2:
            return ()
        return tuple(even_composition_by_index(k, i) for i in range(n_even(k)))
    if filter == "self_dual_classes":
        if k % 2:
            return ()
        return tuple(self_dual_class_by_index(k, i) for i in range(n_self_dual(k)))

    # row m of weight k has the code 2^k | 2m + 1 (1 for the empty row), and
    # rows ascend in listing order
    cols, reps = _class_columns(k)
    if filter == "classes":
        return tuple(DualityClass(_composition(1 << k | 2 * m + 1)) for m in reps.tolist())
    adm = tuple(_composition(1 << k | 2 * m + 1) for m in range(len(cols)))
    if filter == "admissible":
        return adm
    if filter == "entries_ge_2":
        return tuple(a for a in adm if all(e >= 2 for e in a))
    if filter == "entries_le_2":
        return tuple(a for a in adm if all(e <= 2 for e in a))
    return tuple(a for a in adm if a and all(e in (2, 3) for e in a))  # entries_in_23


def n_even(k: int) -> int:
    """Number of weight-k compositions with all entries even (k even)."""
    return 1 if k == 0 else 2 ** (k // 2 - 1)


def n_self_dual(k: int) -> int:
    """Number of weight-k self-dual admissible classes (k even)."""
    return 1 if k == 0 else 2 ** (k // 2 - 1)


def even_composition_by_index(k: int, i: int) -> Composition:
    """i-th all-even composition of weight k in the base-2 word indexing.

    The k/2-bit expansion w(i) of i is reverse-complemented and the
    resulting composition is doubled entrywise.
    """
    if k % 2 or k < 0:
        raise ValueError("even-entry compositions exist for even weight only")
    if not 0 <= i < n_even(k):
        raise IndexError(i)
    if k == 0:
        return ()
    n = k // 2
    return tuple(2 * e for e in _composition((1 << n) | _reversed_complement(i, n)))


def self_dual_class_by_index(k: int, i: int) -> DualityClass:
    """i-th self-dual class of weight k in the base-2 word indexing.

    The class of the composition whose word is ``w(i) + reverse_complement(w(i))``
    with w(i) the k/2-bit expansion of i.
    """
    if k % 2 or k < 0:
        raise ValueError("self-dual classes exist for even weight only")
    if not 0 <= i < n_self_dual(k):
        raise IndexError(i)
    if k == 0:
        return DualityClass(())
    n = k // 2
    # the word is its own reversed complement, so the composition is its
    # class's representative
    return DualityClass(_composition((((1 << n) | i) << n) | _reversed_complement(i, n)))


def format_composition(a: Composition) -> str:
    """Text form: comma-separated entries; the empty composition is ``()``."""
    return "()" if len(a) == 0 else ",".join(str(e) for e in a)


def parse_composition(s: str) -> Composition:
    """Inverse of :func:`format_composition` (whitespace tolerated).

    >>> parse_composition("3,1")
    (3, 1)
    """
    t = s.strip()
    if t in ("()", ""):
        return ()
    try:
        a = tuple(int(p.strip()) for p in t.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse composition from {s!r}") from exc
    return check_composition(a)


def format_class(c: DualityClass) -> str:
    """Text form: the representative's entries in brackets; the empty class
    is ``[]``."""
    return "[" + ",".join(str(e) for e in c.rep) + "]"
