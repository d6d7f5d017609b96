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
    check_composition(a)
    bits: list[int] = []
    for e in a:
        bits.extend([0] * (e - 1))
        bits.append(1)
    return tuple(bits)


def from_word(w: Word) -> Composition:
    """Inverse of :func:`to_word`; rejects words ending in 0.

    >>> from_word((0, 1, 1, 0, 1))
    (2, 1, 2)
    """
    if not all(b in (0, 1) for b in w):
        raise ValueError(f"word bits must be 0/1: {w!r}")
    if len(w) and w[-1] != 1:
        raise ValueError(f"word ends in 0, not in the image of any composition: {w!r}")
    return _from_word(w)


def _from_word(w: Word) -> Composition:
    """:func:`from_word` on a word already known to be 0/1 and to end in 1."""
    out: list[int] = []
    run = 0
    for b in w:
        run += 1
        if b == 1:
            out.append(run)
            run = 0
    return tuple(out)


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


def _admissible_words(k: int):
    """All weight-k binary words starting with 0 and ending with 1."""
    if k == 0:
        yield ()
        return
    if k == 1:
        return
    for m in range(2 ** (k - 2)):
        mid = tuple((m >> (k - 3 - j)) & 1 for j in range(k - 2))
        yield (0,) + mid + (1,)


def _bits(i: int, n: int) -> Word:
    """n-bit big-endian expansion of i (leading zeros kept)."""
    return tuple((i >> (n - 1 - j)) & 1 for j in range(n))


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

    adm = [from_word(w) for w in _admissible_words(k)]
    if filter == "admissible":
        out = adm
    elif filter == "classes":
        out = list({DualityClass.of(a).rep for a in adm})
    elif filter == "entries_ge_2":
        out = [a for a in adm if all(e >= 2 for e in a)]
    elif filter == "entries_le_2":
        out = [a for a in adm if all(e <= 2 for e in a)]
    else:  # entries_in_23
        out = [a for a in adm if a and all(e in (2, 3) for e in a)]
    out.sort(reverse=True)
    if filter == "classes":
        return tuple(DualityClass(rep) for rep in out)
    return tuple(out)


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
    b = from_word(reverse_complement(_bits(i, k // 2)))
    return tuple(2 * e for e in b)


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
    w = _bits(i, k // 2)
    a = from_word(w + reverse_complement(w))
    return DualityClass.of(a)


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
