"""Stuffle product, the first-entry-merged product, and the evaluation map.

``stuffle(a, b)`` is the usual quasi-shuffle: interleave the two entry
sequences in all order-preserving ways, optionally merging one entry of ``a``
with one entry of ``b`` by addition.

``boxast(a, b)`` adds the two first entries and stuffles the tails; by
convention it vanishes when exactly one argument is empty, and is the empty
composition when both are.

Both run on the integer codes of :mod:`.compositions`: a sentinel bit,
then the composition's word, first letter most significant.  Prepending an entry and taking the tail are single bit
operations there, and one memoized recursion on codes computes the product;
``stuffle`` and ``boxast`` decode its terms into tuple-keyed ``LinComb``
views.  As everywhere, the order in which a ``LinComb`` holds its terms is
not part of the contract; ``LinComb.support`` gives the canonical order.

``phi(p, q, lc)`` evaluates the exact rational

    phi_{p,q}(a) = q^(-a_1) * sum_{q > n_2 > ... > n_r > p} prod n_i^(-a_i)

linearly; it is multiplicative with respect to ``boxast``.

>>> str(stuffle((3,), (4, 1)))
'(7,1) + (4,4) + (4,3,1) + (4,1,3) + (3,4,1)'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .compositions import Composition, _code, _composition, check_composition
from .lincomb import LinComb


@lru_cache(maxsize=None)
def _stuffle(x: int, y: int) -> MappingProxyType:
    """The stuffle product on codes: a read-only map, shared by every
    caller, from codes to coefficients, all positive.

    The tail of a code drops its sentinel, and prepending an entry e to a
    code of weight w - e sets bit w; so every term of a product of weight w
    is a term of a smaller product with bit w set."""
    if x == 1 or y == 1:
        # the empty composition is the unit
        return MappingProxyType({x if y == 1 else y: 1})
    xt = x ^ (1 << (x.bit_length() - 1))
    yt = y ^ (1 << (y.bit_length() - 1))
    top = 1 << (x.bit_length() + y.bit_length() - 2)
    # the terms start with the sum of the two first entries, with x's or
    # with y's; only the last two groups can share a term, when x and y
    # have the same first entry
    d = {z | top: v for z, v in _stuffle(xt, yt).items()}
    d.update({z | top: v for z, v in _stuffle(xt, y).items()})
    if x.bit_length() - xt.bit_length() == y.bit_length() - yt.bit_length():
        get = d.get
        for z, v in _stuffle(x, yt).items():
            z |= top
            d[z] = get(z, 0) + v
    else:
        d.update({z | top: v for z, v in _stuffle(x, yt).items()})
    return MappingProxyType(d)


def stuffle(a: Composition, b: Composition) -> LinComb:
    """Stuffle product of two compositions as an integer combination."""
    d = _stuffle(_code(check_composition(a)), _code(check_composition(b)))
    return LinComb._wrap({_composition(z): v for z, v in d.items()})


def _cache_clear() -> None:
    """Empty both memos of this module: the products and the decoded codes."""
    _stuffle.cache_clear()
    _composition.cache_clear()


stuffle.cache_clear = _cache_clear
stuffle.cache_info = _stuffle.cache_info


def boxast(a: Composition, b: Composition) -> LinComb:
    """Merge the first entries, stuffle the tails.

    Conventions: empty # empty = empty composition; empty # (nonempty) = 0.

    >>> str(boxast((1,), (1,)))
    '(2)'
    """
    a, b = check_composition(a), check_composition(b)
    if not a or not b:
        return LinComb.single(()) if not a and not b else LinComb.zero()
    # the merged first entry sets the bit at the total weight
    top = 1 << (sum(a) + sum(b))
    d = _stuffle(_code(a[1:]), _code(b[1:]))
    return LinComb._wrap({_composition(z | top): v for z, v in d.items()})


def phi_composition(p: int, q: int, a: Composition) -> Fraction:
    """Exact value of phi_{p,q} on a single nonempty composition."""
    if not 0 <= p < q:
        raise ValueError(f"phi requires 0 <= p < q, got p={p}, q={q}")
    a = check_composition(a)
    if not a:
        raise ValueError("phi is defined on nonempty compositions")
    # f[m] = sum over chains m > n_j > ... > n_r > p of prod n_i^(-a_i),
    # built from the innermost entry outwards.
    f = [Fraction(1)] * (q + 1)
    for j in range(len(a) - 1, 0, -1):
        g = [Fraction(0)] * (q + 1)
        acc = Fraction(0)
        for m in range(p + 1, q + 1):
            g[m] = acc
            acc += Fraction(1, m ** a[j]) * f[m]
        f = g
    return Fraction(1, q ** a[0]) * f[q]


def phi(p: int, q: int, lc: LinComb) -> Fraction:
    """Linear extension of phi_{p,q}; exact rational output."""
    total = Fraction(0)
    for a, c in lc.items():
        total += c * phi_composition(p, q, a)
    return total
