"""Stuffle product, the first-entry-merged product, and the evaluation map.

``stuffle(a, b)`` is the usual quasi-shuffle: interleave the two entry
sequences in all order-preserving ways, optionally merging one entry of ``a``
with one entry of ``b`` by addition.

``boxast(a, b)`` adds the two first entries and stuffles the tails; by
convention it vanishes when exactly one argument is empty, and is the empty
composition when both are.

``phi(p, q, lc)`` evaluates the exact rational

    phi_{p,q}(a) = q^(-a_1) * sum_{q > n_2 > ... > n_r > p} prod n_i^(-a_i)

linearly; it is multiplicative with respect to ``boxast``.

>>> str(stuffle((3,), (4, 1)))
'(7,1) + (4,4) + (4,3,1) + (4,1,3) + (3,4,1)'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .compositions import Composition, check_composition
from .lincomb import LinComb, _acc


def _prepend(e: int, lc: LinComb):
    """The terms of ``lc`` with the entry ``e`` put in front of each basis
    composition (injective, so no two terms collide)."""
    return (((e,) + c, v) for c, v in lc.items())


def stuffle(a: Composition, b: Composition) -> LinComb:
    """Stuffle product of two compositions as an integer combination."""
    return _stuffle(check_composition(a), check_composition(b))


@lru_cache(maxsize=None)
def _stuffle(a: Composition, b: Composition) -> LinComb:
    """:func:`stuffle` on checked compositions, memoized."""
    if not a:
        return LinComb.single(b)
    if not b:
        return LinComb.single(a)
    d: dict = {}
    _acc(d, _prepend(a[0], _stuffle(a[1:], b)), 1)
    _acc(d, _prepend(b[0], _stuffle(a, b[1:])), 1)
    _acc(d, _prepend(a[0] + b[0], _stuffle(a[1:], b[1:])), 1)
    return LinComb._wrap(d)


stuffle.cache_clear = _stuffle.cache_clear
stuffle.cache_info = _stuffle.cache_info


def boxast(a: Composition, b: Composition) -> LinComb:
    """Merge the first entries, stuffle the tails.

    Conventions: empty # empty = empty composition; empty # (nonempty) = 0.

    >>> str(boxast((1,), (1,)))
    '(2)'
    """
    return LinComb._wrap(dict(_boxast(check_composition(a), check_composition(b))))


def _boxast(a: Composition, b: Composition):
    """The terms of :func:`boxast` on checked compositions."""
    if not a or not b:
        return () if a or b else (((), 1),)
    return _prepend(a[0] + b[0], _stuffle(a[1:], b[1:]))


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
