"""The weight-preserving map delta from classes to compositions.

``delta`` is the unique graded linear map sending the empty class to the
empty composition and satisfying  mu(delta([a])) = delta([a^init] + [a^mid] +
[a^fin])  for every nonempty class.  Two independent implementations are
provided:

* :func:`delta_class` / :func:`delta_inductive` — the defining recursion,
  solved weight by weight through the explicit inverse of ``mu``.  The
  image of each part p of [a] is homogeneous of weight |p|, and ``mu``
  inverts by appending the entry k - |p| to each of its terms, so the
  recursion extends the three images part by part.  Parts of equal weight
  extend theirs by the same entry, and those images are added: all three
  parts of [2] are empty, init = mid = () for a depth-1 class, and init
  and fin have equal weight when the last entry of ``a`` is the weight
  that fin drops (for instance 1, when the first entry is at least 3).
* :func:`delta_explicit` — a word-splitting formula: if w is the word of a
  representative ``a`` of weight k, then

      delta([a]) = sum_{i=1..k-1} (1 + (1-w_i) + w_{i+1}) * (L_i # R_i)

  where L_i is the composition of the reverse-complement of the first i
  letters, R_i the composition of the rest, and ``#`` merges first entries
  and stuffles tails (1-indexed letters).  It runs on the integer codes of
  :mod:`.compositions` (the word behind a sentinel bit), where the splits
  are bit operations, and decodes each term of the result once.

Closed-form expansions for eight structured families, the polynomial
coefficients :func:`c_b_poly`, and the even/self-dual submatrix
:func:`delta_submatrix` complete the module.

>>> from .compositions import DualityClass
>>> str(delta_class(DualityClass.of((3,))))
'2 (3) + 3 (2,1)'
"""

from __future__ import annotations

import math

from .compositions import (
    Composition,
    DualityClass,
    check_composition,
    enumerate_compositions,
    even_composition_by_index,
    height,
    is_admissible,
    n_even,
    n_self_dual,
    self_dual_class_by_index,
    _class_of,
    _code,
    _composition,
    _init_mid_fin,
)
from .lincomb import LinComb, Poly, T, _acc, class_projection
from .stuffle import _stuffle

_MEMO: dict = {}


def delta_class(c: DualityClass) -> LinComb:
    """delta of a single class, by the defining recursion (memoized)."""
    hit = _MEMO.get(c)
    if hit is not None:
        return hit
    a = c.rep
    if not a:
        val = LinComb.single(())
    else:
        k = sum(a)
        d: dict = {}
        appended = set()
        for p in _init_mid_fin(a):
            e = (k - sum(p),)
            img = delta_class(_class_of(p))._terms.items()
            if e in appended:
                _acc(d, ((b + e, v) for b, v in img), 1)
            else:
                appended.add(e)
                d.update({b + e: v for b, v in img})
        val = LinComb._wrap(d)
    _MEMO[c] = val
    return val


def delta_inductive(lc: LinComb) -> LinComb:
    """Linear extension of :func:`delta_class` over any coefficient ring."""
    return lc.map_basis(delta_class)


def delta_from_word(a: Composition) -> LinComb:
    """Word-splitting formula applied to one admissible composition.

    Both members of a duality class give the same result, so
    :func:`delta_explicit` may evaluate on either representative.
    """
    a = check_composition(a)
    if not is_admissible(a):
        raise ValueError(f"word formula needs an admissible composition: {a!r}")
    if len(a) == 0:
        return LinComb.single(())
    x = _code(a)
    k = sum(a)
    d: dict = {}
    get = d.get
    left = 1
    for i in range(1, k):
        # letters i-1 and i of the word are bits k-i and k-i-1 of x
        prev, nxt = (x >> (k - i)) & 1, (x >> (k - i - 1)) & 1
        coeff = 2 - prev + nxt
        # L_i is L_{i-1} with the letter 1 - prev put in front: the old
        # sentinel, bit i-1, becomes that letter and bit i the new sentinel
        left = (left ^ (prev << (i - 1))) | (1 << i)
        # both halves are nonempty words ending in 1, since the word starts
        # with 0 and ends with 1 (a is admissible and nonempty).  The terms
        # of L_i # R_i are those of the product of the two tails with bit k
        # set, which is added when decoding below
        right_tail = x & ((1 << (k - i)) - 1)
        for z, v in _stuffle(left ^ (1 << i), right_tail).items():
            d[z] = get(z, 0) + coeff * v
    # every coefficient is positive, so none cancels
    top = 1 << k
    return LinComb._wrap({_composition(z | top): v for z, v in d.items()})


def delta_explicit(c: DualityClass) -> LinComb:
    """delta of a single class by the word-splitting formula."""
    return delta_from_word(c.rep)


def _comb0(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def c_b_poly(b: Composition) -> Poly:
    """Polynomial coefficient of the even composition ``b`` in the graded
    image of sum_a (-1)^depth t^height [a]:

        (-1)^s (t^2-4t)^(depth-s) * (3t(2t+1)^(s-1) if b_1=2 else (2t+1)^s)

    with s the number of entries equal to 2.
    """
    b = check_composition(b)
    if any(e % 2 for e in b):
        raise ValueError(f"c_b_poly is defined on even compositions: {b!r}")
    if not b:
        return Poly((1,))
    s = sum(1 for e in b if e == 2)
    r = len(b)
    base = (T * T - 4 * T) ** (r - s)
    if b[0] == 2:
        head = 3 * T * (2 * T + 1) ** (s - 1)
    else:
        head = (2 * T + 1) ** s
    return ((-1) ** s) * base * head


def _compositions_with_entries(k: int, allowed, first_allowed) -> list:
    """All compositions of weight k with first entry in ``first_allowed`` and
    later entries in ``allowed``."""
    out: list[Composition] = []

    def rest(prefix: tuple, rem: int):
        if rem == 0:
            out.append(prefix)
            return
        for e in allowed:
            if e <= rem:
                rest(prefix + (e,), rem - e)

    for f in first_allowed:
        if f <= k:
            rest((f,), k - f)
    return out


def family_even_alternating(k: int):
    """All admissible classes of even weight k with alternating signs map to
    the (-3)^depth combination of even compositions."""
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    lhs = class_projection(
        LinComb((a, (-1) ** len(a)) for a in enumerate_compositions(k, "admissible"))
    )
    return lhs, _even_alternating_rhs(k)


def _even_alternating_rhs(k: int) -> LinComb:
    """Right side of :func:`family_even_alternating`, without its left side."""
    return LinComb((b, (-3) ** len(b)) for b in enumerate_compositions(k, "even_entries"))


def family_all_twos(m: int):
    """The class of (2,...,2) (m twos) expands over {2,4}-compositions."""
    if m < 1:
        raise ValueError("m >= 1 required")
    lhs = LinComb.single(DualityClass.of((2,) * m))
    terms = []
    for b in _compositions_with_entries(2 * m, (2, 4), (2, 4)):
        s = 2 * len(b) - m  # number of 2-entries
        coeff = 3 * 2 ** (s - 1) if b[0] == 2 else 2 ** s
        terms.append((b, coeff))
    return lhs, LinComb(terms)


def family_leshchiner(k: int):
    """Alternating hook classes (b,1,...,1) of even weight k."""
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    m = k // 2
    lhs = class_projection(
        LinComb(((b,) + (1,) * (k - b), (-1) ** b) for b in range(2, k + 1))
    )
    terms = [((2,) * m, 3 * (-1) ** (m - 1))]
    for c in range(2, m + 1):
        terms.append(((2 * c,) + (2,) * (m - c), 4 * (-1) ** (m - c)))
    return lhs, LinComb(terms)


def family_a_repeated(a: int, m: int):
    """The class of (a, a, ..., a) (m copies, a >= 3).

    Support: compositions b of weight a*m whose first entry lies in
    {2,...,a} or equals a+2 and whose later entries lie in {1,2,a,a+1,a+2},
    subject to a cap on the number s of later entries >= a and to a shape
    condition: removing the first entry, deleting the entries equal to a and
    substituting a+1 -> 1, a+2 -> 2 must leave u ones followed by v blocks
    (2,1,...,1) of size a-1, where (u, v) = (a - b_1, m-1-s) when b_1 <= a
    and (a-2, m-2-s) when b_1 = a+2.  Coefficients: 3, 2, 1 according to
    b_1 = 2, 3 <= b_1 <= a, b_1 = a+2.
    """
    if a < 3 or m < 1:
        raise ValueError("a >= 3 and m >= 1 required")
    k = a * m
    lhs = LinComb.single(DualityClass.of((a,) * m))
    firsts = tuple(range(2, a + 1)) + (a + 2,)
    allowed = (1, 2, a, a + 1, a + 2)
    terms = []
    for b in _compositions_with_entries(k, allowed, firsts):
        s = sum(1 for e in b[1:] if e >= a)
        if b[0] <= a:
            u, v = a - b[0], m - 1 - s
        else:
            u, v = a - 2, m - 2 - s
        if v < 0:
            continue
        reduced = []
        for e in b[1:]:
            if e == a:
                continue
            reduced.append(1 if e == a + 1 else (2 if e == a + 2 else e))
        pattern = (1,) * u + ((2,) + (1,) * (a - 2)) * v
        if tuple(reduced) != pattern:
            continue
        coeff = 3 if b[0] == 2 else (2 if b[0] <= a else 1)
        terms.append((b, coeff))
    return lhs, LinComb(terms)


def family_height_one(u: int, v: int):
    """The class of (u+1, 1, ..., 1) with v-1 ones (1 <= u <= v).

    Support: b = (b_1, tail of 1s and 2s) of weight u+v with 2 <= b_1 <= v+1
    and depth r >= max(u, v+2-b_1); with s the number of 1-entries,
    coefficients are 3*C(s, r-u) when b_1 = 2 and
    2*C(s, r-u) + [r >= v] * 2*C(s, r-v) when b_1 >= 3.
    """
    if not 1 <= u <= v:
        raise ValueError("1 <= u <= v required")
    k = u + v
    lhs = LinComb.single(DualityClass.of((u + 1,) + (1,) * (v - 1)))
    terms = []
    for b in _compositions_with_entries(k, (1, 2), tuple(range(2, min(v + 1, k) + 1))):
        r = len(b)
        if r < max(u, v + 2 - b[0]):
            continue
        s = 2 * r + b[0] - u - v - 2  # number of 1-entries
        if b[0] == 2:
            coeff = 3 * _comb0(s, r - u)
        else:
            coeff = 2 * _comb0(s, r - u) + (2 * _comb0(s, r - v) if r >= v else 0)
        if coeff:
            terms.append((b, coeff))
    return lhs, LinComb(terms)


def family_two_ones_v(u: int, v: int):
    """The class of (2, 1,...,1, v) with u-2 ones (u, v >= 2)."""
    if u < 2 or v < 2:
        raise ValueError("u, v >= 2 required")
    lhs = LinComb.single(DualityClass.of((2,) + (1,) * (u - 2) + (v,)))
    terms = [((u + v,), 1), ((2,) + (1,) * (u - 2) + (v,), 3), ((2,) + (1,) * (v - 2) + (u,), 3)]
    for b in range(3, u + 1):
        terms.append(((b,) + (1,) * (u - b) + (v,), 2))
    for b in range(3, v + 1):
        terms.append(((b,) + (1,) * (v - b) + (u,), 2))
    return lhs, LinComb(terms)


def family_t_family(k: int):
    """Polynomial-weighted alternating sum over all admissible classes of
    even weight k; the image collects :func:`c_b_poly` over even
    compositions."""
    if k < 0 or k % 2:
        raise ValueError("even weight k >= 0 required")
    if k == 0:
        return LinComb.single(DualityClass(()), Poly((1,))), LinComb.single((), Poly((1,)))
    lhs_terms = []
    for a in enumerate_compositions(k, "admissible"):
        coeff = Poly((0,) * height(a) + ((-1) ** len(a),))
        lhs_terms.append((a, coeff))
    lhs = class_projection(LinComb(lhs_terms))
    rhs = LinComb((b, c_b_poly(b)) for b in enumerate_compositions(k, "even_entries"))
    return lhs, rhs


def family_selfdual_t4(r: int):
    """4^(height-1)-weighted alternating sum of weight-2r classes maps to a
    single all-twos term with coefficient (-1)^r 3^(2r-1)."""
    if r < 1:
        raise ValueError("r >= 1 required")
    k = 2 * r
    lhs = class_projection(
        LinComb(
            (a, (-1) ** len(a) * 4 ** (height(a) - 1))
            for a in enumerate_compositions(k, "admissible")
        )
    )
    rhs = LinComb.single((2,) * r, (-1) ** r * 3 ** (2 * r - 1))
    return lhs, rhs


CLOSED_FAMILIES = {
    "even_alternating": family_even_alternating,
    "all_twos": family_all_twos,
    "leshchiner": family_leshchiner,
    "a_repeated": family_a_repeated,
    "height_one": family_height_one,
    "two_ones_v": family_two_ones_v,
    "t_family": family_t_family,
    "selfdual_t4": family_selfdual_t4,
}


def closed_family(name: str, *args, **kwargs):
    """Return the pair (lhs over classes, asserted delta image) for one of
    the closed families; ``delta_inductive(lhs) == rhs`` is the contract."""
    try:
        fam = CLOSED_FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; have {sorted(CLOSED_FAMILIES)}") from None
    return fam(*args, **kwargs)


def height_graded_family(k: int) -> list:
    """Height-filtered slices of :func:`family_t_family`: for h = 1..k/2 the
    pair (sum over admissible a of weight k and height h of (-1)^depth [a],
    its delta image read off from the t^h coefficients of c_b_poly)."""
    if k < 2 or k % 2:
        raise ValueError("even weight k >= 2 required")
    out = []
    evens = enumerate_compositions(k, "even_entries")
    for h in range(1, k // 2 + 1):
        lhs = class_projection(
            LinComb(
                (a, (-1) ** len(a))
                for a in enumerate_compositions(k, "admissible")
                if height(a) == h
            )
        )
        rhs = LinComb((b, c_b_poly(b).coefficient(h)) for b in evens)
        out.append((lhs, rhs))
    return out


def delta_submatrix(k: int) -> list:
    """Square submatrix of delta restricted to self-dual classes (columns)
    and even compositions (rows), both in base-2 word order; entry (i, j) is
    the coefficient of the i-th even composition in delta of the j-th
    self-dual class."""
    if k < 0 or k % 2:
        raise ValueError("even weight k >= 0 required")
    n = n_self_dual(k)
    assert n == n_even(k)
    cols = [delta_class(self_dual_class_by_index(k, j)) for j in range(n)]
    rows = [even_composition_by_index(k, i) for i in range(n)]
    return [[cols[j].coefficient_of(rows[i]) for j in range(n)] for i in range(n)]
