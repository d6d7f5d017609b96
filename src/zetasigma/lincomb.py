"""Finitely supported linear combinations and the structural maps mu / alpha.

``LinComb`` maps basis elements (compositions or duality classes) to nonzero
coefficients drawn from any commutative ring whose elements support ``+``,
``-``, ``*`` and comparison with 0 — in practice ``int``,
``fractions.Fraction``, and the dense integer polynomials :class:`Poly`
defined here (indeterminate ``t``).

The structural maps:

* ``mu``    sends a nonempty admissible composition to its init part and is,
  in each weight k >= 2, a bijection onto the direct sum of all lower
  weights; ``mu_invert`` computes the inverse explicitly.
* ``alpha`` sends a class [a] to [a^init] + [a^mid] + [a^fin].

>>> from .compositions import DualityClass
>>> str(alpha(LinComb.single(DualityClass.of((3, 2)))))
'[3] + [2,2] + [2]'
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .compositions import (
    DualityClass,
    _class_of,
    _init_mid_fin,
    format_class,
    format_composition,
    init_part,
    is_admissible,
    weight,
)


@dataclass(frozen=True)
class Poly:
    """Dense univariate integer polynomial in ``t`` (trimmed coefficients).

    >>> (T * T - 4 * T) ** 2
    Poly((0, 0, 16, -8, 1))
    """

    coeffs: tuple = ()

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(_trim(tuple(coeffs)))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(tuple(self.coeffs)))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        o = _as_poly(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(tuple(_at(self.coeffs, i) + _at(o.coeffs, i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        o = _as_poly(other)
        if not self.coeffs or not o.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        r = Poly((1,))
        for _ in range(n):
            r = r * self
        return r

    def __eq__(self, other) -> bool:
        return self.coeffs == _as_poly(other).coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def evaluate(self, x):
        """Horner evaluation at ``x`` (int, Fraction, ...)."""
        r = 0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

    def coefficient(self, i: int):
        return _at(self.coeffs, i)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if mono and abs(c) == 1:
                cs = "-" if c < 0 else ""
            else:
                cs = str(c)
            bits.append(cs + mono)
        out = " + ".join(bits)
        return out.replace("+ -", "- ")


def _trim(c: tuple) -> tuple:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _at(c: tuple, i: int):
    return c[i] if i < len(c) else 0


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,)) if x else Poly(())
    raise TypeError(f"cannot treat {x!r} as a polynomial")


#: The indeterminate.
T = Poly((0, 1))


def _basis_weight(b) -> int:
    return b.weight if isinstance(b, DualityClass) else weight(b)


def _basis_sort_key(b):
    return b.rep if isinstance(b, DualityClass) else tuple(b)


def _basis_str(b) -> str:
    if isinstance(b, DualityClass):
        return format_class(b)
    return "(" + format_composition(b) + ")" if len(b) else "()"


def _acc(d: dict, terms, c) -> None:
    """Add ``c`` times the ``(basis, coeff)`` pairs ``terms`` into ``d`` in
    place, dropping every coefficient that cancels to 0."""
    get = d.get
    for b, v in terms:
        s = get(b, 0) + c * v
        if s == 0:
            d.pop(b, None)
        else:
            d[b] = s


class LinComb:
    """Immutable finitely supported coefficient map; zero terms are purged.

    No stored coefficient is ever 0.  Every builder, the constructor
    included, fills one dict through :func:`_acc`, which merges repeated
    basis elements and drops what cancels.  Internal builders hand that dict
    to :meth:`_wrap`, which takes ownership without copying or re-checking
    it: the dict must be fresh (held by no one else), hold no zero
    coefficient, and never be mutated afterwards.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        d = {}
        _acc(d, terms.items() if hasattr(terms, "items") else terms, 1)
        object.__setattr__(self, "_terms", d)

    @classmethod
    def _wrap(cls, d: dict) -> "LinComb":
        """A LinComb that owns ``d`` (fresh, zero-free, never mutated after)."""
        lc = object.__new__(cls)
        object.__setattr__(lc, "_terms", d)
        return lc

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(b, c=1) -> "LinComb":
        return LinComb._wrap({} if c == 0 else {b: c})

    def items(self):
        return self._terms.items()

    def coefficient_of(self, b):
        return self._terms.get(b, 0)

    def support(self) -> tuple:
        return tuple(sorted(self._terms, key=_basis_sort_key, reverse=True))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "LinComb") -> "LinComb":
        d = dict(self._terms)
        _acc(d, other._terms.items(), 1)
        return LinComb._wrap(d)

    def __sub__(self, other: "LinComb") -> "LinComb":
        d = dict(self._terms)
        _acc(d, other._terms.items(), -1)
        return LinComb._wrap(d)

    def scale(self, c) -> "LinComb":
        d = {}
        if c != 0:
            _acc(d, self._terms.items(), c)
        return LinComb._wrap(d)

    def __rmul__(self, c) -> "LinComb":
        return self.scale(c)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def map_basis(self, f) -> "LinComb":
        """Linear extension of a basis-element map ``f: b -> LinComb``."""
        d = {}
        for b, c in self._terms.items():
            _acc(d, f(b)._terms.items(), c)
        return LinComb._wrap(d)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for b in self.support():
            c = self._terms[b]
            cs = "" if c == 1 else (f"({c})" if isinstance(c, Poly) else str(c))
            bits.append((cs + " " if cs else "") + _basis_str(b))
        return " + ".join(bits)

    def __repr__(self):
        return f"LinComb<{self}>"

    def to_json_obj(self) -> list:
        out = []
        for b in self.support():
            c = self._terms[b]
            if isinstance(c, Poly):
                cj = [str(x) if isinstance(x, Fraction) else x for x in c.coeffs]
            elif isinstance(c, Fraction):
                cj = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            else:
                cj = c
            bj = {"class": list(b.rep)} if isinstance(b, DualityClass) else list(b)
            out.append({"coeff": cj, "basis": bj})
        return out

    @staticmethod
    def from_json_obj(obj) -> "LinComb":
        terms = []
        for item in obj:
            cj = item["coeff"]
            if isinstance(cj, list):
                c = Poly(tuple(Fraction(x) if isinstance(x, str) else int(x) for x in cj))
            elif isinstance(cj, str):
                c = Fraction(cj)
            else:
                c = int(cj)
            bj = item["basis"]
            if isinstance(bj, dict):
                b = DualityClass.of(tuple(int(x) for x in bj["class"]))
            else:
                b = tuple(int(x) for x in bj)
            terms.append((b, c))
        return LinComb(terms)


def mu(lc: LinComb) -> LinComb:
    """Linear extension of a -> a^init on nonempty admissible compositions."""
    for b in lc._terms:
        if not isinstance(b, tuple) or not is_admissible(b):
            raise ValueError(f"mu acts on admissible compositions: {b!r}")
        if len(b) == 0:
            raise ValueError("mu is undefined on the empty composition")
    return lc.map_basis(lambda a: LinComb.single(init_part(a)))


def mu_invert(target: LinComb, k: int) -> LinComb:
    """Unique weight-k preimage of ``target`` under mu (k >= 2).

    Each admissible b of weight < k receives the single preimage obtained by
    appending the entry k - weight(b); the preimage of the empty composition
    is (k,).

    >>> mu_invert(LinComb.single((), 3), 2)
    LinComb<3 (2)>
    """
    if k < 2:
        raise ValueError("mu is bijective only for weight k >= 2")
    for b in target._terms:
        if not isinstance(b, tuple) or not is_admissible(b):
            raise ValueError(f"mu_invert needs admissible composition targets: {b!r}")
        if weight(b) >= k:
            raise ValueError(f"target {b!r} has weight >= {k}; not in the image of mu_k")
    return LinComb._wrap({b + (k - weight(b),): c for b, c in target._terms.items()})


def alpha(lc: LinComb) -> LinComb:
    """Linear extension of [a] -> [a^init] + [a^mid] + [a^fin] on classes.

    Undefined on the class of the empty composition.
    """
    def one(c: DualityClass) -> LinComb:
        if len(c.rep) == 0:
            raise ValueError("alpha is undefined on the empty class")
        return LinComb((_class_of(p), 1) for p in _init_mid_fin(c.rep))

    for b in lc._terms:
        if not isinstance(b, DualityClass):
            raise ValueError(f"alpha acts on duality classes: {b!r}")
    return lc.map_basis(one)


def class_projection(lc: LinComb) -> LinComb:
    """Linear extension of a -> [a]; support must be admissible compositions."""
    for b in lc._terms:
        if not isinstance(b, tuple) or not is_admissible(b):
            raise ValueError(f"class projection needs admissible compositions: {b!r}")
    return lc.map_basis(lambda a: LinComb.single(DualityClass.of(a)))
