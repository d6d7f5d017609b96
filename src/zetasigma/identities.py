"""The identity registry behind ``zetasigma verify``.

Each identity is a row: a builder and the integer parameters it takes, each
declared with its default and its range.  A builder is called with the
working digits and the checked parameters, and returns its checks in order:
``(name, lhs, rhs)`` for a numeric check of two ``ApproxReal`` values, and
``(name, passed)`` for an exact one.  :func:`run` validates the parameters,
calls the builder and turns each check into the record that ``verify``
prints.  Every value carries its own working precision, so nothing here
depends on the caller's ``mp.prec``.

>>> [c["passed"] for c in run("zucker", 20, {"r": 2})]
[True, True]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath import mp

from .compositions import DualityClass, enumerate_compositions, format_class
from .delta import (
    _even_alternating_rhs,
    delta_class,
    delta_inductive,
    family_all_twos,
    family_leshchiner,
    family_selfdual_t4,
    family_t_family,
)
from .lincomb import LinComb
from . import numerics as num

__all__ = ["IDENTITIES", "Identity", "Param", "run"]

#: Digits carried beyond the requested tolerance when building both sides.
_GUARD_DIGITS = 8


@dataclass(frozen=True)
class Param:
    """An integer parameter: its default and the values lo, lo + step, ...
    up to hi (no upper end when hi is None)."""

    default: int
    lo: int
    hi: int | None = None
    step: int = 1

    def check(self, identity: str, key: str, value: int) -> int:
        if (
            not isinstance(value, int)
            or value < self.lo
            or (self.hi is not None and value > self.hi)
            or (value - self.lo) % self.step
        ):
            span = f"in {self.lo}..{self.hi}" if self.hi is not None else f">= {self.lo}"
            every = f" in steps of {self.step}" if self.step != 1 else ""
            raise ValueError(f"{identity}: {key} must be {span}{every}, got {value!r}")
        return value


@dataclass(frozen=True)
class Identity:
    """A registry row: ``build(digits, **params)`` returns the checks."""

    build: Callable[..., list]
    params: dict[str, Param] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _euler(d: int) -> list:
    return [("zeta(2) == 3*sigma(2)", num.zeta_int(2, d), num.sigma_tail((2,), 0, d).scale(3))]


def _zeta3(d: int) -> list:
    return [
        (
            "zeta(3) == 2*sigma(3) + 3*sigma(2,1)",
            num.zeta_int(3, d),
            num.evaluate(LinComb({(3,): 2, (2, 1): 3}), 0, d),
        )
    ]


def _weight4(d: int) -> list:
    p4 = num.pi(d).pow_int(4)
    return [
        ("sigma(4) == 17*pi^4/3240", num.sigma_tail((4,), 0, d), p4.scale(Fraction(17, 3240))),
        ("sigma(2,2) == pi^4/1944", num.sigma_tail((2, 2), 0, d), p4.scale(Fraction(1, 1944))),
        (
            "2*sigma(3,1) + 3*sigma(2,1,1) == pi^4/1620",
            num.evaluate(LinComb({(3, 1): 2, (2, 1, 1): 3}), 0, d),
            p4.scale(Fraction(1, 1620)),
        ),
    ]


_EU87_FIRST = LinComb(
    {(4, 1): 1, (3, 2): 6, (3, 1, 1): 4, (2, 3): 6, (2, 2, 1): 9, (2, 1, 2): 9, (2, 1, 1, 1): 6}
)
_EU87_SECOND = LinComb(
    {(4, 1): 11, (3, 2): 10, (3, 1, 1): 30, (2, 2, 1): 21, (2, 1, 2): 15, (2, 1, 1, 1): 45}
)


def _eu87(d: int) -> list:
    s5 = num.sigma_tail((5,), 0, d)
    return [
        ("sigma(5), depth-mixed expansion", s5, num.evaluate(_EU87_FIRST, 0, d)),
        ("sigma(5), second expansion", s5, num.evaluate(_EU87_SECOND, 0, d)),
    ]


def _eu88(d: int) -> list:
    return [
        (
            "4*sigma(4,1) == 6*sigma(2,2,1) + 22*sigma(3,1,1) + 33*sigma(2,1,1,1)",
            num.sigma_tail((4, 1), 0, d).scale(4),
            num.evaluate(LinComb({(2, 2, 1): 6, (3, 1, 1): 22, (2, 1, 1, 1): 33}), 0, d),
        )
    ]


def _zucker(d: int, r: int) -> list:
    p = num.pi(d)
    return [
        (
            f"sigma(2^{r}) == pi^{2 * r}/(9^{r}*({2 * r})!)",
            num.sigma_tail((2,) * r, 0, d),
            p.pow_int(2 * r).scale(Fraction(1, 9**r * math.factorial(2 * r))),
        ),
        (
            f"sigma(1,2^{r - 1}) == pi^{2 * r - 1}*sqrt(3)/(3^{2 * r}*({2 * r - 1})!)",
            num.sigma_tail((1,) + (2,) * (r - 1), 0, d),
            (p.pow_int(2 * r - 1) * num.sqrt3(d)).scale(
                Fraction(1, 3 ** (2 * r) * math.factorial(2 * r - 1))
            ),
        ),
    ]


def _th7(d: int, a: int, b: int) -> list:
    lhs = num.sigma_tail((2,) * a + (1,) + (2,) * b, 0, d)
    return [(f"sigma(2^{a},1,2^{b}) == closed form", lhs, num.th7_coeffs(a, b).evaluate(d))]


def _th8(d: int, a: int, b: int) -> list:
    lhs = num.sigma_tail((2,) * a + (3,) + (2,) * b, 0, d)
    return [(f"sigma(2^{a},3,2^{b}) == closed form", lhs, num.th8_coeffs(a, b).evaluate(d))]


def _zagier(d: int, a: int, b: int) -> list:
    lhs = num.zeta_sym_tail(DualityClass.of((2,) * a + (3,) + (2,) * b), 0, d)
    return [(f"zeta(2^{a},3,2^{b}) == closed form", lhs, num.zagier_coeffs(a, b).evaluate(d))]


def _bbb(d: int, k: int) -> list:
    return [
        (
            f"zeta({k}) == alternating even-composition sum",
            num.zeta_int(k, d),
            num.evaluate(-_even_alternating_rhs(k), 0, d),
        )
    ]


def _leshchiner(d: int, k: int) -> list:
    return [
        (
            f"2*(1-2^(1-{k}))*zeta({k}) == alternating depth sum",
            num.zeta_int(k, d).scale(2 - Fraction(2, 2 ** (k - 1))),
            num.evaluate(family_leshchiner(k)[1], 0, d),
        )
    ]


def _all_twos(d: int, m: int, n: int) -> list:
    _, rhs = family_all_twos(m)
    return [
        (
            f"zeta-tail(2^{m}) at n={n} == weighted sigma tails",
            num.zeta_sym_tail(DualityClass.of((2,) * m), n, d),
            num.evaluate(rhs, n, d),
        )
    ]


def _th17(d: int, r: int, n: int) -> list:
    lhs, rhs = family_selfdual_t4(r)
    return [
        (f"delta of signed height-weighted sum, weight {2 * r}", delta_inductive(lhs) == rhs),
        (f"numeric contraction at n={n}", num.evaluate(lhs, n, d), num.evaluate(rhs, n, d)),
    ]


def _th18(d: int, k: int) -> list:
    lhs, rhs = family_t_family(k)
    return [(f"one-parameter delta identity, weight {k}", delta_inductive(lhs) == rhs)]


_BBB_CONSTANTS = {
    4: Fraction(17, 2**4),
    6: Fraction(163, 2**7),
    8: Fraction(1373, 2**10),
    10: Fraction(11143, 2**13),
    12: Fraction(61835987, 2**16 * 691),
}


def _bbb_coeffs(d: int) -> list:
    return [
        (f"rational coefficient at k={k}", num.bbb_coefficient(k) == v)
        for k, v in sorted(_BBB_CONSTANTS.items())
    ]


def _t1_spotcheck(d: int, weight: int) -> list:
    checks = []
    for c in enumerate_compositions(weight, "classes"):
        image = delta_class(c)
        for n in (0, 1, 3):
            lhs = num.zeta_sym_tail(c, n, d)
            checks.append((f"zeta-tail{format_class(c)} at n={n}", lhs, num.evaluate(image, n, d)))
    return checks


_EVEN_K = Param(6, 2, 12, step=2)

IDENTITIES = {
    "euler": Identity(_euler),
    "zeta3": Identity(_zeta3),
    "weight4": Identity(_weight4),
    "eu87": Identity(_eu87),
    "eu88": Identity(_eu88),
    "zucker": Identity(_zucker, {"r": Param(3, 1, 8)}),
    "th7": Identity(_th7, {"a": Param(1, 1), "b": Param(1, 0)}),
    "th8": Identity(_th8, {"a": Param(1, 0), "b": Param(1, 0)}),
    "zagier": Identity(_zagier, {"a": Param(1, 0), "b": Param(1, 0)}),
    "bbb": Identity(_bbb, {"k": _EVEN_K}),
    "leshchiner": Identity(_leshchiner, {"k": Param(6, 4, 12, step=2)}),
    "all-twos": Identity(_all_twos, {"m": Param(3, 1, 6), "n": Param(0, 0)}),
    "th17": Identity(_th17, {"r": Param(2, 1, 4), "n": Param(0, 0)}),
    "th18": Identity(_th18, {"k": _EVEN_K}),
    "bbb-coeffs": Identity(_bbb_coeffs),
    "t1-spotcheck": Identity(_t1_spotcheck, {"weight": Param(5, 2, 8)}),
}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _record(check: tuple, digits: int) -> dict:
    """The printed record of one check; a numeric check passes when
    |lhs - rhs| plus both enclosure widths is at most 10^-digits."""
    if len(check) == 2:
        name, passed = check
        return {"name": name, "kind": "exact", "passed": bool(passed)}
    name, lhs, rhs = check
    res = num.residual_upper(lhs, rhs)
    tol = num._tolerance(digits, max(lhs.prec, rhs.prec))
    return {
        "name": name,
        "kind": "numeric",
        "residual": mp.nstr(res, 3),
        "tolerance": mp.nstr(tol, 3),
        "passed": bool(res <= tol),
    }


def run(name: str, digits: int, params: dict) -> list[dict]:
    """The check records of identity ``name`` at tolerance 10^-digits.

    ``params`` maps parameter names to integers; an omitted one takes its
    default.  An unknown parameter or a value out of its declared range
    raises ValueError before anything is computed.
    """
    row = IDENTITIES[name]
    unknown = sorted(set(params) - set(row.params))
    if unknown:
        allowed = ", ".join(row.params) or "none"
        raise ValueError(
            f"{name}: unknown --params keys: {', '.join(unknown)} (allowed: {allowed})"
        )
    values = {key: p.check(name, key, params.get(key, p.default)) for key, p in row.params.items()}
    return [_record(c, digits) for c in row.build(digits + _GUARD_DIGITS, **values)]
