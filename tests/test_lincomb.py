"""Polynomials, linear combinations, JSON round-trips, alpha and mu."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zetasigma.compositions import DualityClass, enumerate_compositions, fin_part, init_part, mid_part
from zetasigma.lincomb import (
    LinComb,
    Poly,
    T,
    alpha,
    class_projection,
    mu,
    mu_invert,
)

small_comps = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(tuple)
int_lincombs = st.dictionaries(small_comps, st.integers(-9, 9), max_size=5).map(
    lambda d: LinComb(d.items())
)


# ---------------------------------------------------------------- Poly

def test_poly_basics():
    assert Poly((1, 0, 0)).coeffs == (1,)  # trimmed
    assert (T * T - 4 * T).coeffs == (0, -4, 1)
    assert (2 * T + 1) ** 2 == Poly((1, 4, 4))
    assert Poly((1, 2)).evaluate(3) == 7
    assert Poly(()).evaluate(5) == 0
    assert Poly((0, 1, 2)).coefficient(2) == 2
    assert Poly((0, 1, 2)).coefficient(7) == 0
    assert Poly((3,)).degree == 0
    assert str(T * T - 4 * T) == "-4t + t^2"
    assert Poly.of(1, -1) == Poly((1, -1))


def test_poly_fraction_coeffs():
    p = Poly((Fraction(1, 2), Fraction(-3, 4)))
    assert p.evaluate(2) == Fraction(1, 2) - Fraction(3, 2)
    assert (p + p).coeffs == (1, Fraction(-3, 2))


@given(st.lists(st.integers(-5, 5), max_size=4), st.integers(-3, 3))
def test_poly_evaluate_is_ring_hom(coeffs, x):
    p = Poly(tuple(coeffs))
    q = 2 * T + 1
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


# ---------------------------------------------------------------- LinComb

def test_lincomb_basics():
    a = LinComb.single((2,), 3)
    b = LinComb.single((3,))
    s = a + b
    assert s.coefficient_of((2,)) == 3
    assert s.coefficient_of((3,)) == 1
    assert s.coefficient_of((4,)) == 0
    assert (s - s).is_zero
    assert s.scale(0).is_zero
    assert (-a).coefficient_of((2,)) == -3
    assert 2 * a == a.scale(2)
    assert len(s) == 2


@given(int_lincombs, int_lincombs, st.integers(-5, 5))
def test_lincomb_module_laws(x, y, c):
    assert x + y == y + x
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x - y == x + (-y)
    assert x.scale(0).is_zero


@given(int_lincombs)
def test_map_basis_is_linear(x):
    f = lambda b: LinComb.single(b + (1,), 2)
    image = x.map_basis(f)
    manual = LinComb()
    for b, c in x.items():
        manual = manual + f(b).scale(c)
    assert image == manual


_RINGS = {
    "int": st.integers(-3, 3),
    "Fraction": st.fractions(-2, 2, max_denominator=3),
    "Poly": st.lists(st.integers(-2, 2), max_size=3).map(lambda c: Poly(tuple(c))),
}
# few basis elements, so that terms of different summands and images collide
_FEW_COMPS = st.sampled_from([(), (1,), (2,), (1, 1), (3,), (2, 1)])


def _dict_sum(*scaled):
    """sum of c * terms over the (c, terms) pairs, as a plain dict without
    zero values: the reference for the accumulate path."""
    out = {}
    for c, terms in scaled:
        for b, v in terms.items():
            out[b] = out.get(b, 0) + c * v
    return {b: v for b, v in out.items() if v != 0}


@given(st.sampled_from(sorted(_RINGS)), st.data())
def test_accumulate_path_matches_dict_reference(ring, data):
    coeff = _RINGS[ring]
    terms = st.dictionaries(_FEW_COMPS, coeff, max_size=5)
    x, y, c = data.draw(terms), data.draw(terms), data.draw(coeff)
    images = {b: data.draw(terms) for b in x}
    lx, ly = LinComb(x), LinComb(y)
    cases = {
        "add": (lx + ly, _dict_sum((1, x), (1, y))),
        "sub": (lx - ly, _dict_sum((1, x), (-1, y))),
        "scale": (lx.scale(c), _dict_sum((c, x))),
        "map_basis": (
            lx.map_basis(lambda b: LinComb(images[b])),
            _dict_sum(*((v, images[b]) for b, v in x.items())),
        ),
    }
    for name, (got, want) in cases.items():
        assert dict(got.items()) == want, name
        assert all(v != 0 for _, v in got.items()), name
        assert got == LinComb(want) and hash(got) == hash(LinComb(want)), name
    assert hash(lx + ly) == hash(ly + lx)
    assert (lx - ly) + ly == lx and hash((lx - ly) + ly) == hash(lx)


# ---------------------------------------------------------------- JSON

def test_json_round_trip_int_and_fraction():
    x = LinComb((((3, 1), 2), ((2, 2), Fraction(-5, 3))))
    obj = x.to_json_obj()
    assert LinComb.from_json_obj(obj) == x
    import json

    json.dumps(obj)  # serializable


def test_json_round_trip_poly_and_classes():
    x = LinComb(
        (
            ((4,), T * T - 4 * T),
            ((2, 2), Poly((Fraction(1, 2), 3))),
        )
    )
    assert LinComb.from_json_obj(x.to_json_obj()) == x
    y = LinComb.single(DualityClass.of((2, 1)), 7)
    assert LinComb.from_json_obj(y.to_json_obj()) == y
    import json

    json.dumps(x.to_json_obj())
    json.dumps(y.to_json_obj())


@given(int_lincombs)
def test_json_round_trip_property(x):
    assert LinComb.from_json_obj(x.to_json_obj()) == x


# ---------------------------------------------------------------- alpha / mu

def test_alpha_frozen_values():
    C = DualityClass.of
    one = LinComb.single
    assert alpha(one(C((2,)))) == one(DualityClass(())).scale(3)
    for k in range(3, 9):
        assert alpha(one(C((k,)))) == one(DualityClass(())).scale(2) + one(C((k - 1,)))
    assert alpha(one(C((3, 2)))) == one(C((3,))) + one(C((2,))) + one(C((2, 2)))
    for m in range(2, 6):
        got = alpha(one(C((2,) * m)))
        want = one(C((2,) * (m - 1))).scale(2) + one(C((2,) * (m - 2)))
        assert got == want


def test_alpha_matches_checked_class_builder():
    # alpha builds the classes of init, mid and fin without re-checking them;
    # the checked DualityClass.of gives the same images, term for term
    for k in range(1, 15):
        for c in enumerate_compositions(k, "classes"):
            a = c.rep
            want = LinComb((DualityClass.of(p), 1) for p in (init_part(a), mid_part(a), fin_part(a)))
            assert list(alpha(LinComb.single(c)).items()) == list(want.items())


def test_alpha_rejects_empty_class():
    with pytest.raises(ValueError):
        alpha(LinComb.single(DualityClass(())))


def test_alpha_rejects_non_class_basis():
    with pytest.raises(ValueError):
        alpha(LinComb.single((3, 2)))
    with pytest.raises(ValueError):
        alpha(LinComb.single(DualityClass.of((2,))) + LinComb.single((2,)))


def test_mu_invert_rejects_targets_outside_the_image():
    with pytest.raises(ValueError):
        mu_invert(LinComb.single((1, 2)), 5)  # inadmissible
    with pytest.raises(ValueError):
        mu_invert(LinComb.single(DualityClass.of((2,))), 5)  # not a composition
    for b in ((3,), (4,), (2, 1)):  # weight >= k
        with pytest.raises(ValueError):
            mu_invert(LinComb.single((2,)) + LinComb.single(b), 3)


def test_mu_drops_last_entry():
    x = LinComb((((3, 2), 1), ((2, 1, 2), 4)))
    assert mu(x) == LinComb((((3,), 1), ((2, 1), 4)))


def test_mu_inversion_exhaustive():
    # mu is injective on weight-k admissible combinations for k >= 2
    for k in range(2, 9):
        comps = enumerate_compositions(k, "admissible")
        x = LinComb((a, i + 1) for i, a in enumerate(comps))
        assert mu_invert(mu(x), k) == x


@given(st.integers(2, 8), st.data())
def test_mu_inversion_random(k, data):
    comps = enumerate_compositions(k, "admissible")
    coeffs = data.draw(
        st.lists(st.integers(-9, 9), min_size=len(comps), max_size=len(comps))
    )
    x = LinComb(zip(comps, coeffs))
    assert mu_invert(mu(x), k) == x


def test_class_projection():
    x = LinComb((((2, 1), 1), ((3,), 1), ((2, 2), 5)))
    p = class_projection(x)
    assert p.coefficient_of(DualityClass.of((3,))) == 2
    assert p.coefficient_of(DualityClass.of((2, 2))) == 5
