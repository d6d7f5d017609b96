"""Arbitrary-precision evaluators with certified error bounds, exact
rational constant vectors, the independent oracles, and the frozen
reference digits."""

import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from conftest import (
    LCHI3_2_50,
    LCHI3_4_50,
    LCHI3_6_50,
    LCHI3_8_50,
    PI_50,
    ZETA3_50,
    ZETA5_50,
    ZETA7_50,
    ZETA9_50,
    assert_close,
    tol,
)
from zetasigma import identities, numerics as num
from zetasigma.compositions import (
    DualityClass,
    enumerate_compositions,
    fin_part,
    init_part,
    mid_part,
    weight,
)
from zetasigma.delta import delta_class, delta_inductive, family_selfdual_t4
from zetasigma.lincomb import LinComb, Poly

SIGMA2_45 = "0.548311355616075478824138388882008396406316634"


# ---------------------------------------------------------------- constants

def test_pi_digits():
    x = num.pi(50)
    assert abs(x.value - mp.mpf(PI_50)) < tol(49)
    assert x.abs_error < tol(50)


def test_sqrt3():
    s = num.sqrt3(50)
    assert abs(s.value * s.value - 3) < tol(48)
    assert s.abs_error < tol(50)


@pytest.mark.parametrize(
    "s,ref",
    [(3, ZETA3_50), (5, ZETA5_50), (7, ZETA7_50), (9, ZETA9_50)],
)
def test_zeta_odd_digits(s, ref):
    x = num.zeta_int(s, 50)
    assert abs(x.value - mp.mpf(ref)) < tol(49)
    assert x.abs_error < tol(50)


@pytest.mark.parametrize(
    "s,ref",
    [(2, LCHI3_2_50), (4, LCHI3_4_50), (6, LCHI3_6_50), (8, LCHI3_8_50)],
)
def test_L_chi3_digits(s, ref):
    x = num.L_chi3(s, 50)
    assert abs(x.value - mp.mpf(ref)) < tol(49)
    assert x.abs_error < tol(50)


def test_zeta_even_closed_form():
    z4 = num.zeta_int(4, 40)
    p4 = num.pi(40).pow_int(4).scale(Fraction(1, 90))
    assert_close(z4, p4, 38, "zeta(4) = pi^4/90")


def test_hurwitz_rational():
    v, b = num.hurwitz_rational(2, 1, 25)
    pi2_6 = num.pi(30).pow_int(2).scale(Fraction(1, 6))
    got = num.ApproxReal.from_enclosure(v, b)
    assert_close(got, pi2_6, 24, "zeta(2,1)")
    # L(s, chi3) = 3^-s (zeta(s,1/3) - zeta(s,2/3))
    v1, b1 = num.hurwitz_rational(2, Fraction(1, 3), 25)
    v2, b2 = num.hurwitz_rational(2, Fraction(2, 3), 25)
    comb = num.ApproxReal.from_enclosure(v1, b1) - num.ApproxReal.from_enclosure(v2, b2)
    assert_close(comb.scale(Fraction(1, 9)), num.L_chi3(2, 25), 23, "L(2,chi3)")


# ----------------------------------------------------------- exact rationals

def test_bernoulli_numbers():
    assert num.bernoulli_number(0) == 1
    assert num.bernoulli_number(1) == Fraction(-1, 2)
    assert num.bernoulli_number(12) == Fraction(-691, 2730)
    assert num.bernoulli_number(7) == 0


def test_bernoulli_numbers_match_fraction_recurrence():
    # the oracle: sum_{j<=m} C(m+1, j) B_j = 0, solved for B_m in Fractions
    B = [Fraction(1)]
    for m in range(1, 201):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    # a cold table grown one index at a time, and then at once past it
    num._BERNOULLI_EVEN[1:] = []
    assert [num.bernoulli_number(k) for k in range(101)] == B[:101]
    assert num.bernoulli_number(200) == B[200]
    assert [num.bernoulli_number(k) for k in range(201)] == B


def test_bernoulli_poly_and_power_sum():
    assert num.bernoulli_poly(3, Fraction(2)) == 3
    assert num.power_sum(2, 1, 5) == 30  # 1 + 4 + 9 + 16
    assert num.power_sum(3, 2, 6) == sum(n**3 for n in range(2, 6))


def test_harmonic():
    assert num.harmonic(4) == Fraction(25, 12)
    assert num.harmonic(0) == 0


def test_zeta_even_over_pi():
    assert num.zeta_even_over_pi(2) == Fraction(1, 6)
    assert num.zeta_even_over_pi(4) == Fraction(1, 90)
    assert num.zeta_even_over_pi(12) == Fraction(691, 638512875)


# ------------------------------------------------------- precision plumbing

def test_precision_gate():
    assert num.PRECISION.check(None) == 40
    assert num.PRECISION.check(7) == 7
    with pytest.raises(num.PrecisionCapError):
        num.PRECISION.check(0)
    with pytest.raises(num.PrecisionCapError):
        num.sigma_tail((2,), 0, 201)
    with pytest.raises(num.PrecisionCapError):
        num.zeta_sym_tail((2,), 0, 201)


def test_approx_real_arithmetic():
    third = num.ApproxReal.from_fraction(Fraction(1, 3))
    assert abs(float(third) - 1 / 3) < 1e-15
    s = third + third
    assert s.abs_error >= third.abs_error
    p = third * third
    assert abs(float(p) - 1 / 9) < 1e-15
    q = third.pow_int(3)
    assert abs(float(q) - 1 / 27) < 1e-15
    assert q.abs_upper() >= abs(q.value)
    assert "±" in third.formatted(10)
    assert num.agrees_to_digits(third, third, 30)
    far = num.ApproxReal.from_fraction(Fraction(1, 2))
    assert not num.agrees_to_digits(third, far, 3)


def test_approx_real_carries_its_precision():
    with mp.workprec(80):
        coarse = num.ApproxReal(1, 0)
    with mp.workprec(300):
        fine = num.ApproxReal.from_fraction(Fraction(1, 3))
    assert (coarse.prec, fine.prec) == (80, 300)
    with mp.workprec(53):
        for x in (coarse + fine, fine - coarse, coarse * fine, fine.scale(7), fine.pow_int(3), -fine):
            assert x.prec == 300
            assert x.abs_error < mp.mpf(2) ** -280
        assert (-coarse).prec == 80


def test_enclosures_keep_their_accuracy_at_53_bits():
    with mp.workprec(53):
        assert num.pi(40).pow_int(4).abs_error <= 1e-40
        s2 = num.sigma_tail((2,), 0, 40)
        assert (s2 + s2).abs_error <= 1e-40
        assert num.residual_upper(num.zeta_int(2, 40), s2.scale(3)) <= 1e-40
        assert num.agrees_to_digits(num.zeta_int(2, 40), s2.scale(3), 40)


@pytest.mark.parametrize("name", sorted(identities.IDENTITIES))
def test_identity_builders_ignore_the_ambient_precision(name):
    row = identities.IDENTITIES[name]
    defaults = {key: p.default for key, p in row.params.items()}

    def raw():
        return [
            [(x.value._mpf_, x.abs_error._mpf_) for x in check[1:]] if len(check) == 3 else check
            for check in row.build(48, **defaults)
        ]

    runs = []
    for prec in (53, 700, 3000):
        with mp.workprec(prec):
            runs.append(raw())
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------- sigma tails

def test_sigma2_frozen_digits():
    x = num.sigma_tail((2,), 0, 45)
    assert abs(x.value - mp.mpf(SIGMA2_45)) < tol(44)
    assert x.abs_error < tol(45)


def test_sigma_empty_and_errors():
    for n in (0, 1, 4):
        x = num.sigma_tail((), n, 20)
        assert abs(x.value - Fraction(1, math.comb(2 * n, n))) < tol(19)
    with pytest.raises(ValueError):
        num.sigma_tail((2,), -1, 20)


def test_sigma_known_values():
    pi = num.pi(42)
    assert_close(
        num.sigma_tail((4,), 0, 42),
        pi.pow_int(4).scale(Fraction(17, 3240)),
        40,
        "sigma(4)",
    )
    assert_close(
        num.sigma_tail((2, 2), 0, 42),
        pi.pow_int(4).scale(Fraction(1, 1944)),
        40,
        "sigma(2,2)",
    )
    combo = num.sigma_tail((3, 1), 0, 42).scale(2) + num.sigma_tail((2, 1, 1), 0, 42).scale(3)
    assert_close(combo, pi.pow_int(4).scale(Fraction(1, 1620)), 40, "E20 combo")


@pytest.mark.parametrize("r", range(1, 6))
def test_sigma_all_twos_closed_form(r):
    want = num.pi(42).pow_int(2 * r).scale(Fraction(1, 9**r * math.factorial(2 * r)))
    assert_close(num.sigma_tail((2,) * r, 0, 42), want, 40, f"sigma(2^{r})")


@pytest.mark.parametrize("r", (1, 2, 3))
def test_sigma_one_then_twos_closed_form(r):
    # sigma(1, 2^(r-1)) = pi^(2r-1) sqrt3 / (3^(2r) (2r-1)!)
    lhs = num.sigma_tail((1,) + (2,) * (r - 1), 0, 42)
    rhs = (
        num.pi(42).pow_int(2 * r - 1)
        * num.sqrt3(42).scale(Fraction(1, 3 ** (2 * r) * math.factorial(2 * r - 1)))
    )
    assert_close(lhs, rhs, 40, f"sigma(1,2^{r - 1})")


small_comps = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@given(small_comps, st.integers(1, 6))
def test_one_step_recurrence(a, n):
    # sigma(a)_{n-1} - sigma(a)_n = n^(-a_r) sigma(init(a))_n
    lhs = num.sigma_tail(a, n - 1, 25) - num.sigma_tail(a, n, 25)
    rhs = num.sigma_tail(a[:-1], n, 25).scale(Fraction(1, n ** a[-1]))
    assert num.agrees_to_digits(lhs, rhs, 20)


def test_three_part_descent_random_classes():
    rng = random.Random(20260819)
    pool = [c for k in range(2, 8) for c in enumerate_compositions(k, "classes")]
    for c in rng.sample(pool, 10):
        n = rng.randint(1, 4)
        k = c.weight
        lhs = num.zeta_sym_tail(c, n - 1, 25) - num.zeta_sym_tail(c, n, 25)
        rhs = None
        for part in (init_part(c.rep), mid_part(c.rep), fin_part(c.rep)):
            t = num.zeta_sym_tail(part, n, 25).scale(Fraction(1, n ** (k - weight(part))))
            rhs = t if rhs is None else rhs + t
        assert num.agrees_to_digits(lhs, rhs, 20), (c, n)


def test_truncation_bound_compliance():
    eps = 1 + mp.mpf("1e-10")
    pi2_6 = num.pi(30).pow_int(2).scale(Fraction(1, 6))
    for a in ((2,), (3, 1), (2, 1, 2), (4,), (2, 2)):
        s0 = num.sigma_tail(a, 0, 30)
        for n in (1, 3, 6):
            sn = num.sigma_tail(a, n, 30)
            assert sn.value - sn.abs_error <= s0.abs_upper() * eps / 4**n, (a, n)
            zn = num.zeta_sym_tail(a, n, 30)
            assert zn.value - zn.abs_error <= pi2_6.abs_upper() * eps / 4**n, (a, n)


# ------------------------------------------------------------- zeta_sym_tail

def test_zeta2_values():
    pi2_6 = num.pi(40).pow_int(2).scale(Fraction(1, 6))
    assert_close(num.zeta_sym_tail((2,), 0, 40), pi2_6, 38, "zeta(2)")
    for n in (0, 1, 5):
        assert_close(
            num.zeta_sym_tail((2,), n, 32),
            num.sigma_tail((2,), n, 32).scale(3),
            30,
            f"zeta(2)_n = 3 sigma(2)_n at n={n}",
        )


def test_zeta31_value():
    want = num.pi(42).pow_int(4).scale(Fraction(1, 360))
    assert_close(num.zeta_sym_tail((3, 1), 0, 42), want, 40, "zeta(3,1)")


def test_zeta_class_argument_forms():
    c = DualityClass.of((3,))
    a = num.zeta_sym_tail(c, 0, 25)
    b = num.zeta_sym_tail((2, 1), 0, 25)  # other member, same class
    assert num.agrees_to_digits(a, b, 24)
    x = num.zeta_sym_tail((), 2, 20)
    assert abs(x.value - Fraction(1, 6)) < tol(19)


def test_symmetric_equals_sigma_of_delta():
    # every class of weight <= 7, n in {0, 1, 3}, 30 digits
    for k in range(2, 8):
        for c in enumerate_compositions(k, "classes"):
            img = delta_class(c)
            for n in (0, 1, 3):
                lhs = num.zeta_sym_tail(c, n, 32)
                rhs = num.evaluate(img, n, 32)
                assert_close(lhs, rhs, 30, f"{c} at n={n}")


# ------------------------------------------------------------------ evaluate

SMALL_COMPS = [a for r in (1, 2, 3) for a in itertools.product(range(1, 5), repeat=r) if sum(a) <= 6]
SMALL_CLASSES = [c for k in range(2, 6) for c in enumerate_compositions(k, "classes")]
tail_ns = st.sampled_from((0, 1, 3))
coeffs = st.integers(-9, 9)


@st.composite
def comp_lincombs(draw):
    # a composition of depth >= 2 together with its init, so the terms share
    # a prefix, plus up to three more terms
    a = draw(st.sampled_from([a for a in SMALL_COMPS if len(a) >= 2]))
    keys = [a, a[:-1]] + draw(st.lists(st.sampled_from(SMALL_COMPS), max_size=3))
    return LinComb((b, draw(coeffs)) for b in keys)


def _sum_scaled(lc, tail):
    out = num.ApproxReal(0, 0)
    for b, c in lc.items():
        out = out + tail(b).scale(c)
    return out


@given(comp_lincombs(), tail_ns)
def test_evaluate_sigma_combinations(lc, n):
    got = num.evaluate(lc, n, 30)
    oracle = _sum_scaled(lc, lambda b: num.sigma_oracle(b, n, 12))
    assert abs(got.value - oracle.value) <= got.abs_error + oracle.abs_error
    one_by_one = _sum_scaled(lc, lambda b: num.sigma_tail(b, n, 30))
    assert num.residual_upper(got, one_by_one) <= mp.mpf("1e-28")


@given(st.lists(st.tuples(st.sampled_from(SMALL_CLASSES), coeffs), min_size=1, max_size=3), tail_ns)
def test_evaluate_classes_equals_evaluate_of_delta(terms, n):
    lc = LinComb(terms)
    got = num.evaluate(lc, n, 30)
    assert num.residual_upper(got, num.evaluate(delta_inductive(lc), n, 30)) <= mp.mpf("1e-28")


def test_evaluate_explicit_examples():
    zero = num.evaluate(LinComb.zero(), 2, 20)
    assert zero.value == 0 and zero.abs_error == 0
    for n in (0, 1, 4):
        for key in ((), DualityClass(())):
            x = num.evaluate(LinComb.single(key), n, 20)
            assert abs(x.value - Fraction(1, math.comb(2 * n, n))) <= x.abs_error
    # zeta_sym(2)_n = 3 sigma(2)_n, and a class key beside composition keys
    mixed = LinComb({DualityClass.of((2,)): 1, (2,): -3, DualityClass.of((3,)): 2, (2, 1): -2})
    for n in (0, 3):
        want = num.zeta_sym_tail((3,), n, 30).scale(2) - num.sigma_tail((2, 1), n, 30).scale(2)
        assert_close(num.evaluate(mixed, n, 30), want, 28, f"mixed at n={n}")
    with pytest.raises(ValueError):
        num.evaluate(LinComb.single((2,)), -1, 20)
    with pytest.raises(ValueError):
        num.evaluate(LinComb.single((2, 0)), 0, 20)


# ------------------------------------------------------------ relation suite

EU87_FIRST = (
    ((4, 1), 1),
    ((3, 2), 6),
    ((3, 1, 1), 4),
    ((2, 3), 6),
    ((2, 2, 1), 9),
    ((2, 1, 2), 9),
    ((2, 1, 1, 1), 6),
)
EU87_SECOND = (
    ((4, 1), 11),
    ((3, 2), 10),
    ((3, 1, 1), 30),
    ((2, 2, 1), 21),
    ((2, 1, 2), 15),
    ((2, 1, 1, 1), 45),
)


def test_weight5_sigma_relations():
    s5 = num.sigma_tail((5,), 0, 42)
    assert_close(s5, num.evaluate(LinComb(EU87_FIRST), 0, 42), 40, "first weight-5 relation")
    assert_close(s5, num.evaluate(LinComb(EU87_SECOND), 0, 42), 40, "second weight-5 relation")
    lhs = num.sigma_tail((4, 1), 0, 42).scale(4)
    rhs = num.evaluate(LinComb({(2, 2, 1): 6, (3, 1, 1): 22, (2, 1, 1, 1): 33}), 0, 42)
    assert_close(lhs, rhs, 40, "4 sigma(4,1) relation")


EU127_EXPECTED = [
    [Fraction(1, 108), Fraction(-3, 8), Fraction(1, 27), Fraction(29, 27)],
    [Fraction(0), Fraction(-9, 8), Fraction(-2, 27), Fraction(58, 9)],
    [Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(-575, 162)],
    [Fraction(-1, 162), Fraction(1), Fraction(-8, 81), Fraction(-575, 162)],
]
EU128_EXPECTED = [
    [Fraction(0), Fraction(1)],
    [Fraction(-1, 6), Fraction(2)],
    [Fraction(1, 2), Fraction(-11, 2)],
    [Fraction(-1, 3), Fraction(9, 2)],
]
EU129_EXPECTED = [
    [Fraction(9, 8), Fraction(1, 9), Fraction(-19, 3)],
    [Fraction(-7, 8), Fraction(-1, 18), Fraction(134, 27)],
    [Fraction(-1, 2), Fraction(-1, 9), Fraction(101, 27)],
]


def test_weight5_matrices_exact():
    assert num.eu127_matrix() == EU127_EXPECTED
    assert num.eu128_matrix() == EU128_EXPECTED
    assert num.eu129_matrix() == EU129_EXPECTED
    assert num.ZETA41_ZW == (Fraction(-1, 6), Fraction(2))


def _xyzw_values(digits):
    pi = num.pi(digits)
    s3 = num.sqrt3(digits)
    return (
        pi.pow_int(3) * s3 * num.L_chi3(2, digits),
        pi * s3 * num.L_chi3(4, digits),
        pi.pow_int(2) * num.zeta_int(3, digits),
        num.zeta_int(5, digits),
    )


def _contract(row, basis):
    tot = None
    for cf, b in zip(row, basis):
        t = b.scale(cf)
        tot = t if tot is None else tot + t
    return tot


def test_weight5_matrix_contractions():
    basis = _xyzw_values(44)
    targets = [
        num.sigma_tail((3, 2), 0, 44),
        num.sigma_tail((2, 3), 0, 44),
        num.sigma_tail((2, 2, 1), 0, 44),
        num.sigma_tail((2, 1, 2), 0, 44),
    ]
    for row, lhs in zip(num.eu127_matrix(), targets):
        assert_close(lhs, _contract(row, basis), 40, "4x4 weight-5 row")

    zw = basis[2:]
    ztargets = [
        num.zeta_sym_tail((5,), 0, 44),
        num.zeta_sym_tail((4, 1), 0, 44),
        num.zeta_sym_tail((3, 2), 0, 44),
        num.zeta_sym_tail((2, 3), 0, 44),
    ]
    for row, lhs in zip(num.eu128_matrix(), ztargets):
        assert_close(lhs, _contract(row, zw), 40, "double-zeta weight-5 row")

    yzw = basis[1:]
    stargets = [
        num.sigma_tail((5,), 0, 44),
        num.sigma_tail((4, 1), 0, 44),
        num.sigma_tail((3, 1, 1), 0, 44).scale(2)
        + num.sigma_tail((2, 1, 1, 1), 0, 44).scale(3),
    ]
    for row, lhs in zip(num.eu129_matrix(), stargets):
        assert_close(lhs, _contract(row, yzw), 40, "3x3 weight-5 row")


# ----------------------------------------------------- constant basis vectors

def test_basis_vector_build_and_algebra():
    v = num.ConstantBasisVector.build(5, {1: Fraction(11, 9)}, {1: Fraction(-1, 3)})
    assert v.zeta_dict() == {1: Fraction(11, 9)}
    w = v + v.scale(-1)
    assert w.zeta_dict() == {} and w.L_dict() == {}
    assert (v - v.scale(2)).zeta_dict() == {1: Fraction(-11, 9)}
    with pytest.raises(ValueError):
        num.ConstantBasisVector.build(4, {}, {})
    with pytest.raises(ValueError):
        num.ConstantBasisVector.build(5, {3: 1}, {})


def test_sigma_coeff_families_frozen():
    t = num.th8_coeffs(0, 0)
    assert t.zeta_dict() == {1: Fraction(-4, 3)}
    assert t.L_dict() == {1: Fraction(1, 2)}
    z = num.zagier_coeffs(0, 1)
    assert z.zeta_dict() == {1: Fraction(1, 2), 2: Fraction(-11, 2)}
    assert z.L_dict() == {}
    z2 = num.zagier_coeffs(1, 0)
    assert z2.zeta_dict() == {1: Fraction(-1, 3), 2: Fraction(9, 2)}
    for bad in ((0, 0), (-1, 2)):
        with pytest.raises(ValueError):
            num.th7_coeffs(*bad)
    with pytest.raises(ValueError):
        num.th8_coeffs(-1, 0)
    with pytest.raises(ValueError):
        num.zagier_coeffs(0, -1)


def test_weight5_xyzw():
    got = num.weight5_xyzw(num.th7_coeffs(1, 1))
    assert len(got) == 4
    with pytest.raises(ValueError):
        num.weight5_xyzw(num.ConstantBasisVector.build(7, {1: Fraction(1)}, {}))


def test_coeff_evaluation_matches_sigma():
    # depth-1 odd cases of the two coefficient families
    s3 = num.th8_coeffs(0, 0).evaluate(40)
    assert_close(s3, num.sigma_tail((3,), 0, 40), 36, "sigma(3) closed form")
    s21 = num.th7_coeffs(1, 0).evaluate(40)
    assert_close(s21, num.sigma_tail((2, 1), 0, 40), 36, "sigma(2,1) closed form")
    z32 = num.zagier_coeffs(0, 1).evaluate(40)
    assert_close(z32, num.zeta_sym_tail((3, 2), 0, 40), 36, "zeta(3,2) closed form")


def test_bbb_constants():
    assert num.bbb_coefficient(4) == Fraction(17, 16)
    assert num.bbb_coefficient(6) == Fraction(163, 128)
    assert num.bbb_coefficient(8) == Fraction(1373, 1024)
    assert num.bbb_coefficient(10) == Fraction(11143, 8192)
    assert num.bbb_coefficient(12) == Fraction(61835987, 65536 * 691)
    with pytest.raises(ValueError):
        num.bbb_coefficient(5)


def test_height_one_block_matrix():
    assert num.th7_block_matrix(3) == [[-3, 48], [2, -172]]
    with pytest.raises(ValueError):
        num.th7_block_matrix(4)


# ------------------------------------------------------------------- oracles

def test_sigma_oracle():
    for n in (0, 2):
        x = num.sigma_oracle((), n, 15)
        assert abs(x.value - Fraction(1, math.comb(2 * n, n))) < tol(14)
    a = num.sigma_oracle((3,), 0, 15)
    assert num.agrees_to_digits(a, num.sigma_tail((3,), 0, 20), 14)
    b = num.sigma_oracle((2, 1), 1, 15)
    assert num.agrees_to_digits(b, num.sigma_tail((2, 1), 1, 20), 14)
    with pytest.raises(num.PrecisionCapError):
        num.sigma_oracle((2,), 0, 25)


def test_zeta_oracle_basics():
    x = num.zeta_double_tail_oracle((2,), 0, 0, 10)
    pi2_6 = num.pi(20).pow_int(2).scale(Fraction(1, 6))
    assert num.agrees_to_digits(x, pi2_6, 10)
    with pytest.raises(num.CapabilityError):
        num.zeta_double_tail_oracle((2, 2), 0, 0, 10)


def test_zeta_oracle_duality():
    # swap the two tail parameters across dual compositions
    x = num.zeta_double_tail_oracle((3, 1), 2, 5, 10)
    y = num.zeta_double_tail_oracle((3, 1), 5, 2, 10)  # (3,1) is self-dual
    assert num.agrees_to_digits(x, y, 10)
    u = num.zeta_double_tail_oracle((3,), 1, 2, 10)
    v = num.zeta_double_tail_oracle((2, 1), 2, 1, 10)
    assert num.agrees_to_digits(u, v, 10)


def test_zeta_oracle_parameter_bound():
    # zeta(a)_{m,n} <= m^m n^n / (m+n)^(m+n) * zeta(a)
    for (a, m, n) in (((2,), 1, 2), ((3, 1), 2, 2)):
        x = num.zeta_double_tail_oracle(a, m, n, 10)
        full = num.zeta_double_tail_oracle(a, 0, 0, 10)
        cap = Fraction(m**m * n**n, (m + n) ** (m + n))
        assert x.value - x.abs_error <= full.abs_upper() * cap * (
            1 + mp.mpf("1e-8")
        ), (a, m, n)


def test_zeta_oracle_vs_symmetric_tail():
    for a, n in (((3,), 0), ((3, 1), 1), ((2, 2), 1)):
        x = num.zeta_double_tail_oracle(a, n, n, 10)
        y = num.zeta_sym_tail(a, n, 20)
        assert num.agrees_to_digits(x, y, 10), (a, n)


# ------------------------------------------------------ integer-entry reduce

def test_reduce_identity_and_zero_head():
    r = num.reduce_integer_entries((1, 2))
    assert list(r.items()) == [((1, 2), Poly((1,)))]
    r = num.reduce_integer_entries((0, 3))
    assert r.coefficient_of((1, 3)) == Poly((Fraction(2, 3),))
    assert r.coefficient_of((3,)) == Poly((Fraction(1, 3),))
    assert len(list(r.items())) == 2


def test_reduce_supports_are_compositions():
    for a in ((-2,), (0, 3), (2, -1, 2), (3, 0, 1), (-1, 2), (-1,)):
        red = num.reduce_integer_entries(a)
        for b, _ in red.items():
            assert all(e >= 1 for e in b), (a, b)


@pytest.mark.parametrize("a", [(-2,), (0, 3), (2, -1, 2), (3, 0, 1), (-1, 2)])
def test_reduce_matches_direct_summation(a):
    red = num.reduce_integer_entries(a)
    for n in (0, 1, 2):
        lhs = num.evaluate_reduction(red, n)
        rhs = num.sigma_oracle(a, n, 15)
        assert num.agrees_to_digits(lhs, rhs, 12), (a, n)


# ------------------------------------------------------ error-bound soundness

def test_error_bounds_sound_under_refinement():
    pairs = [
        (num.pi(25), num.pi(35)),
        (num.sqrt3(25), num.sqrt3(35)),
        (num.zeta_int(3, 25), num.zeta_int(3, 35)),
        (num.L_chi3(2, 25), num.L_chi3(2, 35)),
        (num.sigma_tail((2, 1), 1, 25), num.sigma_tail((2, 1), 1, 35)),
        (num.sigma_tail((3, 1, 2), 0, 25), num.sigma_tail((3, 1, 2), 0, 35)),
        (num.zeta_sym_tail((3, 1), 1, 25), num.zeta_sym_tail((3, 1), 1, 35)),
        (num.th8_coeffs(0, 0).evaluate(25), num.th8_coeffs(0, 0).evaluate(35)),
        (
            num.evaluate_reduction(num.reduce_integer_entries((0, 3)), 1, 10),
            num.evaluate_reduction(num.reduce_integer_entries((0, 3)), 1, 20),
        ),
        (num.sigma_oracle((2, 1), 0, 10), num.sigma_oracle((2, 1), 0, 20)),
        (
            num.zeta_double_tail_oracle((3,), 0, 0, 8),
            num.zeta_double_tail_oracle((3,), 0, 0, 14),
        ),
    ]
    for coarse, fine in pairs:
        assert abs(coarse.value - fine.value) <= coarse.abs_error


admissible_comps = (
    st.lists(st.integers(1, 7), min_size=1, max_size=5)
    .map(lambda a: (max(a[0], 2),) + tuple(a[1:]))
    .filter(lambda a: sum(a) <= 8)
)


@given(
    admissible_comps,
    st.sampled_from((0, 1, 3, 10)),
    st.sampled_from((20, 40)),
    st.integers(-9, 9),
    st.integers(1, 7),
)
def test_tail_enclosures_sound_under_refinement(a, n, digits, c, q):
    lc = LinComb({a: Fraction(c, q), DualityClass.of(a): 1, a[:-1]: -2})
    for f in (
        lambda d: num.sigma_tail(a, n, d),
        lambda d: num.zeta_sym_tail(a, n, d),
        lambda d: num.evaluate(lc, n, d),
    ):
        coarse, fine = f(digits), f(2 * digits)
        assert abs(coarse.value - fine.value) <= coarse.abs_error, (a, n, digits)
    s, oracle = num.sigma_tail(a, n, digits), num.sigma_oracle(a, n, 12)
    assert abs(s.value - oracle.value) <= s.abs_error + oracle.abs_error


def test_tail_accuracy_at_the_digit_cap():
    cap = num.PRECISION.cap
    for r in range(1, 8):
        a = (2, 1, 3, 1, 2, 1, 1)[:r]
        for n in (0, 10):
            assert num.sigma_tail(a, n, cap).abs_error <= tol(cap), (a, n)
    # the closure of (3,2,2,2,1) under init, mid and fin has 9 classes
    a = (3, 2, 2, 2, 1)
    closure, stack = set(), [DualityClass.of(a)]
    while stack:
        c = stack.pop()
        if c.rep and c not in closure:
            closure.add(c)
            stack.extend(DualityClass.of(p) for p in (init_part(c.rep), mid_part(c.rep), fin_part(c.rep)))
    assert weight(a) == 10 and len(closure) == 9
    for n in (0, 10):
        assert num.zeta_sym_tail(a, n, cap).abs_error <= tol(cap), n


def test_tails_far_past_the_seeded_start():
    # no descent from n: each tail is 0 within its seed bound at the start
    lhs, rhs = family_selfdual_t4(2)
    for n in (10**11, 10**13):
        for digits in (20, 150):
            for x in (
                num.sigma_tail((2,), n, digits),
                num.sigma_tail((), n, digits),
                num.zeta_sym_tail((2, 2, 2), n, digits),
                num.evaluate(lhs - rhs + LinComb({(): 5}), n, digits),
            ):
                assert abs(x.value) <= x.abs_error <= tol(digits), (n, digits)


def test_tail_enclosures_sound_across_the_seeded_start():
    # the seeded start is 27 at 10 digits and 43 or 44 at 20, so the coarse
    # call skips its descent from n = 27 on while the fine one still descends
    lc = LinComb({(2, 1): 3, DualityClass.of((3, 1)): -1, (): 2})
    for n in range(15, 43):
        for f in (
            lambda d: num.sigma_tail((2, 1), n, d),
            lambda d: num.sigma_tail((), n, d),
            lambda d: num.zeta_sym_tail((3, 1), n, d),
            lambda d: num.evaluate(lc, n, d),
        ):
            coarse, fine = f(10), f(20)
            assert abs(coarse.value - fine.value) <= coarse.abs_error, n
