"""Acceptance suite: the twelve contracted end-to-end checks, with pinned
tolerances and seeds.  Each criterion is one test (or one small group), so
a red cross here points at the exact broken guarantee."""

import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import (
    assert_close,
    requires_extended,
    tol,
)
from linalg_oracle import lattice_contains
from zetasigma import numerics as num
from zetasigma.compositions import (
    DualityClass,
    dual,
    enumerate_compositions,
    even_composition_by_index,
    from_word,
    height,
    n_even,
    self_dual_class_by_index,
    to_word,
)
from zetasigma.delta import (
    closed_family,
    delta_class,
    delta_explicit,
    delta_inductive,
    delta_submatrix,
    family_all_twos,
    family_t_family,
)
from zetasigma.exact_linalg import (
    delta_matrix,
    det_bareiss,
    kernel_of_alpha,
    kernel_of_delta,
    lattices_equal,
    preimage_lattice,
)
from zetasigma.lincomb import LinComb, class_projection, mu, mu_invert
from zetasigma.stuffle import boxast, phi_composition


# --------------------------------------------------------------- criterion 1
# Frozen small tables of the contraction map; the two evaluation methods
# agree on every class of weight <= 12, in under a minute.

FROZEN_DELTA = {
    (2,): [((2,), 3)],
    (3,): [((3,), 2), ((2, 1), 3)],
    (4,): [((4,), 2), ((3, 1), 2), ((2, 1, 1), 3)],
    (3, 1): [((3, 1), 4), ((2, 2), 3), ((2, 1, 1), 6)],
    (2, 2): [((4,), 1), ((2, 2), 6)],
    (5,): [((5,), 2), ((4, 1), 2), ((3, 1, 1), 2), ((2, 1, 1, 1), 3)],
    (4, 1): [
        ((4, 1), 2),
        ((3, 2), 2),
        ((3, 1, 1), 6),
        ((2, 2, 1), 3),
        ((2, 1, 2), 3),
        ((2, 1, 1, 1), 9),
    ],
    (3, 2): [
        ((4, 1), 1),
        ((3, 2), 2),
        ((2, 3), 3),
        ((2, 2, 1), 6),
        ((2, 1, 2), 3),
    ],
    (2, 3): [((5,), 1), ((3, 2), 2), ((2, 3), 3), ((2, 1, 2), 3)],
    (3, 3): [
        ((5, 1), 1),
        ((3, 3), 2),
        ((3, 2, 1), 2),
        ((2, 4), 3),
        ((2, 3, 1), 3),
        ((2, 1, 3), 3),
        ((2, 1, 2, 1), 3),
    ],
}


def test_criterion_1_delta_tables_and_methods():
    t0 = time.monotonic()
    for a, terms in FROZEN_DELTA.items():
        assert delta_class(DualityClass.of(a)) == LinComb(terms), a
    for k in range(0, 13):
        for c in enumerate_compositions(k, "classes"):
            assert delta_class(c) == delta_explicit(c), c
    assert time.monotonic() - t0 < 60


# --------------------------------------------------------------- criterion 2
# Exact kernel-rank tables for the two graded maps, and the frozen weight-6
# generator of the first nontrivial kernel.

ALPHA_KERNEL_RANKS = (0, 0, 0, 0, 0, 1, 0, 3, 2, 9, 10, 31)  # k = 1..12
DELTA_KERNEL_RANKS = (0, 0, 0, 0, 0, 0, 1, 0, 4, 2, 14, 15, 52)  # k = 0..12

WEIGHT6_CLASS_ORDER = [
    (6,),
    (5, 1),
    (4, 2),
    (4, 1, 1),
    (3, 3),
    (3, 2, 1),
    (3, 1, 2),
    (2, 4),
    (2, 2, 2),
    (2, 1, 3),
]
WEIGHT6_GENERATOR = (2, -2, 4, 1, 1, -2, -1, -2, 1, -2)


def test_criterion_2_rank_tables():
    t0 = time.monotonic()
    for k in range(1, 13):
        assert kernel_of_alpha(k, need_basis=False).nullity == ALPHA_KERNEL_RANKS[k - 1], k
    for k in range(0, 13):
        assert kernel_of_delta(k, need_basis=False).nullity == DELTA_KERNEL_RANKS[k], k
    assert time.monotonic() - t0 < 600


def test_criterion_2_weight6_generator():
    assert [c.rep for c in enumerate_compositions(6, "classes")] == WEIGHT6_CLASS_ORDER
    cert = kernel_of_alpha(6)
    assert cert.nullity == 1
    assert lattice_contains(cert.basis, WEIGHT6_GENERATOR)
    assert lattices_equal(cert.basis, (WEIGHT6_GENERATOR,))


@requires_extended
def test_criterion_2_extended_rank_tables():
    want_alpha = {13: 42, 14: 105, 15: 165, 16: 364}
    want_delta = {13: 78, 14: 200, 15: 350, 16: 789}
    for k in range(13, 17):
        assert kernel_of_alpha(k, need_basis=False).nullity == want_alpha[k], k
        assert kernel_of_delta(k, need_basis=False).nullity == want_delta[k], k


# --------------------------------------------------------------- criterion 3
# The intersection construction reproduces the kernel of the contraction
# map as the same saturated lattice, weight by weight.

def test_criterion_3_intersection_equals_kernel():
    for k in range(1, 11):
        pre = preimage_lattice(k)
        ker = kernel_of_delta(k)
        assert lattices_equal(pre.basis, ker.basis), k


# --------------------------------------------------------------- criterion 4
# Forty-digit numeric identity suite; every residual below 1e-35.

def test_criterion_4_numeric_identity_suite():
    t0 = time.monotonic()
    d = 40
    checks = []
    pi = num.pi(d)
    s3 = num.sqrt3(d)
    z3 = num.zeta_int(3, d)
    L2 = num.L_chi3(2, d)

    checks.append(("zeta(2)", num.zeta_int(2, d), num.sigma_tail((2,), 0, d).scale(3)))
    checks.append(("zeta(3)", num.zeta_int(3, d), num.evaluate(LinComb({(3,): 2, (2, 1): 3}), 0, d)))
    checks.append(("sigma(4)", num.sigma_tail((4,), 0, d), pi.pow_int(4).scale(Fraction(17, 3240))))
    checks.append(("sigma(2,2)", num.sigma_tail((2, 2), 0, d), pi.pow_int(4).scale(Fraction(1, 1944))))
    checks.append(
        (
            "weight-4 combination",
            num.evaluate(LinComb({(3, 1): 2, (2, 1, 1): 3}), 0, d),
            pi.pow_int(4).scale(Fraction(1, 1620)),
        )
    )
    for r in range(1, 6):
        checks.append(
            (
                f"sigma(2^{r})",
                num.sigma_tail((2,) * r, 0, d),
                pi.pow_int(2 * r).scale(Fraction(1, 3 ** (2 * r) * math.factorial(2 * r))),
            )
        )

    eu87_first = (
        ((4, 1), 1),
        ((3, 2), 6),
        ((3, 1, 1), 4),
        ((2, 3), 6),
        ((2, 2, 1), 9),
        ((2, 1, 2), 9),
        ((2, 1, 1, 1), 6),
    )
    eu87_second = (
        ((4, 1), 11),
        ((3, 2), 10),
        ((3, 1, 1), 30),
        ((2, 2, 1), 21),
        ((2, 1, 2), 15),
        ((2, 1, 1, 1), 45),
    )
    s5 = num.sigma_tail((5,), 0, d)
    checks.append(("weight-5 expansion 1", s5, num.evaluate(LinComb(eu87_first), 0, d)))
    checks.append(("weight-5 expansion 2", s5, num.evaluate(LinComb(eu87_second), 0, d)))
    checks.append(
        (
            "4 sigma(4,1)",
            num.sigma_tail((4, 1), 0, d).scale(4),
            num.evaluate(LinComb({(2, 2, 1): 6, (3, 1, 1): 22, (2, 1, 1, 1): 33}), 0, d),
        )
    )

    checks.append(
        (
            "sigma(3) closed form",
            num.sigma_tail((3,), 0, d),
            (pi * s3 * L2).scale(Fraction(1, 2)) - z3.scale(Fraction(4, 3)),
        )
    )
    checks.append(
        (
            "sigma(2,1) closed form",
            num.sigma_tail((2, 1), 0, d),
            z3.scale(Fraction(11, 9)) - (pi * s3 * L2).scale(Fraction(1, 3)),
        )
    )

    # depth-one zeta values as sigma combinations
    for a in range(2, 9):
        terms = [((b,) + (1,) * (a - b), 2) for b in range(3, a + 1)]
        terms.append(((2,) + (1,) * (a - 2), 3))
        checks.append((f"zeta({a}) depth-one", num.zeta_int(a, d), num.evaluate(LinComb(terms), 0, d)))

    # alternating even-composition sums
    for k in (4, 6, 8):
        even = LinComb((a, -((-3) ** len(a))) for a in enumerate_compositions(k, "even_entries"))
        checks.append((f"zeta({k}) even alternating", num.zeta_int(k, d), num.evaluate(even, 0, d)))

    # alternating first-entry expansions of the eta-like combination
    for k in (4, 6, 8):
        m = k // 2
        terms = [((2,) * m, 3 * (-1) ** (m - 1))]
        for c in range(2, m + 1):
            terms.append(((2 * c,) + (2,) * (m - c), 4 * (-1) ** (m - c)))
        checks.append(
            (
                f"2(1-2^(1-{k})) zeta({k})",
                num.zeta_int(k, d).scale(2 - Fraction(2, 2 ** (k - 1))),
                num.evaluate(LinComb(terms), 0, d),
            )
        )

    # all-twos tails against {2,4}-composition sigma tails
    for m in range(1, 5):
        _, rhs_lc = family_all_twos(m)
        for n in (0, 2):
            checks.append(
                (
                    f"all-twos m={m} n={n}",
                    num.zeta_sym_tail((2,) * m, n, d),
                    num.evaluate(rhs_lc, n, d),
                )
            )

    for name, lhs, rhs in checks:
        res = num.residual_upper(lhs, rhs)
        assert res <= tol(35), (name, mp.nstr(res, 5))
    assert time.monotonic() - t0 < 300


# --------------------------------------------------------------- criterion 5
# Symmetric tails equal contracted sigma tails: 30 digits on every class of
# weight <= 6 at n in {0,1,3}, plus 20 random weight-7 classes.

def _check_t1(c, n, digits):
    lhs = num.zeta_sym_tail(c, n, digits + 2)
    rhs = num.evaluate(delta_class(c), n, digits + 2)
    assert_close(lhs, rhs, digits, f"{c} at n={n}")


def test_criterion_5_tail_contraction():
    for k in range(2, 7):
        for c in enumerate_compositions(k, "classes"):
            for n in (0, 1, 3):
                _check_t1(c, n, 30)
    rng = random.Random(75031)
    pool = enumerate_compositions(7, "classes")
    for c in rng.choices(pool, k=20):
        for n in (0, 1, 3):
            _check_t1(c, n, 30)


# --------------------------------------------------------------- criterion 6
# Closed-form coefficient vectors of the three one-parameter families
# contract to the directly evaluated sums, and the three weight-5 matrices
# match their frozen rational forms.

def test_criterion_6_closed_form_families():
    d = 37
    for a in range(1, 5):
        for b in range(0, (9 - 2 * a - 1) // 2 + 1):
            comp = (2,) * a + (1,) + (2,) * b
            got = num.th7_coeffs(a, b).evaluate(d)
            assert_close(got, num.sigma_tail(comp, 0, d), 35, f"sigma{comp}")
    for a in range(0, 4):
        for b in range(0, (9 - 2 * a - 3) // 2 + 1):
            comp = (2,) * a + (3,) + (2,) * b
            got = num.th8_coeffs(a, b).evaluate(d)
            assert_close(got, num.sigma_tail(comp, 0, d), 35, f"sigma{comp}")
            gotz = num.zagier_coeffs(a, b).evaluate(d)
            assert_close(gotz, num.zeta_sym_tail(comp, 0, d), 35, f"zeta{comp}")


def test_criterion_6_weight5_matrices():
    assert num.eu127_matrix() == [
        [Fraction(1, 108), Fraction(-3, 8), Fraction(1, 27), Fraction(29, 27)],
        [Fraction(0), Fraction(-9, 8), Fraction(-2, 27), Fraction(58, 9)],
        [Fraction(0), Fraction(1, 3), Fraction(1, 6), Fraction(-575, 162)],
        [Fraction(-1, 162), Fraction(1), Fraction(-8, 81), Fraction(-575, 162)],
    ]
    assert num.eu128_matrix() == [
        [Fraction(0), Fraction(1)],
        [Fraction(-1, 6), Fraction(2)],
        [Fraction(1, 2), Fraction(-11, 2)],
        [Fraction(-1, 3), Fraction(9, 2)],
    ]
    assert num.eu129_matrix() == [
        [Fraction(9, 8), Fraction(1, 9), Fraction(-19, 3)],
        [Fraction(-7, 8), Fraction(-1, 18), Fraction(134, 27)],
        [Fraction(-1, 2), Fraction(-1, 9), Fraction(101, 27)],
    ]


# --------------------------------------------------------------- criterion 7
# The one-parameter polynomial identity holds exactly in Z[t], and its four
# specializations reproduce the displayed integer identities.

def _at(lc, t):
    return LinComb((b, c.evaluate(t)) for b, c in lc.items())


@pytest.mark.parametrize("k", range(2, 11, 2))
def test_criterion_7_polynomial_identity(k):
    lhs, rhs = family_t_family(k)
    assert delta_inductive(lhs) == rhs

    lhs1, rhs1 = closed_family("even_alternating", k)
    assert _at(lhs, 1) == lhs1 and _at(rhs, 1) == rhs1

    lhs4, rhs4 = closed_family("selfdual_t4", k // 2)
    assert _at(lhs, 4) == lhs4.scale(4) and _at(rhs, 4) == rhs4.scale(4)

    want = LinComb(
        (b, (3 if b[0] == 2 else 1) * 5 ** (len(b) - sum(1 for e in b if e == 2)))
        for b in enumerate_compositions(k, "even_entries")
    )
    assert _at(rhs, -1) == want
    assert _at(lhs, -1) == class_projection(
        LinComb(
            (a, (-1) ** (len(a) - height(a)))
            for a in enumerate_compositions(k, "admissible")
        )
    )

    want = LinComb(
        (
            b,
            (2 if b[0] == 2 else 1)
            * 3 ** len(b)
            * 4 ** (len(b) - sum(1 for e in b if e == 2)),
        )
        for b in enumerate_compositions(k, "even_entries")
    )
    assert _at(rhs, -2) == want
    assert _at(lhs, -2) == class_projection(
        LinComb(
            (a, (-1) ** (len(a) - height(a)) * 2 ** height(a))
            for a in enumerate_compositions(k, "admissible")
        )
    )


# --------------------------------------------------------------- criterion 8
# The five rational constants of the depth-two expansions, exact.

def test_criterion_8_rational_constants():
    assert num.bbb_coefficient(4) == Fraction(17, 2**4)
    assert num.bbb_coefficient(6) == Fraction(163, 2**7)
    assert num.bbb_coefficient(8) == Fraction(1373, 2**10)
    assert num.bbb_coefficient(10) == Fraction(11143, 2**13)
    assert num.bbb_coefficient(12) == Fraction(61835987, 2**16 * 691)


# --------------------------------------------------------------- criterion 9
# The even-composition x self-dual-class square submatrix: five printed
# instances, recursive block structure, and nonzero determinant.

FROZEN_SUBMATRIX = {
    0: [[1]],
    2: [[3]],
    4: [[3, 6], [0, 1]],
    6: [[3, 6, 12, 0], [0, 1, 2, 0], [0, 0, 3, 0], [0, 0, 0, 1]],
    8: [
        [3, 6, 12, 0, 6, 24, 0, 0],
        [0, 1, 2, 0, 0, 4, 0, 0],
        [0, 0, 3, 0, 0, 6, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 3, 6, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 4],
        [0, 0, 0, 0, 0, 0, 3, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
}


def test_criterion_9_printed_matrices():
    for k, want in FROZEN_SUBMATRIX.items():
        assert delta_submatrix(k) == want, k


@pytest.mark.parametrize("k", range(0, 13, 2))
def test_criterion_9_block_structure_and_determinant(k):
    m = delta_submatrix(k)
    assert det_bareiss(m) != 0
    if k < 4:
        return
    sizes = [n_even(k - 2 * i) for i in range(1, k // 2 + 1)]
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    assert starts[-1] == len(m)
    for i in range(1, k // 2 + 1):
        for r in range(starts[i - 1], starts[i]):
            assert even_composition_by_index(k, r)[-1] == 2 * i
            assert self_dual_class_by_index(k, r).rep[-1] == i
    for i in range(1, k // 2 + 1):
        for j in range(1, k // 2 + 1):
            block = [
                row[starts[j - 1] : starts[j]]
                for row in m[starts[i - 1] : starts[i]]
            ]
            if j == i:
                assert block == delta_submatrix(k - 2 * i), (k, i)
            elif j != 2 * i:
                assert all(e == 0 for row in block for e in row), (k, i, j)
    for r in range(len(m)):
        assert all(m[r][c] == 0 for c in range(r))
        assert m[r][r] == (3 if r % 2 == 0 else 1)


# -------------------------------------------------------------- criterion 10
# Structural property suites: window-product multiplicativity, odd-entry
# bound, column distinctness, kernel coefficient sums, and the involution /
# round-trip / inversion laws of the combinatorial layer.

def test_criterion_10_window_multiplicativity():
    # plain integer compositions of weight 1..5, including inadmissible ones
    def comps_up_to(w):
        out = []

        def rec(rem, cur):
            if cur:
                out.append(tuple(cur))
            for e in range(1, rem + 1):
                cur.append(e)
                rec(rem - e, cur)
                cur.pop()

        rec(w, [])
        return out

    all_comps = comps_up_to(5)
    for a in all_comps:
        for b in all_comps:
            if sum(a) + sum(b) > 6:
                continue
            prod = boxast(a, b)
            for p in range(0, 6):
                for q in range(p + 1, 7):
                    lhs = sum(
                        cf * phi_composition(p, q, c) for c, cf in prod.items()
                    )
                    assert lhs == phi_composition(p, q, a) * phi_composition(p, q, b)


def test_criterion_10_odd_entry_bound():
    for k in range(2, 11):
        for c in enumerate_compositions(k, "classes"):
            cap = k - 2 * height(c.rep)
            for b, _ in delta_class(c).items():
                assert sum(1 for e in b if e % 2) <= cap, (c, b)


def test_criterion_10_column_distinctness():
    for k in range(2, 13):
        A = delta_matrix(k)
        cols = {tuple(A[:, j]) for j in range(A.shape[1])}
        assert len(cols) == A.shape[1], k


def test_criterion_10_kernel_coefficient_sums():
    for k in range(0, 13):
        for v in kernel_of_delta(k).basis:
            assert sum(v) == 0, k


def test_criterion_10_duality_and_inversion():
    for k in range(2, 10):
        for a in enumerate_compositions(k, "admissible"):
            assert dual(dual(a)) == a
            assert len(a) + len(dual(a)) == k
            assert from_word(to_word(a)) == a
    for k in range(2, 8):
        comps = enumerate_compositions(k, "admissible")
        x = LinComb((a, i + 1) for i, a in enumerate(comps))
        assert mu_invert(mu(x), k) == x


# -------------------------------------------------------------- criterion 11
# The height-one block matrices are nonsingular, exactly.

@pytest.mark.parametrize("k", range(3, 14, 2))
def test_criterion_11_block_matrix_determinant(k):
    assert det_bareiss(num.th7_block_matrix(k)) != 0


# -------------------------------------------------------------- criterion 12
# The series evaluators agree with the independent direct-summation oracles.

def test_criterion_12_sigma_oracle_agreement():
    rng = random.Random(93012)
    for _ in range(30):
        depth = rng.randint(1, 3)
        a = (rng.randint(2, 5),) + tuple(rng.randint(1, 4) for _ in range(depth - 1))
        n = rng.randint(0, 4)
        fast = num.sigma_tail(a, n, 20)
        slow = num.sigma_oracle(a, n, 16)
        assert num.agrees_to_digits(fast, slow, 15), (a, n)


def test_criterion_12_zeta_oracle_agreement():
    rng = random.Random(40117)
    pool = [c.rep for k in range(2, 8) for c in enumerate_compositions(k, "classes")]
    done = attempts = 0
    while done < 20:
        attempts += 1
        assert attempts < 400, "too many oracle redraws"
        a = rng.choice(pool)
        n = rng.randint(0, 3)
        try:
            slow = num.zeta_double_tail_oracle(a, n, n, 10)
        except num.CapabilityError:
            continue
        fast = num.zeta_sym_tail(a, n, 16)
        assert num.agrees_to_digits(fast, slow, 10), (a, n)
        done += 1


def test_criterion_12_oracle_duality():
    cases = [
        ((3,), 1, 2),
        ((4,), 2, 1),
        ((3, 1), 2, 5),
        ((4, 1), 1, 2),
        ((2, 2), 2, 1),
    ]
    for a, m, n in cases:
        lhs = num.zeta_double_tail_oracle(a, m, n, 10)
        rhs = num.zeta_double_tail_oracle(dual(a), n, m, 10)
        assert num.agrees_to_digits(lhs, rhs, 10), (a, m, n)


# ------------------------------------------------------- non-asserting report
# A conjectural weight-8 evaluation, reported but never asserted.

def test_weight8_conjecture_report():
    d = 50
    lhs = num.evaluate(LinComb({(2, 6): 18, (4, 4): 65, (2, 2, 4): 12}), 0, d)
    z2222 = num.pi(d).pow_int(8).scale(Fraction(1, math.factorial(9)))
    rhs = (
        z2222.scale(Fraction(1593337, 240))
        - num.zeta_sym_tail((3, 3, 2), 0, d).scale(747)
        - num.zeta_sym_tail((3, 2, 3), 0, d).scale(818)
        - num.zeta_sym_tail((2, 3, 3), 0, d).scale(842)
    ).scale(Fraction(16, 825))
    res = num.residual_upper(lhs, rhs)
    print(
        "\nweight-8 conjectural evaluation (reported, not asserted): "
        f"residual <= {mp.nstr(res, 5)} at {d} digits"
    )
    assert mp.isfinite(res)
