"""Exact integer linear algebra and the certified kernel machinery, checked
against the Fraction reference in ``linalg_oracle``, plus the frozen rank
tables for alpha and delta."""

import inspect
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import linalg_oracle as oracle
import lincomb_oracle
from conftest import requires_extended
from lincomb_oracle import class_row_basis, matrix_from_columns
from zetasigma import compositions, exact_linalg
from zetasigma.compositions import (
    MAX_WEIGHT,
    DualityClass,
    dual,
    enumerate_compositions,
    fin_part,
    from_word,
    init_part,
    mid_part,
    to_word,
)
from zetasigma.delta import delta_class, delta_explicit
from zetasigma.exact_linalg import (
    PRIMES20,
    PRIMES21,
    KernelCertificate,
    _certify,
    _integer_matrix,
    _kernel_mod_p_fast,
    _mul_exact,
    _padic_solutions,
    _ratrec,
    _ratrec_matrix,
    _solve_mod_p,
    alpha_matrix,
    certified_kernel,
    delta_matrix,
    det_bareiss,
    kernel_of_alpha,
    kernel_of_delta,
    lattices_equal,
    preimage_lattice,
)


@st.composite
def int_matrices(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    return [
        [draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)
    ]


def _cleared(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in v]


def test_certified_kernel_example():
    c = certified_kernel([[1, 1, 0], [0, 2, 2]])
    assert (c.rank, c.nullity, c.basis) == (2, 1, ((1, -1, 1),))
    assert isinstance(c, KernelCertificate)
    assert c.n_rows == 2 and c.n_cols == 3


def test_certified_kernel_edges():
    z = certified_kernel([[0, 0], [0, 0]])
    assert z.rank == 0 and z.basis == ((1, 0), (0, 1))
    full = certified_kernel([[1, 0], [0, 1]])
    assert full.nullity == 0 and full.basis == ()
    with pytest.raises(ValueError):
        certified_kernel([1, 2, 3])


@pytest.mark.parametrize(
    "mat,error",
    [
        ([[1.5, 2]], ValueError),
        ([[Fraction(1, 2), 1]], ValueError),
        (np.array([[1.0, 2.0]]), ValueError),
    ],
)
def test_certified_kernel_refuses_entries_it_cannot_hold(mat, error):
    with pytest.raises(error, match="integer entries"):
        certified_kernel(mat)


@pytest.mark.parametrize(
    "mat,rank,basis",
    [
        (np.array([[2**63, 0], [0, 2**63]], dtype=np.uint64), 2, ()),
        ([[-(2**63), 0], [0, -(2**63)]], 2, ()),
        ([[2**63, 1]], 1, ((-1, 2**63),)),
    ],
    ids=["uint64", "int64_min", "one_past_int64"],
)
def test_certified_kernel_takes_entries_beyond_int64(mat, rank, basis):
    cert = certified_kernel(mat)
    assert (cert.rank, cert.basis) == (rank, basis)


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize("table,limit", [(exact_linalg.PRIMES21, 1 << 21), (exact_linalg.PRIMES20, 1 << 20)])
def test_prime_tables_are_the_largest_primes_below_their_limit(table, limit):
    assert all(p > q for p, q in zip(table, table[1:]))
    assert all(_is_prime_by_trial_division(p) for p in table)
    for hi, lo in zip((limit,) + table, table):
        assert not any(_is_prime_by_trial_division(x) for x in range(lo + 2, hi, 2))


@given(int_matrices())
def test_certified_kernel_matches_fractions(rows):
    cert = certified_kernel(rows)
    assert cert.rank == oracle.rank_fraction(rows)
    assert len(cert.basis) == cert.nullity
    # every certified basis vector is an exact kernel vector
    for v in cert.basis:
        for row in rows:
            assert sum(r * x for r, x in zip(row, v)) == 0
    # the fraction kernel, cleared of denominators, lies in the lattice
    for fv in oracle.fraction_kernel(rows):
        assert oracle.lattice_contains(cert.basis, _cleared(fv))


def _minors_gcd(basis, n):
    t = len(basis)
    g = 0
    for cols in combinations(range(n), t):
        g = gcd(g, det_bareiss([[v[c] for c in cols] for v in basis]))
    return g


@st.composite
def wide_int_matrices(draw):
    # entries wide enough that the reduced kernel vectors have denominators,
    # some up to 2^40 so that their lcm D can pass 2^31 (the Hermite basis
    # then runs on Python ints), plus repeated rows and integer
    # combinations of the first rows, so that the rank can be low
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.integers(-40, 40), st.integers(-(1 << 40), 1 << 40))
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n - 1))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base))
    combos = coeffs.map(lambda cs: [sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)])
    return base + draw(st.lists(st.one_of(st.sampled_from(base), combos), max_size=3))


def _assert_saturated_kernel(rows):
    cert = certified_kernel(rows)
    n = len(rows[0])
    assert cert.rank == oracle.rank_fraction(rows)
    assert len(cert.basis) == cert.nullity
    for v in cert.basis:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in rows)
    if cert.basis:
        assert _minors_gcd(cert.basis, n) == 1
    assert oracle.lattices_equal(cert.basis, [_cleared(v) for v in oracle.fraction_kernel(rows)])


@given(wide_int_matrices())
@example([[2, 1, 1]])
@example([[6, 10, 15, 1], [6, 10, 15, 1], [12, 20, 30, 2]])
# saturation on Python ints: D, the lcm of the kernel's denominators, is
# near 2^81 in the first (the pivot block's determinant), and D * max|G|
# passes 2^63 in the second (D = 2, entries near 2^62)
@example([[(1 << 40) + 15, (1 << 40) - 33, 7, 1, 0], [3, (1 << 40) + 1, -((1 << 40) - 5), 0, 2]])
@example([[2, (1 << 62) + 1, 1, 3]])
def test_certified_kernel_basis_is_saturated(rows):
    # a t-row integer basis spans a saturated lattice iff the gcd of its
    # t x t minors is 1; the column-scaled kernel basis of [[2, 1, 1]],
    # (-1, 2, 0) and (-1, 0, 2), has minors gcd 2
    _assert_saturated_kernel(rows)


def test_delta_kernel_bases_fit_int64():
    # the Hermite basis modulo D keeps the free coordinates in [0, D], so
    # the check matrices of preimage_lattice(13) fit int64
    for k in range(13):
        assert all(abs(x) < 1 << 63 for v in kernel_of_delta(k).basis for x in v), k


def test_certified_kernel_unlucky_primes():
    p0, p1, p2 = PRIMES21[:3]
    # p0 hides the first pivot, but the rank is right: lifting through the
    # other pivot recovers the entry p0, so p0 alone certifies
    switch = certified_kernel([[p0, 0, 1]])
    assert switch.rank == 1 and switch.primes == (p0,)
    assert oracle.lattices_equal(switch.basis, ((1, 0, -p0), (0, 1, 0)))
    # the reduced kernel entry 1/p2 needs lifting past p0 as well
    skip = certified_kernel([[p2, 0, 1]])
    assert skip.rank == 1 and skip.primes == (p0,)
    assert oracle.lattices_equal(skip.basis, ((1, 0, -p2), (0, 1, 0)))
    # p0 drops the rank: the exact solution through its pivot row fails the
    # other row, so p0 is unlucky; p1 shows full rank and needs no lifting
    full = certified_kernel([[p0, 1], [0, p0]])
    assert full.rank == 2 and full.primes == (p1,) and full.basis == ()
    # every entry a multiple of p0: rank 0 mod p0, so p0 is unlucky
    for rows, basis in (([[p0]], ()), ([[p0, 2 * p0]], ((-2, 1),)), ([[p0], [2 * p0]], ())):
        zero = certified_kernel(rows)
        assert zero.rank == 1 and zero.primes == (p1,)
        assert oracle.lattices_equal(zero.basis, basis)
        assert certified_kernel(rows, need_basis=False).primes == (p1,)


@st.composite
def big_entry_matrices(draw):
    # a few rows with entries up to 2^200, beyond int64, plus small
    # combinations of them, so that kernels exist and their entries need
    # many lifting steps
    n = draw(st.integers(2, 5))
    base = draw(
        st.lists(
            st.lists(st.integers(-(1 << 200), 1 << 200), min_size=n, max_size=n),
            min_size=1,
            max_size=n - 1,
        )
    )
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)), max_size=2))
    return base + [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)] for cs in combos]


LIFTED = [[(1 << 40) + 15, (1 << 40) - 33, 7], [3, (1 << 40) + 1, -((1 << 40) - 5)]]


@given(big_entry_matrices())
@example(LIFTED)
@example([[3, -((1 << 63) - 1)]])  # the first residual leaves int64
# entries past float64's range: the lifting bound is taken from bit lengths
@example([[(1 << 600) + 5, 3, 1], [7, (1 << 600) - 1, -(1 << 599)]])
@example([[(1 << 1100) + 1, 1 << 1100, 3]])
def test_certified_kernel_lifts_large_entries(rows):
    _assert_saturated_kernel(rows)


def test_certified_kernel_lifting_steps(monkeypatch):
    # the kernel of LIFTED has entries near 2^80: one prime of 21 bits
    # reconstructs no such fraction, and lifting needs at least 3 more steps
    moduli = []
    solutions = exact_linalg._padic_solutions

    def spy(*args):
        for big, mod in solutions(*args):
            moduli.append(mod)
            yield big, mod

    monkeypatch.setattr(exact_linalg, "_padic_solutions", spy)
    cert = certified_kernel(LIFTED)
    assert cert.primes == (PRIMES21[0],) and cert.nullity == 1
    assert len(moduli) >= 4 and moduli[-1] == PRIMES21[0] ** len(moduli)
    assert oracle.lattices_equal(cert.basis, [_cleared(v) for v in oracle.fraction_kernel(LIFTED)])


def test_certified_kernel_one_elimination_per_prime(monkeypatch):
    # lifting replays the panels of the elimination, so no second one runs;
    # a row hint that misses part of the row space costs exactly one more
    # elimination, of all rows
    runs = []
    eliminate = exact_linalg._kernel_mod_p_fast

    def spy(M, p, *args, **kwargs):
        runs.append((p, M.shape[0]))
        return eliminate(M, p, *args, **kwargs)

    monkeypatch.setattr(exact_linalg, "_kernel_mod_p_fast", spy)
    assert certified_kernel(LIFTED).primes == (PRIMES21[0],)
    assert runs == [(PRIMES21[0], 2)]
    runs.clear()
    M = _integer_matrix(LIFTED + [[1, 0, 0]])
    assert _certify(M, True, [0, 1]) == _certify(M, True)
    assert runs == [(PRIMES21[0], 2), (PRIMES21[0], 3), (PRIMES21[0], 3)]


@st.composite
def matrices_with_row_hints(draw):
    """(rows, hint): a matrix from wide_int_matrices and distinct row
    indices, in any order, that span its row space, or miss part of it by
    one row of a spanning set, or are drawn freely."""
    rows = draw(wide_int_matrices())
    m = len(rows)
    spanning = []  # the rows that raise the rank of the rows before them
    for i in range(m):
        if oracle.rank_fraction([rows[j] for j in spanning + [i]]) > len(spanning):
            spanning.append(i)
    how = draw(st.sampled_from(["spanning", "missing", "free"]))
    if how == "spanning":
        extra = draw(st.lists(st.integers(0, m - 1), unique=True))
        hint = sorted(set(spanning).union(extra))
    elif how == "missing" and spanning:
        hint = spanning[:]
        del hint[draw(st.integers(0, len(hint) - 1))]
    else:
        hint = draw(st.lists(st.integers(0, m - 1), unique=True))
    return rows, draw(st.permutations(hint))


@given(matrices_with_row_hints())
@example(([[1, 1, 0], [0, 1, 1]], [0]))  # the hinted row misses the second: rebuilt on all rows
@example(([[0, 0, 0], [2, 1, 1]], [0]))  # a zero hinted row
@example(([[1, 2], [2, 4]], [1]))
def test_row_hint_changes_no_certificate(case):
    rows, hint = case
    M = _integer_matrix(rows)
    hinted = _certify(M, True, hint)
    want = _certify(M, True)
    got = (hinted.n_rows, hinted.n_cols, hinted.rank, hinted.basis)
    assert got == (want.n_rows, want.n_cols, want.rank, want.basis)
    assert hinted.rank == oracle.rank_fraction(rows)
    assert oracle.lattices_equal(hinted.basis, [_cleared(v) for v in oracle.fraction_kernel(rows)])
    # the pivot rows are rows of M that carry the rank modulo a check prime
    assert len(set(hinted.rows)) == len(hinted.rows) == hinted.rank
    assert all(0 <= i < len(rows) for i in hinted.rows)
    assert _kernel_mod_p_int(M[list(hinted.rows)], PRIMES20[0])[0] == hinted.rank


def _ratrec_matrix_entrywise(big, mod):
    """One _ratrec per distinct entry, row by row: the oracle for the
    shared column denominators of _ratrec_matrix."""
    cache = {}
    F = []
    for row in big:
        frow = []
        for x in row:
            if x not in cache:
                cache[x] = _ratrec(x, mod)
            if cache[x] is None:
                return None
            frow.append(cache[x])
        F.append(frow)
    return F


@st.composite
def residue_matrices(draw):
    """(big, p^s): rationals reduced mod p^s, whose column denominators are
    shared and grow by a factor partway down the column.  Some entries are
    uniform residues, which usually have no reconstruction, and numerators
    and denominators reach past sqrt(p^s / 2), where reconstruction fails or
    finds another fraction."""
    p = draw(st.sampled_from([3, 101, PRIMES21[0]]))
    mod = p ** draw(st.integers(1, 6))
    reach = 2 * isqrt(mod // 2) + 2
    r, t = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cols = []
    for _ in range(t):
        den0 = draw(st.integers(1, reach))
        grow_at = draw(st.integers(0, r))
        factor = draw(st.integers(1, reach))
        col = []
        for i in range(r):
            den = den0 * (factor if i >= grow_at else 1) * draw(st.sampled_from([1, 1, 1, 2, 3]))
            if draw(st.integers(0, 9)) == 0 or den % p == 0:
                col.append(draw(st.integers(0, mod - 1)))
            else:
                col.append(draw(st.integers(-reach, reach)) * pow(den, -1, mod) % mod)
        cols.append(col)
    return [list(row) for row in zip(*cols)], mod


@given(residue_matrices())
def test_ratrec_matrix_matches_entrywise(case):
    big, mod = case
    want = _ratrec_matrix_entrywise(big, mod)
    got = _ratrec_matrix(big, mod)
    if want is None:
        assert got is None
    else:
        F, L = got
        assert F == want
        assert L == [lcm(*(row[f][1] for row in want)) for f in range(len(want[0]))]


def test_exact_products():
    rng = np.random.default_rng(7)
    # entries of 26 bits: both factors are cut into limbs, and the product
    # fits int64
    A = rng.integers(-(1 << 26), 1 << 26, size=(4, 5))
    B = rng.integers(-(1 << 26), 1 << 26, size=(5, 3))
    got = _mul_exact(A, B)
    assert got.dtype == np.int64
    assert np.array_equal(got, A.astype(object) @ B.astype(object))
    # 62-bit entries take the limb path, whose result no int64 holds
    p = PRIMES21[0]
    A = rng.integers(-(1 << 62), 1 << 62, size=(3, 6))
    Y = rng.integers(0, p, size=(6, 2))
    assert (_mul_exact(A, Y) == A.astype(object) @ Y.astype(object)).all()


@st.composite
def exact_product_factors(draw):
    """A pair of integer factors, each int64 or Python ints up to 2^200 in
    magnitude, with zeros and inner dimensions down to 0."""
    m, k, n = draw(st.integers(0, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 3))

    def factor(rows, cols):
        if draw(st.booleans()):
            bits, dtype, lo = draw(st.sampled_from([1, 20, 21, 40, 63])), np.int64, -(1 << 63)
        else:
            bits, dtype, lo = draw(st.sampled_from([1, 21, 64, 100, 200])), object, -(1 << 200)
        entries = st.one_of(st.just(0), st.integers(max(lo, -(1 << bits)), (1 << bits) - 1))
        return np.array([[draw(entries) for _ in range(cols)] for _ in range(rows)], dtype=dtype).reshape(rows, cols)

    return factor(m, k), factor(k, n)


@given(exact_product_factors())
@example((np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=object)))
@example((np.full((1, 1), -(1 << 63), dtype=np.int64), np.full((1, 1), -1, dtype=np.int64)))
def test_mul_exact_matches_object_product(factors):
    A, B = factors
    got = _mul_exact(A, B)
    want = A.astype(object) @ B.astype(object)
    assert got.shape == want.shape
    assert all(int(x) == y for x, y in zip(got.flat, want.flat))
    # int64 exactly when the bound |A| |B| k proves that the product fits
    bound = max([0] + [abs(int(x)) for x in A.flat]) * max([0] + [abs(int(x)) for x in B.flat]) * A.shape[1]
    assert (got.dtype == np.int64) == (bound < 1 << 63)


def test_preimage_check_product_is_exact_beyond_int64():
    # preimage_lattice forms each check product C @ A_kp with _mul_exact:
    # A_kp's entries are 0 to 3, a check basis may have entries of any size,
    # and the product comes back in Python ints where int64 would wrap
    A = np.full((3, 2), 3, dtype=np.int64)
    for e in (40, 61, 70):
        C = _integer_matrix([[1 << e] * 3] * 2)
        assert (_mul_exact(C, A) == np.full((2, 2), 9 << e, dtype=object)).all(), e


def test_certified_kernel_first_pivot_needs_row_swap():
    swap = certified_kernel([[0, 1], [1, 0]])
    assert swap.rank == 2 and swap.basis == ()
    dup = certified_kernel([[0, 0, 1], [1, 1, 0], [1, 1, 0]])
    assert dup.rank == 2
    assert oracle.lattices_equal(dup.basis, ((-1, 1, 0),))


@st.composite
def sparse_matrices_with_repeats(draw, n_cols):
    """Sparse integer matrices built from a few distinct rows, zero rows
    among them, so that elimination has to swap rows to find pivots."""
    n = draw(n_cols)
    entry = st.integers(-4, 4).filter(bool)
    distinct = draw(
        st.lists(st.dictionaries(st.integers(0, n - 1), entry, max_size=4), min_size=1, max_size=6)
    )
    distinct.append({})
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=12))
    M = np.zeros((len(picks), n), dtype=np.int64)
    for i, k in enumerate(picks):
        for j, e in distinct[k].items():
            M[i, j] = e
    return M


def _kernel_mod_p_int(M: np.ndarray, p: int):
    """Reference row reduction mod p in plain int64, valid for p < 2^31:
    the oracle for the blocked float64 eliminator."""
    R = (M % p).astype(np.int64)
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i0 = r + int(nz[0])
        if i0 != r:
            R[[r, i0]] = R[[i0, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r, c:] = R[r, c:] * pow(piv, p - 2, p) % p
        idx = np.flatnonzero(R[r + 1 :, c]) + (r + 1)
        if idx.size:
            f = R[idx, c][:, None]
            R[idx, c:] = (R[idx, c:] - f * R[r, c:]) % p
        pivots.append(c)
        r += 1
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    X = R[:r, free].copy() if free else np.zeros((r, 0), dtype=np.int64)
    for i in range(r - 1, 0, -1):
        if X.shape[1] == 0:
            break
        fcol = R[:i, pivots[i]]
        if np.any(fcol):
            X[:i, :] = (X[:i, :] - fcol[:, None] * X[i, :]) % p
    return r, tuple(pivots), X


def _panel_edges(block, suffix=""):
    """Column counts at the panel edges of a `block`-column eliminator."""
    return [
        pytest.param(block, st.integers(1, block), id="one_panel" + suffix),
        pytest.param(block, st.integers(block + 1, 3 * block + 8), id="several_panels" + suffix),
        pytest.param(block, st.sampled_from([block + 1, 2 * block + 1]), id="one_column_trailing_panel" + suffix),
    ]


# the eliminator's default panel width
BLOCK = inspect.signature(_kernel_mod_p_fast).parameters["block"].default


@pytest.mark.parametrize("block,n_cols", _panel_edges(BLOCK) + _panel_edges(64, "_block64"))
@given(data=st.data())
def test_fast_elimination_matches_reference(block, n_cols, data):
    # the blocked float64 eliminator promises the reference's exact output
    M = data.draw(sparse_matrices_with_repeats(n_cols))
    p = data.draw(st.sampled_from([3, 101, PRIMES21[0]]))
    r, pivots, rows, inverse = _kernel_mod_p_fast(M, p, block=block)
    r_ref, pivots_ref, X_ref = _kernel_mod_p_int(M, p)
    assert (r, pivots) == (r_ref, pivots_ref)
    # the pivot rows carry the rank: their pivot block is invertible mod p
    assert len(set(rows)) == r
    assert _kernel_mod_p_int(M[list(rows)][:, list(pivots)], p)[0] == r
    # the reduced block on the free columns is one replay of the panels
    Mr = M[list(rows)]
    free = sorted(set(range(M.shape[1])).difference(pivots))
    X = _solve_mod_p(inverse, Mr[:, free] % p, p)
    assert np.array_equal(X, X_ref % p)
    # and it is the first p-adic digit
    if r and free:
        approx, mod = next(_padic_solutions(Mr, p, pivots, free, inverse))
        assert mod == p and list(approx) == (X_ref % p).tolist()


@pytest.mark.parametrize("block,n_cols", _panel_edges(BLOCK) + _panel_edges(64, "_block64"))
@given(data=st.data())
def test_replayed_inverse_solves_pivot_block(block, n_cols, data):
    # the elimination's recorded panels, replayed, are A^-1 mod p for its
    # pivot block A = M[rows][:, pivots]
    M = data.draw(sparse_matrices_with_repeats(n_cols))
    p = data.draw(st.sampled_from([3, 101, PRIMES21[0]]))
    r, pivots, rows, inverse = _kernel_mod_p_fast(M, p, block=block)
    t = data.draw(st.integers(1, 3))
    R = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=t, max_size=t), min_size=r, max_size=r))
    y = _solve_mod_p(inverse, np.array(R, dtype=np.int64).reshape(r, t), p)
    assert y.shape == (r, t) and ((0 <= y) & (y < p)).all()
    # A @ y == R (mod p), in Python ints
    A = M[list(rows)][:, list(pivots)].tolist()
    for i, row in enumerate(A):
        for j, col in enumerate(y.T.tolist()):
            assert sum(a * x for a, x in zip(row, col)) % p == R[i][j]


def test_replayed_inverse_past_a_reduction():
    # a rank above 1024 makes the replay reduce its accumulator between panels
    rng = np.random.default_rng(3)
    M = rng.integers(-2, 3, size=(1100, 1030))
    p = PRIMES21[0]
    r, pivots, rows, inverse = _kernel_mod_p_fast(M, p)
    assert r == 1030
    R = rng.integers(0, p, size=(r, 2))
    y = _solve_mod_p(inverse, R, p)
    A = M[list(rows)][:, list(pivots)]
    assert (_mul_exact(A, y) % p == R).all()


# ------------------------------------------------------- the fraction oracle

def test_rref_fraction():
    rank, pivots, rows = oracle.rref_fraction([[2, 4, 6], [1, 2, 4]])
    assert rank == 2
    assert pivots == (0, 2)
    assert rows[0][:2] == [Fraction(1), Fraction(2)]


def test_fraction_kernel():
    got = oracle.fraction_kernel([[2, 4]])
    assert got == [[Fraction(-2), Fraction(1)]]
    assert oracle.fraction_kernel([], n_cols=2) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_det_bareiss():
    assert det_bareiss([[1, 0], [0, 1]]) == 1
    assert det_bareiss([[2, 4], [1, 2]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4


def test_lattice_predicates():
    # membership means: integral and inside the Q-span (bases are saturated)
    diag = ((1, 1, 0),)
    assert oracle.lattice_contains(diag, (2, 2, 0))
    assert not oracle.lattice_contains(diag, (1, 0, 0))
    assert not oracle.lattice_contains(diag, (Fraction(1, 2), Fraction(1, 2), 0))
    assert lattices_equal(((1, 0), (0, 1)), ((1, 1), (0, 1)))
    assert not lattices_equal(((1, 0, 0),), ((0, 1, 0),))
    assert not lattices_equal(((1, 0, 0),), ((1, 0, 0), (0, 1, 0)))
    assert lattices_equal((), ())


@pytest.mark.parametrize(
    "a,b",
    [
        ([(1, 0)], [(1, 0, 0)]),
        ([(1, 0), (0, 1, 0)], [(1, 0), (0, 1)]),
        ([(1, 0)], [(1, 0), (0, 1, 5)]),
    ],
    ids=["across", "within", "counts_differ"],
)
def test_lattices_equal_rejects_vectors_of_different_lengths(a, b):
    with pytest.raises(ValueError, match="different lengths"):
        lattices_equal(a, b)


@st.composite
def lattice_pairs(draw):
    """(A, B) of equal vector counts whose spans the three kinds of draw
    relate differently: B = U A for a unimodular U, so the same lattice; B
    another basis of the same rank, whose span mostly differs; and A and B
    with dependent rows, one a combination of the others.  Some entries
    pass int64."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, n))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(1 << 70), 1 << 70))
    vectors = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=t, max_size=t)
    A = draw(vectors)
    kind = draw(st.sampled_from(["unimodular", "other", "dependent"]))
    if kind == "unimodular":
        B = [list(v) for v in A]
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
            if i == j:
                B[i] = [-x for x in B[i]]
            else:
                c = draw(st.integers(-3, 3))
                B[i] = [x + c * y for x, y in zip(B[i], B[j])]
        B = draw(st.permutations(B))
    else:
        B = draw(vectors)
        if kind == "dependent" and t >= 2:
            cs = draw(st.lists(st.integers(-2, 2), min_size=t - 1, max_size=t - 1))
            for M in (A, B):
                M[-1] = [sum(c * v[j] for c, v in zip(cs, M)) for j in range(n)]
    return A, B


@given(lattice_pairs())
@example(([[1, 2], [2, 4]], [[1, 2], [3, 6]]))
@example(([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]]))
def test_lattices_equal_matches_oracle(pair):
    A, B = pair
    assert lattices_equal(A, B) == oracle.lattices_equal(A, B)


# ------------------------------------------------------- maps as matrices

def test_matrix_shapes():
    for k in (4, 6, 8):
        comps = enumerate_compositions(k, "admissible")
        classes = enumerate_compositions(k, "classes")
        assert delta_matrix(k).shape == (len(comps), len(classes))
        assert alpha_matrix(k).shape == (len(class_row_basis(k)), len(classes))


def test_matrix_from_columns_roundtrip():
    classes = enumerate_compositions(5, "classes")
    comps = enumerate_compositions(5, "admissible")
    cols = [delta_class(c) for c in classes]
    A = matrix_from_columns(cols, comps)
    assert np.array_equal(A, delta_matrix(5))


def _same_matrix(A, B):
    return A.dtype == B.dtype == np.int64 and A.flags.c_contiguous and A.shape == B.shape and np.array_equal(A, B)


def test_delta_matrix_matches_lincomb_oracle():
    for k in range(0, 15):
        assert _same_matrix(delta_matrix(k), lincomb_oracle.delta_matrix(k)), k


def test_alpha_matrix_matches_lincomb_oracle():
    for k in range(1, 15):
        assert _same_matrix(alpha_matrix(k), lincomb_oracle.alpha_matrix(k)), k


def test_matrix_builders_reject_weights_out_of_range():
    with pytest.raises(ValueError):
        delta_matrix(-1)
    with pytest.raises(ValueError):
        alpha_matrix(0)
    with pytest.raises(ValueError):
        preimage_lattice(0)


def _word(a):
    """(word as a number, first letter most significant; weight)."""
    return int("".join(map(str, to_word(a))), 2), sum(a)


def _composition(W, L):
    return from_word(tuple((int(W) >> (int(L) - 1 - i)) & 1 for i in range(int(L))))


@st.composite
def admissible_compositions(draw):
    k = draw(st.integers(2, 14))
    m = draw(st.integers(0, (1 << (k - 2)) - 1))
    return from_word((0,) + tuple((m >> (k - 3 - i)) & 1 for i in range(k - 2)) + (1,))


@given(st.lists(admissible_compositions(), min_size=1, max_size=12))
def test_word_maps_match_composition_maps(comps):
    W, L = (np.array(x, dtype=np.int64) for x in zip(*map(_word, comps)))
    fin = exact_linalg._fin_words(W, L)
    for name, (V, n), part in (
        ("init", exact_linalg._init_words(W, L), init_part),
        ("fin", fin, fin_part),
        ("mid", exact_linalg._init_words(*fin), mid_part),
    ):
        assert [_composition(v, l) for v, l in zip(V, n)] == [part(a) for a in comps], name
    for a, w, l in zip(comps, W, L):
        m = np.array([w >> 1])
        assert _composition(2 * compositions._dual_rows(m, l)[0] + 1, l) == dual(a)
        col, reps = compositions._class_columns(l)
        classes = enumerate_compositions(l, "classes")
        assert len(reps) == len(classes)
        assert classes[col[w >> 1]] == DualityClass.of(a)
        assert _composition(2 * reps[col[w >> 1]] + 1, l) == DualityClass.of(a).rep


@requires_extended
def test_delta_matrix_15_columns_match_word_formula():
    A = delta_matrix(15)
    rows = {a: i for i, a in enumerate(enumerate_compositions(15, "admissible"))}
    classes = enumerate_compositions(15, "classes")
    for j in random.Random(15).sample(range(len(classes)), 32):
        col = np.zeros(A.shape[0], dtype=np.int64)
        for b, c in delta_explicit(classes[j]).items():
            col[rows[b]] = c
        assert np.array_equal(A[:, j], col), classes[j]


ALPHA_NULLITY = {k: n for k, n in zip(range(1, 13), (0, 0, 0, 0, 0, 1, 0, 3, 2, 9, 10, 31))}
DELTA_NULLITY = {k: n for k, n in zip(range(0, 13), (0, 0, 0, 0, 0, 0, 1, 0, 4, 2, 14, 15, 52))}


def test_alpha_kernel_table():
    for k, want in ALPHA_NULLITY.items():
        assert kernel_of_alpha(k).nullity == want, k


def test_delta_kernel_table():
    for k, want in DELTA_NULLITY.items():
        assert kernel_of_delta(k).nullity == want, k


def test_delta_kernel_on_lower_pivot_rows_matches_all_rows():
    # eliminating the images of the lower pivot rows changes no certificate
    for k in range(13):
        got, want = kernel_of_delta(k), certified_kernel(delta_matrix(k))
        assert (got.n_rows, got.rank, got.basis, got.primes) == (want.n_rows, want.rank, want.basis, want.primes), k


def test_delta_kernel_13_from_cold_cache(monkeypatch):
    monkeypatch.setattr(exact_linalg, "_CERT_CACHE", {})
    cert = kernel_of_delta(13, need_basis=False)
    assert (cert.n_rows, cert.nullity) == (2048, 78)
    # eliminated on the 968 images of the lower pivot rows, not on all 2048
    assert len(exact_linalg._delta_pivot_rows(13)) == 968
    assert len(cert.rows) == cert.rank and set(cert.rows) <= set(exact_linalg._delta_pivot_rows(13))


@pytest.mark.parametrize("k", [-1, MAX_WEIGHT + 1])
def test_kernel_of_delta_refuses_weights_before_any_lower_certificate(monkeypatch, k):
    # refused up front: no lower weight is built (the spy fails fast where
    # the recursion would certify weights 0..63 first)
    def built(w):
        raise AssertionError(f"delta_matrix({w}) built for kernel_of_delta({k})")

    monkeypatch.setattr(exact_linalg, "_CERT_CACHE", {})
    monkeypatch.setattr(exact_linalg, "delta_matrix", built)
    with pytest.raises(ValueError, match="required"):
        kernel_of_delta(k)
    assert exact_linalg._CERT_CACHE == {}


WEIGHT6_GENERATOR = (2, -2, 4, 1, 1, -2, -1, -2, 1, -2)


def test_weight6_alpha_kernel_generator():
    # coefficients over the weight-6 classes in enumeration order
    classes = enumerate_compositions(6, "classes")
    assert [c.rep for c in classes] == [
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
    cert = kernel_of_alpha(6)
    assert cert.nullity == 1
    assert lattices_equal(cert.basis, (WEIGHT6_GENERATOR,))


def test_alpha_kernel_inside_delta_kernel():
    # the delta-kernel lattice is saturated, so an integer vector belongs to
    # it iff the delta matrix annihilates it; exact big-int arithmetic
    for k in range(1, 13):
        abasis = kernel_of_alpha(k).basis
        if not abasis:
            continue
        sparse = [
            [(j, e) for j, e in enumerate(row) if e]
            for row in delta_matrix(k).tolist()
        ]
        for v in abasis:
            for row in sparse:
                assert sum(e * v[j] for j, e in row) == 0, k


def test_delta_kernel_coefficient_sums_vanish():
    for k in range(1, 13):
        for v in kernel_of_delta(k).basis:
            assert sum(v) == 0, k


def test_preimage_lattice_equals_delta_kernel():
    for k in range(1, 13):
        pre = preimage_lattice(k)
        ker = kernel_of_delta(k)
        assert lattices_equal(pre.basis, ker.basis), k


@requires_extended
def test_preimage_lattice_13_lies_in_delta_kernel():
    # its check matrices are built on the weight-12 delta-kernel basis
    pre = preimage_lattice(13)
    assert pre.nullity == 78
    D = delta_matrix(13).astype(object)
    assert not np.any(D @ np.array(pre.basis, dtype=object).T)
    assert lattices_equal(pre.basis, kernel_of_delta(13).basis)


@requires_extended
def test_preimage_lattice_14_equals_delta_kernel():
    # its weight-13 check matrix is the saturated kernel of a basis with
    # entries past int64
    pre = preimage_lattice(14)
    assert pre.nullity == 200
    assert lattices_equal(pre.basis, kernel_of_delta(14).basis)


def test_delta_columns_pairwise_distinct():
    for k in range(2, 13):
        A = delta_matrix(k)
        cols = {tuple(A[:, j]) for j in range(A.shape[1])}
        assert len(cols) == A.shape[1], k


@pytest.mark.parametrize("filter", ["entries_ge_2", "entries_le_2"])
def test_delta_injective_on_restricted_compositions(filter):
    # columns indexed by compositions (not classes): full column rank
    for k in range(2, 13):
        comps = enumerate_compositions(k, filter)
        if not comps:
            continue
        cols = [delta_class(DualityClass.of(a)) for a in comps]
        A = matrix_from_columns(cols, enumerate_compositions(k, "admissible"))
        assert certified_kernel(A, need_basis=False).nullity == 0, (filter, k)
