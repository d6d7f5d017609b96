"""Exact integer linear algebra with certified results.

Rank and kernel computations run modulo word-sized primes for speed, and
every modular result is then promoted to a statement over the rationals:

* ``rank >= r`` rests on the modular eliminator's pivot count, taken on
  rows of the matrix, which the property test comparing the blocked
  eliminator with a plain reference eliminator checks; no pivot minor is
  checked independently yet;
* candidate kernel vectors are rebuilt over Q from one elimination modulo
  a prime p, of all rows or of a subset expected to span the row space
  (the delta kernels eliminate the rows that Π_k sends the lower pivot
  rows to; a subset that turns out to miss part of the row space costs
  one more elimination, of all rows), by p-adic lifting (Dixon's method)
  through the pivot block: every digit, the first included, replays the
  elimination's own records, a forward sweep through its block LU factor L
  and a backward one through U, which make up the block's inverse mod p.
  Each p-adic approximation is tried by rational reconstruction in
  integer arithmetic, output-sensitively: an entry that its column's
  running denominator already clears costs one product, and only the
  others run the extended Euclidean algorithm.  Each column is scaled by
  the lcm of its denominators, and ``M @ V == 0`` is established exactly
  by checking it, for all rows of M, modulo fresh primes whose product
  exceeds twice an explicit bound on the entries of ``M @ V``; the
  ``n - r`` verified independent kernel vectors prove ``rank <= r``.

Each certificate records its own stages in ``stats`` (:class:`KernelStats`):
the seconds of elimination, lifting, reconstruction, verification and
saturation, the rows of each elimination, and the lifting steps.

Matrix entries may be integers of any size.  Integer arrays are int64
while their entries provably fit, and Python ints beyond, a choice made
where its bound is known: for the input (:func:`_integer_matrix`), for
every exact product (:func:`_mul_exact`, built from float64 BLAS
products), for the Hermite basis modulo D and for the p-adic residual.

The kernel basis returned is a basis of the *saturated* integer lattice
``ker_Q(M) ∩ Z^n``: a rational combination of the reduced kernel vectors
is integral iff its coefficients, which are its free coordinates, are
integers meeting one congruence modulo d_i per pivot coordinate i.  The
lattice of these coefficient vectors contains D * Z^t, D the lcm of the
d_i, so its row operations are reduced modulo D: one sweep per
congruence, reading its residues in one column of a residue matrix that
the row operations carry along, then a Hermite basis modulo D (Domich,
Kannan & Trotter 1987), whose rows have free coordinates in [0, D].  One
exact product, divided exactly by the d_i, gives the pivot coordinates.
Basis vectors of a saturated lattice are automatically primitive.

Two saturated lattices are equal iff their Q-spans are, that is iff
rank A = rank B = rank [A; B], so :func:`lattices_equal` is three
rank-only certificates, of A^T, B^T and [A; B]^T.  Its answer rests, as
every certificate does, on verified kernel vectors for each "rank <= r"
and on the eliminator's pivot count for each "rank >= r".

Also provided: exact determinants by fraction-free elimination, and
builders for the integer matrices of the maps alpha and delta on the class
basis.  The builders hold compositions as binary words in int64 arrays,
indexed by the rows of :mod:`.compositions`, so init, fin, duality and the
inverse of mu are bit operations, and they build
delta from alpha one weight at a time,
D_k = Π_k · diag(D_0, …, D_{k-1}) · A_k; ``delta`` and ``lincomb`` compute
the same maps on tuple-keyed linear combinations.  The same recursion
makes the images S_k of the lower pivot rows span the row space of D_k,
about half its rows, and :func:`kernel_of_delta` eliminates those.

>>> certified_kernel([[1, 2, 3], [2, 4, 6]]).rank
1
>>> det_bareiss([[2, 1], [7, 4]])
1
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .compositions import MAX_WEIGHT, _class_columns


class ReconstructionError(RuntimeError):
    """Raised when rational reconstruction keeps failing as primes grow."""


# ---------------------------------------------------------------------------
# primes


def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    """The `count` largest primes below `limit`, descending: a sieve of the
    window [limit - span, limit), its span doubled until it holds them."""
    span = 32 * count
    while True:
        lo = limit - span
        composite = np.zeros(span, dtype=bool)
        for q in range(2, isqrt(limit - 1) + 1):
            composite[max(q * q, -(-lo // q) * q) - lo :: q] = True
        primes = lo + np.flatnonzero(~composite)[::-1]
        if len(primes) >= count:
            return tuple(int(x) for x in primes[:count])
        span *= 2


#: primes just below 2^21: residue elimination and rational reconstruction,
#: tried in turn while a prime turns out unlucky.  Small enough that p^2
#: products accumulated over a <= 2^11-wide panel stay below 2^53, so the
#: elimination runs on exact float64 matmuls (BLAS).
PRIMES21 = _primes_below(1 << 21, 12)
#: primes just below 2^20: verification products, three to a word.
PRIMES20 = _primes_below(1 << 20, 512)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _ratrec(a: int, m: int) -> tuple[int, int] | None:
    """Rational reconstruction of a mod m: the coprime pair (num, den) with
    den > 0, |num|, den <= sqrt(m/2) and num = a * den mod m, or None."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0:
        return None
    num, den = (r1, t1) if t1 > 0 else (-r1, -t1)
    if den > bound or gcd(num, den) != 1:
        return None
    if (num - a * den) % m != 0:
        return None
    return num, den


# ---------------------------------------------------------------------------
# modular kernels


def _reduce(A: np.ndarray, p: float) -> np.ndarray:
    """Reduce exact-integer float64 entries below 2^53 in magnitude modulo p
    (p < 2^21), in place, to residues of magnitude below p: A - p q for q
    the integer nearest A / p, so at most p/2 plus the rounding of A / p,
    which is under 1."""
    q = A * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    A -= q
    return A


def _unitriangular_inverse(A: np.ndarray, pf: float) -> np.ndarray:
    """A^-1 mod p for a unit triangular float64 A with entries below p in
    magnitude: with N = I - A, nilpotent, A^-1 = (I + N)(I + N^2)(I + N^4)...,
    the factors up to N^(2^s) with 2^(s+1) >= len(A)."""
    k = len(A)
    N = _reduce(np.eye(k) - A, pf)
    X = np.eye(k) + N
    for _ in range(max(k - 1, 1).bit_length() - 1):
        N = _reduce(N @ N, pf)
        if not N.any():
            break
        X = _reduce(X + X @ N, pf)
    return X


def _padded_inverse(U: np.ndarray, J: list[int], pf: float) -> np.ndarray:
    """The panel-column by pivot matrix E whose rows J hold U_JJ^-1 mod p,
    for U_JJ = U[:len(J), J], and whose other rows are 0: X @ E is
    X[:, J] @ U_JJ^-1 without gathering the columns J of X."""
    E = np.zeros((U.shape[1], len(J)))
    E[J] = _unitriangular_inverse(U[: len(J), J], pf)
    return E


def _kernel_mod_p_fast(M: np.ndarray, p: int, block: int = 64):
    """Row-reduce M mod p (p < 2^21) by blocked LU on exact float64
    arithmetic.  Returns (rank, pivot columns, pivot rows, inverse).  The
    pivot rows are the rows of M, in pivot order, that the row swaps brought
    to the top: A = M[rows][:, pivots] is invertible mod p.

    Once a row holds a pivot it is never updated again: each panel of
    ``block`` columns eliminates on the rows without a pivot only.  It reads
    each column left-looking, as the column less F @ U for F the
    multipliers so far and U the normalized pivot rows, on the rows read so
    far: at first the candidates, the first ``block`` rows without a pivot;
    from the first column that no candidate holds on, every row without a
    pivot, the other rows' multipliers then taken in one product.  No row is
    updated within the panel: U and F are all it keeps.  With P the panel
    as it began and J its pivot columns, the pivot block is
    P_JJ = L_JJ U_JJ, U_JJ unit upper triangular and L_JJ lower; each
    triangular inverse takes a few small products
    (:func:`_unitriangular_inverse`).  The other rows'
    multipliers on the pivot rows as the panel began are P[:, J] P_JJ^-1,
    one product, and the trailing update is one product over those rows.
    The pivot rows become P_JJ^-1 times themselves, the identity on their
    pivot columns.  The elimination stops once every row holds a pivot.

    ``inverse`` is A^-1 mod p as records (lo, i, G) for :func:`_solve_mod_p`,
    each the step ``v[lo : lo + len(G)] -= G @ v[i : i + w]`` (w the width of
    G; G float32, exact as p < 2^24): first a forward record per panel, in
    order, then a backward record per panel but the first, in reverse order,
    for the panel that took pivot rows i..i+w.  The forward one, on rows
    i..r, applies P_JJ^-1 to the panel's rows and takes their multiples off
    the later pivot rows.  The backward one, on rows 0..i, takes the
    panel's rows off the earlier ones, as much as those hold on the panel's
    pivot columns.  The forward multipliers are kept by row id while
    eliminating, as later swaps move the rows, and gathered at the final
    pivot rows at the end.

    Every value is an integer below 2^53 in magnitude, so float64 matmuls
    are exact and run on BLAS; entries stay lazily unreduced between
    reductions.  Pivot choice is the first nonzero entry at or below the
    current row, swapped into it, so the rank, the pivots and the pivot rows
    equal those of the plain row reduction ``_kernel_mod_p_int`` in
    ``tests/test_exact_linalg.py``, which the tests compare it against.
    """
    pf = float(p)
    W = np.asarray(M % p, dtype=np.float64)
    m, n = W.shape
    pivots: list[int] = []
    perm = np.arange(m)
    panels = []  # (i, the row ids from i on, the forward G by those ids)
    r = 0
    acc = 0  # panel applications since the trailing block was last reduced
    for c0 in range(0, n, block):
        if r == m:
            break  # every row holds a pivot
        c1 = min(c0 + block, n)
        P = _reduce(W[r:, c0:c1], pf)  # a view: row swaps of W move it too
        h = min(block, m - r)
        F = np.zeros((m - r, h))  # the multipliers of the rows read, on the pivot rows
        hi = h  # the rows read: the candidates, then every row without a pivot
        U = np.zeros((h, c1 - c0))  # the normalized pivot rows
        J: list[int] = []  # the pivot columns, from c0
        inv: list[float] = []  # the inverses of the pivots
        for j in range(c1 - c0):
            wp = len(J)
            col = _reduce(P[wp:hi, j] - F[wp:hi, :wp] @ U[:wp, j], pf)
            nz = col.nonzero()[0]
            if nz.size == 0 and hi < m - r:  # no candidate holds this column: read all rows
                F[hi:, :wp] = _reduce(P[hi:] @ _padded_inverse(U, J, pf), pf)
                hi = m - r
                col = _reduce(P[wp:hi, j] - F[wp:hi, :wp] @ U[:wp, j], pf)
                nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            i0 = wp + int(nz[0])
            if i0 != wp:
                swap = [r + wp, r + i0]
                for a in (perm, W):
                    a[swap] = a[swap[::-1]]
                F[[wp, i0]] = F[[i0, wp]]
                col[[0, i0 - wp]] = col[[i0 - wp, 0]]
            piv = int(col[0])
            row = P[wp, j:] - F[wp, :wp] @ U[:wp, j:]
            F[wp + 1 : hi, wp] = col[1:]
            inv.append(float(pow(piv, p - 2, p)))
            U[wp, j:] = np.remainder(np.remainder(row, pf) * inv[-1], pf)
            J.append(j)
            pivots.append(c0 + j)
            if r + wp + 1 == m:
                break  # every row holds a pivot
        wp = len(J)
        if not wp:
            continue
        # X @ E is X[:, J] @ U_JJ^-1 for any X on the panel's columns; the
        # pivot rows' multipliers L_JJ = P[:wp] @ E are lower triangular with
        # the pivots on the diagonal, so L_JJ diag(inv) is unit triangular
        E = _padded_inverse(U, J, pf)
        Lu = _reduce(_reduce(P[:wp] @ E, pf) * inv, pf)
        T = _reduce(np.array(inv)[:, None] * _unitriangular_inverse(Lu, pf), pf)  # L_JJ^-1
        # X @ K is X[:, J] @ P_JJ^-1, for P_JJ = L_JJ U_JJ the pivot block
        K = _reduce(E @ T, pf)
        G = np.empty((m - r, wp), dtype=np.float32)
        G[:wp] = _reduce(np.eye(wp) - K[J], pf)
        G[wp:] = FK = _reduce(P[wp:] @ K, pf)
        panels.append((r, perm[r:].copy(), G))
        # the pivot rows become P_JJ^-1 times themselves, the identity on
        # their pivot columns, and never change again; the other rows lose
        # FK times the pivot rows as the panel began
        if c1 < n:
            X = _reduce(W[r : r + wp, c1:], pf)
            chunk = max(1, (1 << 24) // max(m - r, 1))
            for a in range(0, n - c1, chunk):
                W[r + wp :, c1 + a : c1 + a + chunk] -= FK @ X[:, a : a + chunk]
            W[r : r + wp, c1:] = _reduce(K[J] @ X, pf)
        r += wp
        acc += 1
        # between reductions at most 1024 panel columns of products, each
        # below p^2 < 2^42, accumulate: the sums stay below 2^52
        if acc >= 1024 // block and c1 < n:
            _reduce(W[r:, c1:], pf)
            acc = 0
    rows = perm[:r]
    where = np.empty(m, dtype=np.int64)
    forward = []
    for i, ids, G in panels:
        where[ids] = np.arange(len(ids))
        forward.append((i, i, G[where[rows[i:]]]))
    # the earlier pivot rows' entries on each panel's pivot columns
    backward = [(0, i, W[:i, pivots[i : i + G.shape[1]]].astype(np.float32)) for i, _, G in reversed(panels) if i]
    return r, tuple(pivots), tuple(rows.tolist()), forward + backward


def _solve_mod_p(inverse, R: np.ndarray, p: int) -> np.ndarray:
    """A^-1 R mod p as int64 in [0, p), for the ``inverse`` of A that
    :func:`_kernel_mod_p_fast` returns and an integer array R (int64 or
    Python ints) of r rows with entries below 2^53 in magnitude: the records
    replayed in order, the forward sweep then the backward one,
    ``v[lo : lo + len(G)] -= G @ (v[i : i + w] mod p)``, the rows read
    reduced in place.

    Between reductions of v at most 1024 columns of products, each below
    p^2 < 2^42, accumulate, so every partial sum stays below 2^53."""
    pf = float(p)
    v = _reduce(R.astype(np.float64), pf)
    acc = 0
    for lo, i, G in inverse:
        w = G.shape[1]
        if acc + w > 1024:
            _reduce(v, pf)
            acc = 0
        v[lo : lo + len(G)] -= G @ _reduce(v[i : i + w], pf)
        acc += w
    _reduce(v, pf)
    v += (v < 0) * pf
    return v.astype(np.int64)


def _magnitude(X: np.ndarray) -> int:
    """The largest |entry| of an int64 or Python-int array, from its max and
    min (no copy through np.abs), or 0 when it is empty."""
    return max(int(X.max()), -int(X.min())) if X.size else 0


_LIMB = 20


def _limbs(X: np.ndarray):
    """The largest |X| entry, and X = sum_s X_s 2^s as triples (s, X_s,
    bound) with X_s in float64 and |X_s| <= bound: X itself when its entries
    are below 2^21, else its 20-bit limbs, the top one signed."""
    xmax = _magnitude(X)
    if xmax < 1 << 21:
        return xmax, [(0, X.astype(np.float64), xmax)]
    top = _LIMB * ((xmax.bit_length() - 1) // _LIMB)
    mask = (1 << _LIMB) - 1
    low = [(s, ((X >> s) & mask).astype(np.float64), mask) for s in range(0, top, _LIMB)]
    return xmax, low + [(top, (X >> top).astype(np.float64), 1 << _LIMB)]


def _float_product(X: np.ndarray, Y: np.ndarray, bound: int) -> np.ndarray:
    """X @ Y as int64, for float64 integer arrays whose entrywise products
    are at most bound in magnitude: BLAS over slices of the inner dimension
    short enough that every partial sum stays an integer below 2^53."""
    step = ((1 << 53) - 1) // max(bound, 1)
    slices = range(0, max(X.shape[1], 1), step)
    return sum((X[:, a : a + step] @ Y[a : a + step]).astype(np.int64) for a in slices)


def _mul_exact(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B exactly, for integer arrays (int64 or Python ints) of any size
    and sign: int64 when |A| |B| k < 2^63 (k the inner dimension) proves
    that it fits, Python ints otherwise.

    A factor with an entry of 2^21 or more is cut into 20-bit limbs
    (:func:`_limbs`), and each product of limbs is formed by
    :func:`_float_product`.  int64 sums wrap modulo 2^64, so they are exact
    whenever the value they reach fits: an int64 result adds the shifted
    limb products in int64.  Otherwise the limb products with the same
    shift are summed in int64 over inner slices on which that sum stays
    below 2^63, and converted to Python ints once per slice."""
    amax, la = _limbs(A)
    bmax, lb = _limbs(B)
    terms = [(sa + sb, X, Y, xb * yb) for sa, X, xb in la for sb, Y, yb in lb]
    k = A.shape[1]
    if amax * bmax * k < 1 << 63:
        return sum(_float_product(X, Y, b) << s for s, X, Y, b in terms)
    shifts = sorted({s for s, *_ in terms})
    step = ((1 << 63) - 1) // max(sum(b for s2, *_, b in terms if s2 == s) for s in shifts)
    out = []
    for a in range(0, k, step):
        for s in shifts:
            group = [(X[:, a : a + step], Y[a : a + step], b) for s2, X, Y, b in terms if s2 == s]
            out.append(sum(_float_product(*f) for f in group).astype(object) << s)
    return sum(out[1:], out[0])


def _padic_rows(words: tuple, base: int):
    """The rows, as lists of Python ints, of sum_c words[c] * base^c."""
    for i in range(words[0].shape[0]):
        row = words[-1][i].tolist()
        for w in words[-2::-1]:
            row = [x * base + d for x, d in zip(row, w[i].tolist())]
        yield row


def _padic_solutions(Mr: np.ndarray, p: int, pivots, free, inverse):
    """Successive approximations (rows of Y mod p^s, p^s) of Y = A^-1 B, for
    A and B the pivot and free columns of the integer matrix Mr (A invertible
    mod p) and ``inverse`` the A^-1 mod p of its elimination (see
    :func:`_kernel_mod_p_fast`): Dixon's p-adic lifting.

    Each digit, the first included, is one replay of ``inverse`` on the
    residual, B at first.  Lifting stops at the first p^s > 2 H^2, for H the
    Hadamard bound of Mr's rows, which bounds every numerator and denominator
    of Y: from there rational reconstruction returns Y itself.  The digits
    stay int64, three to a word (p^3 < 2^63), and each approximation's rows
    become Python ints only as they are read, so a reconstruction that fails
    in its first row builds one row."""
    base = p**3
    if Mr.dtype == object:
        # Python-int entries may pass float64's range: each row's squared
        # norm is below 2^(its bit length), so 2 H^2 < 2^limit_bits
        limit_bits = sum(int(np.dot(row, row)).bit_length() for row in Mr) + 1
    else:
        sq = np.square(Mr.astype(np.float64)).sum(axis=1)
        # one spare bit covers the float rounding of the bound
        limit_bits = math.ceil(float(np.log2(sq).sum())) + 2
    A, B = Mr[:, list(pivots)], Mr[:, free]
    # as each digit is below p, the residual stays below |Mr| (r + 1), and
    # below |Mr| p (r + 1) within a step: under 2^63 it and the products
    # A y are int64
    res = B if _magnitude(Mr) * p * (len(pivots) + 1) < 1 << 63 else B.astype(object)
    words: tuple = ()
    s, mod = 0, 1
    while True:
        y = _solve_mod_p(inverse, res % p, p)
        if s % 3:
            words = words[:-1] + (words[-1] + y * p ** (s % 3),)
        else:
            words += (y,)
        s += 1
        mod *= p
        yield _padic_rows(words, base), mod
        if mod.bit_length() > limit_bits:
            return
        res = (res - _mul_exact(A, y)) // p


def _ratrec_matrix(rows: Iterable[Sequence[int]], mod: int) -> tuple[np.ndarray, list[int]] | None:
    """Rational reconstruction of every entry of the integer rows modulo
    mod, column-scaled: (P, L), for L[f] the lcm of the denominators in
    column f and P the integer array (:func:`_integer_matrix`) of
    P[i, f] = -num * (L[f] / den), num/den the fraction _ratrec gives entry
    (i, f); or None when some entry has none yet.

    The result is the entrywise one, but entries of a column mostly share
    their denominator, so most cost one product instead of a Euclid
    (output-sensitive reconstruction).  For each column the walk keeps d,
    the lcm of the denominators found so far while it is at most
    N = sqrt(mod/2), and tries y = x * d in symmetric residues first.  If
    |y| <= N, then y/d in lowest terms is a pair that _ratrec accepts: d is
    prime to mod, as every denominator _ratrec returns is (a common factor
    would divide its numerator too).  And when such a pair exists, _ratrec
    returns it (Wang's theorem), as the only one: two pairs agree when
    2 N^2 < mod, which holds for odd mod.  Only when |y| > N does the entry
    run _ratrec and update d.  The walk keeps each entry as the fraction
    y/d, unreduced, and every d divides the final L[f], so P is built at
    the end with no gcd.  The walk reads the rows in order and stops at the
    first failure, so an attempt with too small a modulus usually reads
    only its first row."""
    bound = isqrt(mod // 2)
    half = mod >> 1
    d = L = None
    Y = []
    for row in rows:
        if d is None:
            d, L = [1] * len(row), [1] * len(row)
        yrow = []
        for f, x in enumerate(row):
            df = d[f]
            y = x * df % mod
            if y > half:
                y -= mod
            if -bound <= y <= bound:
                yrow.append((y, df))
                continue
            got = _ratrec(x, mod)
            if got is None:
                return None
            yrow.append(got)
            L[f] = lcm(L[f], got[1])
            if L[f] <= bound:
                d[f] = L[f]
        Y.append(yrow)
    return _integer_matrix([[-y * (L[f] // df) for f, (y, df) in enumerate(row)] for row in Y]), L


# ---------------------------------------------------------------------------
# saturation


def _gather(V: np.ndarray, rows: np.ndarray, vals: np.ndarray, D: int) -> int:
    """Combine the given rows of V, modulo D, by unimodular row operations
    so that the last of them holds g = gcd(vals) and the others 0, where
    vals are their nonzero entries in one column (or the residues of those
    entries modulo a divisor of D, when a congruence is all that is asked);
    return g.

    A row whose value g already divides takes one vectorized subtraction of
    a multiple of the last row; each other row meets the last in a 2 x 2
    Euclid, which lowers g, so at most log2(vals[-1]) of them run.  The
    last row carries so that, when B is near the identity, the rows it is
    subtracted from gain entries only in later columns.  With vals and the
    entries of V in [0, D), every value formed is below 2 D^2."""
    p, g = rows[-1], int(vals[-1])
    rows, vals = rows[:-1], vals[:-1]
    while (off := np.flatnonzero(vals % g)).size:
        j = off[0]
        b = int(vals[j])
        h, x, y = _xgcd(g, b)
        wp, wj = V[p], V[rows[j]]
        V[p], V[rows[j]] = (x * wp + y * wj) % D, (b // h * wp - g // h * wj) % D
        g = h
        rows, vals = np.delete(rows, j), np.delete(vals, j)
    if rows.size:
        V[rows] = (V[rows] - (vals // g)[:, None] * V[p]) % D
    return g


def _coefficient_hermite(Gm: np.ndarray, dens: Sequence[int], D: int) -> np.ndarray:
    """Upper-triangular Z-basis H, entries in [0, D], of the lattice of
    integer vectors lambda with Gm[i] . lambda = 0 mod dens[i] for every i,
    where every dens[i] divides D and Gm has entries in [0, D).  Every value
    formed is below 2 D^2, so the work is in int64 when D < 2^31 and in
    Python ints beyond.

    The lattice contains D * Z^t, so every row operation may reduce its
    result modulo D: that adds multiples of D * e_j, which the lattice
    holds.  The sweeps work on [S | B], where B spans the lattice of the
    congruences so far together with D * Z^t, and S = B @ Gm.T mod D starts
    as Gm.T as B starts as the identity: sweep i reads its residues in column
    i of S, gathers the rows with nonzero residues into one row holding
    their gcd g (:func:`_gather`; S follows each row operation), and scales
    that row by d / gcd(g, d).  The Hermite basis of span(B) + D * Z^t is
    then computed modulo D (Domich, Kannan & Trotter 1987): at column c the
    working rows with a nonzero entry are gathered into one row p, which
    then takes in D * e_c, a generator no operation has touched before:
    with g = gcd(p_c, D) = x p_c + y D, the basis row is x * p mod D with g
    at column c, and (D / g) * p mod D, zero at column c, stays a working
    row.  A column without working entries has the basis row D * e_c."""
    k, t = Gm.shape
    dtype = np.int64 if D < 1 << 31 else object
    A = np.zeros((t, k + t), dtype=dtype)
    A[:, :k] = Gm.T
    A[:, k:] = np.eye(t, dtype=np.int64)
    for i, d in enumerate(dens):
        V = A[:, i:]
        res = V[:, 0] % d
        nz = np.flatnonzero(res)
        if nz.size == 0:
            continue
        s = d // gcd(_gather(V, nz, res[nz], D), d)
        if s > 1:
            V[nz[-1]] = s * V[nz[-1]] % D
    W = A[:, k:]
    H = np.zeros((t, t), dtype=dtype)
    for c in range(t):
        V = W[:, c:]
        nz = np.flatnonzero(V[:, 0])
        if nz.size == 0:
            H[c, c] = D
            continue
        p = nz[-1]
        g, x, _ = _xgcd(_gather(V, nz, V[nz, 0], D), D)
        H[c, c:] = x * V[p] % D
        H[c, c] = g
        V[p] = D // g * V[p] % D
    return H


def _saturate(P, L, pivots, free, n) -> tuple[tuple[int, ...], ...]:
    """Saturated basis of the lattice Q-spanned by the reduced kernel
    vectors (1 at own free column f, P[i, f] / L[f] at pivot column i, for
    the column-scaled numerators P and column lcms L of
    :func:`_ratrec_matrix`) inside Z^n.

    With G[i] / d_i the pivot row i of the reduced kernel vectors (d_i the
    lcm over f of L[f] / gcd(P[i, f], L[f]), and G[i, f] = P[i, f] d_i / L[f]
    exactly) and D the lcm of the d_i, the lattice is the set of x with
    x[free] = lambda and x[pivots] = G lambda / d, for lambda in the
    coefficient lattice of integer vectors with G[i] . lambda = 0 mod d_i
    for every i, which contains D * Z^t.  The basis rows come from the rows
    lambda of its Hermite basis modulo D (:func:`_coefficient_hermite`):
    their free coordinates lie in [0, D], and their pivot coordinates are
    G lambda / d, one exact product G @ H.T (:func:`_mul_exact`) divided
    exactly by d."""
    t = len(free)
    if t == 0:
        return ()
    # pivot row i of the reduced kernel vectors is G[i] / row_den[i]
    rows = P.tolist()
    row_den = [lcm(*[Lf // gcd(x, Lf) for x, Lf in zip(row, L)]) for row in rows]
    G = _integer_matrix([[x * d // Lf for x, Lf in zip(row, L)] for row, d in zip(rows, row_den)])
    den = _integer_matrix(row_den)[:, None]
    D = lcm(*row_den)
    live = den[:, 0] > 1
    H = _coefficient_hermite(G[live] % den[live], den[live, 0].tolist(), D)
    if not all(H.diagonal()):
        raise ReconstructionError("coefficient lattice lost full rank")
    GH = _mul_exact(G, H.T)
    if np.any(GH % den):
        raise ReconstructionError("saturation produced a non-integer entry")
    V = np.zeros((n, t), dtype=GH.dtype)
    V[list(free)] = H.T
    V[list(pivots)] = GH // den
    return tuple(map(tuple, V.T.tolist()))


# ---------------------------------------------------------------------------
# the certified pipeline


#: the stages a certificate's :class:`KernelStats` times
STAGES = ("lower", "build", "elimination", "lifting", "reconstruction", "verification", "saturation")


@dataclass
class KernelStats:
    """What the computation of one certificate did: ``seconds`` per stage
    (:data:`STAGES`), the row count of each elimination in order (one per
    prime tried, and one more for a row hint that missed part of the row
    space), and the p-adic digits lifted at the certifying prime.

    Only :func:`kernel_of_delta` and :func:`kernel_of_alpha` time ``lower``
    (the lower certificates of a delta kernel's row hint) and ``build``.
    ``reconstruction`` includes building the Python-int rows of each p-adic
    approximation, which it reads lazily, and the column-scaled integer
    numerators P of the one that succeeds; ``lifting`` is the digits
    alone."""

    seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    eliminated: list[int] = field(default_factory=list)
    lifting_steps: int = 0

    def call(self, stage: str, fn, *args):
        """fn(*args), its time added to ``stage``."""
        t0 = time.perf_counter()
        out = fn(*args)
        self.seconds[stage] += time.perf_counter() - t0
        return out


@dataclass(frozen=True)
class KernelCertificate:
    """Exact rank and (optionally) a saturated integer kernel basis.

    ``rank <= r`` is proven: ``nullity`` independent kernel vectors are
    verified exactly against every row of the matrix.  They come from one
    elimination modulo a prime p, run on all rows or on a subset of them,
    and p-adic lifting of its residues.  ``rank >= r`` is that elimination's
    pivot count at p, on rows of the matrix (a rank mod p never exceeds the
    rank over Q); that count is trusted, and checked only by the property
    test that compares the eliminator with a plain reference eliminator.  An
    independent check of the pivot minor is an open item in ROADMAP.md.
    ``primes`` lists the prime at which the certifying elimination ran
    (empty when no elimination was needed); a prime found unlucky before it,
    whose rank falls short of the rank over Q, is not listed.  ``rows`` are
    that elimination's pivot rows, in pivot order, as indices of the whole
    matrix (empty when the rank is 0); ``n_rows`` counts all its rows.
    ``basis`` rows span ker_Q(M) ∩ Z^{n_cols}.  ``stats`` records how the
    certificate was computed (:class:`KernelStats`); it takes no part in
    equality, hashing or ``repr``."""

    n_rows: int
    n_cols: int
    rank: int
    basis: tuple[tuple[int, ...], ...] | None
    primes: tuple[int, ...]
    rows: tuple[int, ...] = ()
    stats: KernelStats | None = field(default=None, compare=False, repr=False)

    @property
    def nullity(self) -> int:
        return self.n_cols - self.rank


def _verify_product(M, mmax, P, L, pivots, free):
    """Exactly establish M @ V == 0 for the integer kernel matrix V with
    diag(L) on the free rows and the integer array P on the pivot rows, by
    modular checks whose combined modulus exceeds twice a bound on |M @ V|
    entries.  The primes go three at a time (their product is below 2^63):
    V's residues modulo the three stand side by side, and each slice of M
    meets them in one product."""
    m, n = M.shape
    t = len(free)
    vmax = max([1, _magnitude(P)] + list(L))
    bound = 2 * n * max(mmax, 1) * vmax
    qs, prod = [], 1
    for q in PRIMES20:
        qs.append(q)
        prod *= q
        if prod > bound:
            break
    if prod <= bound:
        raise ReconstructionError("verification primes exhausted")
    for g in range(0, len(qs), 3):
        group = qs[g : g + 3]
        qv = np.array(group)[:, None]
        V = np.zeros((n, len(group), t), dtype=np.int64)
        V[free, :, np.arange(t)] = [[x % q for q in group] for x in L]
        V[list(pivots)] = (P % math.prod(group)).astype(np.int64)[:, None] % qv
        V = V.reshape(n, -1)
        for a in range(0, m, 4096):  # bounds the size of the product slices
            Ma = M[a : a + 4096]
            if mmax < group[-1]:
                C = _mul_exact(Ma, V)
            else:  # Ma reduced modulo each prime first keeps each product in int64
                C = np.hstack([_mul_exact(Ma % q, V[:, j * t : (j + 1) * t]) for j, q in enumerate(group)])
            if np.any(C.reshape(len(C), len(group), t) % qv):
                return False
    return True


def _integer_matrix(mat) -> np.ndarray:
    """mat as an int64 array, or as a Python-int object array when an entry
    has magnitude 2^63 or more.  A non-integer entry raises ValueError."""
    if isinstance(mat, np.ndarray) and mat.dtype.kind in "biu":
        M = mat
    else:
        M = np.array(mat, dtype=object)
        if not all(issubclass(t, Integral) for t in set(map(type, M.flat))):
            raise ValueError("certified_kernel needs integer entries")
    if _magnitude(M) >= 1 << 63:
        return np.frompyfunc(int, 1, 1)(M)
    return M.astype(np.int64, copy=False)


def certified_kernel(mat, *, need_basis: bool = True) -> KernelCertificate:
    """Certified rank and saturated kernel lattice of an integer matrix.

    Entries are integers of any size, held as int64 while they fit and as
    Python ints beyond; a non-integer entry raises ValueError.

    >>> c = certified_kernel([[1, 1, 0], [0, 2, 2]])
    >>> c.rank, c.nullity, c.basis
    (2, 1, ((1, -1, 1),))
    """
    return _certify(_integer_matrix(mat), need_basis)


def _certify(M: np.ndarray, need_basis: bool, hint: Sequence[int] | None = None, stats=None) -> KernelCertificate:
    """The certificate of :func:`certified_kernel` for the integer array M,
    eliminated on S, the rows ``hint`` of M when given and all of M
    otherwise, its stages recorded in ``stats`` (a new one when None).

    A hint is expected to span M's row space.  The kernel vectors lifted
    from its elimination are still verified against every row of M, so the
    hint can change the cost, never the result: when they hold on the hinted
    rows but not on M, the hint misses part of M's row space, and the
    certificate is rebuilt on all rows, at the cost of one more elimination
    of the whole of M."""
    if M.ndim != 2:
        raise ValueError("a 2-D integer matrix is required")
    stats = KernelStats() if stats is None else stats
    m, n = M.shape
    if n == 0:
        return KernelCertificate(m, 0, 0, () if need_basis else None, (), stats=stats)
    mmax = _magnitude(M)
    if m == 0 or mmax == 0:
        basis = tuple(tuple(1 if j == f else 0 for j in range(n)) for f in range(n))
        return KernelCertificate(m, n, 0, basis if need_basis else None, (), stats=stats)
    # the hinted rows S are gathered for each use, not held beside M
    index = np.arange(m) if hint is None else np.asarray(hint, dtype=np.int64)
    if hint is not None and not M[index].any():
        return _certify(M, need_basis, stats=stats)  # M is nonzero, so the hint misses its row space
    for p in PRIMES21:
        stats.eliminated.append(len(index))
        stats.lifting_steps = 0
        rank, pivots, rows, inverse = stats.call("elimination", _kernel_mod_p_fast, M if hint is None else M[index], p)
        rows = tuple(index[list(rows)].tolist())
        t = n - rank
        if t == 0:
            return KernelCertificate(m, n, rank, () if need_basis else None, (p,), rows, stats)
        if rank == 0:
            continue  # S is nonzero, so p divides every entry and is unlucky
        free = sorted(set(range(n)).difference(pivots))
        Mr = M[list(rows)]
        solutions = _padic_solutions(Mr, p, pivots, free, inverse)
        while (step := stats.call("lifting", next, solutions, None)) is not None:
            stats.lifting_steps += 1
            got = stats.call("reconstruction", _ratrec_matrix, *step)
            if got is None:
                continue
            P, L = got
            if stats.call("verification", _verify_product, M, mmax, P, L, pivots, free):
                basis = stats.call("saturation", _saturate, P, L, pivots, free, n) if need_basis else None
                return KernelCertificate(m, n, rank, basis, (p,), rows, stats)
            if not stats.call("verification", _verify_product, Mr, mmax, P, L, pivots, free):
                continue  # not yet A Y = B: lift further
            if hint is not None and stats.call("verification", _verify_product, M[index], mmax, P, L, pivots, free):
                return _certify(M, need_basis, stats=stats)  # the hinted rows miss part of M's row space
            break  # the pivot rows miss part of S's row space
        # p is unlucky: S has a larger rank over Q than modulo p
    raise ReconstructionError(f"no certificate after {len(PRIMES21)} primes")


# ---------------------------------------------------------------------------
# determinants and lattice equality


def det_bareiss(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    A = [[int(x) for x in row] for row in rows]
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            sel = next((i for i in range(k + 1, n) if A[i][k]), None)
            if sel is None:
                return 0
            A[k], A[sel] = A[sel], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def lattices_equal(basis_a, basis_b) -> bool:
    """Equality of two saturated lattices given by integer bases of equal
    length vectors: False when the vector counts differ, else whether
    rank A = rank B = rank [A; B], which holds iff the Q-spans agree.

    The three ranks are rank-only certificates of the transposes, whose
    rows are the vector coordinates: "rank <= r" rests on verified kernel
    vectors, and "rank >= r" on the eliminator's pivot count, as in every
    :class:`KernelCertificate`.  Vectors of different lengths, within one
    basis or across the two, raise ValueError.

    >>> lattices_equal([(1, 0), (0, 1)], [(1, 1), (0, 1)])
    True
    """
    a, b = [list(v) for v in basis_a], [list(v) for v in basis_b]
    if len({len(v) for v in a + b}) > 1:
        raise ValueError("lattice basis vectors of different lengths")
    if len(a) != len(b):
        return False
    if not a:
        return True
    M = _integer_matrix(a + b).T
    t = len(a)
    ranks = {certified_kernel(X, need_basis=False).rank for X in (M[:, :t], M[:, t:], M)}
    return len(ranks) == 1


# ---------------------------------------------------------------------------
# matrices of alpha and delta on the class basis
#
# Rows, columns and class representatives are the rows of
# ``compositions`` (an admissible word 0 m 1 has row m), listed by
# ``compositions._class_columns``.  Here a composition of weight w is its
# word W read as a w-bit number, first letter most significant, held with
# its length L, so that init and fin are array operations.


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Elementwise ``int.bit_length`` of a non-negative int64 array."""
    n = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = x >= (1 << s)
        x = np.where(big, x >> s, x)
        n += s * big
    return n + (x > 0)


def _init_words(W: np.ndarray, L: np.ndarray):
    """init on words (W, L) of lengths L: drop the final run 0^(e-1) 1."""
    V = W >> 1
    e = np.where(V > 0, _bit_length(V & -V), L)
    return W >> e, L - e


def _fin_words(W: np.ndarray, L: np.ndarray):
    """fin on nonempty admissible words: drop the leading 0, then the
    leading run of 1s."""
    n = _bit_length(~W & ((1 << (L - 1)) - 1))
    return W & ((1 << n) - 1), n


def _alpha_targets(k: int, classes: list):
    """init, mid and fin of every weight-k class, each as (weights, rows of
    ``alpha_matrix(k)``), and the row where each weight's classes start.
    ``classes[w]`` is ``_class_columns(w)`` for w <= k."""
    cols, reps = zip(*classes[: k + 1])
    starts = np.cumsum([0] + [len(r) for r in reps])
    index = np.concatenate([c + s for c, s in zip(cols, starts)])
    row_start = np.cumsum([0] + [len(c) for c in cols])
    W = 2 * reps[k] + 1
    L = np.full(len(W), k)
    fin = _fin_words(W, L)
    parts = (_init_words(W, L), _init_words(*fin), fin)
    return [(n, index[row_start[n] + (V >> 1)]) for V, n in parts], starts


def alpha_matrix(k: int) -> np.ndarray:
    """Matrix of alpha at weight k: rows are classes of all weights < k,
    graded, columns are classes of weight k, each weight's classes in
    enumeration order."""
    if not 1 <= k <= MAX_WEIGHT:
        raise ValueError(f"1 <= k <= {MAX_WEIGHT} required")
    targets, starts = _alpha_targets(k, [_class_columns(w) for w in range(k + 1)])
    A = np.zeros((starts[k], starts[k + 1] - starts[k]), dtype=np.int64)
    j = np.arange(A.shape[1])
    for _, pos in targets:
        A[pos, j] += 1
    return A


def delta_matrix(k: int) -> np.ndarray:
    """Matrix of delta at weight k: rows are admissible compositions, columns
    are duality classes, both in enumeration order.

    Built weight by weight as D_w = Π_w · diag(D_0, …, D_{w-1}) · A_w, the
    defining recursion mu(delta([a])) = delta(alpha([a])) in matrix form:
    A_w is ``alpha_matrix(w)``, and Π_w, the inverse of mu, sends row m' of
    weight w' >= 2 to row (2m' + 1) · 2^(w-w'-1) and the empty composition
    to row 0: onto the rows of weight w whose last entry is w - w'.

    Each column of D_w is the sum of the at most three lower columns alpha
    names, added a few rows at a time."""
    if not 0 <= k <= MAX_WEIGHT:
        raise ValueError(f"0 <= k <= {MAX_WEIGHT} required")
    classes = [_class_columns(w) for w in range(k + 1)]
    D: list = [np.ones((1, 1), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)]
    for w in range(2, k + 1):
        targets, starts = _alpha_targets(w, classes)
        Dw = np.zeros((1 << (w - 2), starts[w + 1] - starts[w]), dtype=np.int64)
        step = max(1, (1 << 16) // Dw.shape[1])  # rows per slab of about 2^16 entries
        for kp in range(w - 1, -1, -1):
            rows = Dw[0:1] if kp == 0 else Dw[1 << (w - kp - 1) :: 1 << (w - kp)]
            for n, pos in targets:
                J = np.flatnonzero(n == kp)
                if len(J) == 0:
                    continue
                c = pos[J] - starts[kp]
                for r in range(0, rows.shape[0], step):
                    rows[r : r + step, J] += D[kp][r : r + step, c]
            if w == k:
                D[kp] = None  # free each lower D once the last one is done with it
        # entries are sums of D_0's entry 1, so non-negative; a lower D is
        # kept in 16 bits when it fits, a quarter of its int64 size
        D.append(Dw if w == k or Dw.max(initial=0) >= 1 << 15 else Dw.astype(np.int16))
    return D[k]


_CERT_CACHE: dict[tuple[str, int], KernelCertificate] = {}


def _cached_kernel(name: str, build, k: int, need_basis: bool, hint=None) -> KernelCertificate:
    """The certificate of build(k), cached under (name, k); a rank-only one
    is replaced when a basis is asked for.  With a hint, build(k) is
    eliminated on the rows hint(k) (see :func:`_certify`), computed first.
    Its stats add the time of hint(k) as ``lower`` and of build(k) as
    ``build``."""
    key = (name, k)
    got = _CERT_CACHE.get(key)
    if got is None or (need_basis and got.basis is None):
        stats = KernelStats()
        rows = None if hint is None else stats.call("lower", hint, k)
        M = stats.call("build", build, k)
        if hint is None:  # through the public entry point, which perfbench's tracer records
            got = certified_kernel(M, need_basis=need_basis)
            got.stats.seconds["build"] = stats.seconds["build"]
        else:
            got = _certify(_integer_matrix(M), need_basis, rows, stats)
        if need_basis or key not in _CERT_CACHE:
            _CERT_CACHE[key] = got
    return got


def _delta_pivot_rows(k: int) -> list[int]:
    """The rows S_k of D_k that Π_k sends the lower pivot rows to, ascending:
    row m' of a weight kp >= 2 goes to row (2m' + 1) · 2^(k-kp-1), and the
    empty composition to row 0.

    Π_k is a bijection onto the rows of D_k, and row Π_k(m') of D_k is row
    m' of D_kp times the weight-kp block of A_k.  The pivot rows of D_kp
    span its row space, so S_k spans that of D_k.  D_0 = (1) has the one row
    [0], and D_1 has no rows."""
    if k < 2:
        return [0] if k == 0 else []
    rows = []
    for kp in range(k):
        pivots = kernel_of_delta(kp, need_basis=False).rows
        rows += list(pivots) if kp == 0 else [(2 * i + 1) << (k - kp - 1) for i in pivots]
    return sorted(rows)


def kernel_of_delta(k: int, *, need_basis: bool = True) -> KernelCertificate:
    """Certified kernel of the weight-k delta matrix (over the class basis),
    eliminated on the rows S_k of :func:`_delta_pivot_rows` and verified on
    all of D_k.  The lower certificates it reads are computed, and cached,
    first."""
    if not 0 <= k <= MAX_WEIGHT:
        raise ValueError(f"0 <= k <= {MAX_WEIGHT} required")
    return _cached_kernel("delta", delta_matrix, k, need_basis, _delta_pivot_rows)


def kernel_of_alpha(k: int, *, need_basis: bool = True) -> KernelCertificate:
    """Certified kernel of the weight-k alpha matrix (over the class basis)."""
    return _cached_kernel("alpha", alpha_matrix, k, need_basis)


def preimage_lattice(k: int) -> KernelCertificate:
    """The lattice of weight-k class combinations whose alpha image lies,
    weight by weight, in the Q-span of the lower-weight delta kernels.

    Computed as the certified kernel of a stacked matrix: for each lower
    weight, the alpha component (that weight's block of rows of
    ``alpha_matrix(k)``) composed with a check matrix whose kernel is that
    weight's delta-kernel span."""
    A = alpha_matrix(k)
    blocks: list[np.ndarray] = []
    row = 0
    for kp in range(k):
        cert = kernel_of_delta(kp)
        A_kp = A[row : row + cert.n_cols]
        row += cert.n_cols
        if cert.n_cols == 0:
            continue
        if cert.nullity == 0:
            blocks.append(A_kp)
        else:
            check = _cached_kernel("delta-check", lambda kp: kernel_of_delta(kp).basis, kp, True)
            blocks.append(_mul_exact(_integer_matrix(check.basis), A_kp))
    return certified_kernel(np.vstack(blocks))
