"""Exact integer linear algebra with certified results.

Rank and kernel computations run modulo word-sized primes for speed, and
every modular result is then promoted to a statement over the rationals:

* ``rank >= r`` rests on the modular eliminator's pivot count, which the
  property test comparing the blocked eliminator with a plain reference
  eliminator checks; no pivot minor is checked independently yet;
* candidate kernel vectors are rebuilt over Q from one elimination modulo
  a prime p, by p-adic lifting (Dixon's method) through the pivot block:
  every digit, the first included, replays the elimination's own panel
  transforms, which are the block's inverse mod p.  Each p-adic
  approximation is tried by rational reconstruction in integer arithmetic,
  output-sensitively: an entry that its column's running denominator
  already clears costs one product, and only the others run the extended
  Euclidean algorithm.  Each column is scaled by the lcm of its
  denominators, and ``M @ V == 0`` is established exactly by checking it
  modulo fresh primes whose product exceeds twice an explicit bound on the
  entries of ``M @ V``; the ``n - r`` verified independent kernel vectors
  prove ``rank <= r``.

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
the same maps on tuple-keyed linear combinations.

>>> certified_kernel([[1, 2, 3], [2, 4, 6]]).rank
1
>>> det_bareiss([[2, 1], [7, 4]])
1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _mod_into(A: np.ndarray, p: float) -> np.ndarray:
    """Reduce exact-integer float64 entries into [0, p), in place."""
    q = np.floor(A * (1.0 / p))
    q *= p
    A -= q
    np.add(A, p, out=A, where=A < 0)
    np.subtract(A, p, out=A, where=A >= p)
    return A


def _kernel_mod_p_fast(M: np.ndarray, p: int, block: int = 32):
    """Row-reduce M mod p (p < 2^21) by blocked Gauss-Jordan on exact
    float64 arithmetic.  Returns (rank, pivot columns, pivot rows, inverse).
    The pivot rows are the rows of M, in pivot order, that the row swaps
    brought to the top: A = M[rows][:, pivots] is invertible mod p.

    ``inverse`` is A^-1 mod p as the elimination's own panel transforms, for
    :func:`_solve_mod_p`: a list of (i, G), one per panel with pivots, where
    the panel took pivot rows i, i+1, ... and G (float32, exact as p < 2^24)
    holds, for each final pivot row, its coefficients on those rows in the
    panel's update ``W <- W - Ft @ W[pivot rows]``.  A row operation always
    reads a pivot row of its panel, so the final pivot rows never read any
    other row: replayed on them alone, the panels map M[rows] to rows whose
    pivot block is I, and their product is A^-1.  Each panel's Ft is
    recorded by original row id, as later swaps move the rows below it, and
    gathered at the final pivot rows at the end: m × r float32 in all while
    eliminating, r × r after.

    Every value is an integer below 2^53, so float64 matmuls are exact and
    run on BLAS; entries stay lazily unreduced between reductions.  Pivot
    choice is the first nonzero entry at or below the current row, so the
    result equals that of the plain row reduction ``_kernel_mod_p_int`` in
    ``tests/test_exact_linalg.py``, which the tests compare it against.
    Panels are ``block`` columns wide.
    """
    pf = float(p)
    W = np.asarray(M % p, dtype=np.float64)
    m, n = W.shape
    pivots: list[int] = []
    perm = np.arange(m)
    records: list[tuple[int, np.ndarray]] = []
    r = 0
    acc = 0  # panel applications since the trailing block was last reduced
    for c0 in range(0, n, block):
        c1 = min(c0 + block, n)
        buf = _mod_into(W[:, c0:c1].copy(), pf)
        F = np.zeros((m, c1 - c0), dtype=np.float64)
        pivs: list[int] = []
        wp = 0
        for j in range(c1 - c0):
            rr = r + wp
            col = _mod_into(buf[:, j].copy(), pf)
            nz = np.flatnonzero(col[rr:])  # empty once every row holds a pivot
            if nz.size == 0:
                continue
            i0 = rr + int(nz[0])
            if i0 != rr:
                for a in (perm, W, buf, F, col):
                    a[[rr, i0]] = a[[i0, rr]]
            piv = int(col[rr])
            # the update only touches columns j+1:, as the panel columns up
            # to j are not read again; np.remainder, exact on these
            # integers, costs less than _mod_into on a short row
            row = buf[rr, j + 1 :]
            np.remainder(row, pf, out=row)
            row *= float(pow(piv, p - 2, p))
            np.remainder(row, pf, out=row)
            col[rr] = 0.0
            F[:, wp] = col
            buf[:, j + 1 :] -= col[:, None] * row
            pivs.append(piv)
            pivots.append(c0 + j)
            wp += 1
        if wp:
            pr = np.arange(r, r + wp)
            G = F[pr, :wp].astype(np.int64)
            # lower-triangular lam: row i is (e_i - G[i, :i] @ lam[:i]) / pivs[i]
            lam = np.zeros((wp, wp), dtype=np.int64)
            for i in range(wp):
                row = -(G[i, :i] @ lam[:i]) % p
                row[i] = 1
                lam[i] = row * pow(pivs[i], p - 2, p) % p
            lam2 = (lam - np.triu(G, 1) @ lam) % p
            Ft = _mod_into(F[:, :wp] @ lam.astype(np.float64), pf)
            Ft[pr] = ((np.eye(wp, dtype=np.int64) - lam2) % p).astype(np.float64)
            rec = np.empty((m, wp), dtype=np.float32)
            rec[perm] = Ft
            records.append((r, rec))
            chunk = max(1, (1 << 24) // max(m, 1))
            if c1 < n:
                Pold = _mod_into(W[pr, c1:], pf)
                for a in range(0, n - c1, chunk):
                    W[:, c1 + a : c1 + a + chunk] -= Ft @ Pold[:, a : a + chunk]
            r += wp
            acc += 1
            # between reductions at most 1024 panel columns of products,
            # each below p^2 < 2^42, accumulate: the sums stay below 2^52
            if acc >= 1024 // block and c1 < n:
                _mod_into(W[:, c1:], pf)
                acc = 0
    rows = perm[:r]
    inverse = [(i, rec[rows]) for i, rec in records]
    return r, tuple(pivots), tuple(rows.tolist()), inverse


def _solve_mod_p(inverse, R: np.ndarray, p: int) -> np.ndarray:
    """A^-1 R mod p as int64 in [0, p), for the ``inverse`` of A that
    :func:`_kernel_mod_p_fast` returns and an integer array R (int64 or
    Python ints) of r rows with entries below 2^53 in magnitude: the panels
    replayed in order,
    ``v <- v - G @ (v[i : i + width] mod p)``.

    Between reductions of v at most 1024 columns of products, each below
    p^2 < 2^42, accumulate, so every partial sum stays below 2^53."""
    pf = float(p)
    v = _mod_into(R.astype(np.float64), pf)
    acc = 0
    for i, G in inverse:
        w = G.shape[1]
        if acc + w > 1024:
            _mod_into(v, pf)
            acc = 0
        v -= G @ _mod_into(v[i : i + w].copy(), pf)
        acc += w
    return _mod_into(v, pf).astype(np.int64)


_LIMB = 20


def _limbs(X: np.ndarray):
    """The largest |X| entry, and X = sum_s X_s 2^s as triples (s, X_s,
    bound) with X_s in float64 and |X_s| <= bound: X itself when its entries
    are below 2^21, else its 20-bit limbs, the top one signed."""
    xmax = max(int(X.max()), -int(X.min())) if X.size else 0
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
    res = B if int(np.abs(Mr).max()) * p * (len(pivots) + 1) < 1 << 63 else B.astype(object)
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


def _ratrec_matrix(
    rows: Iterable[Sequence[int]], mod: int
) -> tuple[list[list[tuple[int, int]]], list[int]] | None:
    """Rational reconstruction of every entry of the integer rows modulo
    mod: the pair (F, L) of the (num, den) pairs _ratrec gives each entry,
    and the lcm of the denominators of each column; or None when some entry
    has none yet.

    The result is the entrywise one, but entries of a column mostly share
    their denominator, so most cost one product and a gcd instead of a
    Euclid (output-sensitive reconstruction).  For each column the walk
    keeps d, the lcm of the denominators found so far while it is at most
    N = sqrt(mod/2), and tries y = x * d in symmetric residues first.  If
    |y| <= N, then y/d in lowest terms is a pair that _ratrec accepts: d is
    prime to mod, as every denominator _ratrec returns is (a common factor
    would divide its numerator too).  And when such a pair exists, _ratrec
    returns it (Wang's theorem), as the only one: two pairs agree when
    2 N^2 < mod, which holds for odd mod.  Only when |y| > N does the entry
    run _ratrec and update d.  The walk reads the rows in order and stops
    at the first failure, so an attempt with too small a modulus usually
    reads only its first row."""
    bound = isqrt(mod // 2)
    half = mod >> 1
    d = L = None
    F = []
    for row in rows:
        if d is None:
            d, L = [1] * len(row), [1] * len(row)
        frow = []
        for f, x in enumerate(row):
            df = d[f]
            y = x * df % mod
            if y > half:
                y -= mod
            if -bound <= y <= bound:
                g = gcd(y, df)
                frow.append((y // g, df // g))
                continue
            got = _ratrec(x, mod)
            if got is None:
                return None
            frow.append(got)
            L[f] = lcm(L[f], got[1])
            if L[f] <= bound:
                d[f] = L[f]
        F.append(frow)
    return F, L


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


def _saturate(F, pivots, free, n) -> tuple[tuple[int, ...], ...]:
    """Saturated basis of the lattice Q-spanned by the reduced kernel
    vectors (1 at own free column, -num/den at pivot column i, where
    F[i][f] = (num, den)) inside Z^n.

    With G[i] / d_i the pivot row i of the reduced kernel vectors and D the
    lcm of the d_i, the lattice is the set of x with x[free] = lambda and
    x[pivots] = G lambda / d, for lambda in the coefficient lattice of
    integer vectors with G[i] . lambda = 0 mod d_i for every i, which
    contains D * Z^t.  The basis rows come from the rows lambda of its
    Hermite basis modulo D (:func:`_coefficient_hermite`): their free
    coordinates lie in [0, D], and their pivot coordinates are
    G lambda / d, one exact product G @ H.T (:func:`_mul_exact`) divided
    exactly by d."""
    t = len(free)
    if t == 0:
        return ()
    # pivot row i of the reduced kernel vectors is G[i] / row_den[i]
    row_den = [lcm(*[den for _, den in row]) for row in F]
    G = _integer_matrix([[-num * (d // den) for num, den in row] for row, d in zip(F, row_den)])
    den = _integer_matrix(row_den)[:, None]
    D = lcm(*row_den)
    live = den[:, 0] > 1
    H = _coefficient_hermite(G[live] % den[live], den[live, 0].tolist(), D)
    if not all(H.diagonal()):
        raise ReconstructionError("coefficient lattice lost full rank")
    P = _mul_exact(G, H.T)
    if np.any(P % den):
        raise ReconstructionError("saturation produced a non-integer entry")
    V = np.zeros((n, t), dtype=P.dtype)
    V[list(free)] = H.T
    V[list(pivots)] = P // den
    return tuple(map(tuple, V.T.tolist()))


# ---------------------------------------------------------------------------
# the certified pipeline


@dataclass(frozen=True)
class KernelCertificate:
    """Exact rank and (optionally) a saturated integer kernel basis.

    ``rank <= r`` is proven: ``nullity`` independent kernel vectors are
    verified exactly.  They come from one elimination modulo a prime p and
    p-adic lifting of its residues.  ``rank >= r`` is the modular
    eliminator's pivot count at p (a rank mod p never exceeds the rank over
    Q); that count is trusted, and checked only by the property test that
    compares the eliminator with a plain reference eliminator.  An
    independent check of the pivot minor is an open item in ROADMAP.md.
    ``primes`` lists the prime at which the certifying elimination ran
    (empty when no elimination was needed); a prime found unlucky before it,
    whose rank falls short of the rank over Q, is not listed.
    ``basis`` rows span ker_Q(M) ∩ Z^{n_cols}."""

    n_rows: int
    n_cols: int
    rank: int
    basis: tuple[tuple[int, ...], ...] | None
    primes: tuple[int, ...]

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
    vmax = max([1, int(np.abs(P).max())] + list(L))
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
    if M.size and max(int(M.max()), -int(M.min())) >= 1 << 63:
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
    M = _integer_matrix(mat)
    if M.ndim != 2:
        raise ValueError("a 2-D integer matrix is required")
    m, n = M.shape
    if n == 0:
        return KernelCertificate(m, 0, 0, () if need_basis else None, ())
    mmax = int(np.abs(M).max()) if M.size else 0
    if m == 0 or mmax == 0:
        basis = tuple(tuple(1 if j == f else 0 for j in range(n)) for f in range(n))
        return KernelCertificate(m, n, 0, basis if need_basis else None, ())
    for p in PRIMES21:
        rank, pivots, rows, inverse = _kernel_mod_p_fast(M, p)
        t = n - rank
        if t == 0:
            return KernelCertificate(m, n, rank, () if need_basis else None, (p,))
        if rank == 0:
            continue  # M is nonzero, so p divides every entry and is unlucky
        free = sorted(set(range(n)).difference(pivots))
        Mr = M[list(rows)]
        for approx, mod in _padic_solutions(Mr, p, pivots, free, inverse):
            got = _ratrec_matrix(approx, mod)
            if got is None:
                continue
            F, L = got
            P = _integer_matrix([[-num * (L[f] // den) for f, (num, den) in enumerate(row)] for row in F])
            if _verify_product(M, mmax, P, L, pivots, free):
                basis = _saturate(F, pivots, free, n) if need_basis else None
                return KernelCertificate(m, n, rank, basis, (p,))
            if _verify_product(Mr, mmax, P, L, pivots, free):
                break  # A Y = B exactly, so the pivot rows miss part of M's row space
        # p is unlucky: M has a larger rank over Q than modulo p
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
    to row 0: onto the rows of weight w whose last entry is w - w'.  Each column of D_w is the sum of the at most three
    lower columns alpha names, added a few rows at a time."""
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


def _cached_kernel(name: str, build, k: int, need_basis: bool) -> KernelCertificate:
    """The certificate of build(k), cached under (name, k); a rank-only one
    is replaced when a basis is asked for."""
    key = (name, k)
    got = _CERT_CACHE.get(key)
    if got is None or (need_basis and got.basis is None):
        got = certified_kernel(build(k), need_basis=need_basis)
        if need_basis or key not in _CERT_CACHE:
            _CERT_CACHE[key] = got
    return got


def kernel_of_delta(k: int, *, need_basis: bool = True) -> KernelCertificate:
    """Certified kernel of the weight-k delta matrix (over the class basis)."""
    return _cached_kernel("delta", delta_matrix, k, need_basis)


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
