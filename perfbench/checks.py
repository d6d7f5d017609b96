"""Reference computations that the benchmark checks the program against.

Nothing here calls into ``zetasigma``: every function takes the program's
output (and, where needed, the program's matrices) as plain Python or NumPy
data and either recomputes it by a different method or tests a property the
mathematics forces.  None of them compares against a stored copy of an
earlier output.  Each checker returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

# ---------------------------------------------------------------------------
# paper tables

#: nullity of the weight-k delta matrix, k = 0..13
DELTA_NULLITY = (0, 0, 0, 0, 0, 0, 1, 0, 4, 2, 14, 15, 52, 78)
#: nullity of the weight-k alpha matrix, k = 1..12 (index 0 unused)
ALPHA_NULLITY = (None, 0, 0, 0, 0, 0, 1, 0, 3, 2, 9, 10, 31)


# ---------------------------------------------------------------------------
# primes and modular rank


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_primes(avoid=(), count: int = 2) -> list[int]:
    """Primes just below 2^31 that are not in ``avoid``."""
    avoid = set(avoid)
    out, n = [], (1 << 31) - 1
    while len(out) < count:
        if n not in avoid and is_prime(n):
            out.append(n)
        n -= 2
    return out


def _residues(rows, q: int) -> np.ndarray:
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        return np.mod(rows.astype(np.int64), q)
    return np.array([[int(x) % q for x in row] for row in rows], dtype=np.int64).reshape(
        len(rows), -1
    )


def rank_mod(rows, q: int) -> int:
    """Rank of an integer matrix modulo a prime q < 2^31, by plain Gaussian
    elimination (row swaps, one pivot at a time) in int64."""
    A = _residues(rows, q)
    if A.size == 0:
        return 0
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), q - 2, q) % q
        below = r + 1 + np.flatnonzero(A[r + 1 :, c])
        if below.size:
            f = A[below, c][:, None]
            A[below, c:] = (A[below, c:] - f * A[r, c:]) % q
        r += 1
    return r


def pivot_columns_mod(rows, q: int, order) -> list[int] | None:
    """Columns, taken greedily in ``order``, that are independent mod q, or
    None when the rows are dependent mod q."""
    A = _residues(rows, q)
    t = A.shape[0]
    basis: list[tuple[int, np.ndarray]] = []  # (pivot row, reduced column)
    cols = []
    for c in order:
        v = A[:, c].copy()
        for piv, b in basis:
            if v[piv]:
                v = (v - v[piv] * b) % q
        nz = np.flatnonzero(v)
        if nz.size == 0:
            continue
        piv = int(nz[0])
        v = v * pow(int(v[piv]), q - 2, q) % q
        basis.append((piv, v))
        cols.append(c)
        if len(cols) == t:
            return cols
    return None


# ---------------------------------------------------------------------------
# exact integer linear algebra


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = [[int(x) for x in row] for row in rows]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        akk, rowk = A[k][k], A[k]
        for i in range(k + 1, n):
            rowi = A[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * akk - aik * rowk[j]) // prev
        prev = akk
    return sign * A[n - 1][n - 1]


def sparse_rows(M) -> list[list[tuple[int, int]]]:
    """Nonzero entries of an integer matrix, row by row."""
    M = np.asarray(M)
    out: list[list[tuple[int, int]]] = [[] for _ in range(M.shape[0])]
    for i, j in zip(*np.nonzero(M)):
        out[int(i)].append((int(j), int(M[i, j])))
    return out


def apply_sparse(rows, v) -> list[int]:
    """M @ v in exact Python integers, M given by :func:`sparse_rows`."""
    return [sum(e * v[j] for j, e in row) for row in rows]


def _prime_factors(g: int, limit: int = 1 << 20) -> list[int] | None:
    """Prime factors of g below 2^31 by trial division, or None if g has a
    factor that trial division up to ``limit`` cannot settle."""
    out, p = [], 2
    while p * p <= g:
        if p > limit:
            return None
        if g % p == 0:
            out.append(p)
            while g % p == 0:
                g //= p
        p += 1 if p == 2 else 2
    if g > 1:
        out.append(g)
    return out if max(out, default=0) < (1 << 31) else None


def saturation_problems(basis, n_cols: int, q: int, max_minors: int = 4) -> list[str]:
    """Prove that the rows of ``basis`` span a saturated lattice.

    That holds exactly when the gcd of the t x t minors is 1.  The gcd g of a
    few minors bounds it: each minor is taken on t columns independent mod q,
    preferring columns with small entries (so Bareiss stays cheap), with a
    different tie-break each time.  Every prime p dividing g is then cleared
    by showing that the basis keeps full rank modulo p.
    """
    t = len(basis)
    if t == 0:
        return []
    size = [max(abs(int(v[j])).bit_length() for v in basis) for j in range(n_cols)]
    step = next(s for s in (7, 11, 13, 17, 19, 23) if math.gcd(s, n_cols) == 1)
    ties = (lambda j: j, lambda j: -j, lambda j: (j * step) % n_cols, lambda j: -((j * step) % n_cols))
    g = 0
    for tie in ties[:max_minors]:
        cols = pivot_columns_mod(basis, q, sorted(range(n_cols), key=lambda j: (size[j], tie(j))))
        if cols is None:
            return ["basis rows are dependent modulo a check prime"]
        g = math.gcd(g, bareiss_det([[row[c] for c in cols] for row in basis]))
        if g == 1:
            return []
    primes = _prime_factors(g)
    if primes is None:
        return [f"could not clear the minor gcd {g}"]
    for p in primes:
        if rank_mod(basis, p) < t:
            return [f"basis is not saturated: every {t}x{t} minor is divisible by {p}"]
    return []


# ---------------------------------------------------------------------------
# kernel certificates


def certificate_problems(M, cert, nullity: int, *, rank_q: int, delta: bool) -> list[str]:
    """Independent checks of a kernel certificate for the integer matrix M.

    ``rank_q`` is the rank of M modulo a prime that the certificate did not
    use; it is a lower bound on the rank (None skips it).  With a basis,
    exact ``M v == 0`` for every basis vector plus independence mod a prime
    bound the rank from above, so the two together fix it; saturation is
    proved separately.
    """
    m, n = M.shape
    out = []
    if (cert.n_rows, cert.n_cols) != (m, n):
        out.append(f"shape {cert.n_rows}x{cert.n_cols}, matrix is {m}x{n}")
    if cert.rank + cert.nullity != n:
        out.append("rank + nullity != columns")
    if cert.nullity != nullity:
        out.append(f"nullity {cert.nullity}, the paper's table has {nullity}")
    if rank_q is not None and rank_q > cert.rank:
        out.append(f"rank {cert.rank} is below the rank {rank_q} found modulo a check prime")
    if cert.basis is None:
        return out
    basis = [tuple(int(x) for x in v) for v in cert.basis]
    if len(basis) != cert.nullity or any(len(v) != n for v in basis):
        return out + ["basis has the wrong shape"]
    rows = sparse_rows(M)
    for i, v in enumerate(basis):
        if any(apply_sparse(rows, v)):
            out.append(f"basis vector {i} is not in the kernel")
            break
        if delta and sum(v) != 0:
            out.append(f"delta kernel vector {i} has nonzero coefficient sum")
            break
    if out:
        return out
    if rank_q is not None and n - len(basis) != rank_q:
        out.append(f"rank {n - len(basis)} from the basis, {rank_q} modulo a check prime")
    (q,) = check_primes(cert.primes, 1)
    return out + saturation_problems(basis, n, q)


def preimage_problems(basis, delta_mats, alpha_blocks, delta_top) -> list[str]:
    """Every preimage vector x must satisfy delta_{k'} A_{k'} x == 0 at each
    lower weight k', and delta_k x == 0 at its own weight."""
    for i, x in enumerate(basis):
        x = [int(e) for e in x]
        for kp, A in alpha_blocks.items():
            y = apply_sparse(A, x)
            if any(apply_sparse(delta_mats[kp], y)):
                return [f"preimage vector {i} fails the weight-{kp} condition"]
        if any(apply_sparse(delta_top, x)):
            return [f"preimage vector {i} is not in the delta kernel"]
    return []


# ---------------------------------------------------------------------------
# delta images


def depth1_image(a: int) -> dict:
    """The paper's closed form for the class of (a): twice each (b,1,...,1)
    for 3 <= b <= a, plus three times (2,1,...,1)."""
    out = {(b,) + (1,) * (a - b): 2 for b in range(3, a + 1)}
    out[(2,) + (1,) * (a - 2)] = 3
    return out


def image_problems(image: dict) -> list[str]:
    bad = [c for c in image.values() if not (isinstance(c, int) and c > 0)]
    return [f"non-positive or non-integer coefficient {bad[0]!r}"] if bad else []


# ---------------------------------------------------------------------------
# nested sums by direct summation, in fixed point


def _nested_fixed(a, n: int, N: int, B: int, weight) -> tuple[int, int]:
    """sum over N >= n1 > ... > nr > n of weight(n1) * prod n_i^-a_i, scaled
    by 2^B and rounded down at every step.  Returns (value, error bound) in
    units of 2^-B.  Every division is by an integer >= 1 and every a_i >= 1,
    so each level adds at most one unit per step; the total error is below
    (r + 1) * N units."""
    r = len(a)
    one = 1 << B
    S = [0] * (r + 2)  # S[i]: sum of level-i values over all earlier indices
    total = 0
    pw = [[0] * (N + 1) for _ in range(r)]
    for i in range(r):
        e = a[i]
        for j in range(n + 1, N + 1):
            pw[i][j] = j**e
    for j in range(n + 1, N + 1):
        new = [0] * (r + 2)
        new[r] = one // pw[r - 1][j]
        for i in range(r - 1, 0, -1):
            new[i] = S[i + 1] // pw[i - 1][j]
        total += weight(j, new[1])
        for i in range(2, r + 1):
            S[i] += new[i]
    return total, (r + 1) * N


def sigma_direct(a, n: int, digits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """sigma(a)_n = sum_{n1 > ... > nr > n} binom(2 n1, n1)^-1 prod n_i^-a_i,
    summed directly.  The truncation after n1 = N is bounded by
    4 (N+1)^r / 4^(N+1), since binom(2j, j) >= 4^j / (2 sqrt j), the inner
    sum has at most j^(r-1) terms each <= 1, and consecutive bounds shrink by
    at least 1/2 once (1 + 1/N)^r <= 2.  Returns (value, error bound) with the
    bound below 10^-digits."""
    a = tuple(a)
    r = len(a)
    if r == 0:
        return mpmath.mpf(1) / math.comb(2 * n, n), mpmath.mpf(0)
    target = Fraction(1, 10 ** (digits + 1))
    N = max(n + 2, 2 * r)
    while Fraction(4 * (N + 1) ** r, 4 ** (N + 1)) > target:
        N += 8
    B = int((digits + 4) * 3.3219280948873626) + (r + 1) * N.bit_length() + 8

    def weight(j, x):
        return x // math.comb(2 * j, j)

    v, err_units = _nested_fixed(a, n, N, B, weight)
    with mpmath.workdps(digits + 20):
        val = mpmath.ldexp(mpmath.mpf(v), -B)
        trunc = mpmath.mpf(4 * (N + 1) ** r) / mpmath.mpf(4) ** (N + 1)
        err = mpmath.ldexp(mpmath.mpf(err_units), -B) + trunc
    return val, err


def zeta_sym_direct(a, n: int, rel_digits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """zeta_sym(a)_n = sum_{n1 > ... > nr > n} binom(n1 + n, n)^-1 prod n_i^-a_i
    for n >= 1, summed directly.  Terms decay like n1^-(n + a1), so n should
    be large.  With binom(j + n, n) >= j^n / n! and the inner sum at most
    (ln j)^(r-1) / (r-1)!, the tail after n1 = N is at most the integral of
    n! (ln x)^q / (q! x^s) over [N, oo), s = n + a1, q = r - 1, which has a
    closed form.  Returns (value, error bound) with the bound below
    10^-rel_digits times the value."""
    a = tuple(a)
    r = len(a)
    if n < 1:
        raise ValueError("direct summation of the symmetric tail needs n >= 1")
    s, q = n + a[0], r - 1
    # lower bound on the value: its smallest-index term
    first = Fraction(1, math.comb(2 * n + r, n))
    for i, e in enumerate(a):
        first /= (n + r - i) ** e
    target = float(first) * 10.0 ** -(rel_digits + 2) if float(first) > 0 else 0.0

    def tail(N):
        lnN = math.log(N)
        acc = sum(
            math.factorial(q) / math.factorial(q - i) * lnN ** (q - i) / (s - 1) ** (i + 1)
            for i in range(q + 1)
        )
        return 2.0 * math.exp(math.lgamma(n + 1) - math.lgamma(q + 1) + (1 - s) * lnN) * acc

    N = 2 * (n + r) + 16
    while not (s * math.log(N) > q and tail(N) < target):
        N = int(N * 1.25) + 1
    first_bits = -math.frexp(float(first))[1] if float(first) > 0 else 0
    B = first_bits + int((rel_digits + 6) * 3.3219280948873626) + (r + 1) * N.bit_length() + 8

    def weight(j, x):
        return x // math.comb(j + n, n)

    v, err_units = _nested_fixed(a, n, N, B, weight)
    with mpmath.workdps(rel_digits + 30):
        val = mpmath.ldexp(mpmath.mpf(v), -B)
        err = mpmath.ldexp(mpmath.mpf(err_units), -B) + mpmath.mpf(tail(N))
    return val, err


def contraction_problems(rep, image, n) -> list[str]:
    """zeta_sym(c)_n == sigma(delta(c))_n to 20 digits, both sides summed
    directly."""
    lhs, lhs_err = zeta_sym_direct(rep, n, 24)
    with mpmath.workdps(60):
        mag = -int(mpmath.floor(mpmath.log10(lhs)))
        digits = 26 + mag + len(str(sum(abs(c) for c in image.values())))
        rhs = mpmath.mpf(0)
        rhs_err = mpmath.mpf(0)
        for b, c in image.items():
            v, e = sigma_direct(b, n, digits)
            rhs += c * v
            rhs_err += abs(c) * e
        gap = abs(lhs - rhs)
        if gap > mpmath.mpf(10) ** -20 * lhs + lhs_err + rhs_err:
            return [f"zeta_sym{rep}_{n} and sigma(delta) differ by {mpmath.nstr(gap / lhs, 3)} relative"]
    return []


# ---------------------------------------------------------------------------
# closed forms for the tails


def closed_form(kind: str, a: tuple, n: int, digits: int):
    """A closed-form reference value, or None when none applies."""
    if n != 0:
        return None
    with mpmath.workdps(digits + 30):
        pi = mpmath.pi
        if kind == "sigma" and a and all(e == 2 for e in a):
            r = len(a)
            return pi ** (2 * r) / (mpmath.mpf(3) ** (2 * r) * mpmath.factorial(2 * r))
        if kind == "sigma" and a == (4,):
            return 17 * pi**4 / 3240
        if kind == "zeta" and len(a) == 1:
            return mpmath.zeta(a[0])
        if kind == "zeta" and all(e == 2 for e in a):
            r = len(a)
            return pi ** (2 * r) / mpmath.factorial(2 * r + 1)
    return None


def enclosure_problems(value, radius, digits: int, refs) -> list[str]:
    """The enclosure value +- radius must meet the accuracy asked for and
    contain every reference (ref, ref_error)."""
    out = []
    with mpmath.workdps(digits + 40):
        tol = mpmath.mpf(10) ** (-digits)
        if radius > tol:
            out.append(f"radius {mpmath.nstr(radius, 3)} exceeds 1e-{digits}")
        for name, ref, ref_err in refs:
            gap = abs(value - ref)
            if gap > radius + ref_err:
                out.append(
                    f"{name} reference lies {mpmath.nstr(gap, 3)} away, "
                    f"radius {mpmath.nstr(radius, 3)}"
                )
    return out
