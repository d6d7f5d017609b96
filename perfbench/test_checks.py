"""Self-test of the benchmark's checks: each checker accepts a correct output
and rejects a perturbed one, so the checks are not vacuous.

    python3 -m pytest perfbench/test_checks.py      (or)
    python3 perfbench/test_checks.py
"""

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mpmath  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from zetasigma.compositions import DualityClass  # noqa: E402
from zetasigma.delta import delta_class  # noqa: E402
from zetasigma.exact_linalg import delta_matrix  # noqa: E402
from zetasigma.numerics import sigma_tail, zeta_sym_tail  # noqa: E402


def integer_kernel(M):
    """A Z-basis of {v : M v = 0}: unimodular row operations on [M^T | I]
    bring M^T to echelon form; the rows whose left part vanishes carry the
    kernel, which is saturated because the transform is unimodular."""
    m, n = M.shape
    rows = [[int(M[i, j]) for i in range(m)] + [int(i == j) for i in range(n)] for j in range(n)]
    top = 0
    for col in range(m):
        while True:
            live = [r for r in range(top, n) if rows[r][col]]
            if not live:
                break
            piv = min(live, key=lambda r: abs(rows[r][col]))
            rows[top], rows[piv] = rows[piv], rows[top]
            done = True
            for r in range(top + 1, n):
                q = rows[r][col] // rows[top][col]
                if q:
                    rows[r] = [a - q * b for a, b in zip(rows[r], rows[top])]
                done &= rows[r][col] == 0
            if done:
                top += 1
                break
    return [tuple(r[m:]) for r in rows[top:]]


def certificate(M, basis, primes=(3,)):
    t = len(basis)
    return types.SimpleNamespace(
        n_rows=M.shape[0], n_cols=M.shape[1], rank=M.shape[1] - t, nullity=t,
        basis=tuple(basis), primes=primes,
    )  # fmt: skip


def kernel_case(k=8):
    M = delta_matrix(k)
    basis = integer_kernel(M)
    q = checks.check_primes()[0]
    return M, basis, checks.rank_mod(M, q)


def test_kernel_checks_accept_a_correct_certificate():
    M, basis, rq = kernel_case()
    assert len(basis) == checks.DELTA_NULLITY[8]
    assert checks.certificate_problems(M, certificate(M, basis), 4, rank_q=rq, delta=True) == []


def test_kernel_vector_with_one_entry_changed_is_rejected():
    M, basis, rq = kernel_case()
    bad = [list(v) for v in basis]
    bad[1][3] += 1
    problems = checks.certificate_problems(M, certificate(M, bad), 4, rank_q=rq, delta=True)
    assert any("not in the kernel" in p or "coefficient sum" in p for p in problems)


def test_basis_scaled_by_two_is_not_saturated():
    M, basis, rq = kernel_case()
    doubled = [tuple(2 * x for x in v) for v in basis]
    problems = checks.certificate_problems(M, certificate(M, doubled), 4, rank_q=rq, delta=True)
    assert any("not saturated" in p for p in problems)


def test_rank_one_too_high_is_rejected():
    M, basis, rq = kernel_case()
    over = certificate(M, basis[:-1])  # what an eliminator that over-counts rank returns
    assert checks.certificate_problems(M, over, 4, rank_q=rq, delta=True)
    over.basis = None  # rank-only certificate
    assert checks.certificate_problems(M, over, 4, rank_q=rq, delta=True)


def test_rank_below_the_modular_lower_bound_is_rejected():
    M, basis, rq = kernel_case()
    under = certificate(M, basis)
    under.rank -= 1
    assert any("below the rank" in p for p in checks.certificate_problems(M, under, 4, rank_q=rq, delta=True))


def test_enclosure_shifted_by_twice_its_radius_is_rejected():
    a, n, d = (2, 1, 3), 3, 32
    val = sigma_tail(a, n, d)
    ref = [("direct", *checks.sigma_direct(a, n, d + 20))]
    assert checks.enclosure_problems(val.value, val.abs_error, d, ref) == []
    with mpmath.workdps(d + 40):
        shifted = val.value + 2 * val.abs_error
    assert checks.enclosure_problems(shifted, val.abs_error, d, ref)


def test_closed_forms_hold_and_reject_a_shift():
    d = 40
    cases = (("sigma", (2, 2), sigma_tail), ("sigma", (4,), sigma_tail), ("zeta", (3,), zeta_sym_tail))
    for kind, a, fn in cases:
        val = fn(a, 0, d)
        ref = [("closed form", checks.closed_form(kind, a, 0, d), mpmath.mpf(10) ** -(d + 25))]
        assert checks.enclosure_problems(val.value, val.abs_error, d, ref) == [], a
        with mpmath.workdps(d + 40):
            shifted = val.value - 2 * val.abs_error
        assert checks.enclosure_problems(shifted, val.abs_error, d, ref), a


def test_delta_image_with_one_coefficient_changed_is_rejected():
    c = DualityClass.of((3, 1, 2))
    image = dict(delta_class(c).items())
    assert checks.contraction_problems(c.rep, image, 10) == []
    b = next(iter(image))
    image[b] += 1
    assert checks.contraction_problems(c.rep, image, 10)


def test_depth_one_closed_form_matches_and_detects_a_change():
    for a in (2, 5, 9):
        image = dict(delta_class(DualityClass.of((a,))).items())
        assert image == checks.depth1_image(a)
        image[(2,) + (1,) * (a - 2)] += 1
        assert image != checks.depth1_image(a)
    assert checks.image_problems({(3,): 2, (2, 1): -1})


def test_benchmark_json_declares_what_the_runner_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.PARTS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
