#!/usr/bin/env python3
"""Time the stages of one cold certified kernel of the delta or alpha matrix.

Wraps the stage functions of ``zetasigma.exact_linalg`` from outside, so the
package runs unchanged, and charges every moment to the innermost stage
running then:

  build           delta_matrix / alpha_matrix
  elimination     _kernel_mod_p_fast, once per prime tried: rank, pivots
                  and the replayable A^-1 mod p
  lifting         _padic_solutions: every p-adic digit, the first included,
                  and the Python-int rows it hands out
  reconstruction  _ratrec_matrix
  verification    _verify_product
  saturation      _saturate (with --basis only)
  other           the rest of certified_kernel

Then prints, with --basis, the largest basis entry in bits, and the
process's peak resident set size (``ru_maxrss``, which Linux reports in
KiB), build included.

Run with BLAS on one thread (OPENBLAS_NUM_THREADS=1) for figures that
compare across runs.

  python scripts/kernel_stages.py --weight 13 --map delta
"""

import argparse
import functools
import resource
import sys
import time

from zetasigma import exact_linalg as el

STAGES = ("build", "elimination", "lifting", "reconstruction", "verification", "saturation", "other")


class Clock:
    """Self time per stage: a stage entered inside another pauses it."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self._stack: list[str] = []
        self._t = time.perf_counter()

    def _charge(self) -> None:
        now = time.perf_counter()
        if self._stack:
            self.seconds[self._stack[-1]] += now - self._t
        self._t = now

    def enter(self, name: str) -> None:
        self._charge()
        self._stack.append(name)

    def leave(self) -> None:
        self._charge()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave()

    def step(self, name: str, it):
        """The next item of the iterator it, timed as name; None at its end."""
        return self.call(name, next, it, None)


def install(clock: Clock) -> None:
    """Replace the stage functions in exact_linalg by timed wrappers."""
    for attr, name in (
        ("_kernel_mod_p_fast", "elimination"),
        ("_ratrec_matrix", "reconstruction"),
        ("_verify_product", "verification"),
        ("_saturate", "saturation"),
    ):
        setattr(el, attr, functools.partial(clock.call, name, getattr(el, attr)))
    solutions = el._padic_solutions

    def rows(approx):
        it = iter(approx)
        while (row := clock.step("lifting", it)) is not None:
            yield row

    def lifting(*args):
        it = solutions(*args)
        while (got := clock.step("lifting", it)) is not None:
            approx, mod = got
            yield rows(approx), mod

    el._padic_solutions = lifting


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--weight", type=int, required=True)
    ap.add_argument("--map", choices=("delta", "alpha"), default="delta")
    ap.add_argument("--basis", action="store_true", help="also saturate the kernel basis")
    args = ap.parse_args()
    lo = 0 if args.map == "delta" else 1
    if not lo <= args.weight <= 16:
        ap.error(f"--weight must be in {lo}..16 for --map {args.map}")

    clock = Clock()
    install(clock)
    build = el.delta_matrix if args.map == "delta" else el.alpha_matrix
    M = clock.call("build", build, args.weight)
    t0 = time.perf_counter()
    cert = clock.call("other", el.certified_kernel, M, need_basis=args.basis)
    total = time.perf_counter() - t0

    print(f"{args.map} weight {args.weight}: {M.shape[0]} x {M.shape[1]}, rank {cert.rank}, "
          f"nullity {cert.nullity}, primes {list(cert.primes)}")
    for name in STAGES:
        print(f"{name:<15} {clock.seconds[name]:8.3f} s")
    print(f"{'certified_kernel':<15} {total:8.3f} s")
    if args.basis:
        bits = max((abs(x).bit_length() for v in cert.basis for x in v), default=0)
        print(f"basis entry bits {bits:7d}")
    print(f"{'peak RSS':<15} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
