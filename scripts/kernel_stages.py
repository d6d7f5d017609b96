#!/usr/bin/env python3
"""Print the stages of one cold certified kernel of the delta or alpha
matrix, as ``kernel_of_delta`` / ``kernel_of_alpha`` recorded them in the
certificate's ``stats`` (``zetasigma.exact_linalg.KernelStats``):

  lower           (delta only) the rank-only kernel_of_delta of every lower
                  weight, whose pivot rows give the rows S_k of D_k that
                  kernel_of_delta eliminates
  build           delta_matrix / alpha_matrix
  elimination     once per prime tried: rank, pivots and the replayable
                  A^-1 mod p
  lifting         every p-adic digit, the first included
  reconstruction  rational reconstruction, with the Python-int rows of each
                  p-adic approximation it reads and the column-scaled
                  integer numerators P of the one that succeeds
  verification    the exact checks, against all rows of the matrix
  saturation      the saturated basis (with --basis only)
  other           the rest of kernel_of_delta / kernel_of_alpha

Then prints the rows each elimination ran on against the rows of the
matrix, the lifting steps at the certifying prime, with --basis the largest
basis entry in bits, and the process's peak resident set size
(``ru_maxrss``, which Linux reports in KiB).  For delta it then prints each
stage but ``lower`` summed over the lower certificates, the rank-only
kernel_of_delta of weights 0..K-1 read back from its cache: their times
make up the ``lower`` above, so the two lines of a stage add up to its
time over the whole delta rank table through weight K.

Run with BLAS on one thread (OPENBLAS_NUM_THREADS=1) for figures that
compare across runs.

  python scripts/kernel_stages.py --weight 13 --map delta
"""

import argparse
import resource
import sys
import time

from zetasigma.exact_linalg import STAGES, kernel_of_alpha, kernel_of_delta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--weight", type=int, required=True)
    ap.add_argument("--map", choices=("delta", "alpha"), default="delta")
    ap.add_argument("--basis", action="store_true", help="also saturate the kernel basis")
    args = ap.parse_args(argv)
    lo = 0 if args.map == "delta" else 1
    if not lo <= args.weight <= 16:
        ap.error(f"--weight must be in {lo}..16 for --map {args.map}")

    kernel = kernel_of_delta if args.map == "delta" else kernel_of_alpha
    t0 = time.perf_counter()
    cert = kernel(args.weight, need_basis=args.basis)
    total = time.perf_counter() - t0
    seconds = dict(cert.stats.seconds, other=total - sum(cert.stats.seconds.values()))

    print(f"{args.map} weight {args.weight}: {cert.n_rows} x {cert.n_cols}, rank {cert.rank}, "
          f"nullity {cert.nullity}, primes {list(cert.primes)}")
    print(f"rows eliminated {cert.stats.eliminated} of {cert.n_rows}; lifting steps {cert.stats.lifting_steps}")
    for name, s in seconds.items():
        print(f"{name:<15} {s:8.3f} s")
    print(f"{kernel.__name__:<15} {total:8.3f} s")
    if args.basis:
        bits = max((abs(x).bit_length() for v in cert.basis for x in v), default=0)
        print(f"basis entry bits {bits:7d}")
    print(f"{'peak RSS':<15} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MB")
    if args.map == "delta" and args.weight:
        lower = [kernel_of_delta(kp, need_basis=False).stats for kp in range(args.weight)]
        print(f"summed over the lower certificates, weights 0-{args.weight - 1}:")
        for name in STAGES[1:]:
            print(f"  {name:<14}{sum(s.seconds[name] for s in lower):8.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
