#!/usr/bin/env python3
"""Print one sha256 digest of the certified kernels through weight K, to
check that a change to ``zetasigma.exact_linalg`` leaves every certificate
as it was.

The digest is taken over the ordered ``(n_rows, n_cols, rank, basis,
primes, rows)`` of

  kernel_of_delta(0..K) and kernel_of_alpha(1..K), with bases
  preimage_lattice(1..K)
  kernel_of_delta(K+1), rank only

each tuple written as its ``repr`` on a line of its own.  To compare two
checkouts, run the script of either with ``PYTHONPATH`` set to each one's
``src``:

  PYTHONPATH=src python scripts/cert_digest.py --weight 12
"""

import argparse
import hashlib
import sys

from zetasigma.compositions import MAX_WEIGHT
from zetasigma.exact_linalg import kernel_of_alpha, kernel_of_delta, preimage_lattice


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--weight", type=int, required=True)
    args = ap.parse_args(argv)
    k = args.weight
    if not 1 <= k < MAX_WEIGHT:
        ap.error(f"--weight must be in 1..{MAX_WEIGHT - 1}")

    certs = [kernel_of_delta(w) for w in range(k + 1)]
    certs += [kernel_of_alpha(w) for w in range(1, k + 1)]
    certs += [preimage_lattice(w) for w in range(1, k + 1)]
    certs.append(kernel_of_delta(k + 1, need_basis=False))
    digest = hashlib.sha256()
    for c in certs:
        digest.update(repr((c.n_rows, c.n_cols, c.rank, c.basis, c.primes, c.rows)).encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
