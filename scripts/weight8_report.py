#!/usr/bin/env python3
"""Non-asserting report: a conjectural weight-8 evaluation.

The combination 18*sigma(2,6) + 65*sigma(4,4) + 12*sigma(2,2,4) appears
numerically equal to a rational combination of weight-8 multiple zeta
values.  No proof is known; this script only reports the residual of the
candidate identity at the requested precision.
"""

import argparse
import math
import sys
from fractions import Fraction

from mpmath import mp

from zetasigma import numerics as num
from zetasigma.compositions import DualityClass
from zetasigma.lincomb import LinComb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=50)
    args = ap.parse_args()
    d = args.digits

    with mp.workprec(num.work_bits(d + 12, 1 << 12)):
        lhs = num.evaluate(LinComb({(2, 6): 18, (4, 4): 65, (2, 2, 4): 12}), 0, d)
        # zeta(2,2,2,2) = pi^8/9!
        z2222 = num.pi(d).pow_int(8).scale(Fraction(1, math.factorial(9)))
        zetas = LinComb(
            {
                DualityClass.of((3, 3, 2)): 747,
                DualityClass.of((3, 2, 3)): 818,
                DualityClass.of((2, 3, 3)): 842,
            }
        )
        rhs = (z2222.scale(Fraction(1593337, 240)) - num.evaluate(zetas, 0, d)).scale(Fraction(16, 825))

        print(f"lhs = {lhs.formatted(d)}")
        print(f"rhs = {rhs.formatted(d)}")
        print(f"residual <= {mp.nstr(num.residual_upper(lhs, rhs), 5)} at {d} digits")
    print("(conjectural: reported, not asserted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
