"""Shared fixtures, frozen reference constants, and small helpers."""

import os

import pytest
from hypothesis import HealthCheck, settings
from mpmath import mp

from zetasigma import numerics as num

# Long-running extras (weights 13..16, 100-digit checks) are opt-in.
EXTENDED = os.environ.get("ZETASIGMA_EXTENDED") == "1"
requires_extended = pytest.mark.skipif(
    not EXTENDED, reason="set ZETASIGMA_EXTENDED=1 to enable"
)

settings.register_profile(
    "zetasigma",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("zetasigma")


@pytest.fixture(autouse=True)
def ambient_precision():
    """Enough mantissa bits for the tests' own mpmath reference arithmetic
    (parsed reference strings, direct sums and comparisons with them).
    ``ApproxReal`` arithmetic carries its own precision and ignores this."""
    with mp.workprec(700):
        yield


# 50+ digit reference values, frozen from independent computation.
PI_50 = "3.141592653589793238462643383279502884197169399375106"
ZETA3_50 = "1.202056903159594285399738161511449990764986292340499"
ZETA5_50 = "1.036927755143369926331365486457034168057080919501913"
ZETA7_50 = "1.008349277381922826839797549849796759599863560565239"
ZETA9_50 = "1.002008392826082214417852769232412060485605851394889"
LCHI3_2_50 = "0.7813024128964862968671874296240923563651343365452854"
LCHI3_4_50 = "0.9400256808771237686910694450708859916438030966033501"
LCHI3_6_50 = "0.9845603632536777310653502668930467587172006799382318"
LCHI3_8_50 = "0.9961065686518166689845691823505150060242279789407844"


def tol(digits: int):
    return mp.mpf(10) ** (-digits)


def assert_close(lhs, rhs, digits, label=""):
    r = num.residual_upper(lhs, rhs)
    assert r <= tol(digits), f"{label}: residual {mp.nstr(r, 5)} > 1e-{digits}"
