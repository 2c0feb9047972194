"""funreg.normal against scipy.special, bit for bit, at every branch point
of the Cephes routines and over all finite doubles of each domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from funreg.normal import ndtr, ndtri


def around(v: float, ulps: int = 4) -> list[float]:
    """v and the ``ulps`` doubles on each side of it."""
    out, lo, hi = [v], v, v
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def same(ours: float, theirs) -> bool:
    """Equal as floats, zeros of one sign, or both NaN."""
    theirs = float(theirs)
    if math.isnan(theirs):
        return type(ours) is float and math.isnan(ours)
    return (type(ours) is float and ours == theirs
            and math.copysign(1.0, ours) == math.copysign(1.0, theirs))


NDTRI_POINTS = sorted({
    y
    for v in (
        5e-324, 2 * 5e-324, 2.0**-1030, math.nextafter(2.0**-1022, 0.0), 2.0**-1022,
        math.exp(-2), 1 - math.exp(-2), math.exp(-32), 0.5, 0.125, 0.875, 2.0**-53,
        1 - 2.0**-53,
    )
    for y in around(v)
    if 0.0 < y < 1.0
})


class TestNdtri:
    def test_branch_points(self):
        assert [y for y in NDTRI_POINTS if not same(ndtri(y), special.ndtri(y))] == []

    def test_ends_are_infinite(self):
        assert ndtri(0.0) == -math.inf
        assert ndtri(-0.0) == -math.inf
        assert ndtri(1.0) == math.inf

    @pytest.mark.parametrize("y", [-5e-324, -0.5, math.nextafter(1.0, 2.0), 2.0,
                                   -math.inf, math.inf, math.nan])
    def test_outside_the_unit_interval_is_nan(self, y):
        assert math.isnan(ndtri(y))
        assert math.isnan(special.ndtri(y))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_every_probability(self, y):
        assert same(ndtri(y), special.ndtri(y))

    def test_seeded_sweep(self):
        # log-uniform tails down to the subnormals, on both sides of 1/2
        rng = np.random.default_rng(2005)
        tails = np.exp(-745 * rng.random(20000))
        ys = np.concatenate([rng.random(20000), tails, 1 - tails[:5000]]).tolist()
        assert [y for y in ys if not same(ndtri(y), special.ndtri(y))] == []


NDTR_POINTS = sorted({
    s * x
    # erf/erfc at |a| = 1, erfc's 1 - erf at sqrt(2), its P/Q to R/S at 8 sqrt(2)
    for v in (0.0, 5e-324, 1e-300, 0.5, 1.0, math.sqrt(2), 3.0, 8 * math.sqrt(2), 37.5, 38.6, 40.0)
    for x in around(v)
    for s in (1.0, -1.0)
})
# erfc's exp(-x^2) and its quotient underflow between |a| = 37.5 and 38.6
UNDERFLOW = [s * (37.5 + k * 1.1 / 2000) for k in range(2001) for s in (1.0, -1.0)]


class TestNdtr:
    @pytest.mark.parametrize("points", [NDTR_POINTS, UNDERFLOW], ids=["switches", "underflow"])
    def test_branch_points(self, points):
        assert [a for a in points if not same(ndtr(a), special.ndtr(a))] == []

    def test_ends(self):
        assert ndtr(math.inf) == 1.0
        assert ndtr(-math.inf) == 0.0
        for a in (math.inf, -math.inf, math.nan):
            assert same(ndtr(a), special.ndtr(a))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-40.0, 40.0))
    def test_every_value(self, a):
        assert same(ndtr(a), special.ndtr(a))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2005)
        values = np.concatenate([rng.uniform(-40, 40, 20000), rng.standard_normal(20000)]).tolist()
        assert [a for a in values if not same(ndtr(a), special.ndtr(a))] == []
