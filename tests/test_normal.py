"""The in-repo normal kernels equal scipy's, bit for bit.

``repro.util.normal`` ports Cephes' ``ndtr`` (with the parts of its
``erf`` and ``erfc`` it reaches) and ``ndtri``, the code
``scipy.special`` runs.  Every
threshold draw goes through them, so the golden pins hold only while
they return scipy's bits.  Scalars are compared by ``float.hex`` and
arrays by ``tobytes`` (which also compares a NaN's sign and payload),
on each side of every branch point and on large seeded samples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from test_tolerance import P_GRID, Z_GRID

from repro.util.normal import _erf, _erfc, ndtr, ndtri, ndtri_array

#: Cephes' constants: ``ndtri``'s branch point exp(-2), and ``erfc``'s
#: underflow bound ``MAXLOG``.
EXP_M2 = 0.13533528323661269189
MAXLOG = 7.09782712893383996843e2


def around(*points: float) -> list[float]:
    """Each point and its two neighbouring doubles."""
    out = []
    for p in points:
        out += [math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)]
    return out


#: ``ndtr`` calls erf at ``a/sqrt 2`` below 1 and erfc at ``|a|/sqrt 2``
#: from 1 on.  erfc switches from its P/Q table to R/S at 8, underflows
#: at ``x*x = MAXLOG``, and its result itself underflows to 0 near 27.2.
ERF_POINTS = [math.nextafter(1.0, 0.0), 0.5, 1e-300, 0.0, -0.0,
              -0.5, -math.nextafter(1.0, 0.0)]
ERFC_POINTS = [1.0, math.nextafter(1.0, 2.0), 3.0] + around(
    8.0, math.sqrt(MAXLOG), 26.55, 27.3)
#: The same switches as ``ndtr`` arguments, on both sides of 0.
NDTR_POINTS = around(*(x * math.sqrt(2.0) for x in ERFC_POINTS))
NDTR_POINTS += [-a for a in NDTR_POINTS]
#: ``ndtri``'s branches: the central polynomial for exp(-2) < y <
#: 1 - exp(-2), the near tail down to y = exp(-32) (x = 8), the far
#: tail below it, and each mirrored above 1 - exp(-2).
NDTRI_POINTS = around(EXP_M2, 1.0 - EXP_M2, math.exp(-32.0),
                      1.0 - math.exp(-32.0), 0.5)
#: Outside the domain, the signed zeros and infinities, NaN, and the
#: smallest subnormal.
SPECIALS = [math.nan, -math.nan, -1e-300, -0.5, -1.0, 1.0 + 2**-52, 1.5,
            2.0, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e-320]


def same_scalars(mine, ref, xs) -> list[float]:
    """The arguments where ``mine`` and ``ref`` differ by ``float.hex``."""
    return [x for x in xs if mine(x).hex() != float(ref(x)).hex()]


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestBranchPoints:
    def test_erf_and_erfc(self):
        assert same_scalars(_erf, special.erf, ERF_POINTS) == []
        assert same_scalars(_erfc, special.erfc, ERFC_POINTS) == []

    def test_ndtr(self):
        xs = NDTR_POINTS + list(Z_GRID) + SPECIALS
        assert same_scalars(ndtr, special.ndtr, xs) == []

    def test_ndtri(self):
        ps = NDTRI_POINTS + list(P_GRID) + SPECIALS
        assert same_scalars(ndtri, special.ndtri, ps) == []
        assert bits(ndtri_array(np.array(ps))) == bits(special.ndtri(ps))

    def test_ndtri_specials(self):
        assert ndtri(0.0) == ndtri(-0.0) == -math.inf
        assert ndtri(1.0) == math.inf
        for p in (-1e-300, 1.5, math.inf, -math.inf, math.nan):
            assert math.isnan(ndtri(p))
        # Cephes sends NaN through the lower tail, which negates it: the
        # array form keeps that sign and the payload, as scipy does.
        nans = np.array([0x7FF8000000000123, 0xFFF8000000000456],
                        dtype=np.uint64).view(float)
        assert bits(ndtri_array(nans)) == bits(special.ndtri(nans))
        assert ndtri_array(nans).view(np.uint64)[0] >> 63 == 1

    def test_array_shapes(self):
        assert ndtri_array(np.empty(0)).shape == (0,)
        grid = np.array(P_GRID).reshape(2, 4)
        assert bits(ndtri_array(grid)) == bits(special.ndtri(grid))
        assert ndtri_array(grid).shape == (2, 4)


class TestSamples:
    """Large seeded samples over every branch."""

    rng = np.random.default_rng(26)
    #: Uniforms (mostly the central branch), log-uniform tails down to
    #: the smallest subnormal, and values just under 1.
    P = np.concatenate([
        rng.random(200_000),
        10.0 ** rng.uniform(-324.0, 0.0, 60_000),
        1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 40_000),
    ])
    #: Normals wide enough to reach both tails and erfc's underflow.
    Z = np.concatenate([rng.standard_normal(200_000),
                        rng.standard_normal(100_000) * 16.0])

    def test_ndtri_array(self):
        assert bits(ndtri_array(self.P)) == bits(special.ndtri(self.P))

    def test_ndtri_scalar(self):
        ps = self.P.tolist()
        want = special.ndtri(self.P).tolist()
        bad = [p for p, w in zip(ps, want) if ndtri(p).hex() != w.hex()]
        assert bad == []

    def test_ndtr_scalar(self):
        zs = self.Z.tolist()
        want = special.ndtr(self.Z).tolist()
        bad = [z for z, w in zip(zs, want) if ndtr(z).hex() != w.hex()]
        assert bad == []

    def test_sample_covers_every_ndtri_branch(self):
        """Central (|x| < 1 here), near tail (2 < |x| < 8) and far tail,
        on both sides."""
        x = np.abs(ndtri_array(self.P))
        assert (x < 1.0).any() and ((x > 2.0) & (x < 8.0)).any()
        assert (x > 8.0).sum() > 1000
        assert (ndtri_array(self.P) > 2.0).any()


@settings(max_examples=300, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_property_ndtri_is_scipys(p):
    assert ndtri(p).hex() == float(special.ndtri(p)).hex()
    assert bits(ndtri_array(np.array([p]))) == bits(special.ndtri([p]))


@settings(max_examples=300, deadline=None)
@given(z=st.floats(allow_nan=True, allow_infinity=True))
def test_property_ndtr_is_scipys(z):
    assert ndtr(z).hex() == float(special.ndtr(z)).hex()
