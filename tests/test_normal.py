"""The in-house normal CDF/quantile against high-precision references."""

import math

import mpmath as mp
import numpy as np
import pytest

from care_rank.errors import InvalidArgumentError
from care_rank.normal import erfc, normal_cdf, normal_quantile, two_sided_p_value

mp.mp.dps = 40


class TestErfc:
    def test_against_mpmath(self):
        points = np.concatenate([
            np.linspace(-8.0, 8.0, 161),
            [-26.0, -12.0, 0.46875, 1.5, 1.5 + 1e-9, 4.0, 12.0, 26.0],
        ])
        for x in points:
            ref = float(mp.erfc(mp.mpf(float(x))))
            if ref == 0.0:
                assert erfc(float(x)) == 0.0
            else:
                assert erfc(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_reflection(self):
        for x in [0.1, 0.9, 2.3, 5.5]:
            assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgumentError):
            erfc(float("nan"))


class TestNormalCdf:
    def test_against_mpmath(self):
        for x in np.linspace(-10.0, 10.0, 81):
            ref = float(mp.ncdf(mp.mpf(float(x))))
            assert normal_cdf(float(x)) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_array_input(self):
        out = normal_cdf(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[0] + out[2] == pytest.approx(1.0, abs=1e-15)


class TestNormalQuantile:
    def test_against_mpmath(self):
        for p in np.concatenate([np.linspace(1e-6, 1 - 1e-6, 201), [1e-12, 1 - 1e-12]]):
            ref = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(float(p)) - 1))
            assert normal_quantile(float(p)) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_known_quantiles(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
        assert normal_quantile(0.995) == pytest.approx(2.575829304, abs=1e-8)
        assert normal_quantile(0.5) == 0.0

    def test_roundtrip(self):
        for p in [1e-8, 0.01, 0.3, 0.5, 0.77, 0.995, 1 - 1e-8]:
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-10)

    def test_symmetry(self):
        # up to representation of 1 - p, which is not the exact complement
        for p in [0.001, 0.2, 0.4]:
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), rel=1e-12)

    def test_domain(self):
        for bad in [0.0, 1.0, -0.5, 2.0]:
            with pytest.raises(InvalidArgumentError):
                normal_quantile(bad)

    def test_array_input(self):
        out = normal_quantile(np.array([0.25, 0.5, 0.75]))
        assert out[1] == 0.0
        assert out[0] == -out[2]

    def test_relative_accuracy_near_center(self):
        # the quantile is tiny here, so only a relative bound tests it
        for p in [0.49999999999999994, 0.4999, 0.5001, 0.501]:
            ref = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))
            assert abs(normal_quantile(p) - ref) <= 1e-13 * abs(ref)


class TestTwoSidedP:
    def test_anchor(self):
        assert two_sided_p_value(1.959964) == pytest.approx(0.05, abs=1e-6)

    def test_tail_stability(self):
        # representable far beyond where 1 - cdf would round to zero
        assert 0.0 < two_sided_p_value(15.0) < 1e-40

    def test_matches_cdf_form(self):
        for z in [0.3, 1.1, 2.7]:
            ref = 2.0 * (1.0 - normal_cdf(abs(z)))
            assert two_sided_p_value(z) == pytest.approx(ref, rel=1e-12)

    def test_zero(self):
        assert two_sided_p_value(0.0) == 1.0
