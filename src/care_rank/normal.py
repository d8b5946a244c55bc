"""Standard normal CDF, two-sided tail and quantile.

Thin wrappers over the standard library: ``math.erfc`` for the CDF and
the tail, ``statistics.NormalDist().inv_cdf`` for the quantile.  Both
are accurate to a few units in the last place.  The results depend only
on the inputs, so p-values, confidence intervals and thresholds
reproduce exactly across runs and worker counts on one machine.  Each
function takes a scalar (and returns a float) or an array (and returns
an array of the same shape).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["erfc", "normal_cdf", "normal_quantile", "two_sided_p_value"]

_SQRT2 = math.sqrt(2.0)
_INV_CDF = NormalDist().inv_cdf


def _elementwise(f, x):
    """``f`` on a scalar, or on every entry of an array keeping its shape."""
    if np.ndim(x) == 0:
        return f(float(x))
    arr = np.asarray(x, dtype=float)
    return np.array([f(v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)


def erfc(x: float) -> float:
    """Complementary error function on the real line."""
    x = float(x)
    if math.isnan(x):
        raise InvalidArgumentError("erfc argument must not be NaN")
    return math.erfc(x)


def normal_cdf(x):
    """Standard normal CDF; accepts scalars or arrays."""
    return _elementwise(lambda v: 0.5 * erfc(-v / _SQRT2), x)


def two_sided_p_value(z):
    """P(|N(0,1)| >= |z|), computed in the tail-stable form erfc(|z|/sqrt(2))."""
    return _elementwise(lambda v: erfc(abs(v) / _SQRT2), z)


def _quantile(p: float) -> float:
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError(f"quantile probability must be in (0, 1), got {p}")
    return _INV_CDF(p)


def normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1); scalars or arrays."""
    return _elementwise(_quantile, p)
