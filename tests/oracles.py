"""Reference sums of the kernel, covariance and correlation series for the
exponential profile f(s) = s^r e^(-s) and c_l = l^(-alpha), computed without
the library: nothing here comes from `needlets`.  `direct_series` is the
kernel K_t(x) (power 1, no alpha) or the covariance Cov(t, x) (power 2) in
double precision; `direct_correlation` is Cor(t, x) at 50 digits.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import eval_legendre


def direct_series(r, t, x, power, lmax, alpha=None):
    """sum_{l=1}^{lmax} f(t^2 l(l+1))^power [l^(-alpha)] (2l+1) P_l(x)."""
    ls = np.arange(1, lmax + 1, dtype=float)
    s = t * t * ls * (ls + 1.0)
    w = (s ** r * np.exp(-s)) ** power
    if alpha is not None:
        w = w * ls ** -alpha
    return math.fsum(w * (2 * ls + 1) * eval_legendre(ls.astype(int), x))


@functools.cache
def direct_correlation(r, alpha, t, x):
    """Cov(t, x) / Cov(t, 1) as a 50-digit mpmath number, over every degree
    with t^2 l(l+1) <= 80, past which the squared profile has dropped below
    1e-50 of its peak; P_l(x) by (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x, tm = mpmath.mpf(x), mpmath.mpf(t)
        cov = var = mpmath.mpf(0)
        p_prev, p_l = mpmath.mpf(1), x
        for l in range(1, int(math.sqrt(80.0) / t) + 2):
            s = tm * tm * l * (l + 1)
            w = s ** (2 * r) * mpmath.exp(-2 * s) * mpmath.mpf(l) ** -alpha * (2 * l + 1)
            cov += w * p_l
            var += w
            p_prev, p_l = p_l, ((2 * l + 1) * x * p_l - l * p_prev) / (l + 1)
        return cov / var
