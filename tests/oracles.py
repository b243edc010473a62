"""Reference sums of the kernel, covariance and correlation series for the
exponential profile f(s) = s^r e^(-s) and c_l = l^(-alpha), computed without
the library: nothing here comes from `needlets`.  `direct_series` is the
kernel K_t(x) (power 1, no alpha) or the covariance Cov(t, x) (power 2) in
double precision; `direct_correlation` is Cor(t, x) at 50 digits.
`series_rows_reference` is a frozen copy of the library's series loop, one
step per degree for every row, `cos_minus_one_reference` of its
(cos theta - 1) transform, one step on a zero-padded copy of the window, and
`profile_reference` of its profile f(s) = s^r f0(s) with one log f0 per
family; the library's bits are compared against all three.
`dilation_sum` is the Calderon sum g(lam) at 40 digits; `profile_oracle`
is f(s) = s^r exp(-s^p) and `rational_log_oracle` the spectrum
u(l) = F(log l) P(l) / (l^beta Q(l)), both at 60 digits, compared through
`worst_relative_error`; `mpmath.diff` of `rational_log_oracle` is also the
reference derivative u'(l) for the spectra's first differences.
"""

import functools
import math

import mpmath
import numpy as np
from scipy.special import eval_legendre


# name -> log f0, as the library once held them
_LOG_F0 = {
    "exponential": lambda s: -s,
    "gaussian": lambda s: -s * s,
}


def profile_reference(r: int, f0: str, s: np.ndarray) -> np.ndarray:
    """f(s) = exp(r log s + log f0(s)) for a 1-d array of finite s >= 0, and
    0 at s = 0; log f0 overflowing to -inf gives 0, r log s + log f0 past the
    double range gives inf."""
    out = np.zeros_like(s)
    pos = s > 0
    sp = s[pos]
    with np.errstate(over="ignore"):
        logf = r * np.log(sp) + _LOG_F0[f0](sp)
        out[pos] = np.exp(logf)
    return out


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


def series_rows_reference(seqs: list, x: np.ndarray) -> np.ndarray:
    """The series loop: one degree recurrence for every `CoeffSequence`.

    `x` is a checked 1-d array shared by all windows, or 2-d with a row of
    points per window; each window was checked when it was built.  Rows are
    ordered by descending top degree, so the rows still inside their window
    form a prefix and each step works on that prefix only, in preallocated
    buffers.  A row reads zero below its
    offset; those zero terms leave its sum and carry at +0.0, so each row
    takes the float operations of a lone evaluation.  The compensation is
    TwoSum (Ogita, Rump & Oishi 2005): it yields the exact rounding error
    of each addition, the same value Neumaier's branch gives.
    """
    n, npts = len(seqs), x.shape[-1]
    out = np.zeros((n, npts))
    tops = np.array([s.top for s in seqs], dtype=int)
    order = np.argsort(-tops, kind="stable")
    if n == 0 or tops[order[0]] < 0:
        return out
    top = int(tops[order[0]])
    table = np.zeros((top + 1, n, 1))  # coefficient of degree l for sorted row j
    for j, i in enumerate(order):
        table[seqs[i].offset:tops[i] + 1, j, 0] = seqs[i].values
    # live[l]: how many sorted rows still hold a degree-l term
    live = np.searchsorted(-tops[order], -np.arange(top + 2), side="right")

    # shared points are one row that broadcasts against every coefficient row;
    # a prefix [:k] of it is that row, so one loop serves both shapes
    x = x[order] if x.ndim == 2 else x[None]
    total, new, carry, term, err = (np.zeros((n, npts)) for _ in range(5))
    p, p_prev = np.ones(x.shape), np.zeros(x.shape)
    work = err[:len(x)]  # free between one step's sum and the next
    k = n
    tv, sv, cv, bv, ev = total, new, carry, term, err
    for l in range(top + 1):
        if live[l] < k:  # these rows ended at degree l - 1
            out[order[live[l]:k]] = total[live[l]:k] + carry[live[l]:k]
            k = int(live[l])
            tv, sv, cv, bv, ev = total[:k], new[:k], carry[:k], term[:k], err[:k]
        np.multiply(table[l, :k], p[:k], out=bv)
        # TwoSum: sv = tv + bv and ev = its rounding error, exactly
        np.add(tv, bv, out=sv)
        np.subtract(sv, tv, out=ev)
        np.subtract(bv, ev, out=bv)
        np.subtract(sv, ev, out=ev)
        np.subtract(tv, ev, out=ev)
        np.add(ev, bv, out=ev)
        np.add(cv, ev, out=cv)
        total, new, tv, sv = new, total, sv, tv
        if l == top:
            break
        # (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, for the rows that go on
        j = live[l + 1]
        xj, pj, qj, wj = x[:j], p[:j], p_prev[:j], work[:j]
        np.multiply(xj, 2 * l + 1, out=wj)
        np.multiply(wj, pj, out=wj)
        np.multiply(qj, l, out=qj)
        np.subtract(wj, qj, out=wj)
        np.divide(wj, l + 1, out=qj)
        p, p_prev = p_prev, p
    out[order[:k]] = total[:k] + carry[:k]
    return out


def cos_minus_one_reference(offset: int, values: np.ndarray) -> np.ndarray:
    """Coefficients a_0 .. a_{top+1} of (cos theta - 1) times the zonal series
    of the window a_offset .. a_top held in `values`:

        out_l = R(l) (a_{l-1} - 2 a_l + a_{l+1}) + S(l) (a_{l+1} - a_l)

    with R(l) = l/(2l+1), S(l) = 1/(2l+1) and a_{-1} = 0.
    """
    top = offset + values.size  # the window's top degree, plus one
    a = np.zeros(top + 2)  # a_0 .. a_top and one slot of zero padding above it
    a[offset:top] = values
    ls = np.arange(top + 1, dtype=float)
    prev = np.concatenate(([0.0], a[:top]))  # a_{l-1}, a_{-1} = 0
    here = a[:top + 1]
    nxt = a[1:top + 2]
    return (ls / (2.0 * ls + 1.0) * (prev - 2.0 * here + nxt)
            + 1.0 / (2.0 * ls + 1.0) * (nxt - here))


def dilation_sum(r: int, p: int, a: float, lam: float):
    """sum over integer j of f(a^(2j) lam)^2 for f(s) = s^r exp(-s^p), as a
    40-digit mpmath number.  f rises to its peak at s* = (r/p)^(1/p) and
    falls past it, so j walks up from the scale nearest s* and down from the
    one below it, each way until a term below 1e-50 of f(s*)^2 lies on the
    far side of s*: every later term is smaller."""
    with mpmath.workdps(40):
        am, lm, rm = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(r)
        s_peak = (rm / p) ** (mpmath.mpf(1) / p)

        def term(s):
            return s ** (2 * r) * mpmath.exp(-2 * s ** p)

        floor = mpmath.mpf(10) ** -50 * term(s_peak)
        j_peak = int(mpmath.nint(mpmath.log(s_peak / lm) / (2 * mpmath.log(am))))
        total = mpmath.mpf(0)
        for j, step in ((j_peak, 1), (j_peak - 1, -1)):
            while True:
                s = am ** (2 * j) * lm
                t = term(s)
                total += t
                if t < floor and (s - s_peak) * step > 0:
                    break
                j += step
        return total


def profile_oracle(r: int, p: int, s: float):
    """f(s) = s^r exp(-s^p) for a double s as a 60-digit mpmath number; p = 1
    is the exponential family, p = 2 the gaussian."""
    with mpmath.workdps(60):
        sm = mpmath.mpf(s)
        return sm ** r * mpmath.exp(-sm ** p)


def rational_log_oracle(beta: float, p_coeffs, q_coeffs, f_name: str, l):
    """u(l) = F(log l) P(l) / (l^beta Q(l)) as a 60-digit mpmath number, with P
    and Q in ascending powers and F = 1 ("one") or 2 + sin ("two_plus_sin")."""
    with mpmath.workdps(60):
        lm = mpmath.mpf(l)
        f = {"one": 1, "two_plus_sin": 2 + mpmath.sin(mpmath.log(lm))}[f_name]
        p = sum(mpmath.mpf(c) * lm ** k for k, c in enumerate(p_coeffs))
        q = sum(mpmath.mpf(c) * lm ** k for k, c in enumerate(q_coeffs))
        return f * p / (lm ** mpmath.mpf(beta) * q)


def worst_relative_error(got, refs) -> float:
    """max |g - ref| / |ref| over doubles g and mpmath references, taken exactly
    and rounded once."""
    return max(abs(float((mpmath.mpf(g) - ref) / ref)) for g, ref in zip(got, refs))
