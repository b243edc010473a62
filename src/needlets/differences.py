"""Difference operators on degree-indexed coefficient sequences.

A `CoeffSequence` stores a finite window a_offset .. a_top of a sequence on
the nonnegative integers; indices outside the window read as zero.  The
operator realized by `multiply_cos_minus_one` rewrites multiplication of a
zonal series by (cos theta - 1) as an operation on its coefficients:

    sum_l out_l Z_l(cos theta) = (cos theta - 1) sum_l a_l Z_l(cos theta)

with out = R(l) (a_{l-1} - 2 a_l + a_{l+1}) + S(l) (a_{l+1} - a_l), where
R(l) = l/(2l+1) and S(l) = 1/(2l+1).  Iterating N times multiplies the
series by (cos theta - 1)^N while improving coefficient decay by l^(-2N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoeffSequence",
    "multiply_cos_minus_one",
    "multiply_cos_minus_one_power",
]


@dataclass(frozen=True)
class CoeffSequence:
    """A finite window of a degree-indexed sequence, zero outside the window."""

    offset: int
    values: np.ndarray

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("each coefficient row must be 1-d")

    @property
    def top(self) -> int:
        return self.offset + self.values.size - 1

    def __getitem__(self, l: int) -> float:
        if self.offset <= l <= self.top:
            return float(self.values[l - self.offset])
        return 0.0

    def dense(self, top: int) -> np.ndarray:
        """Values a_0 .. a_top as a contiguous array."""
        out = np.zeros(top + 1)
        hi = min(top, self.top)
        if hi >= self.offset:
            out[self.offset:hi + 1] = self.values[:hi - self.offset + 1]
        return out


def first_difference_weight(l):
    """S(l) = 1/(2l+1), the weight on the backward difference."""
    return 1.0 / (2.0 * l + 1.0)


def second_difference_weight(l):
    """R(l) = l/(2l+1), the weight on the mixed second difference."""
    return l / (2.0 * l + 1.0)


def multiply_cos_minus_one(s: CoeffSequence) -> CoeffSequence:
    """Coefficients of (cos theta - 1) times the zonal series of `s`.

    The result is stored densely from degree 0 and its support extends one
    degree above the input's.
    """
    if s.values.size == 0:
        raise ValueError("empty coefficient sequence")
    top = s.top + 1
    a = s.dense(top + 1)  # one slot of zero padding above the new top
    ls = np.arange(top + 1, dtype=float)
    prev = np.concatenate(([0.0], a[:top]))        # a_{l-1}, a_{-1} = 0
    here = a[:top + 1]
    nxt = a[1:top + 2]
    out = (second_difference_weight(ls) * (prev - 2.0 * here + nxt)
           + first_difference_weight(ls) * (nxt - here))
    return CoeffSequence(0, out)


def multiply_cos_minus_one_power(s: CoeffSequence, n: int) -> CoeffSequence:
    """n-fold application of `multiply_cos_minus_one`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = s
    for _ in range(n):
        out = multiply_cos_minus_one(out)
    return out

