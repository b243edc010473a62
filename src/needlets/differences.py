"""Difference operators on degree-indexed coefficient sequences.

A `CoeffSequence` stores a finite window a_offset .. a_top of a sequence on
the nonnegative integers; indices outside the window read as zero.  One step
of `multiply_cos_minus_one_power` rewrites multiplication of a zonal series
by (cos theta - 1) as an operation on its coefficients:

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


def first_difference_weight(l):
    """S(l) = 1/(2l+1), the weight on the backward difference."""
    return 1.0 / (2.0 * l + 1.0)


def second_difference_weight(l):
    """R(l) = l/(2l+1), the weight on the mixed second difference."""
    return l / (2.0 * l + 1.0)


def multiply_cos_minus_one_power(s: CoeffSequence, n: int) -> CoeffSequence:
    """Coefficients of (cos theta - 1)^n times the zonal series of `s`.

    The result is stored densely from degree 0 and its support extends n
    degrees above the input's.  All n steps work in one array that holds a_l
    at index l + 1, with zeros at a_{-1} and above the top, so a_{l-1}, a_l
    and a_{l+1} are three views.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s.values.size == 0:
        raise ValueError("empty coefficient sequence")
    last = s.top + n  # each step extends the support by one degree
    a = np.zeros(last + 3)
    a[s.offset + 1:s.top + 2] = s.values
    ls = np.arange(last + 1, dtype=float)
    r, q = second_difference_weight(ls), first_difference_weight(ls)
    for top in range(s.top + 1, last + 1):
        prev, here, nxt = a[:top + 1], a[1:top + 2], a[2:top + 3]
        a[1:top + 2] = r[:top + 1] * (prev - 2.0 * here + nxt) + q[:top + 1] * (nxt - here)
    return CoeffSequence(0, a[1:last + 2])
