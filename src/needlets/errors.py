"""Exception types shared across the package."""

__all__ = ["NeedletError", "DegreeCapExceeded", "NumericFailure", "DecayHypothesisError"]


class NeedletError(Exception):
    """Base class for needlet-specific failures."""


class DegreeCapExceeded(NeedletError):
    """A computation would need spherical-harmonic degrees above the configured cap."""


class NumericFailure(NeedletError):
    """A numerically degenerate situation: underflow, ill-conditioning, divergent fit."""


class DecayHypothesisError(NeedletError):
    """The decay-rate hypothesis 4r + 2 > alpha does not hold for these parameters."""
