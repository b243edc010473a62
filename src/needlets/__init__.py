"""Needlet analysis on the 2-sphere.

Spectral kernels built from a window f(s) = s^r f0(s) applied to the
Laplacian spectrum, the analytic correlation of the induced random
coefficients and its small-scale decay checks, Monte-Carlo simulation of
isotropic Gaussian fields, and discrete frame-bound estimation.
"""

from .correlation import *
from .defaults import *
from .differences import *
from .errors import *
from .fields import *
from .frames import *
from .kernels import *
from .legendre import *
from .spectra import *

__version__ = "0.1.0"
