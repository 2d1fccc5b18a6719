"""Ceiling-effect aerodynamics of small propellers.

Models the thrust, torque, and power of a propeller spinning close beneath a
ceiling, fits the model constants to steady-state bench data, and analyzes
the power saved by hovering or perching near the surface.

Re-exports each model module's ``__all__``, but not ``ceilprop.cli``.
"""

from . import analysis, bemt, core, fitting, io, leastsq, motor
from .analysis import *
from .bemt import *
from .core import *
from .fitting import *
from .io import *
from .leastsq import *
from .motor import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *bemt.__all__, *motor.__all__, *leastsq.__all__,
           *fitting.__all__, *analysis.__all__, *io.__all__]
