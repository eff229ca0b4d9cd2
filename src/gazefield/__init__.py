"""Scanpath simulation driven by attention potential fields.

The pipeline turns a brightness video into a gaze trajectory: per-pixel
salient mass is built from spatial detail and motion, the mass sources a
potential field (relaxed directly or evolved in time), and the focus of
attention moves as a damped particle in that field.  Inhibition of return
suppresses mass where the gaze has already been so the scanpath keeps
exploring.
"""

from .errors import *
from .retina import *
from .optical_flow import *
from .mass import *
from .potential import *
from .foa import *

__version__ = "0.1.0"
