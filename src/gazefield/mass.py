"""Salient mass density and the inhibition-of-return state.

Mass is what the potential field falls toward: spatial detail weighted by
how novel the location still is, plus a motion term.  The inhibition field
I relaxes toward a Gaussian bump centered on the current gaze position, so
recently fixated detail loses its pull and the scanpath moves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, check_grid, check_member, check_real, check_sigma
from .retina import Field2D, VectorField2D, _bump, magnitude

__all__ = [
    "MotionSource",
    "MassParams",
    "IorParams",
    "IorField",
    "mass_density",
    "ior_step",
]


class MotionSource(Enum):
    """Where the motion term of the mass comes from."""

    TEMPORAL_DERIVATIVE = "temporal_derivative"
    FLOW_MAGNITUDE = "flow_magnitude"


@dataclass(frozen=True)
class MassParams:
    """Weights for the detail and motion contributions to the mass."""

    alpha1: float = 1.0
    alpha2: float = 1.0
    motion_source: MotionSource = MotionSource.TEMPORAL_DERIVATIVE

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))
        if self.alpha1 + self.alpha2 <= 0:
            raise ParameterError("alpha1 + alpha2 must be positive")
        check_member("motion_source", self.motion_source, MotionSource)


@dataclass(frozen=True)
class IorParams:
    """Inhibition dynamics: relaxation rate beta, footprint sigma_ior."""

    beta: float = 1.0
    sigma_ior: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "beta", check_real("beta", self.beta, 0, 1, lo_open=True))
        object.__setattr__(self, "sigma_ior", check_sigma("sigma_ior", self.sigma_ior))


class IorField(Field2D):
    """Inhibition level per pixel, always inside [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        self._check_range()

    def _check_range(self) -> "IorField":
        v = self.values
        if v.min() < 0.0 or v.max() > 1.0:
            raise ParameterError(
                f"inhibition values must lie in [0, 1], got range "
                f"[{v.min():.3g}, {v.max():.3g}]"
            )
        return self

    @classmethod
    def _own(cls, values: np.ndarray, what: str) -> "IorField":
        return super()._own(values, what)._check_range()


def mass_density(b_grad: VectorField2D, motion: Field2D, ior: IorField,
                 p: MassParams) -> Field2D:
    """Pointwise mass: alpha1 * |grad b| * (1 - I) + alpha2 * motion.

    The inhibition gates only the detail term; the motion term passes
    through untouched.  motion must already hold the magnitude named by
    p.motion_source (|db/dt| or |v|), so the result is nonnegative.
    Evaluated in that operand order: hypot, times alpha1, times (1 - I);
    alpha2 * motion, added last.
    Overflow raises NumericalError.
    """
    check_grid("mass_density", b_grad.dx.shape, motion.values.shape, ior.values.shape)
    detail = magnitude(b_grad).values
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        return _mass(detail, motion.values, ior, p)


def _mass(detail: np.ndarray, motion: np.ndarray | None, ior: IorField,
          p: MassParams) -> Field2D:
    # mass_density from the detail |grad b|, which is read, never written, under
    # the caller's overflow scope; motion None is a motion term of +0 everywhere:
    # the detail term is >= +0 or not finite, and x + +0 is x, bit for bit, for each
    mu, tmp = np.multiply(detail, p.alpha1), np.subtract(1.0, ior.values)
    np.multiply(mu, tmp, out=mu)
    if motion is not None:
        np.add(mu, np.multiply(motion, p.alpha2, out=tmp), out=mu)
    return Field2D._own(mu, "mass")


def ior_step(ior: IorField, a: tuple[float, float], dt: float, p: IorParams) -> IorField:
    """Advance the inhibition field one step with the gaze at position a.

    The relaxation toward the Gaussian bump at a is integrated exactly over
    the step (the source is held constant), giving the convex combination
    I' = I*e^(-beta*dt) + (1 - e^(-beta*dt))*G.  Both weights are in [0, 1]
    and G <= 1, so the field stays in [0, 1] for any dt.  G comes from retina._bump;
    then I*e^(-beta*dt), plus G*(1 - e^(-beta*dt)), in place in two arrays.
    """
    ax, ay = check_real("gaze x", a[0]), check_real("gaze y", a[1])
    dt = check_real("dt", dt, 0, lo_open=True)
    source = _bump(ior.width, ior.height, ax, ay, p.sigma_ior)
    decay = math.exp(-p.beta * dt)
    out = np.multiply(ior.values, decay)
    np.add(out, np.multiply(source, 1.0 - decay, out=source), out=out)
    return IorField._own(out, "inhibition")
