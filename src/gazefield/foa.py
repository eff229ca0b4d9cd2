"""Focus-of-attention particle: a damped point mass steered by the potential.

The gaze point is modeled as a second-order particle whose acceleration
combines viscous dissipation with the sampled potential gradient.  The
force sign is configurable: ATTRACT drives the particle uphill toward
potential peaks (the documented behavior), REPEL keeps the opposite
convention in which peaks push the particle away.  Trajectories are
recorded as scanpaths and segmented into fixations and saccades by a
speed threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DataError, DomainError, NumericalError, check_grid, check_member,
                     check_real)
from .retina import Field2D, _stencil

__all__ = [
    "AttractionSign",
    "BoundaryPolicy",
    "FoaParams",
    "FoaState",
    "FoaSample",
    "Scanpath",
    "sample_gradient",
    "foa_step",
    "energy",
    "detect_saccades",
]


class AttractionSign(Enum):
    """Sign of the gradient force: +1 seeks peaks, -1 flees them."""

    ATTRACT = 1.0
    REPEL = -1.0


class BoundaryPolicy(Enum):
    """What happens when a step carries the particle off the grid."""

    REFLECT = "reflect"
    CLAMP = "clamp"


@dataclass(frozen=True)
class FoaParams:
    """Particle settings: viscous drag (1/s), step size (s), force sign,
    and the off-grid policy.  The default step is an eighth of a 30 Hz
    frame interval."""

    dissipation: float = 1.0
    dt: float = 1.0 / 240.0
    attraction_sign: AttractionSign = AttractionSign.ATTRACT
    boundary: BoundaryPolicy = BoundaryPolicy.REFLECT

    def __post_init__(self):
        object.__setattr__(self, "dissipation",
                           check_real("dissipation", self.dissipation, 0))
        object.__setattr__(self, "dt", check_real("dt", self.dt, 0, lo_open=True))
        check_member("attraction_sign", self.attraction_sign, AttractionSign)
        check_member("boundary", self.boundary, BoundaryPolicy)


@dataclass(frozen=True)
class FoaState:
    """Continuous gaze position (pixels) and velocity (pixels/s)."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "vx", "vy"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass(frozen=True)
class FoaSample:
    """One scanpath record: time, position, velocity, saccade flag."""

    t: float
    x: float
    y: float
    vx: float
    vy: float
    saccade: bool = False

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass(frozen=True)
class Scanpath:
    """Ordered gaze trace: finite samples with strictly increasing timestamps."""

    samples: tuple[FoaSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        t_prev, finite = -math.inf, math.isfinite
        for i, s in enumerate(self.samples):
            if not isinstance(s, FoaSample):
                raise DataError(f"scanpath samples must be FoaSample, got {type(s)}")
            if not (finite(s.t) and finite(s.x) and finite(s.y) and finite(s.vx)
                    and finite(s.vy)):
                raise DataError(f"scanpath sample {i} has a non-finite field")
            if not s.t > t_prev:
                raise DataError(f"scanpath timestamps must increase strictly at sample {i}")
            t_prev = s.t

    def __len__(self) -> int:
        return len(self.samples)

    def positions(self) -> np.ndarray:
        """(n, 2) array of sample positions."""
        return np.array([(s.x, s.y) for s in self.samples], dtype=np.float64).reshape(-1, 2)


def _cell(shape: tuple[int, int], x: float, y: float) -> tuple[int, int, float, float]:
    # callers guarantee 0 <= x <= w-1, 0 <= y <= h-1
    h, w = shape
    x0 = min(int(math.floor(x)), w - 2)
    y0 = min(int(math.floor(y)), h - 2)
    return x0, y0, x - x0, y - y0


def _lerp(c00, c01, c10, c11, fx: float, fy: float):
    return (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)


def _bilinear(arr: np.ndarray, x: float, y: float) -> float:
    x0, y0, fx, fy = _cell(arr.shape, x, y)
    return float(_lerp(arr[y0, x0], arr[y0, x0 + 1], arr[y0 + 1, x0],
                       arr[y0 + 1, x0 + 1], fx, fy))


def _check_inside(u: Field2D, x: float, y: float):
    if not (0.0 <= x <= u.width - 1 and 0.0 <= y <= u.height - 1):
        raise DomainError(
            f"position ({x}, {y}) outside grid [0, {u.width - 1}] x [0, {u.height - 1}]")


def sample_gradient(u: Field2D, pos: tuple[float, float], h: float = 1.0
                    ) -> tuple[float, float]:
    """Potential gradient at a continuous position.

    The nodal gradient (central differences inside, one-sided at edges) is
    interpolated bilinearly, so the sampled force varies continuously as
    the particle moves across cells.  Only the 4 corners of the cell that
    holds the position are differentiated, each by retina._stencil, the
    difference rule of retina.gradient, and the corners are blended by
    _lerp, the rule of _bilinear, so the result is bitwise the one the
    full-grid gradient gives.  A position off the grid, NaN or infinite
    included, raises DomainError.
    """
    x, y = float(pos[0]), float(pos[1])
    _check_inside(u, x, y)
    h = check_real("grid spacing h", h, 0, lo_open=True)
    check_grid("sample_gradient", u.values.shape, min_side=2)
    v = u.values
    x0, y0, fx, fy = _cell(v.shape, x, y)
    dx, dy = [], []
    for r in (y0, y0 + 1):
        for c in (x0, x0 + 1):
            fwd, back, div = _stencil(c, u.width, h)
            dx.append((v[r, fwd] - v[r, back]) / div)
            fwd, back, div = _stencil(r, u.height, h)
            dy.append((v[fwd, c] - v[back, c]) / div)
    return float(_lerp(*dx, fx, fy)), float(_lerp(*dy, fx, fy))


def _fold(x: float, v: float, top: float, policy: BoundaryPolicy) -> tuple[float, float]:
    # one axis of a step that lands within one grid extent of [0, top]
    if 0.0 <= x <= top:
        return x, v
    edge = 0.0 if x < 0.0 else top
    if policy is BoundaryPolicy.REFLECT:
        return 2.0 * edge - x, -v
    return edge, 0.0


def foa_step(s: FoaState, u: Field2D, p: FoaParams, h: float = 1.0) -> FoaState:
    """Advance the particle one step of v' = v + dt(-drag*v + sign*grad u).

    Velocity updates first from the force at the old position, then the
    position moves with the fresh velocity (semi-implicit Euler: one
    gradient sample per step, stable for damped oscillation).  A step that
    exits the grid is folded back per the boundary policy: REFLECT mirrors
    the position and negates the normal velocity, CLAMP projects onto the
    edge and zeroes it.

    Raises NumericalError when one step moves farther than the grid extent
    on either axis: the force or the speed has run away.
    """
    gx, gy = sample_gradient(u, (s.x, s.y), h)
    sign = p.attraction_sign.value
    vx = s.vx + p.dt * (-p.dissipation * s.vx + sign * gx)
    vy = s.vy + p.dt * (-p.dissipation * s.vy + sign * gy)
    step_x, step_y = p.dt * vx, p.dt * vy
    xmax, ymax = float(u.width - 1), float(u.height - 1)
    # written so a NaN step fails too
    if not (abs(step_x) <= xmax and abs(step_y) <= ymax):
        raise NumericalError(
            f"particle step ({step_x:g}, {step_y:g}) from ({s.x:g}, {s.y:g}) "
            f"exceeds the {u.width}x{u.height} grid")
    # the step is within one grid extent, so one fold per axis suffices
    x, vx = _fold(s.x + step_x, vx, xmax, p.boundary)
    y, vy = _fold(s.y + step_y, vy, ymax, p.boundary)
    return FoaState(x, y, vx, vy)


def energy(s: FoaState, u: Field2D, p: FoaParams) -> float:
    """Kinetic plus potential energy, 0.5|v|^2 - sign*u(a).

    Conserved by the continuum dynamics when dissipation is zero; its
    drift diagnoses integrator quality.
    """
    _check_inside(u, s.x, s.y)
    return 0.5 * (s.vx * s.vx + s.vy * s.vy) \
        - p.attraction_sign.value * _bilinear(u.values, s.x, s.y)


def detect_saccades(path: Scanpath, speed_threshold: float,
                    min_fixation: float) -> Scanpath:
    """Annotate a scanpath: fast samples are saccadic, brief rests between
    saccades merge into them.

    A sample is saccadic when its speed exceeds speed_threshold.  A
    contiguous slow run whose time span is shorter than min_fixation and
    which sits between saccadic runs on both sides is absorbed into the
    surrounding saccade; slow runs at either end of the path always remain
    fixations.
    """
    if len(path) == 0:
        raise DataError("cannot segment an empty scanpath")
    check_real("speed_threshold", speed_threshold, 0, lo_open=True)
    check_real("min_fixation", min_fixation, 0, lo_open=True)

    flags = [s.speed > speed_threshold for s in path.samples]

    runs = []  # (flag, start, stop) half-open
    start = 0
    for i in range(1, len(flags) + 1):
        if i == len(flags) or flags[i] != flags[start]:
            runs.append((flags[start], start, i))
            start = i
    for k, (flag, a, b) in enumerate(runs):
        if flag or k == 0 or k == len(runs) - 1:
            continue
        span = path.samples[b - 1].t - path.samples[a].t
        if span < min_fixation:
            for i in range(a, b):
                flags[i] = True

    return Scanpath(tuple(FoaSample(s.t, s.x, s.y, s.vx, s.vy, f)
                          for s, f in zip(path.samples, flags)))
