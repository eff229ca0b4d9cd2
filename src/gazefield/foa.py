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
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DataError, DomainError, NumericalError, check_grid, check_member,
                     check_real)
from .retina import Field2D, _bilinear, _finite, _gradient_at

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


@dataclass(frozen=True)
class FoaSample:
    """One scanpath record: time, position, velocity, saccade flag."""

    t: float
    x: float
    y: float
    vx: float
    vy: float
    saccade: bool = False


@dataclass(frozen=True, eq=False, init=False)
class Scanpath:
    """Ordered gaze trace: finite samples with strictly increasing timestamps.

    rows is a read-only (n, 5) float64 array of (t, x, y, vx, vy) and saccade
    a read-only (n,) bool array; samples builds FoaSample records on demand.
    """

    rows: np.ndarray
    saccade: np.ndarray

    def __init__(self, samples: tuple[FoaSample, ...]):
        samples = tuple(samples)
        for s in samples:
            if not isinstance(s, FoaSample):
                raise DataError(f"scanpath samples must be FoaSample, got {type(s)}")
        rows = np.array([(s.t, s.x, s.y, s.vx, s.vy) for s in samples], dtype=np.float64)
        self._adopt(rows.reshape(-1, 5),
                    np.array([bool(s.saccade) for s in samples], dtype=bool))

    @classmethod
    def _own(cls, rows: np.ndarray, saccade: np.ndarray | None = None) -> "Scanpath":
        # (n, 5) rows and (n,) flags, default False: checked and frozen, not copied
        path = object.__new__(cls)
        path._adopt(rows, np.zeros(len(rows), dtype=bool) if saccade is None else saccade)
        return path

    def _adopt(self, rows: np.ndarray, saccade: np.ndarray) -> None:
        _check_rows(rows)
        for name, a in (("rows", rows), ("saccade", saccade)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def samples(self) -> tuple[FoaSample, ...]:
        """The samples as FoaSample records, built on each access."""
        return tuple(FoaSample(*row, flag)
                     for row, flag in zip(self.rows.tolist(), self.saccade.tolist()))

    def __len__(self) -> int:
        return len(self.rows)


def _check_rows(rows: np.ndarray, first: int = 0, t_before: float = -math.inf) -> None:
    # Scanpath's rule for samples first, first + 1, ... of a path, the first
    # after t_before; the first bad one is named, a non-finite field first
    t = np.append(t_before, rows[:, 0])
    bad = first + np.flatnonzero(~np.isfinite(rows).all(axis=1))
    late = first + np.flatnonzero(~(t[1:] > t[:-1]))
    if bad.size and not (late.size and late[0] < bad[0]):
        raise DataError(f"scanpath sample {bad[0]} has a non-finite field")
    if late.size:
        raise DataError(f"scanpath timestamps must increase strictly at sample {late[0]}")


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
    holds the position are differentiated and blended, by retina._gradient_at:
    gradient's difference rule and _bilinear's blend, kept beside them in
    retina, so the result is bitwise the one the full-grid gradient gives,
    also when read as Python floats, as here.
    A position off the grid, NaN or infinite included, raises DomainError;
    overflow raises NumericalError.
    """
    x, y = float(pos[0]), float(pos[1])
    _check_inside(u, x, y)
    h = check_real("grid spacing h", h, 0, lo_open=True)
    check_grid("sample_gradient", u.values.shape, min_side=2)
    return _finite(_gradient_at(u.values, x, y, h), "sample_gradient")


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
    _check_inside(u, s.x, s.y)
    return FoaState(*_stepper(u.values, p, h)(s.x, s.y, s.vx, s.vy))


def _stepper(u: np.ndarray, p: FoaParams, h) -> Callable[..., tuple]:
    # foa_step without its position check, on (x, y, vx, vy) floats: h, the grid
    # and what a step reads are checked and looked up once, and u is read at
    # each step; a step folds the particle back onto the grid, so a start on
    # the grid needs no further check
    h = check_real("grid spacing h", h, 0, lo_open=True)
    check_grid("sample_gradient", u.shape, min_side=2)
    sign, dt, drag, policy = p.attraction_sign.value, p.dt, p.dissipation, p.boundary
    rows, cols = u.shape
    xmax, ymax = float(cols - 1), float(rows - 1)

    def step(x: float, y: float, vx: float, vy: float) -> tuple[float, float, float, float]:
        gx, gy = _gradient_at(u, x, y, h)
        vx = vx + dt * (-drag * vx + sign * gx)
        vy = vy + dt * (-drag * vy + sign * gy)
        step_x, step_y = dt * vx, dt * vy
        # written so a NaN step fails too
        if not (abs(step_x) <= xmax and abs(step_y) <= ymax):
            raise NumericalError(f"particle step ({step_x:g}, {step_y:g}) from ({x:g}, "
                                 f"{y:g}) exceeds the {cols}x{rows} grid")
        # the step is within one grid extent, so one fold per axis suffices
        x, vx = _fold(x + step_x, vx, xmax, policy)
        y, vy = _fold(y + step_y, vy, ymax, policy)
        return x, y, vx, vy

    return step


def energy(s: FoaState, u: Field2D, p: FoaParams) -> float:
    """Kinetic plus potential energy, 0.5|v|^2 - sign*u(a).

    Conserved by the continuum dynamics when dissipation is zero; its
    drift diagnoses integrator quality.  Overflow raises NumericalError.
    """
    _check_inside(u, s.x, s.y)
    return _finite(0.5 * (s.vx * s.vx + s.vy * s.vy)
                   - p.attraction_sign.value * _bilinear(u.values, s.x, s.y), "energy")


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
    flags = _SaccadeStream(speed_threshold, min_fixation).feed(path.rows, last=True)[1]
    return Scanpath._own(path.rows, flags)


class _SaccadeStream:
    """detect_saccades a block of rows at a time: feed returns the rows whose
    flags are settled, with their flags.  Until the last rows it holds back a
    trailing slow run after a saccade that spans less than min_fixation."""

    def __init__(self, speed_threshold: float, min_fixation: float):
        self.threshold = check_real("speed_threshold", speed_threshold, 0, lo_open=True)
        self.min_fixation = check_real("min_fixation", min_fixation, 0, lo_open=True)
        # held back rows, and whether a fast sample precedes them (or the next rows)
        self.held, self.after_fast = np.empty((0, 5)), False

    def feed(self, rows: np.ndarray, last: bool = False) -> tuple[np.ndarray, np.ndarray]:
        rows = np.concatenate((self.held, rows)) if len(self.held) else rows
        # math.hypot per sample (np.hypot differs from it in the last bit), on
        # Python floats: the same doubles as numpy scalars, without a scalar each
        speed = np.fromiter(map(math.hypot, *rows[:, 3:5].T.tolist()), np.float64, len(rows))
        flags = speed > self.threshold
        # runs of equal flags, [starts[k], stops[k]); a slow run after a fast
        # one that spans less than min_fixation turns saccadic if a fast run
        # follows it here, and is held back if the rows end first
        stops = np.append(np.flatnonzero(flags[1:] != flags[:-1]) + 1, len(flags))
        starts = np.append(0, stops[:-1])
        run_flags = flags[starts]
        brief = ~run_flags & (rows[stops - 1, 0] - rows[starts, 0] < self.min_fixation)
        brief[0] &= self.after_fast
        run_flags[:-1] |= brief[:-1]
        keep = starts[-1] if brief[-1] and not last else len(rows)
        self.held, self.after_fast = rows[keep:].copy(), bool(brief[-1] or flags[-1])
        return rows[:keep], np.repeat(run_flags, stops - starts)[:keep]
