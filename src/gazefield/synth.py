"""Synthetic test scenes rendered to brightness frames.

Analytic blobs and flat fields used by the test suite and the `synth`
command line subcommand.  Each list-returning generator is list() of a
private one that has checked its arguments by frame 0, which the command
writes from one frame at a time.  Generation is the one place randomness is
allowed (optional pixel noise under an explicit seed); everything else in
the pipeline is deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, check_int, check_real, check_sigma
from .retina import Field2D, _bump

__all__ = [
    "blob_image",
    "two_blob_image",
    "black_frames",
    "static_frames",
    "moving_blob_frames",
    "add_noise",
]

# the blob defaults of every generator, read also by the synth command's flags
_BLOB_SIGMA, _BLOB_AMP = 3.0, 1.0
_MAX_SIZE = np.iinfo(np.intp).max  # a count or frame byte size past it is no numpy size


def _check_frame(width: int, height: int) -> None:
    check_int("width", width, 1)
    check_int("height", height, 1)
    if 8 * width * height > _MAX_SIZE:  # float64 values: numpy's "array is too big"
        raise ParameterError(f"a {width}x{height} frame needs 8 * width * height bytes, "
                             f"more than numpy's limit of {_MAX_SIZE}")


def blob_image(width: int, height: int, cx: float, cy: float,
               sigma: float = _BLOB_SIGMA, amp: float = _BLOB_AMP) -> Field2D:
    """Gaussian brightness bump, clipped to [0, 1]; sigma must pass check_sigma."""
    _check_frame(width, height)
    sigma, amp = check_sigma("sigma", sigma), check_real("amp", amp)
    return Field2D(np.clip(amp * _bump(width, height, cx, cy, sigma), 0.0, 1.0))


def two_blob_image(width: int, height: int, sigma: float = _BLOB_SIGMA,
                   amp: float = _BLOB_AMP) -> Field2D:
    """Two equal blobs at quarter and three-quarter width, mid height."""
    left = blob_image(width, height, width / 4.0, height / 2.0, sigma, amp)
    right = blob_image(width, height, 3.0 * width / 4.0, height / 2.0, sigma, amp)
    return Field2D(np.clip(left.values + right.values, 0.0, 1.0))


def black_frames(width: int, height: int, count: int) -> list[Field2D]:
    """All-zero brightness frames."""
    return list(_black(width, height, count))


def _black(width, height, count):
    _check_frame(width, height)
    return (Field2D.zeros(width, height) for _ in range(check_int("count", count, 2, _MAX_SIZE)))


def static_frames(image: Field2D, count: int) -> list[Field2D]:
    """The same image repeated."""
    return list(_static(image, count))


def _static(image, count):
    return (image for _ in range(check_int("count", count, 2, _MAX_SIZE)))


def moving_blob_frames(width: int, height: int, count: int,
                       start: tuple[float, float], velocity: tuple[float, float],
                       dt: float, sigma: float = _BLOB_SIGMA, amp: float = _BLOB_AMP
                       ) -> list[Field2D]:
    """A blob translating at constant velocity (pixels/s), one frame per dt."""
    return list(_moving_blob(width, height, count, start, velocity, dt, sigma, amp))


def _moving_blob(width, height, count, start, velocity, dt, sigma, amp):
    check_int("count", count, 2, _MAX_SIZE)
    dt = check_real("dt", dt, 0, lo_open=True)
    check_real("(count - 1) * dt", (count - 1) * dt)  # finite: no centre is inf * 0
    x0, y0 = (check_real("start", v) for v in start)
    vx, vy = (check_real("velocity", v) for v in velocity)
    return (blob_image(width, height, x0 + k * dt * vx, y0 + k * dt * vy, sigma, amp)
            for k in range(count))


def add_noise(frames: list[Field2D], amplitude: float, seed: int) -> list[Field2D]:
    """Independent uniform pixel noise in [0, amplitude], clipped to [0, 1]."""
    return list(_noisy(frames, amplitude, seed))


def _noisy(frames, amplitude, seed):
    check_real("amplitude", amplitude, 0)
    rng = np.random.default_rng(check_int("seed", seed, 0))  # numpy's seeds are nonnegative
    for f in frames:
        if amplitude:
            noisy = f.values + rng.uniform(0.0, amplitude, f.values.shape)
            f = Field2D(np.clip(noisy, 0.0, 1.0))
        yield f
