"""Exception hierarchy shared across the package.

Every error raised by library code derives from GazefieldError so callers
can catch one base class.  The CLI maps subclasses onto exit codes:
configuration problems exit 2, bad input data exits 3, numerical failures
exit 4.

Arguments are validated by one rule per kind: check_real and check_int
accept a finite real (or integral) number, not a bool, in the documented
range (numpy scalars pass), check_sigma a width with 2*sigma**2 in (0, inf)
and check_member a member of the setting's Enum; all raise ParameterError,
naming an integer of more than 20 digits by its digit count.  check_grid
raises DimensionError unless the grids one function combines share one
shape whose sides reach its minimum.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "GazefieldError",
    "ConfigError",
    "ParameterError",
    "DataError",
    "DimensionError",
    "PgmParseError",
    "DomainError",
    "GridSizeError",
    "NumericalError",
    "ConvergenceError",
    "SingularityError",
]


class GazefieldError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GazefieldError):
    """Invalid parameter bundle, config file entry, or unstable scheme setup."""


class ParameterError(ConfigError):
    """A single argument is out of its documented range."""


class DataError(GazefieldError):
    """Input data violates a contract (non-finite values, bad payload)."""


class DimensionError(DataError):
    """Field shapes do not match or a grid is too small for the stencil."""


class PgmParseError(DataError):
    """Malformed PGM payload.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DomainError(DataError):
    """A continuous position lies outside the field's domain."""


class GridSizeError(DataError):
    """Grid exceeds the documented size limit of a dense routine."""


class NumericalError(GazefieldError):
    """Numerical method failed to produce a usable result."""


class ConvergenceError(NumericalError):
    """Iterative solver stopped above tolerance.  Carries the final residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.6e})")
        self.residual = residual


class SingularityError(NumericalError):
    """Per-pixel system is rank deficient.  Carries the first offending pixel."""

    def __init__(self, message: str, pixel: tuple[int, int]):
        super().__init__(f"{message} at pixel (x={pixel[0]}, y={pixel[1]})")
        self.pixel = pixel


def check_real(name: str, v, lo: float | None = None, hi: float | None = None,
               lo_open: bool = False) -> float:
    """Return v as a float if it is a finite real in [lo, hi] (or (lo, hi]).

    A None bound is not checked.  Raises ParameterError otherwise.
    """
    # a plain float or int skips the slow abstract-class check and its type cache
    real = type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool))
    try:
        ok = (real and math.isfinite(v)
              and (lo is None or (v > lo if lo_open else v >= lo))
              and (hi is None or v <= hi))
    except OverflowError:  # an int too large for a float
        ok = False
    if ok:
        return float(v)
    bounds = ("" if lo is None else f" {'>' if lo_open else '>='} {lo}") \
        + ("" if hi is None else f" and <= {hi}")
    raise ParameterError(f"{name} must be a finite real{bounds}, got {_shown(v)}")


def check_sigma(name: str, v) -> float:
    """Return v as a float if it is a finite real > 0 whose 2*v**2 is in (0, inf)."""
    s = check_real(name, v, 0, lo_open=True)
    if not 0 < 2 * min(s, 1e154) ** 2 < math.inf:  # a Gaussian's divisor, inf past 1e154
        raise ParameterError(f"{name} must keep 2*{name}**2 in (0, inf), got {s!r}")
    return s


def check_int(name: str, v, lo: int, hi: int | None = None) -> int:
    """Return v as an int if it is an integer (not a bool) in [lo, hi]."""
    if (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and v >= lo and (hi is None or v <= hi)):
        return int(v)
    upper = "" if hi is None else f" and <= {hi}"
    raise ParameterError(f"{name} must be an integer >= {lo}{upper}, got {_shown(v)}")


def _shown(v) -> str:
    # repr(v), but an int past 20 digits by its digit count: 10**400 would fill the
    # line.  str() refuses an int past 4300 digits, so the count starts from
    # bit_length, at or below the true count, and steps up to it
    if type(v) is not int or -10**20 < v < 10**20:
        return repr(v)
    digits = int((abs(v).bit_length() - 1) * math.log10(2))
    while abs(v) >= 10**digits:
        digits += 1
    return f"an integer of {digits} digits"


def check_grid(what: str, shape: tuple, *others: tuple, min_side: int = 1) -> None:
    """Raise DimensionError, naming what and the grids as WxH, unless every
    (height, width) shape in others equals shape and both its sides reach min_side."""
    for other in others:
        if other != shape:
            raise DimensionError(f"{what}: grid {other[1]}x{other[0]} does not match "
                                 f"{shape[1]}x{shape[0]}")
    if shape[0] < min_side or shape[1] < min_side:
        raise DimensionError(f"{what} needs at least {min_side}x{min_side}, "
                             f"got {shape[1]}x{shape[0]}")


def check_member(name: str, v, kind: type) -> None:
    """Raise ParameterError unless v is a member of the Enum kind."""
    if not isinstance(v, kind):
        raise ParameterError(f"{name} must be a member of {kind.__name__}, got {v!r}")
