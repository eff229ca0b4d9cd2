"""Image containers and grid calculus for the simulation.

Fields live on a regular pixel grid with spacing ``h`` (default one pixel).
Arrays are float64, shape ``(height, width)``, indexed ``values[y, x]`` so a
position vector ``(x, y)`` addresses column x and row y.  Containers are
frozen: once constructed they hold a read-only array and never mutate, so
they can be shared freely between pipeline stages.

There are two ways into a field.  A caller's array goes through the
constructor (``Field2D(values)``), which copies it; a non-finite value there
is bad input, a DataError.  A result a function computed from fields that
were already validated is adopted with ``Field2D._own`` (or
``VectorField2D._own``), which freezes that fresh array in place without a
copy; the inputs were finite, so a non-finite value there is overflow, a
NumericalError.  ``_finite`` is that one check, also for computed numbers.

Derivatives use central differences in the interior and one-sided
differences on the boundary, np.gradient's rule: _gradient_rows on a block
of rows (gradient's whole grid, the frame loop's detail a row block at a
time), and its scalar twin _gradient_at on the 4 corners of one cell,
blended by _lerp (_bilinear's rule), for the particle.  Every 5-point
stencil, laplacian's and the solvers', is built from _neighbour_sum (one
summation order of a node's neighbours, taken as views; _shifted makes
them on a flat span) and _lap_plus (lap u + mu); _node_residual is their
scalar twin on one node, for the Poisson solve's probe.  A change to a
rounding order changes a rule and its twin together, here.
laplacian and the blur close their stencils by edge replication, so
constants have zero curvature; the solvers impose Dirichlet data instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionError,
    NumericalError,
    ParameterError,
    PgmParseError,
    check_grid,
    check_int,
    check_real,
)

__all__ = [
    "Field2D",
    "VectorField2D",
    "FlowField",
    "BlurSchedule",
    "load_pgm",
    "save_pgm",
    "gradient",
    "laplacian",
    "temporal_derivative",
    "gaussian_blur",
    "magnitude",
    "schedule_sigma",
]


def _as_readonly_2d(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must be a non-empty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _finite(value, what: str):
    """value (an array, a float, or a tuple of floats or equal-shape arrays) if all finite;
    computed from finite inputs, anything else is overflow: NumericalError naming what.
    An array is judged by its min and max, which a NaN or an inf reaches: no mask."""
    if isinstance(value, np.ndarray) and value.size:
        ok = math.isfinite(value.min()) and math.isfinite(value.max())
    else:
        ok = np.isfinite(value).all()
    if not ok:
        raise NumericalError(f"{what} overflow: result contains non-finite values")
    return value


@dataclass(frozen=True, eq=False)
class Field2D:
    """Scalar field on the pixel grid.  ``values[y, x]``, finite, read-only."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly_2d(self.values, "field"))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of length width*height."""
        return self.values.reshape(-1)

    @classmethod
    def zeros(cls, width: int, height: int) -> "Field2D":
        return cls(np.zeros((height, width)))

    @classmethod
    def _own(cls, values: np.ndarray, what: str) -> "Field2D":
        """Adopt an array computed from validated fields: frozen, not copied."""
        f = object.__new__(cls)
        object.__setattr__(f, "values", _finite(values, what))
        values.setflags(write=False)
        return f


@dataclass(frozen=True, eq=False)
class VectorField2D:
    """Vector field as two scalar components of equal shape (dx along x, dy along y)."""

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dx", _as_readonly_2d(self.dx, "dx component"))
        object.__setattr__(self, "dy", _as_readonly_2d(self.dy, "dy component"))
        check_grid("VectorField2D", self.dx.shape, self.dy.shape)

    @classmethod
    def _own(cls, dx: np.ndarray, dy: np.ndarray, what: str) -> "VectorField2D":
        """Adopt two equal-shape components as Field2D._own adopts one array."""
        vf = object.__new__(cls)
        for name, a in (("dx", dx), ("dy", dy)):
            object.__setattr__(vf, name, _finite(a, what))
            a.setflags(write=False)
        return vf


# A flow field is a VectorField2D whose components carry pixels/second.
FlowField = VectorField2D


@dataclass(frozen=True)
class BlurSchedule:
    """Coarse-to-fine smoothing schedule: sigma decays exponentially to a floor."""

    sigma0: float = 0.0
    decay_rate: float = 0.0
    floor: float = 0.0

    def __post_init__(self):
        for name in ("sigma0", "decay_rate", "floor"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))


def schedule_sigma(schedule: BlurSchedule, t: float) -> float:
    """Smoothing width at time t: max(floor, sigma0 * exp(-decay_rate * t))."""
    t = check_real("t", t, 0)
    return max(schedule.floor, schedule.sigma0 * math.exp(-schedule.decay_rate * t))


# ---------------------------------------------------------------------------
# PGM input
# ---------------------------------------------------------------------------

# one header integer: the whitespace and '#' comments before it, then its digits
_HEADER_INT = re.compile(rb"(?:[ \t\n\r\v\f]|#[^\n\r]*)*([0-9]*)")
# more significant digits than numpy's index type cannot size an array (nor pass int())
_MAX_DIGITS = len(str(np.iinfo(np.intp).max))
_PGM_MAXVAL = 255  # save_pgm's default, read also by the synth command's --maxval


def load_pgm(data: bytes) -> Field2D:
    """Parse a binary (P5) PGM payload into a Field2D scaled to [0, 1].

    Parameters
    ----------
    data : bytes
        Complete file contents.  Header comments (``#`` to end of line) are
        accepted.  maxval up to 65535; two-byte samples are big-endian.

    Returns
    -------
    Field2D with values in [0, 1] (sample / maxval).

    Raises
    ------
    PgmParseError naming the byte offset of the first problem.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise DataError("load_pgm expects bytes")
    if data[:2] != b"P5":
        raise PgmParseError("not a binary PGM, magic 'P5' missing", 0)

    header, pos = [], 2
    for what in ("width", "height", "maxval"):
        m = _HEADER_INT.match(data, pos)
        start, pos = m.span(1)
        if pos == start:
            raise PgmParseError(f"expected decimal {what}", start)
        digits = m[1].lstrip(b"0")
        if len(digits) > _MAX_DIGITS:
            raise PgmParseError(f"{what} has {len(digits)} significant digits, more "
                                f"than the {_MAX_DIGITS} a frame can use", start)
        header += [int(digits or b"0"), start]
    width, w_off, height, h_off, maxval, m_off = header
    if width < 1:
        raise PgmParseError(f"width must be >= 1, got {width}", w_off)
    if height < 1:
        raise PgmParseError(f"height must be >= 1, got {height}", h_off)
    if not 1 <= maxval <= 65535:
        raise PgmParseError(f"maxval must be in [1, 65535], got {maxval}", m_off)

    # exactly one whitespace byte separates maxval from the raster
    if not data[pos:pos + 1].isspace():  # ASCII whitespace, false when empty
        raise PgmParseError("expected single whitespace byte before raster", pos)
    pos += 1

    dtype = np.dtype(">u2" if maxval > 255 else "u1")  # big-endian past one byte
    expected = width * height * dtype.itemsize
    raster = data[pos:pos + expected]
    if len(raster) < expected:
        raise PgmParseError(
            f"raster truncated, expected {expected} bytes, got {len(raster)}", len(data)
        )
    # decoded in the one float64 frame it returns: finite by construction
    values = np.frombuffer(raster, dtype=dtype).reshape(height, width).astype(np.float64)
    return Field2D._own(np.divide(values, maxval, out=values), "load_pgm")


def save_pgm(f: Field2D, maxval: int = _PGM_MAXVAL) -> bytes:
    """Encode a field as a binary (P5) PGM payload.

    Values are clipped to [0, 1] and quantized to round(v * maxval); maxval
    above 255 selects two-byte big-endian samples.  load_pgm recovers the
    quantized values exactly.
    """
    check_int("maxval", maxval, 1, 65535)
    q = np.clip(f.values, 0.0, 1.0)  # scaled and rounded in place: one temporary, not three
    np.rint(np.multiply(q, maxval, out=q), out=q)
    dtype = ">u2" if maxval > 255 else "u1"
    header = f"P5\n{f.width} {f.height}\n{maxval}\n".encode("ascii")
    return header + q.astype(dtype).tobytes()


# ---------------------------------------------------------------------------
# Grid calculus
# ---------------------------------------------------------------------------

def gradient(f: Field2D, h: float = 1.0) -> VectorField2D:
    """Discrete gradient: central differences interior, one-sided on the boundary.

    This is ``np.gradient(values, h)``'s rule, bit for bit, from
    _gradient_rows; _gradient_at applies it at the corners of one cell.
    Requires width, height >= 2.  Overflow raises NumericalError.
    """
    h = check_real("grid spacing h", h, 0, lo_open=True)
    check_grid("gradient", f.values.shape, min_side=2)
    dx, dy = np.empty(f.values.shape), np.empty(f.values.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        _gradient_rows(f.values, h, 0, f.height, dx, dy)
    return VectorField2D._own(dx, dy, "gradient")


def _difference(a, b, spacing: float, out) -> None:
    np.divide(np.subtract(a, b, out=out), spacing, out=out)


def _gradient_rows(v: np.ndarray, h: float, lo: int, hi: int, dx, dy) -> None:
    """Rows lo:hi of gradient's components into dx and dy, C-contiguous and each
    (hi - lo, width): np.gradient's subtraction, then its division by 2h between
    two neighbours (central) or by h between a node and its one neighbour (edges)."""
    b, rows = v[lo:hi], v.shape[0]
    # the central x-differences on one flat span, which a ufunc runs unbuffered
    # (a 2-d strided one buffers all 3 operands); the two edge columns, whose
    # span entries wrap onto the next row, are then written one-sided
    flat = b.reshape(-1)
    _difference(flat[2:], flat[:-2], 2.0 * h, dx.reshape(-1)[1:-1])
    _difference(b[:, 1], b[:, 0], h, dx[:, 0])
    _difference(b[:, -1], b[:, -2], h, dx[:, -1])
    c0, c1 = max(lo, 1), min(hi, rows - 1)  # the rows with a neighbour above and below
    _difference(v[c0 + 1:c1 + 1], v[c0 - 1:c1 - 1], 2.0 * h, dy[c0 - lo:c1 - lo])
    if lo == 0:
        _difference(v[1], v[0], h, dy[0])
    if hi == rows:
        _difference(v[-1], v[-2], h, dy[-1])


def _lerp(c00, c01, c10, c11, fx: float, fy: float):
    return (1 - fy) * ((1 - fx) * c00 + fx * c01) + fy * ((1 - fx) * c10 + fx * c11)


def _bilinear(arr: np.ndarray, x: float, y: float) -> float:
    # callers guarantee 0 <= x <= w-1, 0 <= y <= h-1; the cell's corners are
    # read as Python floats, as _gradient_at reads its patch: the same doubles
    x0, y0 = min(int(x), arr.shape[1] - 2), min(int(y), arr.shape[0] - 2)
    (c00, c01), (c10, c11) = arr[y0:y0 + 2, x0:x0 + 2].tolist()
    return _lerp(c00, c01, c10, c11, x - x0, y - y0)


def _gradient_at(v: np.ndarray, x: float, y: float, h: float) -> tuple[float, float]:
    # _bilinear of gradient's components at (x, y), bit for bit in Python floats,
    # after foa.sample_gradient's checks: the at most 12 distinct nodes that the
    # cell's corners difference are read once, as a patch clipped to the grid
    rows, cols = v.shape
    x0, y0 = min(int(x), cols - 2), min(int(y), rows - 2)  # int floors x, y >= 0
    fx, fy = x - x0, y - y0
    # whether each corner column (row) has a neighbour on its outer side
    left, right, up, down = x0 > 0, x0 + 2 < cols, y0 > 0, y0 + 2 < rows
    p = v[y0 - up:y0 + 2 + down, x0 - left:x0 + 2 + right].tolist()
    a, b = int(left), int(left) + 1  # columns x0 and x0 + 1 of the patch
    above, r0, r1, below = p[0], p[up], p[up + 1], p[-1]
    # central differences span 2h, one-sided ones h, as np.gradient's do
    wl, wr = (2.0 * h if left else h), (2.0 * h if right else h)
    wu, wd = (2.0 * h if up else h), (2.0 * h if down else h)
    return (_lerp((r0[b] - r0[0]) / wl, (r0[-1] - r0[a]) / wr,
                  (r1[b] - r1[0]) / wl, (r1[-1] - r1[a]) / wr, fx, fy),
            _lerp((r1[a] - above[a]) / wu, (r1[b] - above[b]) / wu,
                  (below[a] - r0[a]) / wd, (below[b] - r0[b]) / wd, fx, fy))


def _shifted(flat: np.ndarray, stride: int, lo: int, hi: int) -> tuple:
    """flat[lo:hi] and its up, down, left and right neighbours, rows stride apart."""
    # from a list: a generator expression leaves ~80 B of cyclic garbage a call
    return tuple([flat[lo + d:hi + d] for d in (0, -stride, stride, -1, 1)])


def _whole_lines(size: int) -> int:
    """size rounded up to whole 64-byte lines of float64."""
    return -(-size // 8) * 8


def _line_aligned(size: int, lo: int = 0) -> np.ndarray:
    """size float64 zeros whose element lo starts on a 64-byte line: a ufunc
    writes a span that starts on a line up to twice as fast as one 8 bytes off."""
    block = np.zeros(size + 7)
    # not .ctypes.data: in a simulate run it left about 55 B alive per call (tracemalloc)
    skip = -(block.__array_interface__["data"][0] // 8 + lo) % 8
    return block[skip:skip + size]


# a row block's bytes: the frame stages take their scratch a block at a time
_BLOCK_BYTES = 32 * 1024


def _row_step(width: int) -> int:
    """Rows of float64 in one row block of a width-wide grid: at least one."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _neighbour_sum(up, down, left, right, out=None) -> np.ndarray:
    """((up + down) + left) + right: every stencil's one summation order."""
    out = np.add(up, down, out)
    return np.add(np.add(out, left, out), right, out)


def _lap_plus(out, nsum, centre, mu, h: float) -> np.ndarray:
    """(nsum - 4*centre) / (h*h) + mu into out, which is not nsum (None: a new array)."""
    out = np.multiply(centre, 4.0, out=out)
    np.subtract(nsum, out, out=out)
    if h * h != 1.0:  # x / 1.0 is x, bit for bit
        np.divide(out, h * h, out=out)
    return np.add(out, mu, out=out)


def _node_residual(centre, k: int, other, around, mass, hh: float) -> float:
    """|lap u + mu| at node k of centre's plane, its neighbours at the flat indices
    around in other's: the IEEE operations of _neighbour_sum and _lap_plus in
    their order on .item() reads, so bit for bit that node's residual entry."""
    up, down, left, right = map(other.item, around)
    r = (((up + down) + left) + right - centre.item(k) * 4.0) / hh  # x / 1.0 is x
    return abs(r + mass.item(k))


def laplacian(f: Field2D, h: float = 1.0) -> Field2D:
    """5-point Laplacian with edge-replicated ghost values on the boundary.

    Replication keeps constants curvature-free on every pixel.  Interior
    pixels see the plain compact stencil; the potential solvers only ever
    consume those.  Requires width, height >= 3.  Overflow raises
    NumericalError.
    """
    h = check_real("grid spacing h", h, 0, lo_open=True)
    check_grid("laplacian", f.values.shape, min_side=3)
    a = np.pad(f.values, 1, mode="edge")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        nsum = _neighbour_sum(a[:-2, 1:-1], a[2:, 1:-1], a[1:-1, :-2], a[1:-1, 2:])
        # x + -0.0 is x, bit for bit, -0.0 included
        return Field2D._own(_lap_plus(None, nsum, a[1:-1, 1:-1], -0.0, h), "laplacian")


def temporal_derivative(prev: Field2D, nxt: Field2D, dt: float) -> Field2D:
    """Forward-difference rate of change (nxt - prev) / dt; overflow raises NumericalError."""
    check_grid("temporal_derivative", prev.values.shape, nxt.values.shape)
    dt = check_real("dt", dt, 0, lo_open=True)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        return Field2D._own(_rate(prev.values, nxt.values, dt), "temporal derivative")


def _rate(prev: np.ndarray, nxt: np.ndarray, dt: float) -> np.ndarray:
    """(nxt - prev) / dt in one new array, unchecked, in the caller's overflow scope."""
    out = np.subtract(nxt, prev)
    return np.divide(out, dt, out=out)


def magnitude(vf: VectorField2D) -> Field2D:
    """Pointwise Euclidean norm of a vector field; overflow raises NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        return Field2D._own(np.hypot(vf.dx, vf.dy), "magnitude")


def _gradient_magnitude(f: Field2D, h: float) -> np.ndarray:
    """magnitude(gradient(f, h)).values, bit for bit, as its one whole-grid array:
    np.hypot of _gradient_rows' output, a block of _row_step rows at a time.
    A non-finite result runs magnitude(gradient(f, h)) to raise its error."""
    v = f.values
    out, step = np.empty(v.shape), min(_row_step(f.width), f.height)
    dx, dy = np.empty((step, f.width)), np.empty((step, f.width))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        for lo in range(0, f.height, step):
            n = min(step, f.height - lo)
            _gradient_rows(v, h, lo, lo + n, dx[:n], dy[:n])
            np.hypot(dx[:n], dy[:n], out=out[lo:lo + n])
    if not math.isfinite(out.max()):  # out >= 0 or NaN
        magnitude(gradient(f, h))  # "gradient overflow" or "magnitude overflow"
    return out


def _bump(width: int, height: int, cx: float, cy: float, sigma: float) -> np.ndarray:
    """The one Gaussian, exp(-((x - cx)^2 + (y - cy)^2) / (2*sigma*sigma)), on a
    height x width grid: the squared offsets summed, then _gauss.  0 where a square
    overflows or, off centre, where 2*sigma*sigma is subnormal."""
    xs, ys = np.arange(width, dtype=float) - cx, np.arange(height, dtype=float)[:, None] - cy
    with np.errstate(over="ignore"):  # the exponent may be -inf: G is 0 there
        return _gauss(np.add(np.square(xs, out=xs), np.square(ys, out=ys)), sigma)


def _gauss(sq: np.ndarray, sigma: float) -> np.ndarray:
    """In place on squared offsets sq: negated, divided by 2*sigma*sigma and
    exponentiated, in the caller's overflow scope (a blur's sigma >= 0.025 needs none)."""
    return np.exp(np.divide(np.negative(sq, out=sq), 2.0 * sigma * sigma, out=sq), out=sq)


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)  # _gauss directly: a 1-row _bump took 2.4x as long
    kernel = _gauss(np.square(np.arange(-radius, radius + 1.0)), sigma)
    return kernel / kernel.sum()


def gaussian_blur(f: Field2D, sigma: float) -> Field2D:
    """Separable Gaussian smoothing with edge replication.

    The kernel is truncated at radius ceil(3*sigma) and renormalized to sum
    to one, so constants are preserved exactly.  A sigma below 0.025 (0
    too) returns the input unchanged: its kernel is the centre tap alone.
    Smoothing never increases the max-norm of the discrete gradient: every
    output difference is a convex combination of input differences under
    edge replication.

    Raises ParameterError, before allocating anything, when the radius
    ceil(3*sigma) exceeds the larger grid side.  The taps sum to 1 within
    an ulp, so values near float64's limit can overflow: NumericalError.
    """
    sigma = check_real("sigma", sigma, 0)
    if sigma < 0.025:  # the side taps exp(-1/(2*sigma^2)) < exp(-800) underflow to 0
        return f
    side = max(f.width, f.height)
    # ceil(x) > side exactly when x > side, and 3*sigma may overflow to inf
    if 3.0 * sigma > side:
        raise ParameterError(f"sigma {sigma} needs a kernel radius ceil(3*sigma) "
                             f"above the larger grid side {side}")
    kernel = _gaussian_kernel(sigma)
    v, r, (h, w) = f.values, len(kernel) // 2, f.values.shape
    # edge replication by slices: rows padded by r columns a side, then the row
    # pass's result, summed into the middle of cols, padded by r rows a side
    rows = np.empty((h, w + 2 * r))
    rows[:, :r], rows[:, r:r + w], rows[:, r + w:] = v[:, :1], v, v[:, -1:]
    cols = _line_aligned((h + 2 * r) * w, r * w).reshape(h + 2 * r, w)
    mid, tmp = cols[r:r + h], _line_aligned(h * w).reshape(h, w)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        for k, c in enumerate(kernel):  # each tap in order, c * window bit for bit
            np.add(mid, np.multiply(rows[:, k:k + w], c, tmp), mid)
        del rows
        cols[:r], cols[r + h:] = cols[r], cols[r + h - 1]
        out = _line_aligned(h * w).reshape(h, w)
        for k, c in enumerate(kernel):
            np.add(out, np.multiply(cols[k:k + h], c, tmp), out)
    return Field2D._own(out, "blur")
