"""Attention potential: elliptic solve, free-space oracle, temporal steppers.

The mass density sources a potential whose gradient steers the gaze.  Three
routes produce it: a relaxation solve of the discrete Poisson system, a
dense log-kernel sum (the free-space closed form, kept as a desk-scale
oracle), and explicit time stepping of the damped wave family whose
quiescent limit is the same Poisson system.  The stepper normalizes the
source by c^2 so heat, wave, and damped-wave modes share one steady state;
that makes the large-c limit directly comparable against the elliptic
solution, which convergence_in_c takes exactly on the sine modes.  The
relaxation splits the grid, padded to an odd row stride, into its red and
black nodes, two contiguous planes, and relaxes each colour on one span.
The 5-point stencil's arithmetic, on a span and on one node, is retina's.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    GridSizeError,
    ParameterError,
    check_grid,
    check_int,
    check_member,
    check_real,
)
from .retina import (Field2D, _finite, _lap_plus, _line_aligned, _neighbour_sum,
                     _node_residual, _shifted, _whole_lines, gradient)

__all__ = [
    "Mode",
    "TelegraphParams",
    "stable_dt",
    "PotentialState",
    "poisson_solve",
    "direct_potential",
    "evolve_potential",
    "convergence_in_c",
]

_MAX_DIRECT = 64  # direct_potential is O(N^2) over pixels; desk scale only
# convergence_in_c's cap on steps x speeds x nodes (a grid under 32x32 counts as 32x32):
# 100 times `converge --dt 0.05` at 64x64, where _stepped is still within 1e-10 of stepping
_MAX_NODE_STEPS = 10**9
# poisson_solve's defaults, read also by the poisson command's options
_SOLVE_H, _SOLVE_TOL, _SOLVE_MAX_ITERS = 1.0, 1e-8, 20000
_GATE_SWEEPS = 32  # poisson_solve's probe: sweeps one check of max|u| may clear at most


class Mode(Enum):
    """Temporal regularization family for the potential."""

    HEAT = "heat"
    WAVE = "wave"
    DAMPED_WAVE = "damped_wave"


def stable_dt(mode: Mode, gamma: float, lambda_drag: float, c: float,
              h: float) -> float:
    """Largest step the explicit stepper takes stably in the given mode.

    Heat mode obeys the explicit diffusion bound h^2*lambda/(4c^2); wave
    modes obey the 2D CFL bound h/(sqrt(2)*c_eff) with the effective front
    speed c_eff = c*max(1, 1/sqrt(gamma)) (inertia below 1 propagates
    faster than c, so the plain c-based bound alone would admit unstable
    steps).
    """
    c = check_real("c", c, 0, lo_open=True)
    h = check_real("h", h, 0, lo_open=True)
    if mode is Mode.HEAT:
        lam = check_real("heat mode lambda_drag", lambda_drag, 0, lo_open=True)
        # below c ~ 1e-162, c*c underflows to 0, and no step is unstable
        return h * h * lam / (4.0 * c * c) if c * c else math.inf
    gamma = check_real(f"{mode.value} mode gamma", gamma, 0, lo_open=True)
    return h / (math.sqrt(2.0) * c * max(1.0, 1.0 / math.sqrt(gamma)))


@dataclass(frozen=True)
class TelegraphParams:
    """Stepper settings for gamma*u_tt + lambda*u_t = c^2*(lap u + mu).

    Stability is checked at construction: dt may not exceed stable_dt.
    """

    gamma: float = 1.0
    lambda_drag: float = 1.0
    c: float = 1.0
    h: float = 1.0
    dt: float = 0.005
    mode: Mode = Mode.DAMPED_WAVE

    def __post_init__(self):
        for name in ("gamma", "lambda_drag"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0))
        for name in ("c", "h", "dt"):
            object.__setattr__(self, name,
                               check_real(name, getattr(self, name), 0, lo_open=True))
        check_member("mode", self.mode, Mode)
        if self.mode is Mode.HEAT and self.gamma != 0.0:
            raise ConfigError("heat mode requires gamma = 0")
        if self.mode is Mode.WAVE and self.lambda_drag != 0.0:
            raise ConfigError("wave mode requires lambda_drag = 0")
        bound = stable_dt(self.mode, self.gamma, self.lambda_drag, self.c, self.h)
        if not self.dt <= bound * (1.0 + 1e-12):  # a NaN bound (h*h and c*c inf) too
            raise ConfigError(
                f"{self.mode.value} stability violated: dt={self.dt:g} exceeds "
                f"the bound {bound:g}")
        # a step's factors, worked out once: dt*c^2 (over lambda in heat mode), gamma -+ drag*dt/2
        scale, half_drag = self.dt * self.c * self.c, 0.5 * self.lambda_drag * self.dt
        object.__setattr__(self, "_drive_scale",
                           scale / self.lambda_drag if self.mode is Mode.HEAT else scale)
        object.__setattr__(self, "_keep_lose", (self.gamma - half_drag, self.gamma + half_drag))


@dataclass(frozen=True, eq=False)
class PotentialState:
    """Potential and its time derivative, advanced together by the stepper."""

    u: Field2D
    u_t: Field2D

    def __post_init__(self):
        check_grid("PotentialState", self.u.values.shape, self.u_t.values.shape)

    @classmethod
    def zero(cls, width: int, height: int) -> "PotentialState":
        return cls(Field2D.zeros(width, height), Field2D.zeros(width, height))


def poisson_solve(mu: Field2D, h: float = _SOLVE_H, tol: float = _SOLVE_TOL,
                  max_iters: int = _SOLVE_MAX_ITERS, boundary: Field2D | None = None
                  ) -> Field2D:
    """Solve -lap u = mu on the interior by red-black over-relaxation.

    Parameters
    ----------
    mu : Field2D
        Source density; at least 3x3 so an interior exists.
    boundary : Field2D or None
        None imposes u = 0 on the edge ring; a Field2D supplies the edge
        ring values (its interior is ignored).
    tol : float
        Max-norm bound on the interior residual of -lap u - mu.

    The relaxation factor is the classical optimum 2/(1+sin(pi/max(w,h))).
    Red-black ordering makes the sweeps deterministic and vectorizable.  The
    grid is padded to even rows and the odd row stride wp = w|1, so its flat
    node p has colour p & 1 and is node p >> 1 of that colour's plane: the
    padded grid's reshape(-1, 2).T is the (red, black) pair.  u, h*h*mu and
    mu are held as such planes.  A node's four neighbours then lie at fixed
    offsets in the other plane, and each colour's residual and half-sweep
    are ufuncs in place on one contiguous span, from its first interior node
    to its last.  The edge and pad nodes inside a span are relaxed too, then
    restored, and count 0 in the residual.

    Each sweep takes the residual, then relaxes red and black.  A sweep
    between the first and the last may skip the residual over the grid: it
    first reads the residual at one probe node, the last full residual's
    argmax, with the span's IEEE operations in their order (retina's
    _node_residual, _lap_plus's twin), bit for bit that node's entry.  When
    that is at least tol, so is the max, and the solve goes on as the full
    residual would have it; otherwise the sweep takes the full residual and
    moves the probe to its argmax.  A probe cannot see an inf or a NaN
    elsewhere, so a gate proves there is none.
    With 1 < omega < 2 a half-sweep maps max|u| <= U to at most 3U + F/2,
    F = max|h*h*mu|, so 32 sweeps to at most 9^32 (U + F).  At most every
    _GATE_SWEEPS = 32 sweeps U is read, the edge ring and pads included: the
    next min(32, max_iters - sweep) sweeps are probed if 9^32 (U + F) < safe/2,
    safe = (float max - max|mu|) * min(h*h, 1) / 16, else none is and U is read
    again next sweep.  Then no update overflows, nor does a residual entry (at
    most 8U/h^2 + max|mu|), with room for rounding, so a skipped residual is
    finite and at least the probe.  The stop, the sweep count, u's bits and
    every ConvergenceError, its residual's bits included, are those of a solve
    that takes the full residual on every sweep.  Only U + F past about
    1e276 * min(h*h, 1) leaves sweeps unprobed that a 9^k bound would clear.

    Raises
    ------
    ConvergenceError carrying the final residual if max_iters sweeps do not
    reach tol, or at once when a sweep leaves a NaN or infinite residual.
    """
    check_grid("poisson_solve", mu.values.shape, min_side=3)
    tol = check_real("tol", tol, 0, lo_open=True)
    max_iters = check_int("max_iters", max_iters, 0)
    h = check_real("h", h, 0, lo_open=True)
    if boundary is not None:
        check_grid("poisson_solve boundary", mu.values.shape, boundary.values.shape)

    rows, w = mu.values.shape
    wp, q = w | 1, (w | 1) // 2
    padded = ((rows + 1) // 2 * 2, wp)
    # colour c's interior nodes k lie in [q+1, end[c]): hi - 1 is the last one's flat index
    hi = (rows - 2) * wp + w - 1
    lo, end, size = q + 1, ((hi + 1) // 2, hi // 2), padded[0] // 2 * wp
    # one allocation (three slowed set-up), whole lines a plane: node q+1 of
    # every plane, where the spans start, starts a line
    block = _line_aligned(6 * _whole_lines(size), lo).reshape(3, -1)
    u, f, m = block.reshape(3, 2, -1)[..., :size]
    grid = np.zeros(padded)
    colours, inner = grid.reshape(-1, 2).T, grid[1:rows - 1, 1:w - 1]
    if boundary is not None:
        grid[:rows, :w] = boundary.values
        inner[...] = 0.0  # the boundary's edge ring: its interior is ignored
    u[...] = colours
    grid[:rows, :w] = mu.values
    m[...] = colours
    grid.fill(1.0)  # then 1 marks the fixed nodes, edge and pad
    inner[...] = 0.0
    edges = [np.flatnonzero(colours[c][lo:e]) for c, e in enumerate(end)]  # in each span
    del grid, colours, inner  # a set-up grid, freed before the loop's buffers are made
    omega = 2.0 / (1.0 + math.sin(math.pi / max(w, rows)))
    black = _whole_lines(end[0] - lo)  # black's part of the residual starts a line, like red's
    nsum, res = _line_aligned(end[0] - lo), _line_aligned(black + end[1] - lo)
    # colour c's node k reads the other plane at k+d: up, down, left, right
    shifts = [(-q - 1, q, -1, 0), (-q, q + 1, 0, 1)]
    spans = [(u[c][lo:e], [u[1 - c][lo + d:e + d] for d in shifts[c]], f[c][lo:e], m[c][lo:e],
              nsum[:e - lo], res[c * black:][:e - lo], edge, u[c][lo:e][edge])
             for c, (e, edge) in enumerate(zip(end, edges))]

    hh, probe, until = h * h, None, 0  # sweeps before until are probed
    mu_max = max(float(mu.values.max()), -float(mu.values.min()))
    half_safe = (math.nextafter(math.inf, 0.0) - mu_max) * min(hh, 1.0) / 32.0  # safe / 2

    # an overflow (of h*h or of u), or h*h rounding to 0, leaves a NaN or inf residual for good
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(m, hh, out=f)
        f_max = max(float(block[1].max()), -float(block[1].min()))  # NaN if h*h overflowed
        for sweeps in range(max_iters + 1):
            if sweeps and sweeps >= until:  # the gate; a NaN or inf U opens no sweep
                u_max = max(float(block[0].max()), -float(block[0].min()))
                if 9.0 ** _GATE_SWEEPS * (u_max + f_max) < half_safe:
                    until = min(sweeps + _GATE_SWEEPS, max_iters)
            if sweeps >= until or not tol <= _node_residual(*probe, hh):
                for x, around, _, mx, ns, acc, edge, _ in spans:
                    _lap_plus(acc, _neighbour_sum(*around, out=ns), x, mx, h)
                    acc[edge] = 0.0  # the edge and pad nodes count 0
                p = int(np.argmax(np.abs(res, out=res)))  # the first NaN, if any
                residual = res.item(p)
                if residual < tol:
                    break
                if sweeps == max_iters or not math.isfinite(residual):
                    raise ConvergenceError(f"relaxation did not reach tol={tol:g} in {sweeps} "
                                           f"of at most {max_iters} sweeps", residual)
                c, k = (1, lo + p - black) if p >= black else (0, lo + p)
                probe = (u[c], k, u[1 - c], [k + d for d in shifts[c]], m[c])
            for x, around, fx, _, ns, _, edge, rim in spans:
                _neighbour_sum(*around, out=ns)
                np.multiply(np.add(ns, fx, out=ns), omega * 0.25, out=ns)
                np.add(np.multiply(x, 1.0 - omega, out=x), ns, out=x)
                x[edge] = rim
    del nsum, res, spans, ns, acc  # every view of the scratch, before the output grid is made
    grid = np.empty(padded)
    grid.reshape(-1, 2).T[...] = u
    return Field2D._own(grid[:rows, :w].copy(), "potential")


def direct_potential(mu: Field2D, h: float = 1.0) -> Field2D:
    """Dense log-kernel potential: the free-space closed form, evaluated exactly.

    u(x) = (1/2pi) * sum_y log(1/|x-y|) * mu(y) * h^2, with the singular
    y = x term replaced by the cell-averaged value
    (1/2pi) * (1.5 - log(h/2)) * mu(x) * h^2, so h/2 must not round to 0.
    Quadratic in pixel count: 64x64 at most.  Overflow raises NumericalError.
    """
    if mu.width > _MAX_DIRECT or mu.height > _MAX_DIRECT:
        raise GridSizeError(
            f"direct_potential is limited to {_MAX_DIRECT}x{_MAX_DIRECT}, "
            f"got {mu.width}x{mu.height}"
        )
    h = check_real("h", h, 0, lo_open=True)

    src = mu.values.reshape(-1)
    scale = h * h / (2.0 * math.pi)
    self_term = scale * (1.5 - math.log(check_real("h / 2", 0.5 * h, 0, lo_open=True)))

    out = np.empty(src.size)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        py, px = np.mgrid[0:mu.height, 0:mu.width].reshape(2, -1) * h
        for i in range(src.size):
            d = np.hypot(px - px[i], py - py[i])
            d[i] = 1.0  # placeholder; the self term is added separately
            out[i] = -scale * float(np.dot(np.log(d), src)) + self_term * src[i]
    return Field2D._own(out.reshape(mu.height, mu.width), "potential")


class _Workspace:
    """A potential stepped in place: evolve_potential's and simulate's state.

    u and u_t are (h, w) row-major copies, so the interior nodes lie in one
    contiguous flat span, from index w+1 up to, not including, (h-1)*w-1,
    and the four neighbours of a node sit -+w and -+1 away.  A step is
    retina's _lap_plus and the mode's update on that span, each ufunc once;
    the edge columns are stepped too, then restored, and u_t stays 0 on the
    edge ring.  The spans of u and u_t, and a stepper's scratch, start on
    64-byte lines.
    """

    __slots__ = ("u", "u_t", "_span", "_edges", "_ring")

    def __init__(self, state: PotentialState):
        h, w = state.u.values.shape
        lo, hi = w + 1, (h - 1) * w - 1
        u, ut = (_line_aligned(h * w, lo) for _ in range(2))
        self.u, self.u_t = u.reshape(h, w), ut.reshape(h, w)
        self.u[...] = state.u.values
        self.u_t[1:-1, 1:-1] = state.u_t.values[1:-1, 1:-1]
        self._span = (np.s_[lo:hi], ut[lo:hi], *_shifted(u, w, lo, hi))
        # columns 0 and w-1 of the inner rows, and the values u holds there
        self._edges = (self.u[1:-1, ::w - 1], self.u_t[1:-1, ::w - 1])
        self._ring = self._edges[0].copy()

    def stepper(self, mu: Field2D, p: TelegraphParams) -> Callable[[], None]:
        """A function that steps this workspace once on mu at p's settings and
        leaves the overflow check to its caller: no step makes a non-finite u
        finite.  It looks up what it reads once and holds two scratch spans and mu."""
        span, ut, centre, *around = self._span
        tmp, drive = (_line_aligned(ut.size) for _ in range(2))
        source, scale = mu.data[span], p._drive_scale
        u_edges, ut_edges = self._edges
        ring, h, heat, dt = self._ring, p.h, p.mode is Mode.HEAT, p.dt
        keep, lose = p._keep_lose

        def step() -> None:
            _lap_plus(drive, _neighbour_sum(*around, out=tmp), centre, source, h)
            np.multiply(drive, scale, out=drive)
            if heat:
                np.add(centre, drive, out=centre)
                ut.fill(0.0)
            else:
                np.multiply(ut, keep, out=ut)
                np.add(ut, drive, out=ut)
                np.divide(ut, lose, out=ut)
                np.multiply(ut, dt, out=tmp)
                np.add(centre, tmp, out=centre)
            u_edges[...], ut_edges[...] = ring, 0.0

        return step


def evolve_potential(state: PotentialState, mu: Field2D, p: TelegraphParams) -> PotentialState:
    """One explicit step of gamma*u_tt + lambda*u_t = c^2*(lap u + mu).

    Interior pixels advance; the edge ring holds its Dirichlet values and
    u_t is zero there.  Heat mode is forward Euler on the first-order
    equation with u_t reported as zero.  Wave modes advance (u, u_t) with
    the centered staggered scheme: u_t lives at half steps, the drag term
    is averaged across the step, and u then advances with the fresh u_t,
    which is algebraically the classic three-level centered scheme on u.
    The step is _Workspace.stepper's, bitwise the one retina.laplacian gives.

    state is copied into a new workspace, stepped once and returned as a
    new PotentialState; the input is not touched.  Stability was enforced
    when p was built, so a non-finite result can only be overflow: it
    raises NumericalError.
    """
    check_grid("evolve_potential", mu.values.shape, state.u.values.shape, min_side=3)
    ws = _Workspace(state)
    # the edge columns of a ring near float64's limit can overflow, and they
    # are discarded; an overflow that reaches u, or h*h rounding to 0, raises NumericalError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ws.stepper(mu, p)()
    return PotentialState(Field2D._own(ws.u, "potential"), Field2D._own(ws.u_t, "potential"))


def _l2_norm(dx: np.ndarray, dy: np.ndarray) -> float:
    """sqrt(sum dx^2 + sum dy^2); a sum that overflows raises NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        return _finite(math.sqrt(float(np.sum(dx ** 2) + np.sum(dy ** 2))), "convergence_in_c")


def _dst(a: np.ndarray, axis: int) -> np.ndarray:
    """Type-I DST of a along axis: out[k] = sum_n a[n]*sin(pi*(n+1)*(k+1)/(N+1)), which
    applied twice gives a*(N+1)/2; taken from the rfft of the odd extension of a."""
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    odd = np.zeros(a.shape[:-1] + (2 * n + 2,))  # 0, a, 0, -a reversed
    odd[..., 1:n + 1], odd[..., n + 2:] = a, -a[..., ::-1]
    return np.moveaxis(np.fft.rfft(odd)[..., 1:n + 1].imag * -0.5, -1, axis)


def _sine_modes(mu: Field2D, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(u*^, lam): the elliptic solve of mu and -lap's eigenvalues on the sine modes.

    With a zero edge ring, the sine modes diagonalise the 5-point Laplacian:
    -lap scales mode (j, k) by lam = 4/h^2*(sin^2(pi*j/(2(w-1))) + sin^2(pi*k/(2(h-1)))),
    so -lap u* = mu has the modes u*^ = mu^/lam, mu^ the interior DST of mu.
    An h whose 4/h^2 is not finite is overflow: NumericalError.
    """
    rows, w = mu.values.shape
    sy, sx = (np.sin(np.arange(1, n - 1) * (0.5 * math.pi / (n - 1))) ** 2 for n in (rows, w))
    # a lam that underflows to 0 leaves a non-finite u*: NumericalError where it is adopted
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = np.add.outer(sy, sx) * _finite(np.divide(4.0, h * h), "potential")
        return _dst(_dst(mu.values[1:-1, 1:-1], 0), 1) / lam, lam


def _from_modes(u_hat: np.ndarray) -> np.ndarray:
    """The grid whose interior has the sine modes u_hat and whose edge ring is zero."""
    rows, w = (n + 2 for n in u_hat.shape)
    return np.pad(_dst(_dst(u_hat, 0), 1) * (4.0 / ((rows - 1) * (w - 1))), 1)


def _stepped(ref_hat: np.ndarray, lam: np.ndarray, p: TelegraphParams,
             steps: int) -> np.ndarray:
    """u after `steps` of p's steps from a zero state, in closed form on the sine modes.

    ref_hat and lam are _sine_modes' for the source at p.h.  Each mode steps
    alone toward u*^.  A heat step scales u - u* by m = 1 - s*lam (s the drive
    scale); a wave step maps (u - u*, dt*u_t) by m = [[1 - k, a], [-k, a]],
    a = keep/lose and k = dt*s*lam/lose, entries O(1) at any stable dt.  So
    u = u*(1 - m^N) after N steps from rest, with m^N's top-left entry, by
    repeated squaring, in wave modes.
    """
    if p.mode is Mode.HEAT:
        decay = (1.0 - p._drive_scale * lam) ** steps
    else:
        keep, lose = p._keep_lose
        k, m = lam * (p.dt * p._drive_scale / lose), np.empty(lam.shape + (2, 2))
        m[..., 0, 0], m[..., 1, 0], m[..., :, 1] = 1.0 - k, -k, keep / lose
        decay = np.linalg.matrix_power(m, steps)[..., 0, 0]
    return _from_modes(ref_hat * (1.0 - decay))


def convergence_in_c(mu: Field2D, c_list, horizon: float,
                     base: TelegraphParams) -> list[float]:
    """Gradient error against the elliptic solution for each speed in c_list.

    Every speed evolves a zero state for the given horizon with the same
    dt, h, and mode taken from base (base.c is ignored); the error is
    |grad u_c - grad u_ref|_2 / |grad u_ref|_2 with u_ref the exact solve of
    the 5-point system -lap u = mu on the sine modes, under the same
    zero-Dirichlet boundary.  A zero reference gradient with a zero evolved
    gradient counts as error 0.  The list is returned as computed; callers
    assert monotonicity.  Each speed's u is the stepper's, taken in closed
    form on the same modes (_stepped), one speed at a time; it matches
    stepping to rounding, about 1e-10 relative at the most steps the budget
    allows.  Raises ConfigError, before any solve, when the speeds times the
    steps (horizon / dt) times the nodes (at least 32x32) exceed
    _MAX_NODE_STEPS, or when dt is unstable for any speed; DimensionError
    for a grid under 3x3; and NumericalError when a potential or a gradient
    norm overflows.
    """
    cs = [check_real("c_list entry", c, 0, lo_open=True) for c in c_list]
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ParameterError(f"c_list must be strictly ascending, got {c_list}")
    horizon = check_real("horizon", horizon, 0, lo_open=True)
    steps = horizon / base.dt  # a float: it can exceed any int round() makes
    work = steps * len(cs) * max(mu.values.size, 32 * 32)
    if not work <= _MAX_NODE_STEPS:  # NaN (no speeds, inf steps) too
        raise ConfigError(f"convergence_in_c would run {work:.3g} node steps ({len(cs)} "
                          f"speeds x {steps:.3g} steps on {mu.width}x{mu.height}), over "
                          f"the budget of {_MAX_NODE_STEPS:.0e}")

    params = [replace(base, c=c) for c in cs]  # every speed's stability, before the solve
    check_grid("convergence_in_c", mu.values.shape, min_side=3)
    steps, errors = max(1, round(steps)), []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        ref_hat, lam = _sine_modes(mu, base.h)
        g_ref = gradient(Field2D._own(_from_modes(ref_hat), "potential"), base.h)
        ref_norm = _l2_norm(g_ref.dx, g_ref.dy)
        for p in params:
            g = gradient(Field2D._own(_stepped(ref_hat, lam, p, steps), "potential"), base.h)
            diff = _l2_norm(g.dx - g_ref.dx, g.dy - g_ref.dy)
            errors.append(diff / ref_norm if ref_norm else (0.0 if diff == 0.0 else math.inf))
    return errors
