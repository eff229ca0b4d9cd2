"""Brightness-invariance optical flow and multi-channel feature conjugation.

The scalar constraint says a feature carried by the moving image keeps its
value along the motion: grad(phi) . v + phi_t = 0.  For brightness alone the
constraint is one equation for two unknowns per pixel, so the flow solver
regularizes with a smoothness term and relaxes the resulting stationarity
system by synchronous (Jacobi) sweeps.  Stacking several feature channels
makes the per-pixel system square or overdetermined; the group solver then
solves every pixel's 2x2 normal equations in one batched ``np.linalg.solve``
and reports the local rank from ``np.linalg.svd``, which tells where the
motion is fully determined (about 0.1 s for 3 channels at 256 x 256).

Every flow sweep runs on ``_Sweeps``: vx and vy sit back to back in one
edge-padded flat buffer, and a sweep is one kernel's in-place ufuncs over one
span of it, the data term only where it acts.  ``horn_schunck`` builds it and
its kernels once per solve and ``hs_jacobi_step`` once per call: the same bits.
A solve's sweep skips the full update norm when one probe node settles it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    NumericalError,
    ParameterError,
    SingularityError,
    check_grid,
    check_int,
    check_real,
)
from .retina import (Field2D, FlowField, VectorField2D, _finite, _line_aligned,
                     _neighbour_sum, _shifted, _whole_lines, gradient, temporal_derivative)

__all__ = [
    "HsParams",
    "FeatureChannel",
    "FeatureStack",
    "conjugation_residual",
    "horn_schunck",
    "hs_jacobi_step",
    "hs_objective",
    "feature_group_flow",
]


@dataclass(frozen=True)
class HsParams:
    """Smoothness-regularized flow solver settings.

    lam weights the smoothness term against the constraint term; tol is the
    max-norm of one synchronous update, in pixels/second.
    """

    lam: float = 0.01
    max_iters: int = 500
    tol: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "lam", check_real("lam", self.lam, 0, lo_open=True))
        object.__setattr__(self, "max_iters", check_int("max_iters", self.max_iters, 1))
        object.__setattr__(self, "tol", check_real("tol", self.tol, 0, lo_open=True))


@dataclass(frozen=True, eq=False)
class FeatureChannel:
    """One feature map's spatial gradient and temporal derivative."""

    grad: VectorField2D
    ddt: Field2D

    def __post_init__(self):
        check_grid("FeatureChannel", self.grad.dx.shape, self.ddt.values.shape)


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """m feature channels over one grid, plus a ridge weight for the solve."""

    channels: tuple
    ridge: float = 0.0

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) < 1:
            raise ParameterError("feature stack needs at least one channel")
        for i, ch in enumerate(channels):
            # channel 0 passes this type check before its shape is read
            if not isinstance(ch, FeatureChannel):
                raise DataError(f"FeatureStack channel {i} is not a FeatureChannel")
            check_grid(f"FeatureStack channel {i}", channels[0].grad.dx.shape,
                       ch.grad.dx.shape)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "ridge", check_real("ridge", self.ridge, 0))

    def __len__(self) -> int:
        return len(self.channels)


def conjugation_residual(grad: VectorField2D, ddt: Field2D, v: FlowField) -> Field2D:
    """Pointwise transport residual grad . v + ddt.

    Zero means the feature is conjugated with the flow: its value rides
    along v without changing.  Overflow raises NumericalError.
    """
    check_grid("conjugation_residual", grad.dx.shape, ddt.values.shape, v.dx.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        return Field2D._own(grad.dx * v.dx + grad.dy * v.dy + ddt.values,
                            "conjugation residual")


class _Sweeps:
    """One flow solve's buffers, allocated once, and its two sweep kernels.

    One block holds five planes shaped like an iterate, (2, h+2, w+2): the
    two iterates, (gx, gy), bt with lam + gx*gx + gy*gy, and scratch.  An
    iterate holds vx's and then vy's row-major grid, each with a one-node
    ghost ring; the two alternate as current and next.  ``kernel(k)`` is a
    closure over bare views that sweeps iterate k into iterate 1 - k.  It
    runs each ufunc once, with positional out, on the span from vx's first
    interior node to vy's last, where a node's neighbours sit -+(w+2) and
    -+1 away, but the data term only on the live band of both halves, the
    whole 64-byte lines from the first to the last node where gx, gy or bt
    is not +0 (-0.0 is live), and on the whole halves when that sweep's max
    is not finite.  Planes are whole lines long and the block is offset so
    that every span, the band's vx half and the denominator after bt start
    on a line: a sweep's speed does not hang on where the allocator put the
    block.  A kernel returns the exact max |next - now|, NaN from the first
    sweep whose update is NaN, unless ``probe`` = [span offset, bound] has a
    finite bound (only ``_relax`` sets one): the update at that offset, bit
    for bit the max's entry, is returned in the max's place when it is
    finite and at least bound.  Each max moves the probe to its argmax.
    """

    def __init__(self, vx, vy, gx, gy, bt, lam: float):
        h, w = np.shape(gx)
        wp, n = w + 2, (h + 2) * (w + 2)
        lo, hi = wp + 1, n + h * wp + w + 1
        m = hi - lo - n  # the vx half of the span; the vy half starts n later
        bits = np.zeros((h, wp), np.uint64)  # node i*wp + j of a half is interior node (i, j)
        for c in (gx, gy, bt):  # the band's ends by bit pattern, so -0.0 is live
            bits[:, :w] |= np.asarray(c, np.float64).view(np.uint64)
        live = np.flatnonzero(bits)
        first, end = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        band = slice(lo + first // 8 * 8, lo + min(_whole_lines(end), m))
        del bits, live, first, end  # before the block is allocated

        size = _whole_lines(2 * n)
        flats = _line_aligned(5 * size, lo).reshape(5, size)[:, :2 * n]
        grids = flats.reshape(5, 2, h + 2, wp)
        inner = grids[:, :, 1:-1, 1:-1]
        inner[0, 0], inner[0, 1], inner[2, 0], inner[2, 1], inner[3, 0] = vx, vy, gx, gy, bt
        # lam + gx*gx + gy*gy, in that order, once per solve, on bt's plane past bt's span
        den = flats[3, _whole_lines(m):][:n]
        gx, dw = flats[2, lo:lo + m], den[lo:lo + m]
        gy, ty = flats[2, n + lo:hi], flats[4, n + lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
            np.multiply(gx, gx, dw)
            np.add(dw, lam, dw)
            np.multiply(gy, gy, ty)
            _finite(np.add(dw, ty, dw), "flow")
        # flow[k] is iterate k's (vx, vy), as views
        self._stencil, self._flats, self.flow = (wp, lo, hi), flats, inner[:2]
        self._den, self._bands, self.probe = den, (band, slice(lo, lo + m)), [0, math.inf]
        # per iterate, the views its edge replication copies (see kernel)
        self._edges = [(f[::wp], f[1::wp], f[w + 1::wp], f[w::wp],
                        grid[:, ::h + 1], grid[:, 1:h + 1:max(h - 1, 1)])
                       for f, grid in zip(flats[:2], grids)]
        for dst, src in zip(self._edges[0][::2], self._edges[0][1::2]):
            dst[...] = src

    def kernel(self, k: int) -> Callable[[], float]:
        """A function that sweeps iterate k into iterate 1 - k in place and
        returns the update's max norm or its probe's; it looks up what it reads once."""
        wp, lo, hi = self._stencil
        flats, dens = self._flats, self._den
        now, up, down, left, right = _shifted(flats[k], wp, lo, hi)
        x, t, probe = flats[1 - k, lo:hi], flats[4, lo:hi], self.probe
        first, first_src, last, last_src, rows, row_src = self._edges[1 - k]
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        absolute, argmax, isfinite, inf = np.absolute, np.argmax, math.isfinite, math.inf

        def operands(s):
            # the data term's views on span s of both halves
            g, xs, ts = [flats[p].reshape(2, -1)[:, s] for p in (2, 1 - k, 4)]
            return [g, xs, ts, *g, *ts, flats[3, s], dens[s]]

        band_views, whole = operands(self._bands[0]), self._bands[1]

        def sweep() -> float:
            views = band_views
            while True:
                g, xs, ts, gx, gy, tx, ty, bt, den = views
                multiply(_neighbour_sum(up, down, left, right, x), 0.25, x)  # (ax, ay)
                # scale = (gx*ax + gy*ay + bt) / den, in t's vx half
                multiply(g, xs, ts)
                add(tx, ty, tx)
                add(tx, bt, tx)
                divide(tx, den, tx)
                # (ax - gx*scale, ay - gy*scale), gy first: scale is tx
                multiply(gy, tx, ty)
                multiply(gx, tx, tx)
                subtract(xs, ts, xs)
                # out-of-grid neighbours replicate the edge sample, the discrete
                # zero-Neumann closure for the flow: the ghost columns copy columns
                # 1 and w, then the ghost rows copy rows 1 and h, corners included
                first[...] = first_src
                last[...] = last_src
                rows[...] = row_src
                delta = abs(x.item(probe[0]) - now.item(probe[0]))  # bit for bit its t below
                if probe[1] <= delta < inf:  # then so is the max
                    return delta
                # every ghost in the span now copies an interior node of its
                # iterate, so the max over the span is the max over the interior
                probe[0] = p = argmax(absolute(subtract(x, now, t), t))
                delta = t.item(p)  # the max, or the first NaN
                if isfinite(delta) or views is not band_views:
                    return delta
                views = operands(whole)  # off the band an infinite mean stayed inf, not NaN

        return sweep


def hs_jacobi_step(vx: np.ndarray, vy: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                   bt: np.ndarray, lam: float, *, _ws: Callable[[], float] | None = None
                   ) -> tuple[np.ndarray, np.ndarray] | float:
    """One synchronous relaxation sweep of the stationarity system.

    Each pixel is replaced by the exact minimizer of its local model
    (constraint residual plus lam-weighted distance to the neighbor mean),
    which is the classic update v <- vbar - grad (grad . vbar + bt) / (lam + |grad|^2).

    The sweep runs on edge-padded float64 buffers (see ``_Sweeps``): the
    neighbor mean is a quarter of retina's neighbour sum, with out-of-grid
    neighbors replicating the edge sample, and the update is
    ``ax - gx * ((gx*ax + gy*ay + bt) / (lam + gx*gx + gy*gy))``, in that
    operand order.  The inputs are copied in and the new (vx, vy) is
    returned as two new arrays; overflow raises NumericalError.
    ``horn_schunck``'s sweeps pass ``_ws``, one of its solve's kernels, and
    nothing else is read: the call runs that kernel's sweep in place and
    returns the update's max norm, or in ``_relax`` a probed update >= tol.
    """
    if _ws is not None:
        return _ws()
    ws = _Sweeps(vx, vy, gx, gy, bt, lam)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        ws.kernel(0)()
    return _finite((ws.flow[1, 0].copy(), ws.flow[1, 1].copy()), "flow")


def _relax(ws: _Sweeps, max_iters: int, tol: float) -> tuple[int, float]:
    """Sweep ws until an update's max norm is below tol or NaN, or max_iters
    times; returns the sweeps run and the last norm, exact.  Sweep j runs
    kernel j & 1, so the flow ends in iterate sweeps & 1.  Each sweep is one
    call of ``hs_jacobi_step``, whose name the benchmark rebinds to count them.
    Sweeps between the first and the last are probed at bound tol, so a
    finite solve stops where the full norm stops it.  On overflow, a node
    next to a non-finite one turns non-finite in both halves where the data
    term runs (0 * inf is NaN; the divisor den is fixed and finite), so the
    stop can come up to about 2(w + h) sweeps later, as that spreads to the
    probe, and still on a non-finite iterate."""
    kernels, step, probe = (ws.kernel(0), ws.kernel(1)), hs_jacobi_step, ws.probe
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        for j in range(max_iters):
            probe[1] = tol if 0 < j < max_iters - 1 else math.inf
            delta = step(None, None, None, None, None, None, _ws=kernels[j & 1])
            if not delta >= tol:  # a NaN update never falls below tol
                break
    probe[1] = math.inf
    return j + 1, delta


def horn_schunck(b_prev: Field2D, b_next: Field2D, dt: float, p: HsParams) -> FlowField:
    """Smoothness-regularized flow between two frames, in pixels/second.

    The constraint gradient is the average of both frames' spatial
    gradients; the temporal term is the forward difference.  Sweeps, each
    one call of ``hs_jacobi_step``, stop when the max-norm of one update
    drops below p.tol or is NaN (NumericalError), or after p.max_iters; a
    finite flow runs on, however large (about 2e307 at dt 1e-308 on 64x64).
    """
    check_grid("horn_schunck", b_prev.values.shape, b_next.values.shape, min_side=3)
    dt = check_real("dt", dt, 0, lo_open=True)

    g_prev = gradient(b_prev)
    g_next = gradient(b_next)
    gx = 0.5 * (g_prev.dx + g_next.dx)
    gy = 0.5 * (g_prev.dy + g_next.dy)
    del g_prev, g_next
    bt = temporal_derivative(b_prev, b_next, dt).values
    ws = _Sweeps(0.0, 0.0, gx, gy, bt, p.lam)
    del gx, gy, bt  # the workspace holds padded copies

    vx, vy = ws.flow[_relax(ws, p.max_iters, p.tol)[0] & 1]
    return FlowField._own(vx.copy(), vy.copy(), "flow")


def hs_objective(b_grad: VectorField2D, b_t: Field2D, v: FlowField,
                 lam: float, h: float = 1.0) -> float:
    """Discrete flow energy: constraint term plus lam-weighted smoothness.

    The constraint term sums (grad . v + b_t)^2 over every pixel; the
    smoothness term sums |v_p - v_q|^2 over nearest-neighbor pixel pairs
    with weight lam/4, the per-edge share of the compact Laplacian the
    sweeps relax.  This is the one discretization the synchronous update
    descends monotonically; per-pixel gradient-square forms with full
    weight lam are not Lyapunov for it.  The total is scaled by h^2; a
    total that overflows raises NumericalError.
    """
    check_grid("hs_objective", b_grad.dx.shape, b_t.values.shape, v.dx.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
        data = b_grad.dx * v.dx + b_grad.dy * v.dy + b_t.values
        total = float(np.sum(data ** 2))
        for c in (v.dx, v.dy):
            total += (lam / 4.0) * float(np.sum((c[:, 1:] - c[:, :-1]) ** 2))
            total += (lam / 4.0) * float(np.sum((c[1:, :] - c[:-1, :]) ** 2))
    return _finite(total * h * h, "hs_objective")


def feature_group_flow(stack: FeatureStack) -> tuple[FlowField, Field2D]:
    """Per-pixel least-squares flow from m feature channels.

    Solves (G^T G + ridge I) v = -G^T phi_t at every pixel in one batched
    ``np.linalg.solve``, where G stacks the channel gradients.  Also returns
    the numerical rank of G per pixel (singular values from a batched
    ``np.linalg.svd`` of G above 1e-8 of the largest; the eigenvalues of
    G^T G cannot resolve one that small); rank 2 means the motion is fully
    pinned down locally, lower rank marks aperture-ambiguous pixels.  The
    SVD dominates the cost, about 0.1 s for 3 channels at 256 x 256.

    Raises
    ------
    SingularityError if ridge is zero and any pixel has rank < 2; the error
    names the first such pixel in row-major order.  NumericalError if a
    pixel's normal equations are singular in floating point, as when the
    ridge is negligible next to |G|^2.
    """
    if stack.ridge == 0 and len(stack) < 2:
        raise ParameterError("ridge=0 needs at least 2 channels for a determined solve")

    # G (h, w, m, 2), one row (gx, gy) per channel, and phi_t (h, w, m, 1)
    g = np.array([(ch.grad.dx, ch.grad.dy) for ch in stack.channels]).transpose(2, 3, 0, 1)
    ft = np.array([ch.ddt.values for ch in stack.channels]).transpose(1, 2, 0)[..., None]
    sv = np.linalg.svd(g, compute_uv=False)
    rank = np.count_nonzero(sv > 1e-8 * sv[..., :1], axis=-1).astype(np.float64)

    if stack.ridge == 0 and np.any(rank < 2):
        y, x = np.argwhere(rank < 2)[0]
        raise SingularityError("flow system is rank deficient", (int(x), int(y)))

    gt = np.swapaxes(g, -1, -2)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: NumericalError
            v = np.linalg.solve(gt @ g + stack.ridge * np.eye(2), -(gt @ ft))
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"flow normal equations are singular: {e}") from e
    return FlowField._own(v[..., 0, 0], v[..., 1, 0], "flow"), Field2D._own(rank, "rank")
