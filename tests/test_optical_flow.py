"""Flow solver, feature-group solve, and the transport residual.

Ground truth for the flow cases comes from synthetic generators: the frame
pair is built from a known displacement, so the generator itself is the
oracle.  Pointwise ops are checked against independent per-pixel loops.
"""

import math
import time
import warnings

import numpy as np
import pytest

from gazefield import (
    DimensionError,
    Field2D,
    NumericalError,
    ParameterError,
    SingularityError,
    VectorField2D,
    gradient,
    load_pgm,
    save_pgm,
    temporal_derivative,
)
from gazefield.optical_flow import (
    FeatureChannel,
    FeatureStack,
    HsParams,
    _relax,
    _Sweeps,
    conjugation_residual,
    feature_group_flow,
    horn_schunck,
    hs_jacobi_step,
    hs_objective,
)
from gazefield import synth


def blob_frame(n, cx, cy, s):
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * s * s))


def stripes_45(n, period, shift_x):
    # wrap-around diagonal pattern: shifting along the stripes is a no-op,
    # shifting horizontally advances the phase
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * (xs - shift_x - ys) / period)


def high_gradient_mask(frame_a, frame_b, margin=0, percentile=75):
    g = gradient(Field2D(0.5 * (frame_a + frame_b)))
    mag = np.hypot(g.dx, g.dy)
    keep = np.zeros_like(mag, dtype=bool)
    if margin:
        keep[margin:-margin, margin:-margin] = True
    else:
        keep[:, :] = True
    return (mag > np.percentile(mag[keep], percentile)) & keep


def hs_setup(a, b, dt):
    ga, gb = gradient(Field2D(a)), gradient(Field2D(b))
    gx = 0.5 * (ga.dx + gb.dx)
    gy = 0.5 * (ga.dy + gb.dy)
    bt = temporal_derivative(Field2D(a), Field2D(b), dt).values
    return gx, gy, bt


def padded_jacobi_step(vx, vy, gx, gy, bt, lam):
    # the sweep as first written: an edge-padded copy of each component,
    # up + down + left + right at its interior, then the pixelwise update
    def neighbour_mean(c):
        p = np.pad(c, 1, mode="edge")
        return 0.25 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])

    ax = neighbour_mean(vx)
    ay = neighbour_mean(vy)
    scale = (gx * ax + gy * ay + bt) / (lam + gx * gx + gy * gy)
    return ax - gx * scale, ay - gy * scale


def padded_horn_schunck(a, b, dt, p):
    """The solve as first written; returns vx, vy and each sweep's update."""
    gx, gy, bt = hs_setup(a, b, dt)
    vx = np.zeros_like(gx)
    vy = np.zeros_like(gy)
    deltas = []
    for _ in range(p.max_iters):
        nvx, nvy = padded_jacobi_step(vx, vy, gx, gy, bt, p.lam)
        deltas.append(max(np.abs(nvx - vx).max(), np.abs(nvy - vy).max()))
        vx, vy = nvx, nvy
        if deltas[-1] < p.tol:
            break
    return vx, vy, deltas


def reference_updates(a, b, dt, lam, sweeps):
    """The padded reference's first sweeps from zero: each sweep's update
    |next - now|, vx's then vy's nodes row-major (the order of the kernels'
    span, whose ghosts copy their neighbours), and each sweep's (vx, vy)."""
    gx, gy, bt = hs_setup(a, b, dt)
    vx, vy = np.zeros_like(gx), np.zeros_like(gy)
    updates, iterates = [], []
    for _ in range(sweeps):
        nvx, nvy = padded_jacobi_step(vx, vy, gx, gy, bt, lam)
        updates.append(np.concatenate([np.abs(nvx - vx).ravel(), np.abs(nvy - vy).ravel()]))
        vx, vy = nvx, nvy
        iterates.append((vx, vy))
    return updates, iterates


def flow_pair(shape, seed):
    # a blob moving 1 px along x and 0.5 px along y, plus texture noise
    rng = np.random.default_rng(seed)
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    s = max(h, w) / 6.0

    def blob(cx, cy):
        return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * s * s))

    a = blob(w / 2.0, h / 2.0) + 0.05 * rng.uniform(size=shape)
    b = blob(w / 2.0 + 1.0, h / 2.0 + 0.5) + 0.05 * rng.uniform(size=shape)
    return a, b


def flat_pair(name):
    """A frame pair on a flat background, quantized through PGM, whose gx, gy
    and bt are exactly +0 off a band of rows: the sweeps' data term runs
    on that band alone."""
    if name == "single-row":
        # row 5 flips from 1 to 0 on a background of 0.5, all exact at maxval 2:
        # bt is -1/dt on that row, and gy's halves cancel to +0 on rows 4 and 6
        a, b = np.full((2, 11, 9), 0.5)
        a[5], b[5] = 1.0, 0.0
        maxval = 2
    else:
        # a 6 px/s blob whose tails quantize to 0, away from or against an edge,
        # or a full-height bar, moving along x (transposed: x and y swap places)
        n = 32
        y = {"middle": 16.0, "top-edge": 1.0, "bottom-edge": 30.0, "full-height": 16.0,
             "identical": -1e3}[name]
        a, b = (f.values.copy() for f in synth.moving_blob_frames(
            n, n, 2, (8.0, y), (6.0, 0.0), 1.0 / 30.0, 1.5, 1.0))
        if name == "full-height":
            a, b = (np.repeat(f.max(axis=0, keepdims=True), n, axis=0) for f in (a, b))
        maxval = 65535
    return tuple(load_pgm(save_pgm(Field2D(f), maxval)).values for f in (a, b))


# the band: inner rows, rows from the first, rows to the last, every row, one
# row, and none (two identical black frames)
FLAT_PAIRS = ["middle", "top-edge", "bottom-edge", "full-height", "single-row", "identical"]


def frames(shape, seed):
    # shape is flow_pair's shape, or the name of a flat-background pair
    return flat_pair(shape) if isinstance(shape, str) else flow_pair(shape, seed)


def same_bits(x, y):
    # np.array_equal takes -0.0 for +0.0
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def early_stop_params(a, b, lam, cap):
    # a tol that the padded reference first meets well before the cap:
    # just above the smallest update among its first cap // 2 sweeps
    deltas = padded_horn_schunck(a, b, 1.0, HsParams(lam=lam, max_iters=cap // 2, tol=1e-300))[2]
    return HsParams(lam=lam, max_iters=cap, tol=float(np.nextafter(min(deltas), np.inf)))


# ---------------------------------------------------------------------------
# conjugation_residual
# ---------------------------------------------------------------------------

class TestConjugationResidual:
    def test_zero_flow_returns_ddt(self):
        rng = np.random.default_rng(31)
        grad = VectorField2D(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        ddt = Field2D(rng.standard_normal((4, 5)))
        zero = VectorField2D(np.zeros((4, 5)), np.zeros((4, 5)))
        res = conjugation_residual(grad, ddt, zero)
        np.testing.assert_array_equal(res.values, ddt.values)

    def test_linear_brightness_growth_illusion(self):
        # brightness ramp growing linearly in time is indistinguishable from
        # leftward motion: the transport residual of v = (-x/t, 0) vanishes
        n = 16
        t_mid, dt = 2.0, 0.5
        ys, xs = np.mgrid[0:n, 0:n].astype(float)
        b1 = (t_mid - dt / 2) * xs
        b2 = (t_mid + dt / 2) * xs
        gx, gy, bt = hs_setup(b1, b2, dt)
        v = VectorField2D(-xs / t_mid, np.zeros_like(xs))
        res = conjugation_residual(VectorField2D(gx, gy), Field2D(bt), v)
        assert np.abs(res.values[1:-1, 1:-1]).max() < 1e-10

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(33)
        gx = rng.standard_normal((3, 4))
        gy = rng.standard_normal((3, 4))
        dd = rng.standard_normal((3, 4))
        vx = rng.standard_normal((3, 4))
        vy = rng.standard_normal((3, 4))
        res = conjugation_residual(
            VectorField2D(gx, gy), Field2D(dd), VectorField2D(vx, vy)
        ).values
        for y in range(3):
            for x in range(4):
                want = gx[y, x] * vx[y, x] + gy[y, x] * vy[y, x] + dd[y, x]
                assert res[y, x] == pytest.approx(want, abs=1e-14)

    def test_dimension_mismatch(self):
        g = VectorField2D(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            conjugation_residual(g, Field2D.zeros(4, 3), VectorField2D(np.zeros((3, 3)), np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# horn_schunck
# ---------------------------------------------------------------------------

class TestHornSchunck:
    def test_identical_frames_zero_flow(self):
        rng = np.random.default_rng(41)
        f = Field2D(rng.uniform(0, 1, (12, 12)))
        v = horn_schunck(f, f, 0.04, HsParams())
        np.testing.assert_array_equal(v.dx, 0.0)
        np.testing.assert_array_equal(v.dy, 0.0)

    def test_translating_blob_recovers_speed(self):
        n = 64
        a = blob_frame(n, 31.5, 31.5, 4.0)
        b = blob_frame(n, 32.5, 31.5, 4.0)  # 1 px along +x
        p = HsParams(lam=0.01, max_iters=8000, tol=1e-7)
        v = horn_schunck(Field2D(a), Field2D(b), 1.0, p)
        mask = high_gradient_mask(a, b)
        mvx, mvy = v.dx[mask].mean(), v.dy[mask].mean()
        assert math.hypot(mvx - 1.0, mvy) < 0.2  # within 20% of (1, 0)

    def test_aperture_parallel_translation_null_flow(self):
        # shifting 45-degree stripes along their own direction changes
        # nothing, so any recovered speed is pure artifact
        n = 64
        a = stripes_45(n, 16.0, 0.0)
        ys, xs = np.mgrid[0:n, 0:n].astype(float)
        b = 0.5 + 0.5 * np.sin(2.0 * np.pi * ((xs + 1.0) - (ys + 1.0)) / 16.0)
        v = horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(lam=0.01, max_iters=2000))
        speed = np.hypot(v.dx, v.dy)
        translation_speed = math.sqrt(2.0)
        assert speed.mean() < 0.05 * translation_speed

    def test_time_reversal_negates_flow(self):
        rng = np.random.default_rng(47)
        a = rng.uniform(0, 1, (10, 10))
        b = rng.uniform(0, 1, (10, 10))
        p = HsParams(lam=0.1, max_iters=50, tol=1e-12)
        fwd = horn_schunck(Field2D(a), Field2D(b), 0.1, p)
        bwd = horn_schunck(Field2D(b), Field2D(a), 0.1, p)
        np.testing.assert_allclose(fwd.dx, -bwd.dx, atol=1e-14)
        np.testing.assert_allclose(fwd.dy, -bwd.dy, atol=1e-14)

    def test_returned_flow_reduces_objective(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            a = rng.uniform(0, 1, (16, 16))
            b = rng.uniform(0, 1, (16, 16))
            lam = 0.1
            gx, gy, bt = hs_setup(a, b, 1.0)
            v = horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(lam=lam, max_iters=200))
            grad = VectorField2D(gx, gy)
            zero = VectorField2D(np.zeros_like(gx), np.zeros_like(gy))
            j_v = hs_objective(grad, Field2D(bt), v, lam)
            j_0 = hs_objective(grad, Field2D(bt), zero, lam)
            assert j_v <= j_0 + 1e-12 * j_0

    def test_too_small_grid(self):
        with pytest.raises(DimensionError):
            horn_schunck(Field2D.zeros(2, 5), Field2D.zeros(2, 5), 0.1, HsParams())

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            HsParams(lam=0.0)
        with pytest.raises(ParameterError):
            HsParams(max_iters=0)
        with pytest.raises(ParameterError):
            horn_schunck(Field2D.zeros(4, 4), Field2D.zeros(4, 4), 0.0, HsParams())

    @pytest.mark.parametrize("kw, ok", [
        (dict(lam=np.float32(0.05)), True),
        (dict(max_iters=np.int64(20)), True),
        (dict(tol=np.float64(1e-3)), True),
        (dict(max_iters=True), False),
        (dict(max_iters=20.0), False),
    ])
    def test_params_scalar_rule(self, kw, ok):
        # a real (integer for max_iters) that is not a bool, finite, in range
        if ok:
            p = HsParams(**kw)
            assert all(getattr(p, name) == value for name, value in kw.items())
        else:
            with pytest.raises(ParameterError):
                HsParams(**kw)


def test_objective_monotone_along_sweeps():
    # the energy the sweeps minimize must not rise after the first iterate
    rng = np.random.default_rng(59)
    for case in range(12):
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        lam = float(rng.choice([0.02, 0.1, 1.0]))
        gx, gy, bt = hs_setup(a, b, 1.0)
        grad = VectorField2D(gx, gy)
        vx = np.zeros_like(gx)
        vy = np.zeros_like(gy)
        values = []
        for _ in range(60):
            vx, vy = hs_jacobi_step(vx, vy, gx, gy, bt, lam)
            values.append(hs_objective(grad, Field2D(bt), VectorField2D(vx, vy), lam))
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-12 * max(abs(prev), 1.0)


# ---------------------------------------------------------------------------
# the sweep kernel against the padded reference
# ---------------------------------------------------------------------------

@pytest.fixture()
def sweep_calls(monkeypatch):
    # the benchmark counts sweeps by rebinding this module-level name
    import gazefield.optical_flow as of
    calls = []
    original = of.hs_jacobi_step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(of, "hs_jacobi_step", counting)
    return calls


HS_SHAPES = [(3, 3), (3, 6), (7, 4), (33, 33), (64, 64), (3, 64), (64, 3), (5, 17)]
HS_CAP = 40


class TestSweepKernel:
    @pytest.mark.parametrize("shape", HS_SHAPES + FLAT_PAIRS)
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_horn_schunck_bitwise_matches_padded_reference(self, shape, lam):
        a, b = frames(shape, seed=61)
        # where gx = gy = 0, as for identical flat frames or a flip of one row
        # in place, the first update is 0, below any tol
        cap = HS_CAP if any(g.any() for g in hs_setup(a, b, 1.0)[:2]) else 1
        # transposed, the larger update moves from vx to vy
        for a, b in ((a, b), (a.T.copy(), b.T.copy())):
            # one sweep, the cap, and a tol that stops the sweeps early
            cases = [(HsParams(lam=lam, max_iters=1), range(1, 2)),
                     (HsParams(lam=lam, max_iters=HS_CAP, tol=1e-300), range(cap, cap + 1)),
                     (early_stop_params(a, b, lam, HS_CAP), range(1, HS_CAP // 2 + 1))]
            for p, sweep_range in cases:
                vx, vy, deltas = padded_horn_schunck(a, b, 1.0, p)
                assert len(deltas) in sweep_range
                v = horn_schunck(Field2D(a), Field2D(b), 1.0, p)
                assert same_bits(v.dx, vx) and same_bits(v.dy, vy), p

    @pytest.mark.parametrize("shape", HS_SHAPES + FLAT_PAIRS)
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_stops_at_the_reference_sweep_for_every_tol(self, shape, lam, sweep_calls):
        # the solve stops on the update's exact max norm; a tol just above
        # each of the reference's updates in turn, rising or falling, must stop
        # it at the same sweep with the same bits
        a, b = frames(shape, seed=73)
        for a, b in ((a, b), (a.T.copy(), b.T.copy())):
            gx, gy, bt = hs_setup(a, b, 1.0)
            vx, vy = np.zeros_like(gx), np.zeros_like(gy)
            iterates, deltas = [], []
            for _ in range(HS_CAP):
                nvx, nvy = padded_jacobi_step(vx, vy, gx, gy, bt, lam)
                deltas.append(max(np.abs(nvx - vx).max(), np.abs(nvy - vy).max()))
                vx, vy = nvx, nvy
                iterates.append((vx, vy))
            for k in range(HS_CAP):
                tol = float(np.nextafter(deltas[k], np.inf))
                stop = next(j for j, d in enumerate(deltas) if d < tol)
                sweep_calls.clear()
                v = horn_schunck(Field2D(a), Field2D(b), 1.0,
                                 HsParams(lam=lam, max_iters=HS_CAP, tol=tol))
                assert len(sweep_calls) == stop + 1, (k, tol)
                want_x, want_y = iterates[stop]
                assert same_bits(v.dx, want_x) and same_bits(v.dy, want_y), (k, tol)

    @pytest.mark.parametrize("shape", HS_SHAPES)
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_delta_is_the_exact_update_max(self, shape, lam):
        # on every sweep, not only once it falls below tol
        a, b = flow_pair(shape, seed=79)
        for a, b in ((a, b), (a.T.copy(), b.T.copy())):
            gx, gy, bt = hs_setup(a, b, 1.0)
            vx, vy = np.zeros_like(gx), np.zeros_like(gy)
            ws = _Sweeps(0.0, 0.0, gx, gy, bt, lam)
            kernels = ws.kernel(0), ws.kernel(1)
            for k in range(HS_CAP):
                nvx, nvy = padded_jacobi_step(vx, vy, gx, gy, bt, lam)
                want = max(np.abs(nvx - vx).max(), np.abs(nvy - vy).max())
                vx, vy = nvx, nvy
                assert kernels[k & 1]() == want, k

    @pytest.mark.parametrize("rows", [(0, 0), (0, 1), (5, 6), (10, 11), (0, 4), (7, 11), (0, 11)])
    def test_band_sweeps_match_the_reference_from_any_flow(self, rows):
        # a random flow on a grid whose gx, gy and bt vanish off a run of rows:
        # none, the first, one inside, the last, from the first, to the last, all
        rng = np.random.default_rng(103)
        vx, vy, gx, gy, bt = rng.standard_normal((5, 11, 9))
        for c in (gx, gy, bt):
            c[:rows[0]] = c[rows[1]:] = 0.0
        ws = _Sweeps(vx, vy, gx, gy, bt, 0.1)
        kernels = ws.kernel(0), ws.kernel(1)
        for k in range(HS_CAP):
            nvx, nvy = padded_jacobi_step(vx, vy, gx, gy, bt, 0.1)
            want = max(np.abs(nvx - vx).max(), np.abs(nvy - vy).max())
            vx, vy = nvx, nvy
            assert kernels[k & 1]() == want, k
            got_x, got_y = ws.flow[(k + 1) & 1]
            assert same_bits(got_x, vx) and same_bits(got_y, vy), k

    @pytest.mark.parametrize("shape", HS_SHAPES + [(1, 1), (1, 5), (2, 2)])
    def test_sweep_operands_start_on_cache_lines(self, shape, monkeypatch):
        # whatever address the block gets, the spans of both iterates, g and
        # the scratch, and bt and den start on a 64-byte line, and so do their
        # vx halves on the live band; the vy halves sit (h+2)(w+2) nodes on and
        # the neighbours -+1 and -+(w+2) away, as the grid fixes them
        import gazefield.optical_flow as of
        starts = []
        kernel = of._Sweeps.kernel

        def recording(ws, k):
            _, lo, hi = ws._stencil
            starts.append([a.ctypes.data for span in (ws._band, slice(lo, hi))
                           for a in (*ws._flats[:, span], ws._den[span])])
            return kernel(ws, k)

        monkeypatch.setattr(of._Sweeps, "kernel", recording)
        rng = np.random.default_rng(83)
        vx, vy, gx, gy, bt = rng.standard_normal((5,) + shape)
        for c in (gx, gy, bt):  # the live band starts mid-grid
            c.reshape(-1)[:c.size // 2] = 0.0
        hs_jacobi_step(vx, vy, gx, gy, bt, 0.1)
        kernels = 1
        if min(shape) >= 3:  # horn_schunck's smallest grid
            a, b = flow_pair(shape, seed=83)
            horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(max_iters=3, tol=1e-300))
            kernels += 2
        assert len(starts) == kernels
        for addresses in starts:
            assert [a % 64 for a in addresses] == [0] * len(addresses)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (2, 2), (3, 3), (5, 17)])
    def test_ghost_rings_replicate_the_edges_after_every_sweep(self, shape):
        # a kernel writes one iterate and leaves the other as it was, so both
        # rings must copy their interiors' edges, corners included
        rng = np.random.default_rng(89)
        vx, vy, gx, gy, bt = rng.standard_normal((5,) + shape)
        ws = _Sweeps(vx, vy, gx, gy, bt, 0.1)
        grids = ws._flats[:2].reshape((2, 2) + tuple(n + 2 for n in shape))
        kernels = ws.kernel(0), ws.kernel(1)
        for k in range(6):
            kernels[k & 1]()
            for grid in grids:
                want = np.pad(grid[:, 1:-1, 1:-1], ((0, 0), (1, 1), (1, 1)), mode="edge")
                assert np.array_equal(grid, want), k

    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_result_iterate_follows_the_sweep_parity(self, lam):
        # the flow ends in iterate sweeps & 1: one to four sweeps, and a tol
        # that stops the sweeps on an odd sweep past the first
        a, b = flow_pair((7, 4), seed=97)
        cases = [(HsParams(lam=lam, max_iters=k, tol=1e-300), k) for k in (1, 2, 3, 4)]
        deltas = padded_horn_schunck(a, b, 1.0, cases[-1][0])[2]
        # just above the third update, which is below the first two
        assert deltas[2] < min(deltas[:2])
        cases.append((HsParams(lam=lam, max_iters=HS_CAP,
                               tol=float(np.nextafter(deltas[2], np.inf))), 3))
        for p, sweeps in cases:
            vx, vy, deltas = padded_horn_schunck(a, b, 1.0, p)
            assert len(deltas) == sweeps
            v = horn_schunck(Field2D(a), Field2D(b), 1.0, p)
            assert np.array_equal(v.dx, vx) and np.array_equal(v.dy, vy), p
            # the loop reports the sweeps it ran and the last update's norm
            ws = _Sweeps(0.0, 0.0, *hs_setup(a, b, 1.0), lam)
            assert _relax(ws, p.max_iters, p.tol) == (sweeps, deltas[-1])

    @pytest.mark.parametrize("which", range(3))
    def test_negative_zero_coefficients_are_live(self, which):
        # a -0.0 in gx, gy or bt is live: there the data term turns a mean of
        # -0.0 into +0.0 in vx, vy or both, where off the band it stays -0.0
        shape = (6, 7)
        vx, vy = np.full((2,) + shape, -0.0)
        coefficients = np.zeros((3,) + shape)
        coefficients[which, 3, 4] = -0.0
        want = padded_jacobi_step(vx, vy, *coefficients, 0.1)
        assert not all(np.signbit(w[3, 4]) for w in want)
        got = hs_jacobi_step(vx, vy, *coefficients, 0.1)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    def test_overflowing_mean_off_the_band_stops_within_two_sweeps(self, monkeypatch,
                                                                   sweep_calls):
        # a flat region's neighbour sums of 1.5e308 overflow: the reference's
        # data term makes the means NaN, where off the band they stay inf, so
        # the first norm is inf and the second NaN, on a non-finite iterate
        import gazefield.optical_flow as of
        shape = (6, 7)
        vx, vy, gx, gy, bt = np.zeros((5,) + shape)
        vx[...] = vy[...] = 1.5e308
        with np.errstate(over="ignore", invalid="ignore"):
            want = padded_jacobi_step(vx, vy, gx, gy, bt, 0.1)
        ws = _Sweeps(vx, vy, gx, gy, bt, 0.1)
        sweeps, delta = _relax(ws, 10, 1e-4)
        assert sweeps <= 2 and math.isnan(delta)
        assert not any(np.isfinite(c).any() for c in ws.flow[sweeps & 1])
        assert all(np.isnan(w).all() for w in want)
        with pytest.raises(NumericalError, match="flow overflow"):
            hs_jacobi_step(vx, vy, gx, gy, bt, 0.1)
        # horn_schunck starts from a zero flow: start it from this one instead,
        # on two flat frames, whose gx, gy and bt are all +0
        monkeypatch.setattr(of, "_Sweeps", lambda _vx, _vy, *rest: _Sweeps(vx, vy, *rest))
        flat = Field2D(np.full(shape, 0.5))
        sweep_calls.clear()
        with pytest.raises(NumericalError, match="flow overflow"):
            horn_schunck(flat, flat, 1.0, HsParams(lam=0.1))
        assert len(sweep_calls) == sweeps

    def test_sweeps_allocate_nothing(self):
        # a 500-sweep solve peaks where a one-sweep solve does, and so do its
        # sweeps alone: the solve's peak, while its set-up arrays live, would
        # hide tens of KB kept by the sweeps.  The first call of each,
        # unmeasured, fills whatever numpy caches on first use
        import tracemalloc
        a, b = flow_pair((64, 64), seed=101)
        fa, fb = Field2D(a), Field2D(b)
        ws = _Sweeps(0.0, 0.0, *hs_setup(a, b, 1.0), 0.01)

        def peak(run):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            solves = [peak(lambda: horn_schunck(fa, fb, 1.0, HsParams(max_iters=cap, tol=1e-300)))
                      for cap in (1, 1, 500)]
            sweeps = [peak(lambda: _relax(ws, cap, 1e-300)) for cap in (1, 1, 500)]
        finally:
            tracemalloc.stop()
        assert abs(solves[2] - solves[1]) <= 1024, solves
        assert abs(sweeps[2] - sweeps[1]) <= 1024, sweeps

    def test_nan_update_stops_after_one_sweep(self, sweep_calls):
        # the synth command's 32x32 moving pair at frame_dt 5e-309: bt is finite,
        # the first update is NaN, and a NaN delta never fell below tol, so all
        # max_iters sweeps ran before the flow was refused
        a, b = (load_pgm(save_pgm(f, 65535)) for f in synth.moving_blob_frames(
            32, 32, 2, (8.0, 16.0), (12.0, 0.0), 1.0 / 30.0))
        with pytest.raises(NumericalError):
            horn_schunck(a, b, 5e-309, HsParams(max_iters=5000))
        assert len(sweep_calls) == 1

    @pytest.mark.parametrize("shape", [(7, 4), (33, 33), (64, 3), "middle", "full-height"])
    @pytest.mark.parametrize("lam", [0.01, 1.0])
    def test_probe_moves_when_its_update_falls_below_tol(self, shape, lam, sweep_calls):
        # the probe starts at sweep 0's argmax node; once that node's update
        # falls below tol while the max stays above it, the sweep must take
        # the full norm, go on and move the probe
        a, b = frames(shape, seed=61)
        updates, iterates = reference_updates(a, b, 1.0, lam, HS_CAP)
        deltas = [u.max() for u in updates]
        tol = float(np.nextafter(deltas[HS_CAP // 2], np.inf))
        stop = next(j for j, d in enumerate(deltas) if d < tol)
        probe = np.argmax(updates[0])
        assert any(updates[j][probe] < tol for j in range(1, stop))
        v = horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(lam=lam, max_iters=HS_CAP, tol=tol))
        assert len(sweep_calls) == stop + 1
        assert same_bits(v.dx, iterates[stop][0]) and same_bits(v.dy, iterates[stop][1])

    @pytest.mark.parametrize("shape", HS_SHAPES + ["middle", "full-height"])
    def test_capped_relax_returns_the_exact_last_update_norm(self, shape):
        # at tol 1e-300 the probe proves every sweep between the first and the
        # last goes on; the last takes the full norm, below the probe's update
        a, b = frames(shape, seed=61)
        updates, iterates = reference_updates(a, b, 1.0, 0.1, HS_CAP)
        assert updates[-1][np.argmax(updates[0])] < updates[-1].max()
        for cap in (2, 3, HS_CAP):
            ws = _Sweeps(0.0, 0.0, *hs_setup(a, b, 1.0), 0.1)
            assert _relax(ws, cap, 1e-300) == (cap, updates[cap - 1].max())
            got_x, got_y = ws.flow[cap & 1]
            assert same_bits(got_x, iterates[cap - 1][0]) and same_bits(got_y, iterates[cap - 1][1])

    @pytest.mark.parametrize("shape, lam, dt", [((64, 64), 0.1, 1.5e-308),
                                                ((33, 33), 1.0, 1e-308),
                                                ((5, 17), 0.1, 1.5e-308)])
    def test_overflow_off_the_probe_ends_in_numerical_error(self, shape, lam, dt, sweep_calls):
        # the reference's updates overflow on a sweep past the first, and not
        # at sweep 0's argmax node, the probe: the sweeps go on until the
        # non-finite nodes spread to it, then stop on a non-finite flow
        a, b = flow_pair(shape, seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            updates, iterates = reference_updates(a, b, dt, lam, 200)
        first = next(j for j, u in enumerate(updates) if not np.isfinite(u).all())
        assert first > 0 and np.isfinite(updates[first][np.argmax(updates[0])])
        assert not all(np.isfinite(c).all() for c in iterates[-1])
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="flow overflow"):
            horn_schunck(Field2D(a), Field2D(b), dt, HsParams(lam=lam, max_iters=10**8))
        assert time.perf_counter() - start < 1.0
        h, w = shape
        assert first + 1 < len(sweep_calls) <= first + 1 + 2 * (h + w)

    @pytest.mark.parametrize("shape", HS_SHAPES + [(1, 1), (1, 5), (2, 2)])
    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_public_step_bitwise_matches_padded_reference(self, shape, lam):
        rng = np.random.default_rng(67)
        vx, vy, gx, gy = rng.standard_normal((4,) + shape)
        bt = rng.uniform(-2.0, 2.0, shape)
        inputs = [c.copy() for c in (vx, vy, gx, gy, bt)]
        want = padded_jacobi_step(vx, vy, gx, gy, bt, lam)
        got = hs_jacobi_step(vx, vy, gx, gy, bt, lam)
        for g, w in zip(got, want):
            assert g.shape == shape and np.array_equal(g, w)
        # the inputs are read, never written
        for before, after in zip(inputs, (vx, vy, gx, gy, bt)):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize("shape", [(3, 6), (33, 33)])
    def test_one_hs_jacobi_step_call_per_sweep(self, shape, sweep_calls):
        a, b = flow_pair(shape, seed=71)
        horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(lam=0.1, max_iters=HS_CAP, tol=1e-300))
        assert len(sweep_calls) == HS_CAP
        sweep_calls.clear()
        p = early_stop_params(a, b, 0.1, HS_CAP)
        stopped_at = len(padded_horn_schunck(a, b, 1.0, p)[2])
        horn_schunck(Field2D(a), Field2D(b), 1.0, p)
        assert len(sweep_calls) == stopped_at <= HS_CAP // 2


def test_barbers_pole_normal_flow():
    # horizontal translation of oblique stripes reads as motion along the
    # stripe normal; the edge flow direction locks to the normal
    n = 64
    period = 16.0
    a = stripes_45(n, period, 0.0)
    b = stripes_45(n, period, 1.0)
    v = horn_schunck(Field2D(a), Field2D(b), 1.0, HsParams(lam=0.01, max_iters=3000, tol=1e-7))
    mask = high_gradient_mask(a, b, margin=3)
    vx, vy = v.dx[mask], v.dy[mask]
    nx, ny = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)

    mvx, mvy = vx.mean(), vy.mean()
    mean_angle = math.degrees(
        math.acos(abs(mvx * nx + mvy * ny) / math.hypot(mvx, mvy))
    )
    assert mean_angle < 10.0
    per_pixel = np.degrees(
        np.arccos(np.clip(np.abs(vx * nx + vy * ny) / np.hypot(vx, vy), 0.0, 1.0))
    )
    assert np.median(per_pixel) < 10.0
    # normal-flow magnitude: projection of (1, 0) onto the stripe normal
    np.testing.assert_allclose([mvx, mvy], [0.5, -0.5], rtol=0.1)


# ---------------------------------------------------------------------------
# feature_group_flow
# ---------------------------------------------------------------------------

def stack_from_arrays(grads, ddts, ridge=0.0):
    channels = tuple(
        FeatureChannel(VectorField2D(gx, gy), Field2D(dd))
        for (gx, gy), dd in zip(grads, ddts)
    )
    return FeatureStack(channels, ridge)


class TestFeatureGroupFlow:
    def test_zero_gradients_ridge_one(self):
        z = np.zeros((4, 4))
        stack = stack_from_arrays([(z, z)], [z], ridge=1.0)
        v, rank = feature_group_flow(stack)
        np.testing.assert_array_equal(v.dx, 0.0)
        np.testing.assert_array_equal(v.dy, 0.0)
        np.testing.assert_array_equal(rank.values, 0.0)

    def test_single_channel_ridge_closed_form(self):
        # G = (1, 0), phi_t = -2: normal equations give v = (2/(1+eps), 0)
        ones = np.ones((3, 3))
        zeros = np.zeros((3, 3))
        for eps in (0.5, 1e-3):
            stack = stack_from_arrays([(ones, zeros)], [-2.0 * ones], ridge=eps)
            v, rank = feature_group_flow(stack)
            np.testing.assert_allclose(v.dx, 2.0 / (1.0 + eps), atol=1e-14)
            np.testing.assert_allclose(v.dy, 0.0, atol=1e-14)
            np.testing.assert_array_equal(rank.values, 1.0)

    def test_two_orthogonal_channels_exact(self):
        ones = np.ones((3, 4))
        zeros = np.zeros((3, 4))
        stack = stack_from_arrays(
            [(ones, zeros), (zeros, ones)], [-3.0 * ones, -4.0 * ones], ridge=0.0
        )
        v, rank = feature_group_flow(stack)
        np.testing.assert_allclose(v.dx, 3.0, atol=1e-14)
        np.testing.assert_allclose(v.dy, 4.0, atol=1e-14)
        np.testing.assert_array_equal(rank.values, 2.0)

    def test_reconstructs_ground_truth_exactly(self):
        # build ddt := -G v* per channel; rank-2 G recovers v* to 1e-10
        rng = np.random.default_rng(61)
        shape = (6, 7)
        g1 = (1.0 + rng.uniform(-0.3, 0.3, shape), rng.uniform(-0.3, 0.3, shape))
        g2 = (rng.uniform(-0.3, 0.3, shape), 1.0 + rng.uniform(-0.3, 0.3, shape))
        vx_true = rng.uniform(-2, 2, shape)
        vy_true = rng.uniform(-2, 2, shape)
        ddts = [-(gx * vx_true + gy * vy_true) for gx, gy in (g1, g2)]
        stack = stack_from_arrays([g1, g2], ddts, ridge=0.0)
        v, rank = feature_group_flow(stack)
        assert np.abs(v.dx - vx_true).max() < 1e-10
        assert np.abs(v.dy - vy_true).max() < 1e-10
        np.testing.assert_array_equal(rank.values, 2.0)

    def test_rank_deficiency_names_first_pixel(self):
        shape = (4, 5)
        rng = np.random.default_rng(67)
        g1 = (1.0 + rng.uniform(-0.2, 0.2, shape), rng.uniform(-0.2, 0.2, shape))
        g2 = (rng.uniform(-0.2, 0.2, shape), 1.0 + rng.uniform(-0.2, 0.2, shape))
        # collapse two pixels to a shared direction; row-major first wins
        for (y, x) in ((2, 1), (1, 3)):
            g1[0][y, x], g1[1][y, x] = 1.0, 0.0
            g2[0][y, x], g2[1][y, x] = 2.0, 0.0
        ddts = [np.zeros(shape), np.zeros(shape)]
        stack = stack_from_arrays([g1, g2], ddts, ridge=0.0)
        with pytest.raises(SingularityError) as exc:
            feature_group_flow(stack)
        assert exc.value.pixel == (3, 1)

    def test_ridge_zero_needs_two_channels(self):
        z = np.zeros((3, 3))
        stack = stack_from_arrays([(z, z)], [z], ridge=0.0)
        with pytest.raises(ParameterError):
            feature_group_flow(stack)

    def test_solution_residual_never_beats_zero_flow(self):
        # least-squares property: per-pixel squared residual over channels
        # at the solution is <= the v=0 residual when ridge is zero
        rng = np.random.default_rng(71)
        shape = (5, 6)
        grads = []
        ddts = []
        for k in range(3):
            gx = rng.uniform(-1, 1, shape) + (1.0 if k == 0 else 0.0)
            gy = rng.uniform(-1, 1, shape) + (1.0 if k == 1 else 0.0)
            grads.append((gx, gy))
            ddts.append(rng.uniform(-1, 1, shape))
        stack = stack_from_arrays(grads, ddts, ridge=0.0)
        v, rank = feature_group_flow(stack)
        assert rank.values.min() == 2.0
        at_v = np.zeros(shape)
        at_0 = np.zeros(shape)
        for (gx, gy), dd in zip(grads, ddts):
            res = conjugation_residual(
                VectorField2D(gx, gy), Field2D(dd), v
            ).values
            at_v += res ** 2
            at_0 += dd ** 2
        assert np.all(at_v <= at_0 + 1e-12)

    def test_stack_validation(self):
        z = np.zeros((3, 3))
        with pytest.raises(ParameterError):
            FeatureStack((), 0.0)
        with pytest.raises(ParameterError):
            stack_from_arrays([(z, z)], [z], ridge=-1.0)
        ch_a = FeatureChannel(VectorField2D(z, z), Field2D(z))
        ch_b = FeatureChannel(VectorField2D(np.zeros((4, 4)), np.zeros((4, 4))),
                              Field2D(np.zeros((4, 4))))
        with pytest.raises(DimensionError):
            FeatureStack((ch_a, ch_b), 0.0)
        with pytest.raises(DimensionError):
            FeatureChannel(VectorField2D(z, z), Field2D(np.zeros((4, 4))))

    def test_parallel_channels_are_rank_one(self):
        # channel 2 = k * channel 1: G has one singular value, up to rounding
        rng = np.random.default_rng(5)
        shape = (40, 40)
        g1 = (rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape))
        k = rng.uniform(0.2, 3.0, shape)
        ddts = [rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)]
        stack = stack_from_arrays([g1, (k * g1[0], k * g1[1])], ddts, ridge=1.0)
        _, rank = feature_group_flow(stack)
        np.testing.assert_array_equal(rank.values, 1.0)

    def test_every_aperture_pixel_is_named_without_warning(self):
        # one pixel at a time gets parallel channels; with ridge = 0 each
        # placement must raise SingularityError naming it, and never warn
        rng = np.random.default_rng(5)
        shape = (24, 24)
        g1 = (rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape))
        g2 = (rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape))
        k = rng.uniform(0.2, 3.0, shape)
        ddts = [rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)]
        wrong = []
        for y in range(shape[0]):
            for x in range(shape[1]):
                a = (g2[0].copy(), g2[1].copy())
                a[0][y, x] = k[y, x] * g1[0][y, x]
                a[1][y, x] = k[y, x] * g1[1][y, x]
                stack = stack_from_arrays([g1, a], ddts, ridge=0.0)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        feature_group_flow(stack)
                    wrong.append((x, y, "returned a flow"))
                except SingularityError as e:
                    if e.pixel != (x, y):
                        wrong.append((x, y, f"named {e.pixel}"))
                except Exception as e:  # a warning turned error, or another class
                    wrong.append((x, y, repr(e)))
        assert wrong == []

    def test_negligible_ridge_singular_normal_equations_are_numerical(self):
        # G = (1, 1): G^T G + 1e-20 I rounds to a singular matrix
        ones = np.ones((3, 3))
        stack = stack_from_arrays([(ones, ones)], [ones], ridge=1e-20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                feature_group_flow(stack)


# ---------------------------------------------------------------------------
# hs_objective
# ---------------------------------------------------------------------------

class TestHsObjective:
    def test_static_zero_flow_is_zero(self):
        z = np.zeros((5, 5))
        grad = VectorField2D(z, z)
        v = VectorField2D(z, z)
        assert hs_objective(grad, Field2D(z), v, 0.1) == 0.0

    def test_zero_flow_equals_data_term(self):
        rng = np.random.default_rng(73)
        bt = rng.standard_normal((6, 6))
        z = np.zeros((6, 6))
        grad = VectorField2D(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        v = VectorField2D(z, z)
        h = 0.5
        want = float(np.sum(bt ** 2)) * h * h
        assert hs_objective(grad, Field2D(bt), v, 2.0, h) == pytest.approx(want, rel=1e-13)

    def test_matches_independent_loop(self):
        rng = np.random.default_rng(79)
        shape = (5, 6)
        gx = rng.standard_normal(shape)
        gy = rng.standard_normal(shape)
        bt = rng.standard_normal(shape)
        vx = rng.standard_normal(shape)
        vy = rng.standard_normal(shape)
        lam, h = 0.7, 1.3
        got = hs_objective(VectorField2D(gx, gy), Field2D(bt),
                           VectorField2D(vx, vy), lam, h)
        total = 0.0
        for y in range(shape[0]):
            for x in range(shape[1]):
                total += (gx[y, x] * vx[y, x] + gy[y, x] * vy[y, x] + bt[y, x]) ** 2
        for c in (vx, vy):
            for y in range(shape[0]):
                for x in range(shape[1] - 1):
                    total += (lam / 4.0) * (c[y, x + 1] - c[y, x]) ** 2
            for y in range(shape[0] - 1):
                for x in range(shape[1]):
                    total += (lam / 4.0) * (c[y + 1, x] - c[y, x]) ** 2
        assert got == pytest.approx(total * h * h, rel=1e-13)
