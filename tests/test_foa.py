"""Tests for the focus-of-attention particle and scanpath segmentation."""

import math

import numpy as np
import pytest

from gazefield.errors import (
    DataError,
    DimensionError,
    DomainError,
    NumericalError,
    ParameterError,
)
from gazefield.foa import (
    AttractionSign,
    BoundaryPolicy,
    FoaParams,
    FoaSample,
    FoaState,
    Scanpath,
    detect_saccades,
    energy,
    foa_step,
    sample_gradient,
)
from gazefield.retina import Field2D, gradient


def gaussian_bump(n: int, cx: float, cy: float, amp: float = 5.0,
                  sigma: float = 6.0) -> Field2D:
    ys, xs = np.mgrid[0:n, 0:n]
    return Field2D(amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2)
                                / (2.0 * sigma * sigma)))


def full_grid_sample(u: Field2D, x: float, y: float, h: float) -> tuple[float, float]:
    # reference: the whole-grid nodal gradient, interpolated bilinearly
    g = gradient(u, h)
    x0 = min(math.floor(x), u.width - 2)
    y0 = min(math.floor(y), u.height - 2)
    fx, fy = x - x0, y - y0

    def lerp(a):
        return float((1 - fy) * ((1 - fx) * a[y0, x0] + fx * a[y0, x0 + 1])
                     + fy * ((1 - fx) * a[y0 + 1, x0] + fx * a[y0 + 1, x0 + 1]))

    return lerp(g.dx), lerp(g.dy)


def make_path(speeds, dt=0.1):
    samples = []
    for k, sp in enumerate(speeds):
        samples.append(FoaSample(t=k * dt, x=float(k), y=0.0, vx=sp, vy=0.0))
    return Scanpath(tuple(samples))


class TestFoaParams:
    def test_defaults(self):
        p = FoaParams()
        assert p.dissipation == 1.0
        assert p.dt == 1.0 / 240.0
        assert p.attraction_sign is AttractionSign.ATTRACT
        assert p.boundary is BoundaryPolicy.REFLECT

    @pytest.mark.parametrize("kw", [
        dict(dissipation=-0.1), dict(dt=0.0), dict(dt=-1.0),
        dict(dt=math.inf), dict(attraction_sign=1.0), dict(boundary="reflect"),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ParameterError):
            FoaParams(**kw)


class TestFoaState:
    def test_properties(self):
        s = FoaState(3.0, 4.0, 1.0, -2.0)
        assert s.position == (3.0, 4.0)
        assert s.speed == math.hypot(1.0, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            FoaState(math.nan, 0.0)
        with pytest.raises(ParameterError):
            FoaState(0.0, 0.0, math.inf, 0.0)


class TestScanpath:
    def test_requires_increasing_timestamps(self):
        a = FoaSample(0.0, 0.0, 0.0, 0.0, 0.0)
        b = FoaSample(0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DataError):
            Scanpath((a, b))

    @pytest.mark.parametrize("ts", [
        [0.0, math.nan, 1.0], [math.nan, 1.0], [0.0, math.nan], [math.nan],
        [0.0, math.inf], [-math.inf, 0.0],
    ])
    def test_rejects_non_finite_timestamps(self, ts):
        samples = tuple(FoaSample(t, 0.0, 0.0, 0.0, 0.0) for t in ts)
        with pytest.raises(DataError, match="finite"):
            Scanpath(samples)

    @pytest.mark.parametrize("field", ["x", "y", "vx", "vy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_position_and_velocity(self, field, bad):
        values = dict(t=1.0, x=0.0, y=1.0, vx=0.0, vy=0.0)
        values[field] = bad
        samples = (FoaSample(0.0, 0.0, 0.0, 0.0, 0.0), FoaSample(**values))
        with pytest.raises(DataError, match="^scanpath sample 1 has a non-finite field"):
            Scanpath(samples)

    def test_positions_array(self):
        p = make_path([0.0, 1.0, 2.0])
        assert p.positions().shape == (3, 2)
        assert np.array_equal(p.positions()[:, 0], [0.0, 1.0, 2.0])

    def test_empty_path_positions_keep_two_columns(self):
        assert Scanpath(()).positions().shape == (0, 2)

    def test_rejects_foreign_samples(self):
        with pytest.raises(DataError):
            Scanpath(((0.0, 1.0, 2.0),))


class TestSampleGradient:
    def test_linear_ramp_everywhere(self):
        xs = np.tile(np.arange(9.0), (7, 1))
        u = Field2D(2.0 * xs)
        for pos in [(0.0, 0.0), (3.25, 2.5), (7.9, 5.1), (8.0, 6.0)]:
            assert sample_gradient(u, pos) == (2.0, 0.0)

    def test_grid_node_matches_nodal_gradient(self):
        u = Field2D(np.random.default_rng(8).uniform(-1, 1, (6, 7)))
        g = gradient(u, 1.0)
        got = sample_gradient(u, (3.0, 2.0))
        assert got == (g.dx[2, 3], g.dy[2, 3])

    def test_cell_center_averages_corners(self):
        u = Field2D(np.random.default_rng(9).uniform(-1, 1, (6, 6)))
        g = gradient(u, 1.0)
        got = sample_gradient(u, (2.5, 3.5))
        ex_x = 0.25 * (g.dx[3, 2] + g.dx[3, 3] + g.dx[4, 2] + g.dx[4, 3])
        ex_y = 0.25 * (g.dy[3, 2] + g.dy[3, 3] + g.dy[4, 2] + g.dy[4, 3])
        assert got[0] == pytest.approx(ex_x, abs=1e-15)
        assert got[1] == pytest.approx(ex_y, abs=1e-15)

    def test_spacing_scales_result(self):
        u = Field2D(np.random.default_rng(10).uniform(-1, 1, (5, 5)))
        gx1, gy1 = sample_gradient(u, (2.2, 1.7), h=1.0)
        gx2, gy2 = sample_gradient(u, (2.2, 1.7), h=2.0)
        assert gx2 == pytest.approx(0.5 * gx1)
        assert gy2 == pytest.approx(0.5 * gy1)

    @pytest.mark.parametrize("pos", [
        (-0.1, 2.0), (8.01, 2.0), (2.0, -0.5), (2.0, 5.5), (math.nan, 1.0),
    ])
    def test_outside_grid_raises(self, pos):
        u = Field2D.zeros(9, 6)
        with pytest.raises(DomainError):
            sample_gradient(u, pos)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("shape", [(6, 9), (2, 3), (3, 2), (2, 2)],
                             ids=lambda s: f"{s[1]}x{s[0]}")
    def test_bitwise_matches_full_grid_gradient(self, shape, h):
        rows, cols = shape
        rng = np.random.default_rng(11)
        u = Field2D(rng.standard_normal(shape))
        xmax, ymax = cols - 1.0, rows - 1.0
        positions = [(0.0, 0.0), (xmax, 0.0), (0.0, ymax), (xmax, ymax)]
        positions += [(xmax, float(y)) for y in rng.uniform(0, ymax, 5)]
        positions += [(float(x), ymax) for x in rng.uniform(0, xmax, 5)]
        positions += [(float(x), float(y)) for x, y in
                      zip(rng.uniform(0, xmax, 40), rng.uniform(0, ymax, 40))]
        positions += [(float(x), float(y)) for x in range(cols) for y in range(rows)]
        for x, y in positions:
            assert sample_gradient(u, (x, y), h) == full_grid_sample(u, x, y, h), (x, y)

    @pytest.mark.parametrize("width, height, pos", [(1, 5, (0, 2)), (5, 1, (2, 0))])
    def test_grid_narrower_than_two_raises(self, width, height, pos):
        with pytest.raises(DimensionError):
            sample_gradient(Field2D.zeros(width, height), pos)

    def test_zero_spacing_raises(self):
        with pytest.raises(ParameterError):
            sample_gradient(Field2D.zeros(4, 4), (1.5, 1.5), h=0)


class TestFoaStep:
    def test_force_free_uniform_motion(self):
        u = Field2D.zeros(21, 21)
        p = FoaParams(dissipation=0.0, dt=0.25)
        s = FoaState(2.0, 3.0, 1.5, -0.5)
        for k in range(1, 4):
            s = foa_step(s, u, p)
            assert s == FoaState(2.0 + 0.25 * k * 1.5, 3.0 - 0.25 * k * 0.5,
                                 1.5, -0.5)

    def test_pure_drag_closed_form(self):
        # dyadic drag and step make (1 - drag*dt) = 0.875 exact
        u = Field2D.zeros(21, 21)
        p = FoaParams(dissipation=0.5, dt=0.25)
        s = FoaState(10.0, 10.0, 1.5, -0.5)
        s = foa_step(s, u, p)
        assert (s.vx, s.vy) == (0.875 * 1.5, 0.875 * -0.5)
        s = foa_step(s, u, p)
        assert (s.vx, s.vy) == (0.875 ** 2 * 1.5, 0.875 ** 2 * -0.5)

    def test_quadratic_bowl_converges_and_matches_fine_reference(self):
        # underdamped bowl (natural frequency 2/s, drag 2/s): the particle
        # settles well inside half a pixel of the minimum within
        # 10/dissipation seconds, and the coarse step tracks a 100x finer
        # integration to within a tenth of a pixel
        n = 41
        ys, xs = np.mgrid[0:n, 0:n]
        bowl = Field2D(-2.0 * ((xs - 20.0) ** 2 + (ys - 20.0) ** 2))

        def run(dt, steps):
            st = FoaState(5.0, 7.0)
            par = FoaParams(dissipation=2.0, dt=dt)
            for _ in range(steps):
                st = foa_step(st, bowl, par)
            return st

        coarse = run(0.01, 500)
        fine = run(1e-4, 50000)
        assert math.hypot(coarse.x - 20.0, coarse.y - 20.0) < 0.5
        assert math.hypot(coarse.x - fine.x, coarse.y - fine.y) < 0.1

    def test_reflect_mirrors_position_and_negates_normal_velocity(self):
        u = Field2D.zeros(21, 21)
        p = FoaParams(dissipation=0.0, dt=0.3, boundary=BoundaryPolicy.REFLECT)
        s = foa_step(FoaState(1.0, 10.0, -5.0, 3.0), u, p)
        assert (s.x, s.y) == (0.5, 10.9)
        assert (s.vx, s.vy) == (5.0, 3.0)

    def test_reflect_preserves_speed(self):
        u = Field2D.zeros(21, 21)
        p = FoaParams(dissipation=0.0, dt=0.3, boundary=BoundaryPolicy.REFLECT)
        before = FoaState(19.5, 10.0, 5.0, -3.0)
        after = foa_step(before, u, p)
        assert 0.0 <= after.x <= 20.0
        assert after.speed == before.speed

    def test_clamp_projects_and_zeroes_normal_velocity(self):
        u = Field2D.zeros(21, 21)
        p = FoaParams(dissipation=0.0, dt=0.3, boundary=BoundaryPolicy.CLAMP)
        s = foa_step(FoaState(1.0, 10.0, -5.0, 3.0), u, p)
        assert (s.x, s.vx) == (0.0, 0.0)
        assert (s.y, s.vy) == (10.9, 3.0)

    def test_translation_equivariance(self):
        # analytic bumps shifted by an integer offset produce identical
        # interior gradients, so trajectories coincide up to accumulated
        # rounding from the reordered position additions
        n = 61
        u1 = gaussian_bump(n, 15.0, 15.0)
        u2 = gaussian_bump(n, 18.0, 17.0)
        p = FoaParams(dissipation=1.0, dt=0.02)
        s1 = FoaState(12.0, 13.0, 0.5, -0.3)
        s2 = FoaState(15.0, 15.0, 0.5, -0.3)
        for _ in range(400):
            s1 = foa_step(s1, u1, p)
            s2 = foa_step(s2, u2, p)
        assert s2.x - 3.0 == pytest.approx(s1.x, abs=1e-9)
        assert s2.y - 2.0 == pytest.approx(s1.y, abs=1e-9)
        assert s2.vx == pytest.approx(s1.vx, abs=1e-9)
        assert s2.vy == pytest.approx(s1.vy, abs=1e-9)

    def test_seeks_single_peak(self):
        # once inside the concave core the gap to the peak shrinks at
        # every step (overdamped there: drag 2/s vs natural freq 0.37/s)
        u = gaussian_bump(41, 20.0, 20.0)
        p = FoaParams(dissipation=2.0, dt=0.01)
        s = FoaState(14.0, 16.0)
        dist = [math.hypot(s.x - 20.0, s.y - 20.0)]
        for _ in range(4000):
            s = foa_step(s, u, p)
            dist.append(math.hypot(s.x - 20.0, s.y - 20.0))
        dist = np.array(dist)
        inside = np.nonzero(dist < 3.0)[0]
        assert inside.size > 0
        assert np.all(np.diff(dist[inside[0]:]) <= 1e-12)
        assert dist[-1] < 1.0

    def test_repel_mode_flees_peak(self):
        u = gaussian_bump(41, 20.0, 20.0)
        p = FoaParams(dissipation=1.0, dt=0.01,
                      attraction_sign=AttractionSign.REPEL)
        s = FoaState(18.0, 20.0)
        d0 = math.hypot(s.x - 20.0, s.y - 20.0)
        for _ in range(500):
            s = foa_step(s, u, p)
        assert math.hypot(s.x - 20.0, s.y - 20.0) > d0

    def test_deterministic(self):
        u = gaussian_bump(41, 20.0, 20.0)
        p = FoaParams(dissipation=1.0, dt=0.01)

        def run():
            s = FoaState(14.0, 16.0, 0.3, 0.1)
            out = []
            for _ in range(200):
                s = foa_step(s, u, p)
                out.append((s.x, s.y, s.vx, s.vy))
            return out

        assert run() == run()

    @pytest.mark.parametrize("boundary", list(BoundaryPolicy))
    def test_runaway_step_raises_numerical_error(self, boundary):
        # a step longer than the grid extent is a runaway; folding it back
        # one mirror at a time would take hundreds of millions of passes here
        p = FoaParams(boundary=boundary)
        with pytest.raises(NumericalError, match="exceeds the 64x64 grid"):
            foa_step(FoaState(10, 10, 1e13, 0), Field2D.zeros(64, 64), p)


class TestEnergy:
    def test_zero_state_zero_potential(self):
        assert energy(FoaState(1.0, 1.0), Field2D.zeros(5, 5), FoaParams()) == 0.0

    def test_kinetic_only(self):
        e = energy(FoaState(1.0, 1.0, 3.0, 4.0), Field2D.zeros(5, 5), FoaParams())
        assert e == 12.5

    def test_sign_convention(self):
        u = Field2D(np.full((5, 5), 2.0))
        s = FoaState(2.0, 2.0, 1.0, 0.0)
        assert energy(s, u, FoaParams()) == 0.5 - 2.0
        rep = FoaParams(attraction_sign=AttractionSign.REPEL)
        assert energy(s, u, rep) == 0.5 + 2.0

    def test_undamped_drift_below_one_percent(self):
        # orbiting particle in a static smooth bump; semi-implicit Euler
        # keeps the drift bounded (measured 0.65% over the window)
        u = gaussian_bump(41, 20.0, 20.0)
        p = FoaParams(dissipation=0.0, dt=1e-3)
        s = FoaState(25.0, 20.0, 0.0, 1.5)
        e0 = energy(s, u, p)
        worst = 0.0
        for _ in range(1000):
            s = foa_step(s, u, p)
            worst = max(worst, abs(energy(s, u, p) - e0) / abs(e0))
        assert worst < 0.01

    def test_position_outside_grid_raises(self):
        with pytest.raises(DomainError):
            energy(FoaState(9.0, 1.0), Field2D.zeros(5, 5), FoaParams())


class TestDetectSaccades:
    def test_constant_slow_speed_flags_nothing(self):
        path = make_path([2.0] * 20)
        out = detect_saccades(path, speed_threshold=10.0, min_fixation=0.3)
        assert not any(s.saccade for s in out.samples)

    def test_speed_at_threshold_is_not_saccadic(self):
        path = make_path([10.0, 10.0])
        out = detect_saccades(path, speed_threshold=10.0, min_fixation=0.1)
        assert not any(s.saccade for s in out.samples)

    def test_single_spike_flags_exactly_that_run(self):
        speeds = [1.0] * 8 + [50.0] * 3 + [1.0] * 8
        out = detect_saccades(make_path(speeds), 10.0, 0.3)
        flags = [s.saccade for s in out.samples]
        assert flags == [False] * 8 + [True] * 3 + [False] * 8

    def test_rest_jump_rest_segmentation(self):
        speeds = [0.5] * 10 + [40.0] * 5 + [0.5] * 10
        out = detect_saccades(make_path(speeds), 10.0, 0.5)
        flags = [s.saccade for s in out.samples]
        segments = [flags[0]]
        for a, b in zip(flags, flags[1:]):
            if b != a:
                segments.append(b)
        assert segments == [False, True, False]

    def test_brief_rest_between_saccades_is_absorbed(self):
        # the two slow samples span 0.1 s < 0.3 s and sit between fast runs
        speeds = [30.0] * 4 + [1.0] * 2 + [30.0] * 4
        out = detect_saccades(make_path(speeds), 10.0, 0.3)
        assert all(s.saccade for s in out.samples)

    def test_long_rest_between_saccades_is_kept(self):
        speeds = [30.0] * 4 + [1.0] * 8 + [30.0] * 4
        out = detect_saccades(make_path(speeds), 10.0, 0.3)
        flags = [s.saccade for s in out.samples]
        assert flags == [True] * 4 + [False] * 8 + [True] * 4

    def test_edge_rests_are_never_absorbed(self):
        speeds = [1.0] + [30.0] * 5 + [1.0]
        out = detect_saccades(make_path(speeds), 10.0, 10.0)
        flags = [s.saccade for s in out.samples]
        assert flags == [False] + [True] * 5 + [False]

    def test_input_path_is_unchanged(self):
        path = make_path([1.0] * 3 + [50.0] * 3)
        out = detect_saccades(path, 10.0, 0.1)
        assert not any(s.saccade for s in path.samples)
        assert out is not path

    def test_empty_path_raises(self):
        with pytest.raises(DataError):
            detect_saccades(Scanpath(()), 10.0, 0.1)

    @pytest.mark.parametrize("thr,fix", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0)])
    def test_rejects_bad_thresholds(self, thr, fix):
        with pytest.raises(ParameterError):
            detect_saccades(make_path([1.0]), thr, fix)
