"""Tests for the potential solvers and steppers.

Frozen constants come from standalone scalar-loop scripts run before this
module existed: a natural-order Gauss-Seidel solve (no over-relaxation,
tol 1e-11) and a per-pixel double-loop log-kernel sum.  Both routes share
no code with the package.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gazefield.errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    GridSizeError,
    NumericalError,
    ParameterError,
)
from gazefield import potential
from gazefield.potential import (
    Mode,
    PotentialState,
    TelegraphParams,
    _Workspace,
    convergence_in_c,
    direct_potential,
    evolve_potential,
    poisson_solve,
    stable_dt,
)
from gazefield.retina import Field2D, gaussian_blur, gradient, laplacian


def interior_lap(u: Field2D, h: float) -> np.ndarray:
    # interior rows of the 5-point laplacian see only in-grid neighbors,
    # so the boundary closure of the full-grid operator is irrelevant here
    return laplacian(u, h).values[1:-1, 1:-1]


def full_grid_step(state: PotentialState, mu: Field2D, p: TelegraphParams):
    # reference: the step built on the whole-grid laplacian
    inner = np.s_[1:-1, 1:-1]
    drive = laplacian(state.u, p.h).values[inner] + mu.values[inner]
    u_new = state.u.values.copy()
    ut_new = np.zeros_like(state.u_t.values)
    if p.mode is Mode.HEAT:
        u_new[inner] += (p.dt * p.c * p.c / p.lambda_drag) * drive
    else:
        half_drag = 0.5 * p.lambda_drag * p.dt
        ut_new[inner] = ((p.gamma - half_drag) * state.u_t.values[inner]
                         + p.dt * p.c * p.c * drive) / (p.gamma + half_drag)
        u_new[inner] += p.dt * ut_new[inner]
    return u_new, ut_new


def where_sor(mu: Field2D, h=1.0, tol=1e-8, max_iters=20000, boundary=None):
    # reference: red-black SOR that relaxes every interior node each
    # half-sweep and keeps one colour through np.where, same stop rule
    def neighbour_sum(u):
        return u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]

    m = mu.values
    u = np.zeros_like(m)
    if boundary is not None:
        b = boundary.values
        u[0, :], u[-1, :] = b[0, :], b[-1, :]
        u[:, 0], u[:, -1] = b[:, 0], b[:, -1]
    omega = 2.0 / (1.0 + math.sin(math.pi / max(mu.width, mu.height)))
    f = h * h * m[1:-1, 1:-1]
    iy, ix = np.mgrid[0:mu.height - 2, 0:mu.width - 2]
    checker = (iy + ix) % 2
    for sweeps in range(max_iters + 1):
        lap = (neighbour_sum(u) - 4.0 * u[1:-1, 1:-1]) / (h * h)
        residual = float(np.abs(lap + m[1:-1, 1:-1]).max())
        if residual < tol:
            return u
        if sweeps == max_iters or not math.isfinite(residual):
            break
        for parity in (0, 1):
            relaxed = (1.0 - omega) * u[1:-1, 1:-1] + omega * 0.25 * (neighbour_sum(u) + f)
            u[1:-1, 1:-1] = np.where(checker == parity, relaxed, u[1:-1, 1:-1])
    raise ConvergenceError(f"relaxation did not reach tol={tol:g} in {sweeps} of at most "
                           f"{max_iters} sweeps", residual)


def plain_energy(state: PotentialState, c: float, h: float) -> float:
    g = gradient(state.u, h)
    return float(np.sum(state.u_t.values ** 2)
                 + c * c * np.sum(g.dx ** 2 + g.dy ** 2)) * h * h


class TestTelegraphParams:
    def test_defaults_valid(self):
        p = TelegraphParams()
        assert p.mode is Mode.DAMPED_WAVE
        assert p.gamma == 1.0 and p.lambda_drag == 1.0

    def test_heat_requires_zero_inertia(self):
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.5, lambda_drag=1.0, mode=Mode.HEAT)

    def test_heat_requires_positive_drag(self):
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.0, lambda_drag=0.0, mode=Mode.HEAT)

    def test_heat_step_bound(self):
        # dt <= h^2 * lambda / (4 c^2) = 0.25 for unit parameters
        TelegraphParams(gamma=0.0, lambda_drag=1.0, c=1.0, h=1.0, dt=0.25,
                        mode=Mode.HEAT)
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.0, lambda_drag=1.0, c=1.0, h=1.0, dt=0.26,
                            mode=Mode.HEAT)

    def test_heat_bound_where_c_squared_underflows(self):
        # c*c is 0.0 here; the bound was a ZeroDivisionError
        assert stable_dt(Mode.HEAT, 0.0, 1.0, 1e-300, 1.0) == math.inf
        TelegraphParams(gamma=0.0, lambda_drag=1.0, c=1e-300, dt=0.5, mode=Mode.HEAT)

    def test_heat_nan_bound_is_a_config_error(self):
        # h*h and c*c are both inf, so the bound is inf/inf; dt > NaN is false,
        # and every dt passed
        assert math.isnan(stable_dt(Mode.HEAT, 0.0, 1.0, 1e200, 1e200))
        with pytest.raises(ConfigError, match="stability violated"):
            TelegraphParams(gamma=0.0, lambda_drag=1.0, c=1e200, h=1e200, dt=1.0,
                            mode=Mode.HEAT)

    def test_wave_requires_no_drag(self):
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=1.0, lambda_drag=0.5, dt=0.1, mode=Mode.WAVE)

    def test_wave_modes_require_inertia(self):
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.0, lambda_drag=0.0, dt=0.1, mode=Mode.WAVE)
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.0, lambda_drag=1.0, dt=0.1,
                            mode=Mode.DAMPED_WAVE)

    def test_cfl_bound(self):
        TelegraphParams(gamma=1.0, lambda_drag=0.0, c=1.0, h=1.0, dt=0.70,
                        mode=Mode.WAVE)
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=1.0, lambda_drag=0.0, c=1.0, h=1.0, dt=0.72,
                            mode=Mode.WAVE)

    def test_cfl_uses_effective_speed_for_light_inertia(self):
        # gamma = 0.25 doubles the front speed, halving the admissible dt
        with pytest.raises(ConfigError):
            TelegraphParams(gamma=0.25, lambda_drag=0.0, c=1.0, h=1.0, dt=0.36,
                            mode=Mode.WAVE)
        TelegraphParams(gamma=0.25, lambda_drag=0.0, c=1.0, h=1.0, dt=0.35,
                        mode=Mode.WAVE)
        # heavy inertia slows the front; the plain bound still applies
        TelegraphParams(gamma=4.0, lambda_drag=0.0, c=1.0, h=1.0, dt=0.70,
                        mode=Mode.WAVE)

    @pytest.mark.parametrize("kw", [
        dict(gamma=-1.0), dict(lambda_drag=-0.1), dict(c=0.0),
        dict(h=-1.0), dict(dt=0.0), dict(c=math.nan), dict(mode="heat"),
        dict(c=True), dict(dt="0.005"), dict(c=10 ** 400),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ParameterError):
            TelegraphParams(**kw)


    @pytest.mark.parametrize("kw", [
        dict(c=np.float32(2.0)), dict(h=np.int64(2)), dict(dt=np.float64(0.004)),
    ])
    def test_accepts_numpy_scalars(self, kw):
        p = TelegraphParams(**kw)
        assert all(type(getattr(p, name)) is float for name in kw)


class TestPotentialState:
    def test_zero_factory(self):
        st = PotentialState.zero(5, 4)
        assert st.u.values.shape == (4, 5)
        assert not st.u.values.any() and not st.u_t.values.any()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            PotentialState(Field2D.zeros(4, 4), Field2D.zeros(5, 4))


class TestPoissonSolve:
    def test_zero_source_zero_boundary_is_zero(self):
        u = poisson_solve(Field2D.zeros(6, 6))
        assert np.array_equal(u.values, np.zeros((6, 6)))

    def test_matches_frozen_gauss_seidel_oracle(self):
        # natural-order scalar GS, tol 1e-11, seed 101 uniform(-1,1) 8x8
        mu = Field2D(np.random.default_rng(101).uniform(-1.0, 1.0, (8, 8)))
        u = poisson_solve(mu, tol=1e-10, max_iters=50000)
        assert u.values[1, 1] == pytest.approx(-0.06824389085341584, abs=1e-7)
        assert u.values[3, 4] == pytest.approx(0.4011797379679548, abs=1e-7)
        assert u.values[6, 6] == pytest.approx(-0.3086435683777665, abs=1e-7)
        assert float(u.values[1:-1, 1:-1].sum()) == pytest.approx(
            0.8898256265509891, abs=1e-6)

    def test_residual_meets_tolerance(self):
        mu = Field2D(np.random.default_rng(9).uniform(0.0, 1.0, (12, 10)))
        tol = 1e-8
        u = poisson_solve(mu, h=0.7, tol=tol)
        res = interior_lap(u, 0.7) + mu.values[1:-1, 1:-1]
        assert np.abs(res).max() < tol

    def test_boundary_ring_is_imposed(self):
        ys, xs = np.mgrid[0:8, 0:8]
        b = Field2D((xs + 2.0 * ys).astype(float))
        u = poisson_solve(Field2D.zeros(8, 8), boundary=b, tol=1e-10,
                          max_iters=50000)
        assert np.allclose(u.values[0, :], b.values[0, :], atol=0)
        assert np.allclose(u.values[-1, :], b.values[-1, :], atol=0)
        assert np.allclose(u.values[:, 0], b.values[:, 0], atol=0)
        assert np.allclose(u.values[:, -1], b.values[:, -1], atol=0)

    def test_linear_boundary_extends_harmonically(self):
        # a linear function is discretely harmonic, so it solves mu = 0
        # with its own trace; oracle GS reproduced it to 2e-12
        ys, xs = np.mgrid[0:8, 0:8]
        b = Field2D((xs + 2.0 * ys).astype(float))
        u = poisson_solve(Field2D.zeros(8, 8), boundary=b, tol=1e-10,
                          max_iters=50000)
        assert np.allclose(u.values, b.values, atol=1e-8)

    def test_linearity_of_solution_map(self):
        rng = np.random.default_rng(33)
        m1 = Field2D(rng.uniform(-1, 1, (9, 9)))
        m2 = Field2D(rng.uniform(-1, 1, (9, 9)))
        tol = 1e-10
        u1 = poisson_solve(m1, tol=tol, max_iters=50000)
        u2 = poisson_solve(m2, tol=tol, max_iters=50000)
        u12 = poisson_solve(Field2D(2.0 * m1.values - 3.0 * m2.values),
                            tol=tol, max_iters=50000)
        assert np.abs(u12.values - (2.0 * u1.values - 3.0 * u2.values)
                      ).max() < 10 * tol * 100

    def test_nonnegative_source_gives_nonnegative_potential(self):
        tol = 1e-9
        mu = Field2D(np.random.default_rng(12).uniform(0.0, 1.0, (16, 16)))
        u = poisson_solve(mu, tol=tol)
        assert u.values.min() >= -tol

    def test_overrelaxation_converges_fast(self):
        # optimal over-relaxation needs O(n) sweeps at 32x32; plain
        # Gauss-Seidel would need thousands
        mu = Field2D(np.random.default_rng(5).uniform(-1, 1, (32, 32)))
        poisson_solve(mu, tol=1e-8, max_iters=200)

    def test_convergence_error_carries_residual(self):
        mu = Field2D(np.random.default_rng(5).uniform(-1, 1, (16, 16)))
        with pytest.raises(ConvergenceError) as exc:
            poisson_solve(mu, tol=1e-12, max_iters=3)
        assert exc.value.residual > 0
        assert math.isfinite(exc.value.residual)

    def test_h_squared_underflow_is_a_convergence_error_without_warning(self):
        # h*h rounds to 0: the residual divides by zero, and that must stay silent
        mu, boundary = Field2D(np.ones((5, 5))), Field2D(np.full((5, 5), 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as exc:
                poisson_solve(mu, h=1e-170, boundary=boundary)
        assert not math.isfinite(exc.value.residual)

    @pytest.mark.parametrize("h", [1.0, 0.7])
    @pytest.mark.parametrize("shape", [(128, 128), (64, 64), (3, 3), (3, 7), (7, 4), (4, 4),
                                       (33, 31), (17, 64), (64, 17), (65, 65)])
    def test_bitwise_equal_to_where_sor(self, shape, h):
        # same sweeps, same operand order: each colour's residual and
        # half-sweep, in place on one span of its contiguous colour plane,
        # give the reference's bits
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        mu = Field2D(rng.uniform(0.0, 1.0, shape))
        for boundary in (None, Field2D(rng.uniform(-1.0, 1.0, shape))):
            want = where_sor(mu, h, boundary=boundary)
            got = poisson_solve(mu, h, boundary=boundary).values
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape", [(16, 15), (15, 16)], ids=["15x16", "16x15"])
    @pytest.mark.parametrize("with_boundary", [False, True], ids=["zero-ring", "boundary"])
    @pytest.mark.parametrize("kw", [dict(tol=1e-12, max_iters=3), dict(max_iters=0),
                                    dict(h=1e200)])
    def test_convergence_error_matches_where_sor(self, kw, with_boundary, shape):
        # the capped solve, and h*h overflowing to a NaN residual after one
        # sweep, on both parities of rows and columns and with an edge ring
        rng = np.random.default_rng(5)
        mu = Field2D(rng.uniform(-1.0, 1.0, shape))
        boundary = Field2D(rng.uniform(-1.0, 1.0, shape)) if with_boundary else None
        self.same_convergence_error(mu, boundary, **kw)

    @staticmethod
    def same_convergence_error(mu: Field2D, boundary, **kw) -> str:
        # poisson_solve raises where_sor's message and residual bits; returns the message
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError) as want:
            where_sor(mu, boundary=boundary, **kw)
        with pytest.raises(ConvergenceError) as got:
            poisson_solve(mu, boundary=boundary, **kw)
        assert str(got.value) == str(want.value)
        assert np.array_equal(np.float64(got.value.residual).view(np.uint64),
                              np.float64(want.value.residual).view(np.uint64))
        return str(want.value)

    @pytest.mark.parametrize("with_boundary", [False, True], ids=["zero-ring", "boundary"])
    @pytest.mark.parametrize("shape, scale, h, sweeps", [
        ((128, 128), 1e305, 1.0, 57), ((64, 64), 1e306, 1.0, 13),
        ((128, 128), 1e307, 1e-100, 17),  # u stays finite; (nsum - 4u) / h*h overflows
    ], ids=["128x128-1e305", "64x64-1e306", "128x128-1e307-h1e-100"])
    def test_overflow_mid_solve_matches_where_sor(self, shape, scale, h, sweeps, with_boundary):
        # a residual turns inf part-way through the solve: the sweeps that skip the full
        # residual must not skip that one, nor let u overflow on to a NaN
        rng = np.random.default_rng(1)
        mu = Field2D(rng.uniform(0.0, 1.0, shape) * scale)
        boundary = Field2D(rng.uniform(-1.0, 1.0, shape)) if with_boundary else None
        assert f" in {sweeps} of " in self.same_convergence_error(mu, boundary, h=h)

    @staticmethod
    def lap_plus_calls(monkeypatch) -> list:
        # one entry a _lap_plus call: a sweep that takes the residual over the grid
        # calls it once per colour
        calls, laps = [], potential._lap_plus
        monkeypatch.setattr(potential, "_lap_plus", lambda *a: calls.append(1) or laps(*a))
        return calls

    @classmethod
    def full_residual_passes(cls, monkeypatch, mu: Field2D) -> tuple[np.ndarray, int]:
        # the solve's u, and how many sweeps took the residual over the grid
        calls = cls.lap_plus_calls(monkeypatch)
        return poisson_solve(mu).values, len(calls) // 2

    def test_gate_closed_from_the_first_read_takes_every_full_residual(self, monkeypatch):
        # 9^32 (max|u| + max|h*h*mu|) is past half the safe bound at every read, so
        # no sweep is probed: all 51 of a solve capped at 50 take the full residual
        mu = Field2D(np.random.default_rng(1).uniform(0.0, 1.0, (64, 64)) * 1e290)
        calls = self.lap_plus_calls(monkeypatch)
        message = self.same_convergence_error(mu, None, max_iters=50)
        assert " in 50 of at most 50 " in message
        assert len(calls) == 2 * 51

    def test_bench_mass_takes_few_full_residual_passes(self, monkeypatch):
        # elliptic-128's mass: 472 sweeps, every one of them probed but the first,
        # the last and one where the probe moves
        mu = gaussian_blur(Field2D(np.random.default_rng(0).uniform(0.0, 1.0, (128, 128))), 2.0)
        u, passes = self.full_residual_passes(monkeypatch, mu)
        assert passes <= 5
        assert np.array_equal(u.view(np.uint64), where_sor(mu).view(np.uint64))

    def test_probe_that_must_move_keeps_the_bits(self, monkeypatch):
        # on a signed mass the largest residual wanders, so the probe's node falls
        # below tol again and again while the solve goes on
        mu = Field2D(np.random.default_rng(0).uniform(-1.0, 1.0, (150, 200)))
        u, passes = self.full_residual_passes(monkeypatch, mu)
        assert passes > 2
        assert np.array_equal(u.view(np.uint64), where_sor(mu).view(np.uint64))

    def test_float32_tol_stops_where_its_float_value_does(self):
        # NumPy 2 compares a float with a float32 scalar in float32 (NEP 50), NumPy
        # 1.24 in float64; the solve reads tol as a float, so its stop does not depend
        # on the numpy version.  The case: the first sweep whose residual is below
        # every earlier one and rounds up to a float32, which is then the tol
        mu = Field2D(np.random.default_rng(5).uniform(-1.0, 1.0, (16, 15)))
        residuals = []
        for n in range(40):
            with pytest.raises(ConvergenceError) as exc:
                poisson_solve(mu, tol=1e-300, max_iters=n)
            residuals.append(exc.value.residual)
        n = next(n for n, r in enumerate(residuals)
                 if n and r < float(np.float32(r)) <= min(residuals[:n]))
        tol = np.float32(residuals[n])
        want = where_sor(mu, tol=float(tol))
        for t in (tol, float(tol)):
            assert np.array_equal(poisson_solve(mu, tol=t).values.view(np.uint64),
                                  want.view(np.uint64))
        # one sweep short of the stop: the same message as for the float
        capped = []
        for t, cap in ((tol, np.int16(n - 1)), (float(tol), n - 1)):
            with pytest.raises(ConvergenceError) as exc:
                poisson_solve(mu, tol=t, max_iters=cap)
            capped.append(str(exc.value))
        assert capped[0] == capped[1]

    @pytest.mark.parametrize("shape", [(128, 128), (97, 96), (96, 97)])
    def test_peak_memory_is_five_padded_grids(self, shape):
        # u, h*h*mu and mu as colour planes and two scratch buffers: the set-up
        # grid is freed before the scratch is made, and the scratch before the
        # output grid.  Small grids are left out: fixed overheads weigh more there.
        rows, w = shape
        mu = Field2D(np.random.default_rng(rows * 1000 + w).uniform(0.0, 1.0, shape))
        poisson_solve(mu)  # the second solve is measured: nothing left to import
        tracemalloc.start()
        try:
            poisson_solve(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.6 * 8 * rows * (w | 1)

    @pytest.mark.parametrize("shape", [(64, 64), (31, 33)], ids=["64x64", "33x31"])
    def test_colour_plane_spans_start_on_64_byte_lines(self, monkeypatch, shape):
        # node q+1, where every span starts, of the six planes (u, h*h*mu and
        # mu by colour), and the residual's and neighbour sum's red and black
        # parts, as the solve hands them to _lap_plus
        blocks, parts = [], []

        def recording(size, lo=0):
            blocks.append(aligned(size, lo))
            return blocks[-1]

        def lap_plus(out, nsum, *rest):
            parts.extend([out, nsum])
            return laps(out, nsum, *rest)

        aligned, laps = potential._line_aligned, potential._lap_plus
        monkeypatch.setattr(potential, "_line_aligned", recording)
        monkeypatch.setattr(potential, "_lap_plus", lap_plus)
        with pytest.raises(ConvergenceError):  # one residual, no sweeps
            poisson_solve(Field2D(np.random.default_rng(5).uniform(0.0, 1.0, shape)),
                          max_iters=0)
        q = (shape[1] | 1) // 2
        starts = [plane[q + 1:] for plane in blocks[0].reshape(6, -1)] + parts
        assert len(starts) == 10
        assert [a.ctypes.data % 64 for a in starts] == [0] * 10

    @pytest.mark.parametrize("max_iters", [2.5, -1, True])
    def test_max_iters_must_be_a_count(self, max_iters):
        with pytest.raises(ParameterError):
            poisson_solve(Field2D.zeros(6, 6), max_iters=max_iters)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionError):
            poisson_solve(Field2D.zeros(2, 2))
        with pytest.raises(ParameterError):
            poisson_solve(Field2D.zeros(4, 4), tol=0.0)
        with pytest.raises(ParameterError):
            poisson_solve(Field2D.zeros(4, 4), h=-1.0)
        with pytest.raises(DimensionError):
            poisson_solve(Field2D.zeros(4, 4), boundary=Field2D.zeros(5, 4))


class TestDirectPotential:
    def test_single_cell_closed_form(self):
        # a lone cell sees only its own regularized kernel value
        h = 0.25
        u = direct_potential(Field2D(np.array([[3.0]])), h)
        expect = (1.5 - math.log(0.5 * h)) * 3.0 * h * h / (2.0 * math.pi)
        assert u.values[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_matches_frozen_double_loop_oracle(self):
        mu = Field2D(np.random.default_rng(202).uniform(0.0, 1.0, (5, 6)))
        d = direct_potential(mu, 1.0)
        assert d.values[0, 0] == pytest.approx(-2.580729007233532, abs=1e-12)
        assert d.values[2, 3] == pytest.approx(-1.4569254172434487, abs=1e-12)
        assert d.values[4, 5] == pytest.approx(-2.6889732571003973, abs=1e-12)
        assert float(d.values.sum()) == pytest.approx(-60.407544556454894,
                                                      abs=1e-10)

    def test_point_mass_log_difference(self):
        # for a single mass m, u(r1) - u(r2) = (h^2/2pi) * m * log(r2/r1)
        h = 0.5
        m = np.zeros((33, 33))
        m[16, 16] = 3.0
        u = direct_potential(Field2D(m), h)
        r1, r2 = 4 * h, 10 * h
        pred = (h * h / (2.0 * math.pi)) * 3.0 * math.log(r2 / r1)
        assert u.values[16, 20] - u.values[16, 26] == pytest.approx(
            pred, rel=1e-12)

    def test_superposition(self):
        rng = np.random.default_rng(77)
        m1 = Field2D(rng.uniform(-1, 1, (6, 6)))
        m2 = Field2D(rng.uniform(-1, 1, (6, 6)))
        lhs = direct_potential(Field2D(1.5 * m1.values - 2.0 * m2.values))
        rhs = 1.5 * direct_potential(m1).values - 2.0 * direct_potential(m2).values
        assert np.abs(lhs.values - rhs).max() < 1e-12

    def test_grid_size_limit(self):
        direct_potential(Field2D.zeros(64, 3))
        with pytest.raises(GridSizeError):
            direct_potential(Field2D.zeros(65, 3))
        with pytest.raises(GridSizeError):
            direct_potential(Field2D.zeros(3, 65))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ParameterError):
            direct_potential(Field2D.zeros(4, 4), h=0.0)

    def test_spacing_whose_half_rounds_to_zero_is_a_parameter_error(self):
        # the self term's log(h/2) raised ValueError: math domain error
        with pytest.raises(ParameterError, match="h / 2"):
            direct_potential(Field2D(np.ones((4, 4))), h=5e-324)
        # the smallest h with a non-zero half: h*h underflows, and so does u
        assert not direct_potential(Field2D(np.ones((4, 4))), h=1e-323).values.any()


class TestEvolvePotential:
    def test_heat_step_from_rest_closed_form(self):
        mu = Field2D(np.random.default_rng(3).uniform(0, 1, (6, 7)))
        p = TelegraphParams(gamma=0.0, lambda_drag=2.0, c=1.5, h=1.0, dt=0.2,
                            mode=Mode.HEAT)
        st = evolve_potential(PotentialState.zero(7, 6), mu, p)
        expect = np.zeros((6, 7))
        expect[1:-1, 1:-1] = (0.2 * 1.5 ** 2 / 2.0) * mu.values[1:-1, 1:-1]
        assert np.allclose(st.u.values, expect, atol=1e-15)
        assert not st.u_t.values.any()

    def test_wave_step_from_rest_closed_form(self):
        mu = Field2D(np.random.default_rng(4).uniform(0, 1, (6, 6)))
        gamma, lam, c, dt = 2.0, 0.8, 1.0, 0.3
        p = TelegraphParams(gamma=gamma, lambda_drag=lam, c=c, h=1.0, dt=dt,
                            mode=Mode.DAMPED_WAVE)
        st = evolve_potential(PotentialState.zero(6, 6), mu, p)
        ut = np.zeros((6, 6))
        ut[1:-1, 1:-1] = dt * c * c * mu.values[1:-1, 1:-1] / (gamma + 0.5 * lam * dt)
        assert np.allclose(st.u_t.values, ut, atol=1e-15)
        assert np.allclose(st.u.values, dt * ut, atol=1e-15)

    def test_overflow_is_numerical_error(self):
        # finite inputs, so a non-finite step result can only be overflow
        mu = Field2D(np.full((8, 8), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflow"):
            evolve_potential(PotentialState.zero(8, 8), mu,
                             TelegraphParams(c=100, dt=0.007))

    def test_h_squared_underflow_is_numerical_error_without_warning(self):
        # h*h rounds to 0: the Laplacian of a bump divides by zero
        u0 = np.zeros((5, 5))
        u0[1:4, 1:4] = 1.0
        st = PotentialState(Field2D(u0), Field2D.zeros(5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow"):
                evolve_potential(st, Field2D.zeros(5, 5), TelegraphParams(h=1e-170, dt=1e-171))

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.7])
    @pytest.mark.parametrize("mode, gamma, lam", [
        (Mode.HEAT, 0.0, 1.5), (Mode.WAVE, 1.0, 0.0), (Mode.DAMPED_WAVE, 0.7, 2.0),
    ])
    def test_bitwise_matches_full_grid_laplacian(self, mode, gamma, lam, h):
        rng = np.random.default_rng(13)
        # non-zero edge ring and u_t, so every stencil term is live
        st = PotentialState(Field2D(rng.standard_normal((7, 9))),
                            Field2D(rng.standard_normal((7, 9))))
        mu = Field2D(rng.uniform(0, 1, (7, 9)))
        c = 1.3
        dt = 0.9 * stable_dt(mode, gamma, lam, c, h)
        p = TelegraphParams(gamma=gamma, lambda_drag=lam, c=c, h=h, dt=dt, mode=mode)
        for _ in range(5):
            want_u, want_ut = full_grid_step(st, mu, p)
            st = evolve_potential(st, mu, p)
            assert np.array_equal(st.u.values, want_u)
            assert np.array_equal(st.u_t.values, want_ut)

    @pytest.mark.parametrize("mode, gamma, lam", [
        (Mode.HEAT, 0.0, 1.5), (Mode.WAVE, 1.0, 0.0), (Mode.DAMPED_WAVE, 0.7, 2.0),
    ])
    def test_workspace_steps_match_public_steps(self, mode, gamma, lam):
        # one workspace stepped in place, edge ring and u_t non-zero at the start
        rng = np.random.default_rng(17)
        st = PotentialState(Field2D(rng.standard_normal((7, 9))),
                            Field2D(rng.standard_normal((7, 9))))
        mu = Field2D(rng.uniform(0, 1, (7, 9)))
        p = TelegraphParams(gamma=gamma, lambda_drag=lam, c=1.3, h=0.5,
                            dt=0.9 * stable_dt(mode, gamma, lam, 1.3, 0.5), mode=mode)
        ws = _Workspace(st)
        step = ws.stepper(mu, p)
        for _ in range(6):
            st = evolve_potential(st, mu, p)
            step()
            assert np.array_equal(ws.u, st.u.values)
            assert np.array_equal(ws.u_t, st.u_t.values)

    @pytest.mark.parametrize("shape", [(64, 64), (31, 33)], ids=["64x64", "33x31"])
    def test_stepper_spans_start_on_64_byte_lines(self, monkeypatch, shape):
        # u's and u_t's spans, and both scratch spans the stepper makes
        scratch = []

        def recording(size, lo=0):
            block = aligned(size, lo)
            scratch.append(block[lo:])
            return block

        aligned = potential._line_aligned
        monkeypatch.setattr(potential, "_line_aligned", recording)
        mu = Field2D(np.random.default_rng(5).uniform(0, 1, shape))
        ws = _Workspace(PotentialState.zero(shape[1], shape[0]))
        scratch.clear()
        step = ws.stepper(mu, TelegraphParams(lambda_drag=4.0, dt=0.05))
        step()
        spans = [ws._span[1], ws._span[2], *scratch]
        assert [a.ctypes.data % 64 for a in spans] == [0, 0, 0, 0]

    @pytest.mark.parametrize("mode, gamma, lam", [
        (Mode.HEAT, 0.0, 1.5), (Mode.DAMPED_WAVE, 0.7, 2.0),
    ])
    def test_input_state_untouched_and_unshared(self, mode, gamma, lam):
        rng = np.random.default_rng(21)
        st = PotentialState(Field2D(rng.standard_normal((6, 8))),
                            Field2D(rng.standard_normal((6, 8))))
        before = (st.u.values.copy(), st.u_t.values.copy())
        p = TelegraphParams(gamma=gamma, lambda_drag=lam, c=1.0,
                            dt=0.9 * stable_dt(mode, gamma, lam, 1.0, 1.0), mode=mode)
        out = evolve_potential(st, Field2D(rng.uniform(0, 1, (6, 8))), p)
        assert np.array_equal(st.u.values, before[0])
        assert np.array_equal(st.u_t.values, before[1])
        for new in (out.u.values, out.u_t.values):
            for old in (st.u.values, st.u_t.values):
                assert not np.shares_memory(new, old)

    def test_ring_near_float_limit_steps_without_warning(self):
        # the edge columns are stepped with the interior and then discarded;
        # a ring of 5e307 overflows 4*u there, and that must stay silent
        u0 = np.zeros((6, 6))
        u0[0, :] = u0[-1, :] = u0[:, 0] = u0[:, -1] = 5e307
        st = PotentialState(Field2D(u0), Field2D.zeros(6, 6))
        p = TelegraphParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_potential(st, Field2D.zeros(6, 6), p)
        # from rest with mu = 0: u_t = dt c^2 lap u / (gamma + lambda dt / 2)
        lap = (u0[:-2, 1:-1] + u0[2:, 1:-1] + u0[1:-1, :-2] + u0[1:-1, 2:]
               - 4.0 * u0[1:-1, 1:-1]) / (p.h * p.h) + 0.0
        want_ut = np.zeros((6, 6))
        want_ut[1:-1, 1:-1] = (p.dt * p.c * p.c * lap) / (p.gamma + 0.5 * p.lambda_drag * p.dt)
        assert np.array_equal(out.u_t.values, want_ut)
        assert np.array_equal(out.u.values, u0 + p.dt * want_ut)

    def test_boundary_ring_held_fixed(self):
        u0 = np.zeros((7, 7))
        u0[0, :] = u0[-1, :] = u0[:, 0] = u0[:, -1] = 5.0
        st = PotentialState(Field2D(u0), Field2D.zeros(7, 7))
        mu = Field2D(np.ones((7, 7)))
        p = TelegraphParams(dt=0.1)
        out = evolve_potential(st, mu, p)
        assert np.array_equal(out.u.values[0, :], u0[0, :])
        assert np.array_equal(out.u.values[-1, :], u0[-1, :])
        assert np.array_equal(out.u.values[:, 0], u0[:, 0])
        assert np.array_equal(out.u.values[:, -1], u0[:, -1])
        assert not out.u_t.values[0, :].any()

    def test_heat_reaches_quiescent_elliptic_solution(self):
        n = 16
        ys, xs = np.mgrid[0:n, 0:n]
        mu = Field2D(np.exp(-((xs - 7.0) ** 2 + (ys - 8.0) ** 2) / 8.0))
        p = TelegraphParams(gamma=0.0, lambda_drag=1.0, c=2.0, h=1.0,
                            dt=0.06, mode=Mode.HEAT)
        st = PotentialState.zero(n, n)
        for _ in range(1000):
            st = evolve_potential(st, mu, p)
        res = interior_lap(st.u, 1.0) + mu.values[1:-1, 1:-1]
        assert np.abs(res).max() < 1e-4

    def test_damped_wave_reaches_quiescent_elliptic_solution(self):
        n = 16
        ys, xs = np.mgrid[0:n, 0:n]
        mu = Field2D(np.exp(-((xs - 7.0) ** 2 + (ys - 8.0) ** 2) / 8.0))
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, h=1.0,
                            dt=0.3, mode=Mode.DAMPED_WAVE)
        st = PotentialState.zero(n, n)
        for _ in range(500):
            st = evolve_potential(st, mu, p)
        res = interior_lap(st.u, 1.0) + mu.values[1:-1, 1:-1]
        assert np.abs(res).max() < 1e-4

    def test_undriven_wave_energy_nonincreasing_and_tame(self):
        # standing mode of the interior 5-point operator with zero ring;
        # at dt = 1e-3 the measured per-step energy change is 2.3e-7
        n = 17
        s = np.sin(math.pi * np.arange(n) / (n - 1))
        st = PotentialState(Field2D(np.outer(s, s)), Field2D.zeros(n, n))
        mu = Field2D(np.zeros((n, n)))
        p = TelegraphParams(gamma=1.0, lambda_drag=0.0, c=1.0, h=1.0,
                            dt=0.001, mode=Mode.WAVE)
        e = [plain_energy(st, p.c, p.h)]
        for _ in range(10):
            st = evolve_potential(st, mu, p)
            e.append(plain_energy(st, p.c, p.h))
        for a, b in zip(e, e[1:]):
            assert b <= a * (1.0 + 1e-12)
            assert abs(b - a) / e[0] < 1e-6

    def test_drag_dissipates_energy(self):
        n = 17
        s = np.sin(math.pi * np.arange(n) / (n - 1))
        st = PotentialState(Field2D(np.outer(s, s)), Field2D.zeros(n, n))
        mu = Field2D(np.zeros((n, n)))
        # drag near critical for the fundamental mode drains every mode
        # at rate >= lambda/(2 gamma)
        p = TelegraphParams(gamma=1.0, lambda_drag=0.4, c=1.0, h=1.0,
                            dt=0.05, mode=Mode.DAMPED_WAVE)
        e0 = plain_energy(st, p.c, p.h)
        for _ in range(400):
            st = evolve_potential(st, mu, p)
        assert plain_energy(st, p.c, p.h) < 0.1 * e0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            evolve_potential(PotentialState.zero(8, 8),
                             Field2D.zeros(9, 8), TelegraphParams())

    def test_too_small_grid(self):
        with pytest.raises(DimensionError):
            evolve_potential(PotentialState.zero(2, 2),
                             Field2D.zeros(2, 2), TelegraphParams())


class TestConvergenceInC:
    @staticmethod
    def blob16():
        ys, xs = np.mgrid[0:16, 0:16]
        return Field2D(np.exp(-((xs - 7.0) ** 2 + (ys - 8.0) ** 2) / 8.0))

    def test_heat_errors_decrease_toward_elliptic_limit(self):
        p = TelegraphParams(gamma=0.0, lambda_drag=1.0, c=4.0, h=1.0,
                            dt=0.015, mode=Mode.HEAT)
        errs = convergence_in_c(self.blob16(), [1.0, 2.0, 4.0], 20.0, p)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05

    def test_damped_wave_errors_decrease_toward_elliptic_limit(self):
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=4.0, h=1.0,
                            dt=0.1, mode=Mode.DAMPED_WAVE)
        errs = convergence_in_c(self.blob16(), [1.0, 2.0, 4.0], 40.0, p)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.05

    def test_zero_source_gives_zero_errors(self):
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, h=1.0,
                            dt=0.1, mode=Mode.DAMPED_WAVE)
        errs = convergence_in_c(Field2D.zeros(8, 8), [1.0, 2.0], 1.0, p)
        assert errs == [0.0, 0.0]

    def test_input_list_unmodified(self):
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, h=1.0,
                            dt=0.1, mode=Mode.DAMPED_WAVE)
        cs = [1.0, 2.0]
        convergence_in_c(Field2D.zeros(8, 8), cs, 1.0, p)
        assert cs == [1.0, 2.0]

    def test_rejects_bad_speed_lists(self):
        p = TelegraphParams(dt=0.05)
        with pytest.raises(ParameterError):
            convergence_in_c(Field2D.zeros(8, 8), [2.0, 1.0], 1.0, p)
        with pytest.raises(ParameterError):
            convergence_in_c(Field2D.zeros(8, 8), [0.0, 1.0], 1.0, p)
        with pytest.raises(ParameterError):
            convergence_in_c(Field2D.zeros(8, 8), [1.0], 0.0, p)

    @pytest.mark.parametrize("cs, horizon, dt", [
        ([1.0, 2.0], 30.0, 1e-9), ([1.0, 2.0], 1e9, 0.1), ([1.0], 1e300, 1e-300),
        ([], 1e300, 1e-300),
        ([1.0], 1e6, 0.1),  # 9e7 on 3x3, but a step that small costs as much as 32x32
    ])
    def test_work_over_budget_raises_before_any_solve(self, cs, horizon, dt):
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, h=1.0, dt=dt,
                            mode=Mode.DAMPED_WAVE)
        with pytest.raises(ConfigError, match="node steps"):
            convergence_in_c(Field2D.zeros(3, 3), cs, horizon, p)

    def test_unstable_speed_raises_before_any_stepping(self, monkeypatch):
        # dt admits c = 2 but not c = 8 under the CFL bound
        p = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, h=1.0,
                            dt=0.3, mode=Mode.DAMPED_WAVE)
        solves, sine_modes = [], potential._sine_modes
        monkeypatch.setattr(potential, "_sine_modes",
                            lambda *a: solves.append(a) or sine_modes(*a))
        with pytest.raises(ConfigError):
            convergence_in_c(Field2D.zeros(8, 8), [2.0, 8.0], 1.0, p)
        assert solves == []
        assert convergence_in_c(Field2D.zeros(8, 8), [], 1.0, p) == []

    @pytest.mark.parametrize("mode, gamma, lam", [
        (Mode.HEAT, 0.0, 1.5), (Mode.WAVE, 1.0, 0.0), (Mode.DAMPED_WAVE, 0.7, 2.0),
    ])
    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("width, height", [(3, 3), (9, 17), (64, 64)])
    def test_closed_form_matches_public_stepping(self, mode, gamma, lam, h, width, height):
        rng = np.random.default_rng(width * height)
        mu = Field2D(rng.uniform(0, 1, (height, width)))
        cs = [0.6, 1.2, 1.8]
        base = TelegraphParams(gamma=gamma, lambda_drag=lam, c=cs[-1], h=h,
                               dt=0.9 * stable_dt(mode, gamma, lam, cs[-1], h), mode=mode)
        st, steps = PotentialState.zero(width, height), 300
        for _ in range(steps):
            st = evolve_potential(st, mu, base)
        u = potential._stepped(*potential._sine_modes(mu, h), base, steps)
        assert u.shape == (height, width)
        assert np.abs(u - st.u.values).max() <= 3e-13 * np.abs(st.u.values).max()

        # each speed's error is the same given alone as given with the others
        errors = convergence_in_c(mu, cs, 9 * base.dt, base)
        assert errors == [convergence_in_c(mu, [c], 9 * base.dt, base)[0] for c in cs]

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize("height, width", [(3, 3), (3, 4), (9, 17), (16, 15), (33, 31)])
    def test_reference_solves_the_five_point_system_to_rounding(self, height, width, h):
        rng = np.random.default_rng(height * 100 + width)
        mu = Field2D(rng.uniform(0.0, 1.0, (height, width)))
        u = potential._from_modes(potential._sine_modes(mu, h)[0])
        assert u.shape == (height, width)
        ring = np.ones(u.shape, bool)
        ring[1:-1, 1:-1] = False
        assert not u[ring].any()
        # the rounding of -lap u - mu scales with its largest terms
        scale = np.abs(mu.values).max() + 8.0 * np.abs(u).max() / (h * h)
        eps = np.finfo(float).eps
        residual = np.abs(-interior_lap(Field2D(u), h) - mu.values[1:-1, 1:-1]).max()
        assert residual <= 8 * eps * scale
        # SOR stops at a residual under tol; -lap's inverse has max-norm at most
        # L^2/8 over a side L (the quadratic x(L-x)/2 bounds it), so the two
        # solves differ by at most that times tol plus the residual's rounding
        tol, side = 1e-11, (min(height, width) - 1) * h
        sor = poisson_solve(mu, h, tol=tol, max_iters=200000).values
        assert np.abs(sor - u).max() <= (tol + 16 * eps * scale) * side * side / 8

    def test_float32_horizon_gives_the_bits_of_its_float_value(self):
        # under NEP 50, np.float32(0.35) / 0.1 is a float32 that rounds to 4 steps
        # where 0.35 as a float takes 3
        mu = Field2D(np.random.default_rng(3).uniform(0.0, 1.0, (16, 16)))
        base = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=2.0, dt=0.1)
        horizon = np.float32(0.35)
        want = convergence_in_c(mu, [1.0, 2.0], float(horizon), base)
        assert want == convergence_in_c(mu, [1.0, 2.0], 3 * base.dt, base)
        assert convergence_in_c(mu, [1.0, 2.0], horizon, base) == want

    @pytest.mark.parametrize("width, height", [(2, 2), (2, 5), (5, 2), (1, 4)])
    def test_grid_under_3x3_raises_dimension_error_naming_convergence_in_c(self, width,
                                                                            height):
        # without the check, these returned [0.0, 0.0] or raised ZeroDivisionError
        p = TelegraphParams(lambda_drag=4.0, dt=0.05)
        with pytest.raises(DimensionError, match="convergence_in_c"):
            convergence_in_c(Field2D.zeros(width, height), [1.0, 2.0], 1.0, p)

    def test_peak_memory_does_not_grow_with_the_speeds(self):
        # each speed's closed form is freed before the next one's is taken
        mu = Field2D(np.random.default_rng(3).uniform(0, 1, (64, 64)))
        cs = [float(c) for c in range(1, 13)]
        p = TelegraphParams(lambda_drag=4.0, c=cs[-1], dt=0.05)

        def peak(speeds):
            tracemalloc.start()
            try:
                convergence_in_c(mu, speeds, 3 * p.dt, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(cs) <= peak(cs[:4]) + 32 * 1024
