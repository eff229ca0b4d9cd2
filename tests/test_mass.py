"""Mass density and inhibition-of-return dynamics."""

import math
import warnings

import numpy as np
import pytest

from gazefield import (
    DimensionError,
    Field2D,
    NumericalError,
    ParameterError,
    VectorField2D,
    gradient,
)
from gazefield.mass import (
    IorField,
    IorParams,
    MassParams,
    MotionSource,
    ior_step,
    mass_density,
)


class TestParams:
    def test_mass_defaults(self):
        p = MassParams()
        assert p.alpha1 == 1.0 and p.alpha2 == 1.0
        assert p.motion_source is MotionSource.TEMPORAL_DERIVATIVE

    def test_mass_weights_cannot_both_vanish(self):
        with pytest.raises(ParameterError):
            MassParams(alpha1=0.0, alpha2=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            MassParams(alpha1=-0.1)

    def test_ior_beta_range(self):
        IorParams(beta=1.0, sigma_ior=2.0)
        with pytest.raises(ParameterError):
            IorParams(beta=0.0)
        with pytest.raises(ParameterError):
            IorParams(beta=1.5)

    @pytest.mark.parametrize("sigma", [1e300, 1e200, 1e160, 1e-200, 1e-300, 5e-324])
    def test_ior_sigma_must_keep_two_variance_positive_and_finite(self, sigma):
        # 2*sigma**2 overflowed (OverflowError) or was 0 (0/0 at the gaze node)
        with pytest.raises(ParameterError, match="sigma_ior"):
            IorParams(sigma_ior=sigma)

    def test_ior_sigma_with_subnormal_two_variance_accepted(self):
        assert IorParams(sigma_ior=1e-160).sigma_ior == 1e-160
        assert IorParams(sigma_ior=1e150).sigma_ior == 1e150

    def test_ior_field_range_enforced(self):
        with pytest.raises(ParameterError):
            IorField(np.full((3, 3), 1.2))
        with pytest.raises(ParameterError):
            IorField(np.full((3, 3), -0.1))


class TestMassDensity:
    def test_constant_frame_zero_motion(self):
        g = gradient(Field2D(np.full((6, 6), 0.4)))
        mu = mass_density(g, Field2D.zeros(6, 6), IorField.zeros(6, 6), MassParams())
        np.testing.assert_allclose(mu.values, 0.0, atol=1e-14)

    def test_full_inhibition_leaves_motion_only(self):
        rng = np.random.default_rng(83)
        g = VectorField2D(rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
        motion = Field2D(rng.uniform(0, 1, (5, 5)))
        saturated = IorField(np.ones((5, 5)))
        p = MassParams(alpha1=3.0, alpha2=2.0)
        mu = mass_density(g, motion, saturated, p)
        np.testing.assert_allclose(mu.values, 2.0 * motion.values, atol=1e-13)

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(89)
        gx = rng.standard_normal((4, 5))
        gy = rng.standard_normal((4, 5))
        motion = rng.uniform(0, 1, (4, 5))
        mu = mass_density(
            VectorField2D(gx, gy), Field2D(motion), IorField.zeros(5, 4), MassParams()
        ).values
        for y in range(4):
            for x in range(5):
                want = math.hypot(gx[y, x], gy[y, x]) + motion[y, x]
                assert mu[y, x] == pytest.approx(want, abs=1e-13)

    def test_nonnegative_with_valid_inputs(self):
        rng = np.random.default_rng(97)
        for _ in range(5):
            g = VectorField2D(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
            motion = Field2D(np.abs(rng.standard_normal((6, 6))))
            ior = IorField(rng.uniform(0, 1, (6, 6)))
            p = MassParams(alpha1=rng.uniform(0.1, 2), alpha2=rng.uniform(0.1, 2))
            assert mass_density(g, motion, ior, p).values.min() >= 0.0

    def test_more_inhibition_never_more_mass(self):
        rng = np.random.default_rng(101)
        g = VectorField2D(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
        motion = Field2D(np.abs(rng.standard_normal((6, 6))))
        low = rng.uniform(0, 0.5, (6, 6))
        high = np.clip(low + rng.uniform(0, 0.5, (6, 6)), 0, 1)
        p = MassParams()
        mu_low = mass_density(g, motion, IorField(low), p).values
        mu_high = mass_density(g, motion, IorField(high), p).values
        assert np.all(mu_high <= mu_low + 1e-13)

    def test_overflow_is_numerical_error(self):
        # finite inputs, so a non-finite result can only be overflow
        g = VectorField2D(np.zeros((4, 4)), np.zeros((4, 4)))
        motion = Field2D(np.full((4, 4), 10.0))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflow"):
            mass_density(g, motion, IorField.zeros(4, 4), MassParams(alpha2=1e308))

    def test_bitwise_matches_one_line_reference(self):
        rng = np.random.default_rng(113)
        shape = (9, 13)
        # values spread over many decades, so a changed operand order shows
        spread = lambda: rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        for _ in range(5):
            g = VectorField2D(spread(), spread())
            motion = Field2D(np.abs(spread()))
            ior = IorField(rng.uniform(0, 1, shape))
            p = MassParams(alpha1=rng.uniform(0.1, 200), alpha2=rng.uniform(0.1, 200))
            want = (p.alpha1 * np.hypot(g.dx, g.dy) * (1.0 - ior.values)
                    + p.alpha2 * motion.values)
            got = mass_density(g, motion, ior, p).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_dimension_mismatch(self):
        g = VectorField2D(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            mass_density(g, Field2D.zeros(4, 3), IorField.zeros(3, 3), MassParams())


class TestIorStep:
    def test_peak_charges_by_closed_form(self):
        p = IorParams(beta=0.5, sigma_ior=2.0)
        out = ior_step(IorField.zeros(9, 9), (4.0, 4.0), 0.25, p)
        want = 1.0 - math.exp(-0.5 * 0.25)
        assert out.values[4, 4] == pytest.approx(want, abs=1e-14)

    def test_fixed_focus_saturates_to_one(self):
        p = IorParams(beta=1.0, sigma_ior=2.0)
        ior = IorField.zeros(9, 9)
        for _ in range(200):
            ior = ior_step(ior, (4.0, 4.0), 0.1, p)
        assert ior.values[4, 4] == pytest.approx(1.0, abs=1e-8)

    def test_far_field_decays_geometrically(self):
        p = IorParams(beta=1.0, sigma_ior=1.0)
        ior = IorField(np.ones((9, 40)))
        decay = math.exp(-1.0 * 0.5)
        cur = ior
        for k in range(1, 4):
            cur = ior_step(cur, (0.0, 4.0), 0.5, p)
            # 35 px from the focus: source is ~0, pure geometric decay
            assert cur.values[4, 35] == pytest.approx(decay ** k, rel=1e-6)

    def test_preserves_unit_interval(self):
        rng = np.random.default_rng(103)
        p = IorParams(beta=1.0, sigma_ior=3.0)
        ior = IorField(rng.uniform(0, 1, (8, 8)))
        for _ in range(20):
            a = (rng.uniform(-5, 12), rng.uniform(-5, 12))
            dt = float(rng.uniform(0.01, 50.0))
            ior = ior_step(ior, a, dt, p)
            assert ior.values.min() >= 0.0 and ior.values.max() <= 1.0

    def test_consistent_with_ode_rate(self):
        # Richardson check: the step rate converges to beta*(G - I) as dt -> 0
        rng = np.random.default_rng(107)
        p = IorParams(beta=0.8, sigma_ior=2.0)
        ior = IorField(rng.uniform(0, 1, (7, 7)))
        a = (3.2, 2.7)
        ys, xs = np.mgrid[0:7, 0:7].astype(float)
        source = np.exp(-((xs - a[0]) ** 2 + (ys - a[1]) ** 2) / (2.0 * p.sigma_ior ** 2))
        ode_rate = p.beta * (source - ior.values)
        # defect of the exact integrator is beta^2*dt/2 * |G - I| to leading
        # order, so dt = 2e-6 puts both rates within 1e-6 of the ODE
        dt = 2e-6
        r1 = (ior_step(ior, a, dt, p).values - ior.values) / dt
        r2 = (ior_step(ior, a, dt / 2, p).values - ior.values) / (dt / 2)
        assert np.abs(r1 - ode_rate).max() < 1e-6
        assert np.abs(r2 - ode_rate).max() < 1e-6
        # halving dt halves the defect (first-order consistency)
        assert np.abs(r2 - ode_rate).max() < 0.6 * np.abs(r1 - ode_rate).max() + 1e-9

    def test_bitwise_matches_full_grid_coordinates(self):
        rng = np.random.default_rng(109)
        p = IorParams(beta=0.7, sigma_ior=2.5)
        ior = IorField(rng.uniform(0, 1, (6, 11)))
        a, dt = (3.3, 4.1), 0.2
        ys, xs = np.mgrid[0:6, 0:11].astype(np.float64)
        source = np.exp(-((xs - a[0]) ** 2 + (ys - a[1]) ** 2) / (2.0 * p.sigma_ior ** 2))
        decay = math.exp(-p.beta * dt)
        want = decay * ior.values + (1.0 - decay) * source
        assert np.array_equal(ior_step(ior, a, dt, p).values, want)

    def test_subnormal_two_variance_is_a_one_node_bump(self):
        # 2*sigma**2 = 2e-320: the exponent is -inf off the gaze node, with no warning
        p = IorParams(beta=1.0, sigma_ior=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ior_step(IorField.zeros(5, 4), (2.0, 3.0), 0.5, p).values
        want = np.zeros((4, 5))
        want[3, 2] = 1.0 - math.exp(-0.5)
        assert np.array_equal(out, want)

    def test_result_is_a_frozen_checked_inhibition_field(self):
        out = ior_step(IorField.zeros(4, 4), (1.0, 1.0), 0.1, IorParams())
        assert type(out) is IorField and not out.values.flags.writeable
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            IorField._own(np.full((2, 2), 1.5), "inhibition")

    def test_bad_inputs(self):
        p = IorParams()
        with pytest.raises(ParameterError):
            ior_step(IorField.zeros(4, 4), (float("nan"), 0.0), 0.1, p)
        with pytest.raises(ParameterError):
            ior_step(IorField.zeros(4, 4), (0.0, 0.0), 0.0, p)
