"""The shared grid and enum validators, and every call site that uses them."""

import inspect
import warnings

import numpy as np
import pytest

from gazefield import (
    AttractionSign,
    BoundaryPolicy,
    DataError,
    DimensionError,
    FeatureChannel,
    FeatureStack,
    Field2D,
    FlowField,
    FoaParams,
    FoaState,
    IorField,
    MassParams,
    Mode,
    NumericalError,
    ParameterError,
    PotentialState,
    TelegraphParams,
    VectorField2D,
    conjugation_residual,
    direct_potential,
    energy,
    evolve_potential,
    feature_group_flow,
    gaussian_blur,
    gradient,
    horn_schunck,
    hs_objective,
    laplacian,
    magnitude,
    mass_density,
    poisson_solve,
    sample_gradient,
    temporal_derivative,
)
from gazefield import foa, mass, optical_flow, potential, retina, synth
from gazefield.cli import SimConfig, run_simulation
from gazefield.errors import check_grid, check_int, check_member, check_real
from gazefield.optical_flow import HsParams, hs_jacobi_step
from gazefield.potential import convergence_in_c


class TestCheckGrid:
    def test_matching_grids_at_the_minimum_pass(self):
        check_grid("f", (3, 4), (3, 4), (3, 4), min_side=3)
        check_grid("f", (1, 1))

    def test_mismatch_names_what_and_both_grids_as_wxh(self):
        with pytest.raises(DimensionError, match=r"^f: grid 5x3 does not match 4x3$"):
            check_grid("f", (3, 4), (3, 4), (3, 5))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2)])
    def test_either_side_below_the_minimum(self, shape):
        h, w = shape
        with pytest.raises(DimensionError, match=rf"^f needs at least 3x3, got {w}x{h}$"):
            check_grid("f", shape, min_side=3)

    def test_mismatch_is_reported_before_size(self):
        with pytest.raises(DimensionError, match="does not match"):
            check_grid("f", (2, 2), (3, 3), min_side=3)


class TestCheckMember:
    def test_member_passes(self):
        check_member("mode", Mode.HEAT, Mode)

    @pytest.mark.parametrize("v", ["heat", 1.0, None, BoundaryPolicy.CLAMP])
    def test_non_member_raises_parameter_error(self, v):
        with pytest.raises(ParameterError, match=r"^mode must be a member of Mode, got"):
            check_member("mode", v, Mode)


@pytest.mark.parametrize("v, shown", [
    (10**20 - 1, "99999999999999999999"), (-10**20, "an integer of 21 digits"),
    (10**400, "an integer of 401 digits")])
def test_integer_past_20_digits_is_named_by_its_digit_count(v, shown):
    for check in (check_int, check_real):
        with pytest.raises(ParameterError, match=rf"^n must be .*, got {shown}$"):
            check("n", v, 0, 5)


def field(h, w):
    return Field2D(np.zeros((h, w)))


def grad(h, w):
    return VectorField2D(np.zeros((h, w)), np.zeros((h, w)))


def channel(h, w):
    return FeatureChannel(grad(h, w), field(h, w))


# (error class, the name the message starts with, call); each call breaks
# exactly one rule routed through check_grid or check_member
CALL_SITES = {
    "VectorField2D": (DimensionError, "VectorField2D",
                      lambda: VectorField2D(np.zeros((3, 3)), np.zeros((3, 4)))),
    "gradient": (DimensionError, "gradient", lambda: gradient(field(1, 5))),
    "laplacian": (DimensionError, "laplacian", lambda: laplacian(field(5, 2))),
    "temporal_derivative": (DimensionError, "temporal_derivative",
                            lambda: temporal_derivative(field(3, 3), field(3, 4), 0.1)),
    "sample_gradient": (DimensionError, "sample_gradient",
                        lambda: sample_gradient(field(1, 5), (1.0, 0.0))),
    "mass_density-motion": (DimensionError, "mass_density",
                            lambda: mass_density(grad(3, 3), field(3, 4),
                                                 IorField.zeros(3, 3), MassParams())),
    "mass_density-ior": (DimensionError, "mass_density",
                         lambda: mass_density(grad(3, 3), field(3, 3),
                                              IorField.zeros(4, 3), MassParams())),
    "FeatureChannel": (DimensionError, "FeatureChannel",
                       lambda: FeatureChannel(grad(3, 3), field(4, 3))),
    "FeatureStack": (DimensionError, "FeatureStack",
                     lambda: FeatureStack((channel(3, 3), channel(3, 4)))),
    "FeatureStack-type": (DataError, "FeatureStack", lambda: FeatureStack(("x",))),
    "conjugation_residual": (DimensionError, "conjugation_residual",
                             lambda: conjugation_residual(grad(3, 3), field(3, 3),
                                                          FlowField(np.zeros((4, 3)),
                                                                    np.zeros((4, 3))))),
    "horn_schunck-mismatch": (DimensionError, "horn_schunck",
                              lambda: horn_schunck(field(4, 4), field(4, 5), 0.1, HsParams())),
    "horn_schunck-small": (DimensionError, "horn_schunck",
                           lambda: horn_schunck(field(2, 5), field(2, 5), 0.1, HsParams())),
    "hs_objective": (DimensionError, "hs_objective",
                     lambda: hs_objective(grad(3, 3), field(3, 4),
                                          FlowField(np.zeros((3, 3)), np.zeros((3, 3))),
                                          0.1)),
    "PotentialState": (DimensionError, "PotentialState",
                       lambda: PotentialState(field(3, 3), field(3, 4))),
    "poisson_solve-small": (DimensionError, "poisson_solve",
                            lambda: poisson_solve(field(2, 5))),
    "poisson_solve-boundary": (DimensionError, "poisson_solve",
                               lambda: poisson_solve(field(4, 4), boundary=field(4, 5))),
    "evolve_potential-mismatch": (DimensionError, "evolve_potential",
                                  lambda: evolve_potential(PotentialState.zero(4, 4),
                                                           field(4, 5), TelegraphParams())),
    "evolve_potential-small": (DimensionError, "evolve_potential",
                               lambda: evolve_potential(PotentialState.zero(5, 2),
                                                        field(2, 5), TelegraphParams())),
    "run_simulation": (DimensionError, "run_simulation",
                       lambda: run_simulation((field(2, 6),) * 3, SimConfig())),
    "FoaParams.attraction_sign": (ParameterError, "attraction_sign",
                                  lambda: FoaParams(attraction_sign="attract")),
    "FoaParams.boundary": (ParameterError, "boundary",
                           lambda: FoaParams(boundary=AttractionSign.ATTRACT)),
    "TelegraphParams.mode": (ParameterError, "mode", lambda: TelegraphParams(mode="heat")),
    "MassParams.motion_source": (ParameterError, "motion_source",
                                 lambda: MassParams(motion_source="flow_magnitude")),
}


@pytest.mark.parametrize("site", sorted(CALL_SITES))
def test_call_site_raises_its_class_and_names_itself(site):
    cls, name, call = CALL_SITES[site]
    with pytest.raises(cls, match=rf"^{name}\b") as info:
        call()
    assert type(info.value) is cls


def huge(n=4):
    return np.full((n, n), 1.5e308)


# each call overflows on finite input; under -W error numpy's RuntimeWarning
# used to escape before the non-finite check could raise NumericalError
OVERFLOWS = {
    "gradient": lambda: gradient(Field2D(np.arange(16.0).reshape(4, 4)), 1e-309),
    "laplacian": lambda: laplacian(Field2D(np.arange(16.0).reshape(4, 4)), 1e-160),
    "magnitude": lambda: magnitude(VectorField2D(huge(), huge())),
    "mass_density": lambda: mass_density(VectorField2D(huge(), huge()), field(4, 4),
                                         IorField.zeros(4, 4), MassParams()),
    "conjugation_residual": lambda: conjugation_residual(
        VectorField2D(huge(), huge()), Field2D(huge()), FlowField(huge(), huge())),
    "hs_objective": lambda: hs_objective(VectorField2D(huge(), huge()), Field2D(huge()),
                                         FlowField(huge(), huge()), 0.1),
    # the reference potential is finite, and its gradient norm squares and overflows
    "convergence_in_c": lambda: convergence_in_c(Field2D(np.full((16, 16), 1e160)), [1.0],
                                                 0.5, TelegraphParams(c=1.0, dt=0.1)),
    "temporal_derivative": lambda: temporal_derivative(Field2D(-huge()), Field2D(huge()), 1.0),
    # the interior's neighbour sums overflow
    "evolve_potential": lambda: evolve_potential(PotentialState(Field2D(huge()), field(4, 4)),
                                                 field(4, 4), TelegraphParams()),
    # h*h is inf: overflow, not a data error
    "direct_potential": lambda: direct_potential(Field2D(np.ones((16, 16))), h=1e200),
    # the x difference over h overflows, in Python floats
    "sample_gradient": lambda: sample_gradient(
        Field2D(np.tile(np.arange(6.0) * 1e306, (6, 1))), (2.5, 2.5), h=1e-300),
    # the kinetic term overflows, in Python floats
    "energy": lambda: energy(FoaState(2.0, 2.0, 1e200, 1e200), field(6, 6), FoaParams()),
    # G^T G overflows in the normal equations
    "feature_group_flow": lambda: feature_group_flow(FeatureStack(
        (FeatureChannel(VectorField2D(huge(6), huge(6)), field(6, 6)),), ridge=1.0)),
    # the neighbour sum overflows off the band: the update is inf
    "hs_jacobi_step": lambda: hs_jacobi_step(huge(6), huge(6), np.zeros((6, 6)),
                                             np.zeros((6, 6)), np.zeros((6, 6)), 0.01),
    # lam + gx*gx + gy*gy overflows at set-up, where the sweeps would return a zero flow
    "horn_schunck": lambda: horn_schunck(*[Field2D(np.arange(64.0).reshape(8, 8) * 1e160)] * 2,
                                         1.0, HsParams()),
    # the taps sum to 1 + 1 ulp, so a field at float64's limit overflows
    "gaussian_blur": lambda: gaussian_blur(Field2D(np.full((16, 16), np.finfo(float).max)), 2.0),
}


@pytest.mark.parametrize("site", sorted(OVERFLOWS))
def test_overflow_raises_numerical_error_under_warnings_as_errors(site):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflow"):
            OVERFLOWS[site]()


# the public functions of the numerical modules with no case in OVERFLOWS,
# and why none applies
OVERFLOW_EXEMPT = {
    "load_pgm": "I/O: samples over maxval lie in [0, 1]",
    "save_pgm": "I/O: encodes samples clipped to [0, 1]",
    "schedule_sigma": "bounded: at most sigma0",
    "ior_step": "bounded: the field stays in [0, 1]",
    "stable_dt": "a step bound, where inf admits any step",
    "poisson_solve": "a non-finite residual stops it as ConvergenceError",
    "foa_step": "runaway check: a step beyond the grid raises NumericalError",
    "detect_saccades": "computes flags only; the rows pass through",
    "blob_image": "bounded: clipped to [0, 1]",
    "two_blob_image": "bounded: clipped to [0, 1]",
    "black_frames": "zeros",
    "static_frames": "the input, repeated",
    "moving_blob_frames": "bounded: clipped to [0, 1]",
    "add_noise": "bounded: clipped to [0, 1]",
}


def test_every_public_function_has_an_overflow_case_or_an_exemption():
    public = {name for module in (retina, mass, optical_flow, potential, foa, synth)
              for name in module.__all__ if inspect.isfunction(getattr(module, name))}
    assert public - OVERFLOWS.keys() - OVERFLOW_EXEMPT.keys() == set()
    assert OVERFLOWS.keys() | OVERFLOW_EXEMPT.keys() <= public  # no stale name
    assert not OVERFLOWS.keys() & OVERFLOW_EXEMPT.keys()
