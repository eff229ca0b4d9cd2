"""The shared grid and enum validators, and every call site that uses them."""

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
    IorField,
    MassParams,
    Mode,
    ParameterError,
    PotentialState,
    TelegraphParams,
    VectorField2D,
    conjugation_residual,
    evolve_potential,
    gradient,
    horn_schunck,
    hs_objective,
    laplacian,
    mass_density,
    poisson_solve,
    sample_gradient,
    temporal_derivative,
)
from gazefield.cli import SimConfig, run_simulation
from gazefield.errors import check_grid, check_member
from gazefield.optical_flow import HsParams


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
