"""Mirror symmetries of the whole pipeline, and of the elliptic solve
(metamorphic relations).

Each pipeline relation runs ``run_simulation`` on a clip and on its mirror
image and maps one scanpath onto the other.  It compares two runs of the
same code, so it keeps holding when the arithmetic of a solver or a stepper
changes, where a byte test would not.  The clip is a seeded noisy two-blob
scene, and the gaze starts off both axes of symmetry, under README's
``explore.cfg`` settings: at the default config the gaze moves only about
3e-5 px, which would make any relation hold.  The scanpath CSV resolves
about 1e-7 px, and the gaps measured were at most 3.2e-14, so a 1e-9
tolerance leaves room on both sides.

The elliptic relations solve a seeded blurred mass with ``poisson_solve``:
its transpose gives the transposed potential, and s times the mass at s
times the tolerance gives s times the potential.  Both differ from the
exact map only by rounding: at most 3.3e-15 and 4.9e-15 of max|u| over 18
seeded masses, against a 1e-14 bound.  A stop one sweep apart moves u by
about the tolerance, far past it.
"""

import numpy as np
import pytest

from gazefield import Field2D, gaussian_blur, poisson_solve, synth
from gazefield.cli import parse_config, run_simulation

W, H = 64, 48
START = (20.5, 30.25)
EXPLORE = "alpha1 = 150\nc = 100\nlambda_drag = 4\ndissipation = 0.5\nbeta = 1\nsigma_ior = 5\n"
CONFIGS = {
    "explore": "",
    "blur": "blur_sigma0 = 3\nblur_decay_rate = 1\nblur_floor = 1\n",
    "flow": "motion_source = flow_magnitude\n",
}
TOL = 1e-9  # px and px/s
CLIP = synth.add_noise(synth.static_frames(synth.two_blob_image(W, H, 4.0, 1.0), 12), 0.05, 7)


def scanpath_rows(frames, setting, start):
    cfg = parse_config(EXPLORE + CONFIGS[setting] + f"initial_foa = {start[0]!r}, {start[1]!r}\n")
    return run_simulation(frames, cfg)[0].rows


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def run(request):
    """(setting, the rows (t, x, y, vx, vy) of the clip as it is)."""
    rows = scanpath_rows(CLIP, request.param, START)
    assert np.ptp(rows[:, 1:3], axis=0).max() > 1.0  # the gaze travels: no relation is vacuous
    return request.param, rows


def assert_maps_to(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL


def test_transpose_swaps_the_axes(run):
    setting, rows = run
    got = scanpath_rows([Field2D(f.values.T.copy()) for f in CLIP], setting, START[::-1])
    assert_maps_to(got, rows[:, [0, 2, 1, 4, 3]])


def test_left_right_flip_mirrors_x(run):
    setting, rows = run
    got = scanpath_rows([Field2D(f.values[:, ::-1].copy()) for f in CLIP], setting,
                        (W - 1 - START[0], START[1]))
    want = rows.copy()
    want[:, 1], want[:, 3] = W - 1 - rows[:, 1], -rows[:, 3]
    assert_maps_to(got, want)


def test_up_down_flip_mirrors_y(run):
    setting, rows = run
    got = scanpath_rows([Field2D(f.values[::-1].copy()) for f in CLIP], setting,
                        (START[0], H - 1 - START[1]))
    want = rows.copy()
    want[:, 2], want[:, 4] = H - 1 - rows[:, 2], -rows[:, 4]
    assert_maps_to(got, want)


MASS = gaussian_blur(Field2D(np.random.default_rng(0).uniform(0.0, 1.0, (40, 56))), 2.0)
SOLVE_TOL = 1e-14  # relative to max|u|


@pytest.fixture(scope="module")
def potential():
    return poisson_solve(MASS).values


def test_poisson_of_the_transpose_is_the_transpose(potential):
    got = poisson_solve(Field2D(MASS.values.T.copy())).values
    assert np.abs(got - potential.T).max() <= SOLVE_TOL * np.abs(potential).max()


@pytest.mark.parametrize("s", [2.0, 3.0, 100.0])
def test_poisson_scales_with_the_mass(potential, s):
    got = poisson_solve(Field2D(s * MASS.values), tol=s * 1e-8).values
    assert np.abs(got - s * potential).max() <= SOLVE_TOL * s * np.abs(potential).max()
