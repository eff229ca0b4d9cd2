"""Whole-package acceptance gates, one test per shipping criterion.

Every test prints a single PASS/FAIL line with its measured figure so the
run log shows the scorecard even when the suite is green.  Constructions
and tolerances are frozen; the expected figures quoted in comments were
measured once with independent oracles before the implementations existed
and must not drift.
"""

import io
import math
import numpy as np

from gazefield import (
    Field2D,
    FoaParams,
    FoaState,
    HsParams,
    Mode,
    ParameterError,
    SingularityError,
    TelegraphParams,
    VectorField2D,
    conjugation_residual,
    convergence_in_c,
    direct_potential,
    energy,
    feature_group_flow,
    foa_step,
    gaussian_blur,
    gradient,
    horn_schunck,
    hs_objective,
    poisson_solve,
    temporal_derivative,
)
from gazefield.optical_flow import FeatureChannel, FeatureStack, hs_jacobi_step
from gazefield.cli import export_scanpath, parse_config, run_simulation
from gazefield import synth


def scorecard(capsys, num, name, ok, detail):
    # suspend capture so the scorecard lands in the plain pytest log
    with capsys.disabled():
        print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


def interior_grad_rel_l2(u, ref):
    gu, gr = gradient(u, 1.0), gradient(ref, 1.0)
    sl = np.s_[1:-1, 1:-1]
    num = math.sqrt(float(np.sum((gu.dx[sl] - gr.dx[sl]) ** 2)
                          + np.sum((gu.dy[sl] - gr.dy[sl]) ** 2)))
    den = math.sqrt(float(np.sum(gr.dx[sl] ** 2) + np.sum(gr.dy[sl] ** 2)))
    return num / den


def test_01_relaxation_matches_dense_oracle(capsys):
    # band-limited random source (fixed seed, then sigma 1.5 smoothing:
    # near-Nyquist content is where the log-kernel quadrature and the
    # 5-point stencil legitimately disagree); measured 9.10e-4
    rng = np.random.default_rng(424242)
    mu = gaussian_blur(Field2D(rng.uniform(0.0, 1.0, (32, 32))), 1.5)
    ref = direct_potential(mu, 1.0)
    u = poisson_solve(mu, h=1.0, tol=1e-9, max_iters=100000, boundary=ref)
    err = interior_grad_rel_l2(u, ref)
    ok = err < 1e-3
    scorecard(capsys, 1, "relaxation vs dense oracle", ok, f"grad rel L2 {err:.3e} < 1e-3")
    assert ok


def two_blob_source(n=32):
    ys, xs = np.mgrid[0:n, 0:n]
    return Field2D(
        np.exp(-((xs - 10.0) ** 2 + (ys - 12.0) ** 2) / (2 * 4.0 ** 2))
        + 0.7 * np.exp(-((xs - 22.0) ** 2 + (ys - 20.0) ** 2) / (2 * 3.0 ** 2)))


def test_02_dynamic_modes_converge_in_wave_speed(capsys):
    # frozen figures: heat [0.506, 0.0794, 4.88e-5, 0],
    # damped wave [0.825, 0.506, 0.0768, 2.03e-5]; heat's last is 0 because
    # after 8571 steps at c 8 every sine mode's decay is under 1e-17, so the
    # stepped potential is the sine-mode reference bit for bit (an SOR
    # reference read 2.24e-11 there, its own tolerance)
    mu = two_blob_source()
    cs = [1.0, 2.0, 4.0, 8.0]
    heat = TelegraphParams(gamma=0.0, lambda_drag=1.0, c=8.0, h=1.0,
                           dt=0.0035, mode=Mode.HEAT)
    errs_h = convergence_in_c(mu, cs, 30.0, heat)
    damped = TelegraphParams(gamma=1.0, lambda_drag=4.0, c=8.0, h=1.0,
                             dt=0.05, mode=Mode.DAMPED_WAVE)
    errs_d = convergence_in_c(mu, cs, 30.0, damped)
    ok = True
    for errs in (errs_h, errs_d):
        ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and errs[-1] < 0.05
    scorecard(capsys, 2, "convergence in wave speed", ok,
              f"heat final {errs_h[-1]:.2e}, damped final {errs_d[-1]:.2e}, "
              "both strictly decreasing")
    assert all(b < a for a, b in zip(errs_h, errs_h[1:]))
    assert all(b < a for a, b in zip(errs_d, errs_d[1:]))
    assert errs_h[-1] < 0.05 and errs_d[-1] < 0.05


def test_03_manufactured_solution_second_order(capsys):
    # product-of-sines solution on the unit square; measured error ratios
    # 4.006 and 4.001 per mesh halving
    errs = []
    for n in (17, 33, 65):
        h = 1.0 / (n - 1)
        t = np.linspace(0.0, 1.0, n)
        exact = np.outer(np.sin(math.pi * t), np.sin(math.pi * t))
        mu = Field2D(2.0 * math.pi ** 2 * exact)
        u = poisson_solve(mu, h=h, tol=1e-10, max_iters=50000)
        errs.append(float(np.abs(u.values - exact).max()))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(r >= 3.5 for r in ratios)
    scorecard(capsys, 3, "manufactured-solution order", ok,
              "ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " >= 3.5")
    assert ok


def test_04_dense_flow_pursuit_and_descent(capsys):
    n = 64
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    a = np.exp(-((xs - 31.5) ** 2 + (ys - 31.5) ** 2) / 32.0)
    b = np.exp(-((xs - 32.5) ** 2 + (ys - 31.5) ** 2) / 32.0)
    v = horn_schunck(Field2D(a), Field2D(b), 1.0,
                     HsParams(lam=0.01, max_iters=8000, tol=1e-7))
    g = gradient(Field2D(0.5 * (a + b)))
    mag = np.hypot(g.dx, g.dy)
    mask = mag > np.percentile(mag, 75)
    mean_err = math.hypot(v.dx[mask].mean() - 1.0, v.dy[mask].mean())

    rng = np.random.default_rng(4242)
    descent_ok = True
    for _ in range(10):
        fa = rng.uniform(0, 1, (16, 16))
        fb = rng.uniform(0, 1, (16, 16))
        ga, gb = gradient(Field2D(fa)), gradient(Field2D(fb))
        gx, gy = 0.5 * (ga.dx + gb.dx), 0.5 * (ga.dy + gb.dy)
        bt = temporal_derivative(Field2D(fa), Field2D(fb), 1.0).values
        grad = VectorField2D(gx, gy)
        lam = 0.1
        vx = np.zeros_like(gx)
        vy = np.zeros_like(gy)
        prev = hs_objective(grad, Field2D(bt), VectorField2D(vx, vy), lam)
        for _ in range(40):
            vx, vy = hs_jacobi_step(vx, vy, gx, gy, bt, lam)
            cur = hs_objective(grad, Field2D(bt), VectorField2D(vx, vy), lam)
            descent_ok = descent_ok and cur <= prev + 1e-12 * max(abs(prev), 1.0)
            prev = cur
    ok = mean_err < 0.2 and descent_ok
    scorecard(capsys, 4, "dense flow pursuit", ok,
              f"mean flow error {mean_err:.3f} < 0.2 of speed, "
              f"objective non-increasing on 10 instances: {descent_ok}")
    assert ok


def test_05_brightness_ramp_motion_illusion(capsys):
    # ramp growing linearly in time: transport by v = (-x/t, 0) cancels it
    n = 16
    t_mid, dt = 2.0, 0.5
    ys, xs = np.mgrid[0:n, 0:n].astype(float)
    b1 = Field2D((t_mid - dt / 2) * xs)
    b2 = Field2D((t_mid + dt / 2) * xs)
    ga, gb = gradient(b1), gradient(b2)
    grad = VectorField2D(0.5 * (ga.dx + gb.dx), 0.5 * (ga.dy + gb.dy))
    bt = temporal_derivative(b1, b2, dt)
    v = VectorField2D(-xs / t_mid, np.zeros_like(xs))
    res = float(np.abs(conjugation_residual(grad, bt, v).values[1:-1, 1:-1]).max())
    ok = res < 1e-10
    scorecard(capsys, 5, "brightness-ramp illusion", ok, f"interior residual {res:.2e} < 1e-10")
    assert ok


def test_06_aperture_and_oblique_stripes(capsys):
    n, period = 64, 16.0
    ys, xs = np.mgrid[0:n, 0:n].astype(float)

    def stripes(shift_x):
        return 0.5 + 0.5 * np.sin(2.0 * np.pi * (xs - shift_x - ys) / period)

    # translation along the stripes changes nothing: flow ~ 0
    along_b = 0.5 + 0.5 * np.sin(2.0 * np.pi * ((xs + 1.0) - (ys + 1.0)) / period)
    v0 = horn_schunck(Field2D(stripes(0.0)), Field2D(along_b), 1.0,
                      HsParams(lam=0.01, max_iters=2000))
    null_frac = float(np.hypot(v0.dx, v0.dy).mean()) / math.sqrt(2.0)

    # oblique translation reads as motion along the stripe normal
    v1 = horn_schunck(Field2D(stripes(0.0)), Field2D(stripes(1.0)), 1.0,
                      HsParams(lam=0.01, max_iters=3000, tol=1e-7))
    g = gradient(Field2D(0.5 * (stripes(0.0) + stripes(1.0))))
    mag = np.hypot(g.dx, g.dy)
    keep = np.zeros_like(mag, dtype=bool)
    keep[3:-3, 3:-3] = True
    mask = (mag > np.percentile(mag[keep], 75)) & keep
    mvx, mvy = float(v1.dx[mask].mean()), float(v1.dy[mask].mean())
    nx, ny = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    angle = math.degrees(math.acos(abs(mvx * nx + mvy * ny) / math.hypot(mvx, mvy)))

    ok = null_frac < 0.05 and angle < 10.0
    scorecard(capsys, 6, "aperture and stripe normal", ok,
              f"null-flow {100 * null_frac:.3g}% of speed, "
              f"edge flow {angle:.3g} deg off normal")
    assert ok


def test_07_feature_grouping_rank(capsys):
    rng = np.random.default_rng(61)
    shape = (6, 7)
    g1 = (1.0 + rng.uniform(-0.3, 0.3, shape), rng.uniform(-0.3, 0.3, shape))
    g2 = (rng.uniform(-0.3, 0.3, shape), 1.0 + rng.uniform(-0.3, 0.3, shape))
    vx_true = rng.uniform(-2, 2, shape)
    vy_true = rng.uniform(-2, 2, shape)
    channels = tuple(
        FeatureChannel(VectorField2D(gx, gy),
                       Field2D(-(gx * vx_true + gy * vy_true)))
        for gx, gy in (g1, g2))
    v, rank = feature_group_flow(FeatureStack(channels, 0.0))
    planted = max(float(np.abs(v.dx - vx_true).max()),
                  float(np.abs(v.dy - vy_true).max()))

    z = np.zeros((3, 3))
    single = FeatureStack((FeatureChannel(VectorField2D(z, z), Field2D(z)),), 0.0)
    try:
        feature_group_flow(single)
        raised = False
    except (SingularityError, ParameterError):
        raised = True

    ok = planted <= 1e-10 and bool(np.all(rank.values == 2.0)) and raised
    scorecard(capsys, 7, "feature grouping", ok,
              f"planted-velocity error {planted:.2e} <= 1e-10, "
              f"rank-1 rejected: {raised}")
    assert ok


def test_08_inhibition_escape(capsys):
    # near-wall blob so the zero boundary displaces the potential peak off
    # the start: the focus starts moving, inhibition pumps the swing, and
    # it clears the 3-sigma disk at t = 3.57 s (bound 5 s)
    cfg = parse_config("alpha1 = 300\nalpha2 = 0\nc = 100\nlambda_drag = 4\n"
                       "dissipation = 0.1\nbeta = 1\nsigma_ior = 2\n"
                       "initial_foa = 12, 32\ndump_every = 1\n")
    img = synth.blob_image(64, 64, 12.0, 32.0, 3.0)
    frames = tuple(synth.static_frames(img, 181))
    path, dumps = run_simulation(frames, cfg)
    radius = 3.0 * cfg.ior.sigma_ior
    t_exit = next((s.t for s in path.samples
                   if math.hypot(s.x - 12.0, s.y - 32.0) > radius), None)
    # the inhibition type enforces [0,1] at every construction; the dump
    # sweep re-checks it over the whole trajectory of this run
    ior_ok = all(d.ior.values.min() >= 0.0 and d.ior.values.max() <= 1.0
                 for d in dumps)
    ok = t_exit is not None and t_exit < 5.0 and ior_ok
    scorecard(capsys, 8, "inhibition escape", ok,
              f"left 3-sigma disk at t={t_exit if t_exit is not None else math.inf:.2f}"
              f" s < 5 s, inhibition within [0,1]: {ior_ok}")
    assert ok


def test_09_particle_mechanics(capsys):
    # frictionless orbit in a smooth bump: drift measured 0.652% over the
    # window; damped bowl lands 0.046 px from the minimum and 0.0026 px
    # from a 100x finer reference
    n = 41
    ys, xs = np.mgrid[0:n, 0:n]
    bump = Field2D(5.0 * np.exp(-((xs - 20.0) ** 2 + (ys - 20.0) ** 2) / 72.0))
    p0 = FoaParams(dissipation=0.0, dt=1e-3)
    s = FoaState(25.0, 20.0, 0.0, 1.5)
    e0 = energy(s, bump, p0)
    drift = 0.0
    for _ in range(1000):
        s = foa_step(s, bump, p0)
        drift = max(drift, abs(energy(s, bump, p0) - e0) / abs(e0))

    bowl = Field2D(-2.0 * ((xs - 20.0) ** 2 + (ys - 20.0) ** 2))

    def settle(dt, steps):
        st = FoaState(5.0, 7.0)
        par = FoaParams(dissipation=2.0, dt=dt)
        for _ in range(steps):
            st = foa_step(st, bowl, par)
        return st

    coarse = settle(0.01, 500)
    fine = settle(1e-4, 50000)
    miss = math.hypot(coarse.x - 20.0, coarse.y - 20.0)
    gap = math.hypot(coarse.x - fine.x, coarse.y - fine.y)
    ok = drift < 0.01 and miss < 0.5 and gap < 0.1
    scorecard(capsys, 9, "particle mechanics", ok,
              f"energy drift {100 * drift:.2f}% < 1%, bowl miss {miss:.3f} px"
              f" < 0.5, fine-reference gap {gap:.4f} px < 0.1")
    assert ok


def test_10_two_blob_exploration(capsys):
    # saddle start between two equal blobs; visits measured at 1.6 s and
    # 5.3 s, well inside the 20 s budget
    cfg = parse_config("alpha1 = 150\nc = 100\nlambda_drag = 4\n"
                       "dissipation = 0.5\nbeta = 1\nsigma_ior = 5\n")
    img = synth.two_blob_image(64, 64, 3.0, 1.0)
    frames = tuple(synth.static_frames(img, 601))
    serialized = []
    for _ in range(2):
        path, _ = run_simulation(frames, cfg)
        buf = io.BytesIO()
        export_scanpath(path, buf)
        serialized.append(buf.getvalue())
    visits = []
    for bx, by in ((16.0, 32.0), (48.0, 32.0)):
        visits.append(next((s.t for s in path.samples
                            if math.hypot(s.x - bx, s.y - by) <= 2.0 * cfg.ior.sigma_ior),
                           None))
    both = all(t is not None and t <= 20.0 for t in visits)
    identical = serialized[0] == serialized[1]
    ok = both and identical
    scorecard(capsys, 10, "two-blob exploration", ok,
              "visits at " + ", ".join("never" if t is None else f"{t:.1f} s"
                                       for t in visits)
              + f" <= 20 s, reruns byte-identical: {identical}")
    assert ok
