"""Streaming simulation: frames read one at a time, dumps written as made.

Library side: run_simulation consumes any iterable of frames through a
two-frame window, checks each frame as it arrives and hands each dump to a
sink.  Command side: a late bad frame fails with exit 3 and leaves no
scanpath, peak memory does not grow with the number of frames, and hostile
inputs to simulate, flow, poisson and converge end with a documented exit
code, never a traceback or a hang.
"""

import io
import math
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from gazefield import (
    DataError,
    DimensionError,
    Field2D,
    Mode,
    NumericalError,
    save_pgm,
    stable_dt,
    synth,
)
from gazefield.cli import export_scanpath, main, parse_config, read_field, run_simulation

from cli_process import run_cli_process

EXPLORE = ("alpha1 = 150\nc = 100\nlambda_drag = 4\ndissipation = 0.5\nbeta = 1\n"
           "sigma_ior = 5\n")


def csv_bytes(path):
    buf = io.BytesIO()
    export_scanpath(path, buf)
    return buf.getvalue()


def moving_frames(n, w=16, h=16):
    return synth.moving_blob_frames(w, h, n, (5.0, 8.0), (6.0, 0.0), 1.0 / 30.0)


class TestIterableFrames:
    def test_generator_and_sink_match_list(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\ndump_every = 2\n"
                           "blur_sigma0 = 1\n")
        frames = moving_frames(9)
        want_path, want_dumps = run_simulation(frames, cfg)
        got_dumps = []
        path, returned = run_simulation(iter(frames), cfg, on_dump=got_dumps.append)
        assert csv_bytes(path) == csv_bytes(want_path)
        assert returned == []
        assert [d.frame_index for d in got_dumps] == [d.frame_index for d in want_dumps]
        for got, want in zip(got_dumps, want_dumps):
            for name in ("mass", "potential", "ior"):
                assert np.array_equal(getattr(got, name).values,
                                      getattr(want, name).values)

    def test_frames_are_pulled_one_step_ahead_and_dumps_arrive_per_frame(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 2\ndump_every = 1\n")
        pulled = []

        def source():
            for k, f in enumerate(moving_frames(7)):
                pulled.append(k)
                yield f

        seen = []
        run_simulation(source(), cfg,
                       on_dump=lambda d: seen.append((d.frame_index, len(pulled))))
        # step k needs frames k and k + 1 and nothing later
        assert seen == [(k, k + 2) for k in range(6)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_frames(self, n):
        with pytest.raises(DimensionError, match="at least 2 frames"):
            run_simulation(iter(moving_frames(2)[:n]), parse_config("c = 20\n"))

    @pytest.mark.parametrize("bad, message", [
        (Field2D(np.zeros((16, 17))), "grid 17x16 does not match 16x16"),
        ("frame", "frame 5 is not a Field2D"),
    ])
    def test_late_bad_frame_is_data_error_naming_it(self, bad, message):
        frames = moving_frames(8)
        frames[5] = bad
        with pytest.raises(DataError, match=rf"^frame 5, stage load: .*{message}") as info:
            run_simulation(iter(frames), parse_config("c = 20\n"))
        assert type(info.value) is DataError

    @pytest.mark.parametrize("bad", [np.zeros((16, 16)), None])
    def test_first_frame_not_a_field_is_data_error(self, bad):
        frames = [bad] + moving_frames(3)
        with pytest.raises(DataError, match="^frame 0, stage load: frame 0 is not a Field2D"):
            run_simulation(frames, parse_config("c = 20\n"))

    def test_failing_source_is_reported_at_its_frame(self):
        def source():
            yield from moving_frames(4)
            raise DataError("unreadable")

        with pytest.raises(DataError, match="^frame 4, stage load: unreadable"):
            run_simulation(source(), parse_config("c = 20\n"))

    def test_sink_error_keeps_its_category_and_names_the_frame(self):
        def sink(d):
            if d.frame_index == 2:
                raise NumericalError("too big")

        cfg = parse_config("c = 20\ndump_every = 1\n")
        with pytest.raises(NumericalError, match="^frame 2, stage dump: too big"):
            run_simulation(iter(moving_frames(6)), cfg, on_dump=sink)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def synth_two_blobs(out, n, size=64):
    assert main(["synth", "two-blobs", "--out", str(out), "--width", str(size),
                 "--height", str(size), "--frames", str(n)]) == 0


def test_bad_frame_30_of_40_exits_3_without_scanpath(tmp_path, capsys):
    frames = tmp_path / "frames"
    synth_two_blobs(frames, 40, size=32)
    bad = frames / "frame_0030.pgm"
    bad.write_bytes(bad.read_bytes()[:100])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPLORE + "dump_every = 10\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(frames / "frame_*.pgm"),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "frame 30, stage load" in err
    assert not (out / "scanpath.csv").exists()
    # dumps made before the failure stay, whole
    dumps = sorted(p.name for p in out.iterdir())
    assert dumps == sorted(f"{name}_{k:06d}.foaf" for name in ("mass", "potential", "ior")
                           for k in (0, 10, 20))
    for name in dumps:
        with open(out / name, "rb") as fh:
            assert read_field(fh).values.shape == (32, 32)


def test_potential_overflow_far_from_the_particle_mid_frame_exits_4(tmp_path, capsys):
    # three black frames, then a blob in the far corner from the particle:
    # u first overflows at frame 3's substep 3 of 8, about 20 nodes from the
    # 4x4 patch the particle reads, so the particle never sees it and u is
    # checked once at the end of frame 3, before its rows and its dump
    frames = tmp_path / "frames"
    frames.mkdir()
    blob = save_pgm(synth.blob_image(32, 32, 26.0, 26.0, 2.0, 1.0))
    for k, data in enumerate([save_pgm(Field2D(np.zeros((32, 32))))] * 3 + [blob] * 4):
        (frames / f"frame_{k:04d}.pgm").write_bytes(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha1 = 3e307\nc = 40\nlambda_drag = 4\ninitial_foa = 2, 2\n"
                   "blur_sigma0 = 0.5\ndump_every = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(frames / "frame_*.pgm"), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "frame 3, stage potential: potential overflow" in err
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{name}_{k:06d}.foaf" for name in ("mass", "potential", "ior") for k in range(3))


def test_differently_sized_frame_mid_clip_exits_3(tmp_path, capsys):
    frames = tmp_path / "frames"
    synth_two_blobs(frames, 12, size=32)
    (frames / "frame_0007.pgm").write_bytes(save_pgm(Field2D(np.zeros((32, 33)))))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPLORE, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(frames / "frame_*.pgm"),
                 "--out", str(out)]) == 3
    assert "frame 7, stage load" in capsys.readouterr().err
    assert not (out / "scanpath.csv").exists()


def test_peak_memory_flat_in_clip_length(tmp_path, capsys):
    # 450 more 64x64 frames held in memory would take 14.7 MB; what may
    # still grow is the sorted list of frame names
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPLORE, encoding="utf-8")

    def peak(n):
        frames = tmp_path / f"frames{n}"
        synth_two_blobs(frames, n)
        argv = ["simulate", str(cfg), str(frames / "frame_*.pgm"),
                "--out", str(tmp_path / f"out{n}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm-up: lazy allocations inside numpy and the interpreter
    short, long = peak(50), peak(500)
    capsys.readouterr()
    assert long - short < 4 * 2**20, (short, long)


@pytest.mark.parametrize("kind", [["black"], ["two-blobs", "--noise", "0.1"], ["moving-blob"]],
                         ids=["black", "two-blobs-noise", "moving-blob"])
def test_synth_peak_memory_flat_in_clip_length(tmp_path, capsys, kind):
    # each frame is written as it is made: 350 more 64x64 frames held in memory
    # would take 11.5 MB (the whole clip was held, 26.5 MB at 800 frames)
    def peak(n):
        tracemalloc.start()
        try:
            assert main(["synth", *kind, "--frames", str(n), "--out",
                         str(tmp_path / f"frames{n}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm-up: lazy allocations inside numpy and the interpreter
    short, long = peak(50), peak(400)
    capsys.readouterr()
    assert abs(long - short) < 4096, (short, long)


@pytest.mark.parametrize("step, motion, bound", [
    (1, "", 8.75), (0, "", 9.25),
    (1, "motion_source = flow_magnitude\nhs_max_iters = 5\n", 21.0),
], ids=["moving", "static", "flow"])
def test_frame_working_set_is_bounded(step, motion, bound):
    # what outlives a frame is the next frame, its blur, the inhibition and
    # the potential's u and u_t, and across a repeated frame the detail
    # |grad b|; each stage adds at most one whole-grid array to those, and the
    # blur its internals.  In frame arrays, the moving clip peaks at 8.45 in
    # the blur (8.16 in the mass, 8.05 in the inhibition and the motion), the
    # static one at 9.03 in the potential, beside the kept detail, and the
    # flow at 20.3 in horn_schunck's set-up copies.  A whole-grid gradient
    # (9.05), |db/dt| not taken in place or a whole-grid mass scratch (9.04),
    # the detail kept across a frame that is not repeated (9.33), or any one
    # of b_now, motion and mu kept past its last reader (9.41) passes the
    # moving clip's bound
    n = 192
    cfg = parse_config("alpha1 = 150\nc = 100\nlambda_drag = 4\nblur_sigma0 = 3\n"
                       "blur_decay_rate = 10\nblur_floor = 1\ndump_every = 3\n" + motion)
    base = synth.add_noise([synth.two_blob_image(n, n, sigma=12.0)], 0.1, seed=3)[0].values

    def clip():  # each frame made as it is pulled, as a file reader would,
        f = None  # and a repeated frame yielded again, as simulate's reader does
        for k in range(8):
            if step or f is None:
                f = Field2D(np.roll(base, k * step, axis=1))
            yield f

    run_simulation(clip(), cfg, on_dump=lambda d: None)  # warm-up: numpy's lazy set-up
    tracemalloc.start()
    try:
        run_simulation(clip(), cfg, on_dump=lambda d: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n * n * 8, peak / (n * n * 8)


def simulate_peaks(tmp_path, config, counts, size=64):
    """tracemalloc peak of simulate --saccade-threshold 30 per frame count,
    after a warm-up run (lazy allocations inside numpy and the interpreter)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")

    def peak(n):
        frames = tmp_path / f"frames{n}"
        if not frames.exists():
            synth_two_blobs(frames, n, size)
        argv = ["simulate", str(cfg), str(frames / "frame_*.pgm"),
                "--out", str(tmp_path / f"out{n}"), "--saccade-threshold", "30"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(counts[0])
    return [peak(n) for n in counts]


def test_scanpath_memory_grows_by_its_array_alone(tmp_path, capsys):
    # 3600 more samples, saccades annotated.  simulate writes each frame's
    # samples as the frame ends, so what grows is the sorted list of 450 more
    # frame names (0.05 MB measured); holding the samples, 41 B each in an
    # array and its flags, adds 0.15 MB (0.24 MB measured, with passing
    # arrays), and a Python object per sample or a list copy of the rows
    # would pass 0.5 MB
    short, long = simulate_peaks(tmp_path, EXPLORE, (50, 500))
    capsys.readouterr()
    assert long - short < 0.5e6, (short, long)


def test_scanpath_is_not_held_at_many_substeps(tmp_path, capsys):
    # 28800 more samples: holding their rows alone would add 1.15 MB (the
    # whole path held, then segmented, added 1.71 MB); streamed, the peak
    # grows by the frame names only (0.05 MB measured)
    short, long = simulate_peaks(tmp_path, EXPLORE + "substeps_per_frame = 64\n",
                                 (50, 500), size=16)
    capsys.readouterr()
    assert long - short < 0.25e6, (short, long)


def test_dumping_every_frame_holds_nothing_per_dump(tmp_path, capsys):
    # with a dump per frame the peak grows from 50 to 500 frames as it does
    # with none (by the frame names, 55.3 KB measured); a list of the dumped
    # frame indices added 10.1 KB
    (tmp_path / "none").mkdir()
    (tmp_path / "every").mkdir()
    none = simulate_peaks(tmp_path / "none", EXPLORE, (50, 500), size=8)
    every = simulate_peaks(tmp_path / "every", EXPLORE + "dump_every = 1\n", (50, 500),
                           size=8)
    assert "1497 field dumps" in capsys.readouterr().out
    assert abs((every[1] - every[0]) - (none[1] - none[0])) < 2000, (none, every)


def test_failed_run_keeps_the_earlier_scanpath(tmp_path, capsys):
    # the CSV grows under scanpath.csv.part while the frames run: a run that
    # fails at frame 30 removes it and leaves the last run's file as it was
    frames = tmp_path / "frames"
    synth_two_blobs(frames, 40, size=16)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPLORE, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", str(cfg), str(frames / "frame_*.pgm"), "--out", str(out),
            "--saccade-threshold", "30"]
    assert main(argv) == 0
    before = (out / "scanpath.csv").read_bytes()
    bad = frames / "frame_0030.pgm"
    bad.write_bytes(bad.read_bytes()[:20])
    assert main(argv) == 3
    assert "frame 30, stage load" in capsys.readouterr().err
    assert (out / "scanpath.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["scanpath.csv"]


@pytest.mark.parametrize("flags", [["--saccade-threshold", "0"],
                                   ["--saccade-threshold", "nan"],
                                   ["--saccade-threshold", "30", "--min-fixation", "0"],
                                   ["--saccade-threshold", "30", "--min-fixation", "inf"],
                                   ["--min-fixation", "nan"],
                                   ["--min-fixation", "0"],
                                   ["--min-fixation", "-1"]])
def test_bad_saccade_setting_fails_before_frame_0(tmp_path, capsys, flags):
    frames = tmp_path / "frames"
    synth_two_blobs(frames, 3, size=16)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EXPLORE + "dump_every = 1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), str(frames / "frame_*.pgm"),
                 "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a finite real" in err
    assert not out.exists()  # nothing made, no dump written


@pytest.mark.parametrize("n, settings", [(20, "frame_dt = 1e307\n"),
                                         (3, "frame_dt = 1e308\ndump_every = 1\n")],
                         ids=["1e307-20-frames", "1e308-3-frames-dumped"])
def test_clip_whose_timeline_overflows_fails_before_frame_0(tmp_path, capsys, n, settings):
    # the first ran 18 frames and failed at frame 18's blur, whose t was inf; the
    # second exited 3 at an inf sample time, with frames 0 and 1 dumped.  c = 5e-324
    # keeps these steps stable
    frames = tmp_path / "frames"
    synth_two_blobs(frames, n, size=8)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 5e-324\n" + settings, encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(cfg), str(frames / "frame_*.pgm"), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "frame_dt" in lines[0] and f"{n} frames" in lines[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# hostile inputs
# ---------------------------------------------------------------------------

def hostile_case(rng, root):
    """Write one random clip and config under root; return the simulate argv."""
    w, h = rng.choice([(3, 3), (2, rng.randint(3, 12)), (rng.randint(3, 12), 2),
                       (16, 16), (16, 16), (12, 7), (24, 9)])
    n = rng.randint(3, 12)
    maxval = rng.choice([255, 65535])
    yy, xx = np.mgrid[0:h, 0:w]
    frames = []
    for k in range(n):
        kind = rng.choice(["checker", "noise", "flicker", "ramp"])
        if kind == "checker":
            v = ((xx + yy + k) % 2).astype(float)
        elif kind == "noise":
            v = np.array([[rng.choice([0.0, 1.0]) for _ in range(w)] for _ in range(h)])
        elif kind == "flicker":
            v = np.full((h, w), float(k % 2))
        else:
            v = yy / max(h - 1, 1)
        frames.append(save_pgm(Field2D(v), maxval))
    broken = rng.choice(["none"] * 4 + ["truncated", "resized", "garbage", "empty"])
    if broken != "none":
        m = rng.randint(1, n - 1)
        frames[m] = {"truncated": frames[m][:len(frames[m]) // 2],
                     "resized": save_pgm(Field2D(np.ones((h + 1, w))), maxval),
                     "garbage": b"P6\n1 1\n255\n\0\0\0",
                     "empty": b""}[broken]
    clip = root / "frames"
    clip.mkdir()
    for k, data in enumerate(frames):
        (clip / f"f{k:03d}.pgm").write_bytes(data)

    big = lambda: rng.choice([1e6, 1e150, 1e300, 1e308])
    mode, gamma, drag = rng.choice([(Mode.DAMPED_WAVE, 1.0, 4.0), (Mode.WAVE, 1.0, 0.0),
                                    (Mode.HEAT, 0.0, 100.0)])
    c = big() if rng.random() < 0.15 else rng.uniform(1, 60)
    # enough substeps for a stable step, unless c is huge (that is exit 2)
    bound = stable_dt(mode, gamma, drag, c, 1.0)
    substeps = rng.randint(1, 8)
    if bound > 1e-3:
        substeps = max(substeps, math.ceil((1.0 / 30.0) / (0.9 * bound)))
    lines = [f"alpha1 = {big() if rng.random() < 0.3 else rng.uniform(0, 200)!r}",
             f"alpha2 = {big() if rng.random() < 0.3 else rng.uniform(0, 200)!r}",
             f"c = {c!r}",
             f"mode = {mode.name.lower()}",
             f"gamma = {gamma!r}",
             f"lambda_drag = {drag!r}",
             f"substeps_per_frame = {substeps}",
             f"motion_source = {rng.choice(['temporal_derivative', 'flow_magnitude'])}",
             f"boundary = {rng.choice(['reflect', 'clamp'])}",
             f"attraction_sign = {rng.choice(['attract', 'repel'])}",
             f"dump_every = {rng.randint(0, 3)}"]
    if rng.random() < 0.5:
        lines += [f"blur_sigma0 = {rng.uniform(0, 3)!r}", "blur_decay_rate = 5"]
    # 2*sigma_ior**2 is 0, subnormal or past float range at the extremes
    lines.append(f"sigma_ior = {rng.choice([0.5, 2, 5, 1e-300, 1e-160, 1e300])!r}")
    cfg = root / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["simulate", str(cfg), str(clip / "f*.pgm"), "--out", str(root / "out")]


F32_MAX = float(np.finfo(np.float32).max)
# option values past every range
EXTREMES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"]


def hostile_options(rng, options):
    """Pick a value per option; none, one or two options get an extreme value.

    options maps a flag to its plausible values, where None leaves the flag out.
    """
    wild = rng.sample(sorted(options), rng.choice([0, 0, 1, 1, 2]))
    chosen = {k: rng.choice(EXTREMES if k in wild else v) for k, v in options.items()}
    return [f"{k}={v}" for k, v in chosen.items() if v is not None]


def hostile_grid(rng):
    return rng.choice([(1, 1), (1, rng.randint(1, 31)), (rng.randint(1, 33), 1), (3, 3),
                       (33, 31)] + [(rng.randint(2, 33), rng.randint(2, 31))] * 5)


def hostile_foaf(rng, w, h):
    """One FOAF record: unit, float32-extreme or non-finite values, or cut short."""
    nrng = np.random.default_rng(rng.randrange(2**32))
    kind = rng.choice(["unit", "signed", "spike", "f32max", "f32tiny", "nonfinite"])
    v = np.zeros((h, w))
    if kind in ("unit", "nonfinite"):
        v = nrng.uniform(0.0, 1.0, (h, w))
    elif kind == "signed":
        v = nrng.uniform(-1.0, 1.0, (h, w))
    elif kind == "f32max":
        v = nrng.choice([-F32_MAX, 0.0, F32_MAX], (h, w))
    elif kind == "f32tiny":
        v = np.full((h, w), float(np.finfo(np.float32).smallest_subnormal))
    if kind in ("spike", "nonfinite"):
        v[rng.randrange(h), rng.randrange(w)] = rng.choice(
            [1.0, 1e4, F32_MAX] if kind == "spike" else [math.nan, math.inf, -math.inf])
    data = b"FOAF" + struct.pack("<II", w, h) + v.astype("<f4").tobytes()
    broken = rng.choice(["none"] * 12 + ["payload", "header", "magic", "zero"])
    return {"none": data, "payload": data[:rng.randint(12, len(data) - 1)],
            "header": data[:rng.randint(0, 11)], "magic": b"FOAX" + data[4:],
            "zero": b"FOAF" + struct.pack("<II", 0, h)}[broken]


def hostile_pgm(rng, w, h):
    """One P5 frame with 1- or 2-byte samples, or a truncated or foreign one."""
    maxval = rng.choice([1, 255, 256, 65535])
    samples = np.random.default_rng(rng.randrange(2**32)).integers(0, maxval + 1, (h, w))
    data = (f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
            + samples.astype(">u2" if maxval > 255 else "u1").tobytes())
    broken = rng.choice(["none"] * 9 + ["raster", "header", "garbage"])
    return {"none": data, "raster": data[:len(data) - rng.randint(1, w * h)],
            "header": data[:rng.randint(0, 8)], "garbage": b"P6\n1 1\n255\n\0\0\0"}[broken]


def hostile_solver_case(rng, root):
    """Write random inputs for flow, poisson or converge under root; return the argv.

    Requested work is bounded (hs_max_iters <= 2000, --max-iters <= 3000,
    plausible --horizon and --dt), because a long run that was asked for is
    not a hang; extreme values must be refused or fail fast.
    """
    command = rng.choice(["flow", "poisson", "converge"])
    w, h = hostile_grid(rng)
    if command == "flow":
        a, b = root / "a.pgm", root / "b.pgm"
        a.write_bytes(hostile_pgm(rng, w, h))
        b.write_bytes(hostile_pgm(rng, *(hostile_grid(rng) if rng.random() < 0.1 else (w, h))))
        lines = hostile_options(rng, {"hs_lambda": ["0.01", "0.05", "1", None],
                                      "hs_tol": ["1e-4", "1e-2", None],
                                      "hs_max_iters": ["1", "50", "2000", None],
                                      "frame_dt": ["0.0333", "1", None],
                                      "blur_sigma0": ["0", "1", "2.5", None]})
        cfg = root / "run.cfg"
        cfg.write_text("".join(line.replace("=", " = ") + "\n" for line in lines),
                       encoding="utf-8")
        return ["flow", str(cfg), str(a), str(b), "--out", str(root / "v.foaf")]
    mu = root / "mu.foaf"
    mu.write_bytes(hostile_foaf(rng, w, h))
    if command == "poisson":
        oracle = ["--oracle"] if rng.random() < 0.25 else []
        return ["poisson", str(mu), "--out", str(root / "u.foaf"), *oracle, *hostile_options(
            rng, {"--h": ["0.5", "1", "2", None], "--tol": ["1e-8", "1e-3", None],
                  "--max-iters": ["1", "100", "3000"]})]
    mode, gammas, drags = rng.choice([("heat", ["0"], ["1", "4"]),
                                      ("wave", ["0.5", "1", "2"], ["0"]),
                                      ("damped_wave", ["0.5", "1", "2"], ["1", "4"])])
    count = rng.choice([0] + [1, 2, 3] * 3)
    speeds = sorted(rng.sample(["0.5", "1", "2", "4", "8"], count), key=float)
    if rng.random() < 0.2:  # nan, negative, empty, unsorted or duplicate entries
        speeds.insert(rng.randint(0, len(speeds)), rng.choice(EXTREMES + ["", " ", "8"]))
    return ["converge", str(mu), f"--c={','.join(speeds)}", *hostile_options(rng, {
        "--mode": [mode], "--gamma": gammas, "--drag": drags, "--h": ["0.5", "1", "2"],
        "--dt": ["0.01", "0.1", None], "--horizon": ["0.5", "2", "5"]})]


@pytest.mark.parametrize("case", range(12))
def test_hostile_input_ends_with_a_documented_exit_code(tmp_path, case):
    argv = hostile_case(random.Random(7000 + case), tmp_path)
    proc = run_cli_process(*argv, timeout=60)
    config = (tmp_path / "run.cfg").read_text(encoding="utf-8")
    assert proc.returncode in (0, 2, 3, 4), (config, proc.stderr)
    assert "Traceback" not in proc.stderr, (config, proc.stderr)
    assert (tmp_path / "out" / "scanpath.csv").exists() == (proc.returncode == 0)


@pytest.mark.parametrize("case", range(12))
def test_hostile_solver_input_ends_fast_with_a_documented_exit_code(tmp_path, case):
    argv = hostile_solver_case(random.Random(9000 + case), tmp_path)
    proc = run_cli_process(*argv, timeout=5)
    assert proc.returncode in (0, 2, 3, 4), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
