"""Streaming simulation: frames read one at a time, dumps written as made.

Library side: run_simulation consumes any iterable of frames through a
two-frame window, checks each frame as it arrives and hands each dump to a
sink.  Command side: a late bad frame fails with exit 3 and leaves no
scanpath, peak memory does not grow with the number of frames, and hostile
inputs end with a documented exit code, never a traceback or a hang.
"""

import io
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gazefield
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
    # still grow is the scanpath itself (8 samples per frame)
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
    cfg = root / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["simulate", str(cfg), str(clip / "f*.pgm"), "--out", str(root / "out")]


@pytest.mark.parametrize("case", range(12))
def test_hostile_input_ends_with_a_documented_exit_code(tmp_path, case):
    argv = hostile_case(random.Random(7000 + case), tmp_path)
    src = os.path.dirname(os.path.dirname(gazefield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    # a separate process, so a hang fails by timeout instead of stalling
    proc = subprocess.run([sys.executable, "-W", "ignore", "-m", "gazefield.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    config = (tmp_path / "run.cfg").read_text(encoding="utf-8")
    assert proc.returncode in (0, 2, 3, 4), (config, proc.stderr)
    assert "Traceback" not in proc.stderr, (config, proc.stderr)
    assert (tmp_path / "out" / "scanpath.csv").exists() == (proc.returncode == 0)
