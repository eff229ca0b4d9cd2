"""Configuration, serialization, pipeline loop, and command-line surface."""

import io
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gazefield import (
    AttractionSign,
    BoundaryPolicy,
    ConfigError,
    DataError,
    DimensionError,
    Field2D,
    FoaSample,
    MotionSource,
    Mode,
    NumericalError,
    Scanpath,
    TelegraphParams,
    gaussian_blur,
    load_pgm,
    schedule_sigma,
    temporal_derivative,
)
import gazefield
from gazefield import synth
from gazefield.cli import (
    _CONFIG_KEYS,
    FieldDump,
    SimConfig,
    export_field,
    export_flow,
    export_scanpath,
    import_scanpath,
    load_config,
    main,
    parse_config,
    read_field,
    read_flow,
    run_simulation,
    _build_parser,
    _parse_value,
    _stage,
)


def run_cli(*argv):
    return main(list(argv))


def config_value(cfg, key):
    owner, name, _ = _CONFIG_KEYS[key]
    return getattr(cfg if owner is None else getattr(cfg, owner), name)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.mass.alpha1 == 1.0 and cfg.mass.alpha2 == 1.0
        assert cfg.mass.motion_source is MotionSource.TEMPORAL_DERIVATIVE
        assert cfg.ior.beta == 1.0 and cfg.ior.sigma_ior == 4.0
        assert cfg.mode is Mode.DAMPED_WAVE
        assert cfg.attraction_sign is AttractionSign.ATTRACT
        assert cfg.boundary is BoundaryPolicy.REFLECT
        assert cfg.frame_dt == pytest.approx(1.0 / 30.0)
        assert cfg.substeps_per_frame == 8 and cfg.dump_every == 0
        assert cfg.initial_foa is None

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# full-line comment\n\nalpha1 = 2.5  # trailing\n")
        assert cfg.mass.alpha1 == 2.5

    def test_whitespace_tolerant(self):
        cfg = parse_config("   c   =   3.0   \n")
        assert cfg.c == 3.0

    def test_unknown_key_is_hard_error_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*alpha3"):
            parse_config("alpha1 = 1\nalpha3 = 2\n")

    def test_duplicate_key_is_hard_error(self):
        with pytest.raises(ConfigError, match=r"line 3.*duplicate.*'c'"):
            parse_config("c = 1\nh = 1\nc = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"line 1"):
            parse_config("alpha1 2\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match=r"empty value"):
            parse_config("alpha1 =\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match=r"'alpha1'.*not a number"):
            parse_config("alpha1 = wide\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match=r"'substeps_per_frame'"):
            parse_config("substeps_per_frame = 2.5\n")

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigError, match=r"heat.*damped_wave|damped_wave.*heat"):
            parse_config("mode = parabolic\n")

    def test_enum_values(self):
        cfg = parse_config("motion_source = flow_magnitude\n"
                           "attraction_sign = repel\nboundary = clamp\n")
        assert cfg.mass.motion_source is MotionSource.FLOW_MAGNITUDE
        assert cfg.attraction_sign is AttractionSign.REPEL
        assert cfg.boundary is BoundaryPolicy.CLAMP

    def test_initial_foa_center_keyword(self):
        # "center" resolves against frame dims at run time, same as omitting
        assert parse_config("initial_foa = center\n").initial_foa is None

    def test_initial_foa_pair(self):
        assert parse_config("initial_foa = 12, 32\n").initial_foa == (12.0, 32.0)

    def test_initial_foa_malformed(self):
        with pytest.raises(ConfigError, match="initial_foa"):
            parse_config("initial_foa = 1, 2, 3\n")
        with pytest.raises(ConfigError, match="initial_foa"):
            parse_config("initial_foa = north\n")

    def test_parameter_ranges_checked_at_parse(self):
        with pytest.raises(ConfigError):
            parse_config("beta = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("beta = 0\n")
        with pytest.raises(ConfigError):
            parse_config("alpha1 = 0\nalpha2 = 0\n")
        with pytest.raises(ConfigError):
            parse_config("substeps_per_frame = 0\n")
        with pytest.raises(ConfigError):
            parse_config("dump_every = -1\n")
        with pytest.raises(ConfigError):
            parse_config("frame_dt = 0\n")

    def test_unstable_wave_step_rejected_before_frames(self):
        # c dt / h = 1000/240 far above the diagonal Courant bound
        with pytest.raises(ConfigError):
            parse_config("c = 1000\n")

    def test_heat_mode_needs_zero_inertia(self):
        parse_config("mode = heat\ngamma = 0\n")
        with pytest.raises(ConfigError):
            parse_config("mode = heat\n")

    def test_substeps_restore_stability(self):
        with pytest.raises(ConfigError):
            parse_config("c = 100\nsubsteps_per_frame = 2\n")
        parse_config("c = 100\nsubsteps_per_frame = 8\n")

    @pytest.mark.parametrize("field", ["substeps_per_frame", "dump_every"])
    def test_bool_counts_rejected(self, field):
        with pytest.raises(ConfigError):
            SimConfig(**{field: True})

    def test_readme_config_table_matches_parser(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key, default, _ = (cell.strip() for cell in line.strip("|").split("|", 2))
            rows[key] = default
        assert set(rows) == set(_CONFIG_KEYS)
        defaults = parse_config("")
        for key, cell in rows.items():
            got = config_value(parse_config(f"{key} = {cell}\n"), key)
            want = config_value(defaults, key)
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-6), key
            else:
                assert got == want, key

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.cfg"))

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha1 = 7\nmode = damped_wave\n", encoding="utf-8")
        assert load_config(str(p)).mass.alpha1 == 7.0


# ---------------------------------------------------------------------------
# scanpath CSV
# ---------------------------------------------------------------------------

class TestScanpathCsv:
    def test_empty_path_is_header_only(self):
        buf = io.BytesIO()
        export_scanpath(Scanpath(()), buf)
        assert buf.getvalue() == b"t,x,y,vx,vy,saccade\n"

    def test_single_sample_exact_bytes(self):
        buf = io.BytesIO()
        export_scanpath(Scanpath((FoaSample(0.0, 1.0, 2.0, 0.0, 0.0),)), buf)
        assert buf.getvalue() == b"t,x,y,vx,vy,saccade\n0,1,2,0,0,0\n"

    def test_nine_significant_digits(self):
        buf = io.BytesIO()
        export_scanpath(Scanpath((FoaSample(1.0 / 3.0, 0.1, 2.0, 0.0, 0.0),)), buf)
        row = buf.getvalue().decode().splitlines()[1]
        assert row.split(",")[0] == "0.333333333"
        assert row.split(",")[1] == "0.1"

    def test_saccade_flag_serialized(self):
        buf = io.BytesIO()
        export_scanpath(Scanpath((FoaSample(0.0, 0.0, 0.0, 0.0, 0.0, True),)), buf)
        assert buf.getvalue().endswith(b",1\n")

    def test_lf_only_line_endings(self):
        buf = io.BytesIO()
        export_scanpath(Scanpath((FoaSample(0.0, 1.0, 2.0, 3.0, 4.0),)), buf)
        assert b"\r" not in buf.getvalue()

    def test_export_import_export_is_byte_stable(self):
        rng = np.random.default_rng(11)
        samples = tuple(
            FoaSample(float(k) * 0.01, *rng.uniform(-50, 50, size=4),
                      bool(k % 3 == 0))
            for k in range(40)
        )
        first = io.BytesIO()
        export_scanpath(Scanpath(samples), first)
        again = io.BytesIO()
        export_scanpath(import_scanpath(first.getvalue()), again)
        assert again.getvalue() == first.getvalue()

    def test_import_recovers_to_printed_precision(self):
        src = Scanpath((FoaSample(0.123456789123, 9.87654321e-3, 2.0, -1.5, 0.25),))
        buf = io.BytesIO()
        export_scanpath(src, buf)
        back = import_scanpath(buf.getvalue()).samples[0]
        assert back.t == pytest.approx(src.samples[0].t, rel=1e-8)
        assert back.x == pytest.approx(src.samples[0].x, rel=1e-8)

    def test_import_rejects_bad_header(self):
        with pytest.raises(DataError, match="header"):
            import_scanpath(b"time,x,y\n")

    def test_import_requires_trailing_newline(self):
        with pytest.raises(DataError, match="newline"):
            import_scanpath(b"t,x,y,vx,vy,saccade\n0,1,2,0,0,0")

    def test_import_rejects_malformed_rows(self):
        head = b"t,x,y,vx,vy,saccade\n"
        with pytest.raises(DataError, match="line 2"):
            import_scanpath(head + b"0,1,2,0,0\n")
        with pytest.raises(DataError, match="line 2"):
            import_scanpath(head + b"0,1,2,0,0,2\n")
        with pytest.raises(DataError, match="line 3"):
            import_scanpath(head + b"0,1,2,0,0,0\nnope,1,2,0,0,0\n")

    def test_import_rejects_non_ascii(self):
        with pytest.raises(DataError, match="ASCII"):
            import_scanpath("t,x,y,vx,vy,saccade\n0,1,2,0,0,0µ\n".encode("utf-8"))

    @pytest.mark.parametrize("row", [
        b"0,nan,1,0,0,0", b"nan,1,1,0,0,0", b"1,inf,2,0,0,1", b"0,1,2,-inf,0,0",
        b"0,1,2,0,NaN,0",
    ])
    def test_import_rejects_non_finite_fields(self, row):
        data = b"t,x,y,vx,vy,saccade\n-1,0,0,0,0,0\n" + row + b"\n"
        with pytest.raises(DataError, match="line 3: non-finite"):
            import_scanpath(data)

    def test_import_enforces_time_order(self):
        data = b"t,x,y,vx,vy,saccade\n1,0,0,0,0,0\n0.5,0,0,0,0,0\n"
        with pytest.raises(DataError):
            import_scanpath(data)


# ---------------------------------------------------------------------------
# field and flow serialization
# ---------------------------------------------------------------------------

class TestFieldIo:
    def test_one_by_one_exact_bytes(self):
        buf = io.BytesIO()
        export_field(Field2D(np.zeros((1, 1))), buf)
        assert buf.getvalue() == b"FOAF" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 4
        assert len(buf.getvalue()) == 16

    def test_two_by_one_payload_encoding(self):
        buf = io.BytesIO()
        export_field(Field2D(np.array([[1.0, -1.0]])), buf)
        assert buf.getvalue() == (b"FOAF" + struct.pack("<II", 2, 1)
                                  + b"\x00\x00\x80\x3f\x00\x00\x80\xbf")

    def test_roundtrip_within_f32_rounding(self):
        rng = np.random.default_rng(29)
        values = rng.uniform(-1e3, 1e3, size=(7, 5))
        buf = io.BytesIO()
        export_field(Field2D(values), buf)
        back = read_field(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(
            back.values, values.astype("<f4").astype(np.float64))

    def test_bad_magic(self):
        with pytest.raises(DataError, match="magic"):
            read_field(io.BytesIO(b"FOAX" + struct.pack("<II", 1, 1) + b"\x00" * 4))

    def test_truncated_header(self):
        with pytest.raises(DataError, match="truncated"):
            read_field(io.BytesIO(b"FOAF\x01\x00"))

    def test_truncated_payload(self):
        blob = io.BytesIO()
        export_field(Field2D(np.ones((3, 3))), blob)
        with pytest.raises(DataError, match="payload"):
            read_field(io.BytesIO(blob.getvalue()[:-4]))

    def test_zero_dimension_rejected(self):
        with pytest.raises(DataError, match="positive"):
            read_field(io.BytesIO(b"FOAF" + struct.pack("<II", 0, 1)))

    def test_flow_roundtrip(self):
        rng = np.random.default_rng(31)
        dx = rng.standard_normal((4, 6))
        dy = rng.standard_normal((4, 6))
        from gazefield import FlowField
        buf = io.BytesIO()
        export_flow(FlowField(dx, dy), buf)
        back = read_flow(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(back.dx, dx.astype("<f4").astype(np.float64))
        np.testing.assert_array_equal(back.dy, dy.astype("<f4").astype(np.float64))

    @pytest.mark.parametrize("big", [3.5e38, -3.5e38, 1e300])
    def test_value_beyond_float32_raises_before_writing_the_record(self, big):
        values, zeros = np.zeros((3, 4)), np.zeros((3, 4))
        values[1, 2] = big
        buf = io.BytesIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the float32 cast would warn
            with pytest.raises(NumericalError, match="float32"):
                export_field(Field2D(values), buf)
            with pytest.raises(NumericalError, match="float32"):
                export_flow(gazefield.FlowField(values, zeros), buf)
            assert buf.getvalue() == b""
            # a flow is two records: the dx record is whole, dy is not begun
            with pytest.raises(NumericalError, match="float32"):
                export_flow(gazefield.FlowField(zeros, values), buf)
        back = io.BytesIO(buf.getvalue())
        assert read_field(back).values.tolist() == zeros.tolist()
        assert back.read() == b""

    def test_float32_extremes_still_export(self):
        f32_max = float(np.finfo(np.float32).max)
        buf = io.BytesIO()
        export_field(Field2D(np.array([[f32_max, -f32_max]])), buf)
        assert read_field(io.BytesIO(buf.getvalue())).values.tolist() == [[f32_max, -f32_max]]

    def test_flow_component_shape_mismatch(self):
        buf = io.BytesIO()
        export_field(Field2D(np.zeros((2, 2))), buf)
        export_field(Field2D(np.zeros((3, 3))), buf)
        with pytest.raises(DimensionError):
            read_flow(io.BytesIO(buf.getvalue()))


# ---------------------------------------------------------------------------
# simulation loop
# ---------------------------------------------------------------------------

class TestRunSimulation:
    def test_black_video_holds_center_exactly(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\n")
        frames = tuple(synth.black_frames(32, 32, 16))
        path, dumps = run_simulation(frames, cfg)
        assert len(path) == 1 + 15 * 4
        assert dumps == []
        for s in path.samples:
            assert (s.x, s.y, s.vx, s.vy) == (15.5, 15.5, 0.0, 0.0)

    def test_sample_times_are_uniform(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\n")
        frames = tuple(synth.black_frames(16, 16, 4))
        path, _ = run_simulation(frames, cfg)
        dt = cfg.substep_dt
        for k, s in enumerate(path.samples):
            assert s.t == pytest.approx(k * dt, abs=1e-12)

    def test_dump_cadence_and_shapes(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\ndump_every = 2\n")
        frames = tuple(synth.black_frames(16, 12, 7))
        _, dumps = run_simulation(frames, cfg)
        assert [d.frame_index for d in dumps] == [0, 2, 4]
        for d in dumps:
            for f in (d.mass, d.potential, d.ior):
                assert (f.width, f.height) == (16, 12)

    def test_initial_foa_outside_grid_rejected(self):
        cfg = parse_config("c = 20\ninitial_foa = 40, 8\n")
        frames = tuple(synth.black_frames(32, 32, 3))
        with pytest.raises(ConfigError, match="outside grid"):
            run_simulation(frames, cfg)

    def test_tiny_frames_rejected(self):
        cfg = parse_config("c = 1\n")
        frames = tuple(synth.black_frames(2, 2, 3))
        with pytest.raises(DimensionError):
            run_simulation(frames, cfg)

    def test_inhibition_stays_in_unit_interval(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\nbeta = 1\n"
                           "sigma_ior = 3\ndump_every = 1\n")
        img = synth.two_blob_image(32, 32, 2.5, 1.0)
        frames = tuple(synth.static_frames(img, 13))
        _, dumps = run_simulation(frames, cfg)
        assert len(dumps) == 12
        for d in dumps:
            assert d.ior.values.min() >= 0.0 and d.ior.values.max() <= 1.0

    def test_two_runs_serialize_identically(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\nalpha1 = 40\n")
        img = synth.two_blob_image(32, 32, 2.5, 1.0)
        frames = tuple(synth.static_frames(img, 21))
        blobs = []
        for _ in range(2):
            path, _ = run_simulation(frames, cfg)
            buf = io.BytesIO()
            export_scanpath(path, buf)
            blobs.append(buf.getvalue())
        assert blobs[0] == blobs[1]

    def test_flow_magnitude_motion_source_runs(self):
        cfg = parse_config("c = 20\nsubsteps_per_frame = 4\n"
                           "motion_source = flow_magnitude\nhs_max_iters = 40\n")
        frames = synth.moving_blob_frames(24, 24, 5, (8.0, 12.0), (6.0, 0.0),
                                          cfg.frame_dt)
        path, _ = run_simulation(tuple(frames), cfg)
        assert all(map(math.isfinite, (path.samples[-1].x, path.samples[-1].y)))

    def test_each_frame_is_blurred_once_per_sigma(self, monkeypatch):
        # sigma decays from 2 to its floor 1 by frame 3, then stays there
        cfg = parse_config("c = 20\nsubsteps_per_frame = 1\nblur_sigma0 = 2\n"
                           "blur_decay_rate = 10\nblur_floor = 1\n")
        calls = []

        def counting_blur(f, sigma):
            calls.append((id(f), sigma))
            return gaussian_blur(f, sigma)

        monkeypatch.setattr("gazefield.cli.gaussian_blur", counting_blur)
        frames = synth.moving_blob_frames(16, 16, 8, (5.0, 8.0), (6.0, 0.0),
                                          cfg.frame_dt)
        run_simulation(tuple(frames), cfg)
        sigmas = [schedule_sigma(cfg.blur, k * cfg.frame_dt) for k in range(7)]
        assert sigmas[3:] == [1.0] * 4
        assert len(calls) == len(set(calls)) == 11
        assert set(calls) == {(id(frames[i]), s)
                              for k, s in enumerate(sigmas) for i in (k, k + 1)}

    @pytest.mark.parametrize("source, want", [("temporal_derivative", 5),
                                              ("flow_magnitude", 0)])
    def test_temporal_derivative_only_for_its_motion_source(self, monkeypatch,
                                                           source, want):
        cfg = parse_config(f"c = 20\nsubsteps_per_frame = 1\nmotion_source = {source}\n"
                           "hs_max_iters = 5\n")
        calls = []

        def counting_ddt(prev, nxt, dt):
            calls.append(dt)
            return temporal_derivative(prev, nxt, dt)

        monkeypatch.setattr("gazefield.cli.temporal_derivative", counting_ddt)
        frames = synth.moving_blob_frames(16, 16, 6, (5.0, 8.0), (6.0, 0.0),
                                          cfg.frame_dt)
        run_simulation(tuple(frames), cfg)
        assert len(calls) == want

    @pytest.mark.parametrize("decay_rate, n", [(2000, 31), (20, 601)])
    def test_decaying_blur_runs_past_kernel_underflow(self, decay_rate, n):
        # sigma = 3 exp(-decay_rate t) with no floor: 2 sigma^2 underflows to
        # zero at frame 6 of the short clip and at frame 562 of the long one
        cfg = parse_config("alpha1 = 150\nc = 100\nlambda_drag = 4\nblur_sigma0 = 3\n"
                           f"blur_decay_rate = {decay_rate}\n")
        frames = synth.static_frames(synth.two_blob_image(64, 64, 3.0, 1.0), n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path, _ = run_simulation(frames, cfg)
        assert len(path) == 1 + (n - 1) * cfg.substeps_per_frame

    def test_stage_errors_name_frame_and_stage(self):
        with pytest.raises(DataError, match=r"frame 3, stage mass"):
            with _stage(3, "mass"):
                raise DataError("poisoned input")
        with pytest.raises(ConfigError, match=r"frame 0, stage potential"):
            with _stage(0, "potential"):
                raise ConfigError("bad step")

    def test_pursuit_tracks_translating_blob(self):
        # constant-velocity target; motion mass alone (alpha1 = 0) so the
        # inhibition trail cannot push the focus off the target
        cfg = parse_config("alpha1 = 0\nalpha2 = 100\nc = 100\n"
                           "lambda_drag = 4\ndissipation = 2\nbeta = 1\n"
                           "sigma_ior = 4\ninitial_foa = 16, 32\n")
        vx = 6.0
        frames = synth.moving_blob_frames(64, 64, 121, (16.0, 32.0), (vx, 0.0),
                                          cfg.frame_dt, sigma=3.0, amp=1.0)
        path, _ = run_simulation(tuple(frames), cfg)
        errs = [math.hypot(s.x - (16.0 + vx * s.t), s.y - 32.0)
                for s in path.samples if s.t > 2.0]
        assert sum(errs) / len(errs) < 4.0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.fixture()
def blob_frames_dir(tmp_path):
    out = tmp_path / "frames"
    code = run_cli("synth", "moving-blob", "--out", str(out), "--width", "32",
                   "--height", "32", "--frames", "10", "--speed", "12",
                   "--maxval", "65535")
    assert code == 0
    return out


class TestCommands:
    def test_synth_black_writes_loadable_zero_frames(self, tmp_path):
        out = tmp_path / "vid"
        assert run_cli("synth", "black", "--out", str(out), "--width", "8",
                       "--height", "6", "--frames", "3") == 0
        files = sorted(os.listdir(out))
        assert files == ["frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm"]
        f = load_pgm((out / files[0]).read_bytes())
        assert (f.width, f.height) == (8, 6)
        np.testing.assert_array_equal(f.values, 0.0)

    def test_synth_noise_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "two-blobs", "--out", str(out), "--width",
                           "16", "--height", "16", "--frames", "2",
                           "--noise", "0.05", "--seed", "9") == 0
        assert (a / "frame_0000.pgm").read_bytes() == (b / "frame_0000.pgm").read_bytes()

    def test_simulate_end_to_end_and_determinism(self, tmp_path, blob_frames_dir):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha2 = 50\nc = 20\nsubsteps_per_frame = 4\n"
                           "dump_every = 5\n", encoding="utf-8")
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            code = run_cli("simulate", str(cfgfile),
                           str(blob_frames_dir / "frame_*.pgm"),
                           "--out", str(out))
            assert code == 0
            outs.append((out / "scanpath.csv").read_bytes())
            dumped = sorted(p for p in os.listdir(out) if p.endswith(".foaf"))
            assert dumped == ["ior_000000.foaf", "ior_000005.foaf",
                              "mass_000000.foaf", "mass_000005.foaf",
                              "potential_000000.foaf", "potential_000005.foaf"]
        assert outs[0] == outs[1]
        path = import_scanpath(outs[0])
        assert len(path) == 1 + 9 * 4

    def test_simulate_accepts_expanded_file_list(self, tmp_path, blob_frames_dir):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("c = 20\nsubsteps_per_frame = 4\n", encoding="utf-8")
        files = sorted(str(blob_frames_dir / p) for p in os.listdir(blob_frames_dir))
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfgfile), *files, "--out", str(out)) == 0
        assert (out / "scanpath.csv").exists()

    def test_simulate_saccade_annotation(self, tmp_path, blob_frames_dir):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha2 = 50\nc = 20\nsubsteps_per_frame = 4\n",
                           encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("simulate", str(cfgfile),
                       str(blob_frames_dir / "frame_*.pgm"), "--out", str(out),
                       "--saccade-threshold", "0.5") == 0
        flags = [s.saccade for s in
                 import_scanpath((out / "scanpath.csv").read_bytes()).samples]
        assert any(flags)

    def test_simulate_bad_config_exits_2(self, tmp_path, blob_frames_dir, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("alpha9 = 1\n", encoding="utf-8")
        assert run_cli("simulate", str(cfgfile),
                       str(blob_frames_dir / "frame_*.pgm"),
                       "--out", str(tmp_path / "o")) == 2
        assert "alpha9" in capsys.readouterr().err

    def test_simulate_no_frames_exits_3(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("c = 1\n", encoding="utf-8")
        assert run_cli("simulate", str(cfgfile),
                       str(tmp_path / "nothing_*.pgm"),
                       "--out", str(tmp_path / "o")) == 3

    def test_simulate_unstable_config_exits_2(self, tmp_path, blob_frames_dir):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("c = 1000\n", encoding="utf-8")
        assert run_cli("simulate", str(cfgfile),
                       str(blob_frames_dir / "frame_*.pgm"),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("config", [
        "alpha1 = 1e300\n",  # the particle runs away
        "alpha1 = 1e308\nc = 100\nlambda_drag = 4\n",  # the potential overflows
        "alpha2 = 1e308\n",  # the mass overflows
        "frame_dt = 1e-310\n",  # the temporal derivative overflows
    ])
    def test_simulate_blow_up_exits_4_promptly(self, tmp_path, blob_frames_dir, config):
        # a separate process, so a hang fails by timeout instead of stalling
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config, encoding="utf-8")
        src = os.path.dirname(os.path.dirname(gazefield.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "gazefield.cli", "simulate",
             str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 4, proc.stderr

    @pytest.mark.parametrize("config", [
        "blur_sigma0 = 1e300\n",  # no kernel of that radius can be allocated
        "blur_sigma0 = 11\n",  # radius 33 on 32x32 frames
    ])
    def test_simulate_blur_wider_than_frame_exits_2_promptly(self, tmp_path,
                                                             blob_frames_dir, config):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config, encoding="utf-8")
        src = os.path.dirname(os.path.dirname(gazefield.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-m", "gazefield.cli", "simulate",
             str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "stage blur" in proc.stderr and "larger grid side 32" in proc.stderr

    def test_poisson_command_matches_library(self, tmp_path):
        from gazefield import poisson_solve
        rng = np.random.default_rng(5)
        mu = Field2D(rng.uniform(0, 1, size=(12, 12)))
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(mu, fh)
        out = tmp_path / "u.foaf"
        assert run_cli("poisson", str(src), "--out", str(out)) == 0
        with open(out, "rb") as fh:
            got = read_field(fh)
        # command input passed through f32 once, so solve what it stored
        want = poisson_solve(Field2D(mu.values.astype("<f4").astype(np.float64)))
        np.testing.assert_allclose(got.values, want.values, atol=1e-6)

    def test_poisson_oracle_flag(self, tmp_path):
        from gazefield import direct_potential
        mu = Field2D(np.zeros((8, 8)))
        v = mu.values.copy()
        v[4, 4] = 1.0
        mu = Field2D(v)
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(mu, fh)
        out = tmp_path / "u.foaf"
        assert run_cli("poisson", str(src), "--out", str(out), "--oracle") == 0
        with open(out, "rb") as fh:
            got = read_field(fh)
        np.testing.assert_allclose(got.values,
                                   direct_potential(mu).values.astype("<f4"),
                                   atol=1e-7)

    def test_poisson_corrupt_input_exits_3(self, tmp_path):
        src = tmp_path / "mu.foaf"
        src.write_bytes(b"FOAX garbage")
        assert run_cli("poisson", str(src), "--out", str(tmp_path / "u.foaf")) == 3

    def test_converge_command_reports_each_speed(self, tmp_path, capsys):
        img = synth.blob_image(12, 12, 6.0, 6.0, 2.0)
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(img, fh)
        assert run_cli("converge", str(src), "--c", "1,2", "--horizon", "5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("c=1 relative_gradient_error=")
        assert lines[1].startswith("c=2 relative_gradient_error=")

    def test_converge_bad_speed_list_exits_2(self, tmp_path):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.zeros((8, 8))), fh)
        assert run_cli("converge", str(src), "--c", "fast") == 2

    def test_flow_beyond_float32_exits_4(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        assert run_cli("synth", "moving-blob", "--out", str(frames), "--width", "16",
                       "--height", "16", "--frames", "2") == 0
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frame_dt = 1e-40\n", encoding="utf-8")
        out = tmp_path / "v.foaf"
        assert run_cli("flow", str(cfgfile), str(frames / "frame_0000.pgm"),
                       str(frames / "frame_0001.pgm"), "--out", str(out)) == 4
        assert "float32" in capsys.readouterr().err
        assert not out.exists() or out.read_bytes() == b""

    def test_flow_header_integer_past_int_limit_exits_3(self, tmp_path, capsys):
        frame = tmp_path / "a.pgm"
        frame.write_bytes(b"P5 " + b"9" * 5000 + b" 2 255\n" + bytes(4))
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("", encoding="utf-8")
        assert run_cli("flow", str(cfgfile), str(frame), str(frame),
                       "--out", str(tmp_path / "v.foaf")) == 3
        assert "width has 5000 significant digits" in capsys.readouterr().err

    def test_parser_defaults_are_the_library_defaults(self):
        parser = _build_parser()
        args = parser.parse_args(["synth", "moving-blob", "--out", "frames"])
        assert args.frame_dt == SimConfig.frame_dt
        args = parser.parse_args(["converge", "mu.foaf", "--c", "1"])
        assert (args.gamma, args.h) == (TelegraphParams.gamma, TelegraphParams.h)
        assert _parse_value("--mode", Mode, args.mode) is TelegraphParams.mode

    def test_poisson_oracle_beyond_float32_exits_4(self, tmp_path, capsys):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.full((16, 16), 3e38)), fh)
        out = tmp_path / "u.foaf"
        assert run_cli("poisson", str(src), "--out", str(out), "--oracle") == 4
        assert "float32" in capsys.readouterr().err
        assert not out.exists() or out.read_bytes() == b""

    def test_flow_command_writes_two_records(self, tmp_path, blob_frames_dir):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("hs_lambda = 0.05\nhs_max_iters = 80\n", encoding="utf-8")
        out = tmp_path / "v.foaf"
        assert run_cli("flow", str(cfgfile),
                       str(blob_frames_dir / "frame_0000.pgm"),
                       str(blob_frames_dir / "frame_0001.pgm"),
                       "--out", str(out)) == 0
        with open(out, "rb") as fh:
            v = read_flow(fh)
        assert v.dx.shape == (32, 32)
        assert np.isfinite(v.dx).all() and np.isfinite(v.dy).all()

    @pytest.mark.parametrize("command", ["poisson-oracle", "flow-dy"])
    def test_failed_write_leaves_no_file_and_keeps_the_old_one(self, tmp_path, command):
        # flow-dy: rows are constant, so gx = 0 keeps vx at 0 while vy overflows
        # float32; the dx record is written before dy fails
        if command == "poisson-oracle":
            src = tmp_path / "mu.foaf"
            with open(src, "wb") as fh:
                export_field(Field2D(np.full((16, 16), 3e38)), fh)
            argv = ["poisson", str(src), "--oracle"]
        else:
            ramp = np.repeat(np.linspace(0.0, 1.0, 16)[:, None], 16, axis=1)
            a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
            a.write_bytes(gazefield.save_pgm(Field2D(ramp)))
            b.write_bytes(gazefield.save_pgm(Field2D(ramp * 0.5)))
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text("frame_dt = 1e-40\n", encoding="utf-8")
            argv = ["flow", str(cfgfile), str(a), str(b)]
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / "result.foaf"
        assert run_cli(*argv, "--out", str(out)) == 4
        assert list(outdir.iterdir()) == []
        out.write_bytes(b"old")
        assert run_cli(*argv, "--out", str(out)) == 4
        assert list(outdir.iterdir()) == [out]
        assert out.read_bytes() == b"old"
