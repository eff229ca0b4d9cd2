"""Configuration, serialization, pipeline loop, and command-line surface."""

import array
import io
import itertools
import math
import os
import struct
import time
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
    DomainError,
    Field2D,
    FoaSample,
    FoaState,
    GazefieldError,
    IorField,
    MotionSource,
    Mode,
    NumericalError,
    ParameterError,
    PotentialState,
    Scanpath,
    TelegraphParams,
    evolve_potential,
    foa_step,
    gaussian_blur,
    gradient,
    horn_schunck,
    ior_step,
    load_pgm,
    magnitude,
    mass_density,
    poisson_solve,
    save_pgm,
    schedule_sigma,
    temporal_derivative,
)
import gazefield
from gazefield import synth
from gazefield.cli import (
    _CONFIG_KEYS,
    _CSV_CHUNK,
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
    _stream_scanpath,
)
from gazefield.foa import _SaccadeStream, detect_saccades
from gazefield.retina import _gradient_magnitude, _rate

from cli_process import run_cli_process


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

    @pytest.mark.parametrize("key, value", [("substeps_per_frame", "1" * 5000),
                                            ("initial_foa", "1" * 5000),
                                            ("mode", "x" * 5000)])
    def test_long_value_is_echoed_by_its_start_and_length(self, tmp_path, capsys,
                                                         key, value):
        # 5000 digits are past int()'s digit limit; the line shows 40 characters
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert run_cli("simulate", str(cfg), "f*.pgm", "--out", str(tmp_path / "o")) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200, lines
        assert lines[0].endswith(f" {value[:40]!r}... (5000 characters)")

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

    def test_rows_match_format_9g_across_chunks(self):
        # more rows than one write holds, with -0, subnormals and extremes
        rng = np.random.default_rng(12)
        n = 700
        rows = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-12, 12, (n, 5))
        rows[:, 0] = np.cumsum(rng.uniform(1e-6, 1.0, n))
        rows[::7, 1:] = -0.0
        rows[3, 1:] = (5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-300)
        flags = rng.random(n) < 0.3
        path = Scanpath(tuple(FoaSample(*r, f) for r, f in zip(rows.tolist(), flags)))
        buf = io.BytesIO()
        export_scanpath(path, buf)
        want = "".join(",".join(format(v, ".9g") for v in r) + f",{int(f)}\n"
                       for r, f in zip(rows.tolist(), flags.tolist()))
        assert buf.getvalue() == ("t,x,y,vx,vy,saccade\n" + want).encode("ascii")
        assert b",-0," in buf.getvalue()

    @staticmethod
    def streamed(rows, saccades=None):
        # rows as the frame loop yields them: one initial sample, then blocks of 8
        blocks = np.split(rows, range(1, len(rows), 8))
        buf = io.BytesIO()
        _stream_scanpath((array.array("d", b.ravel()) for b in blocks), buf, saccades)
        return buf.getvalue()

    def test_streamed_rows_match_export_scanpath(self):
        rng = np.random.default_rng(13)
        n = 3 * _CSV_CHUNK + 17
        rows = np.cumsum(rng.uniform(0.0, 1.0, (n, 5)), axis=0)
        rows[:, 3:] = rng.uniform(-40.0, 40.0, (n, 2))
        for threshold in (None, 30.0):
            path = Scanpath._own(rows.copy())
            if threshold is not None:
                path = detect_saccades(path, threshold, 3.0)
            want = io.BytesIO()
            export_scanpath(path, want)
            stream = None if threshold is None else _SaccadeStream(threshold, 3.0)
            assert self.streamed(rows, stream) == want.getvalue()

    @pytest.mark.parametrize("bad", ["nan", "late"])
    def test_streamed_rows_are_checked_across_chunks(self, bad):
        # the message names the sample as Scanpath would, chunk boundaries too
        n = 2 * _CSV_CHUNK + 20
        rows = np.zeros((n, 5))
        rows[:, 0] = np.arange(n) * 0.25
        for i in (0, 1, 9, *range(_CSV_CHUNK - 4, _CSV_CHUNK + 12), n - 1):
            broken = rows.copy()
            if bad == "nan":
                broken[i, 2] = np.nan
            else:
                broken[i, 0] = broken[i - 1, 0] if i else np.inf
            with pytest.raises(DataError) as want:
                Scanpath._own(broken)
            with pytest.raises(DataError, match=f"^{want.value}$"):
                self.streamed(broken)

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
            return _rate(prev, nxt, dt)

        monkeypatch.setattr("gazefield.cli._rate", counting_ddt)
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


def stepwise_run(frames, cfg):
    # the pipeline written out from public functions, with every field of
    # every frame recomputed and a new PotentialState and FoaState on every
    # substep: the scanpath and each frame's (mass, potential, inhibition)
    tp, fp = cfg.telegraph_params(), cfg.foa_params()
    w, h = frames[0].width, frames[0].height
    state = FoaState(*cfg.initial_foa)
    pot, ior = PotentialState.zero(w, h), IorField.zeros(w, h)
    samples, fields = [FoaSample(0.0, state.x, state.y, 0.0, 0.0)], []
    n = cfg.substeps_per_frame
    for k in range(len(frames) - 1):
        sigma = schedule_sigma(cfg.blur, k * cfg.frame_dt)
        b_now, b_next = (gaussian_blur(f, sigma) for f in frames[k:k + 2])
        if cfg.mass.motion_source is MotionSource.FLOW_MAGNITUDE:
            motion = magnitude(horn_schunck(b_now, b_next, cfg.frame_dt, cfg.hs))
        else:
            motion = Field2D(np.abs(temporal_derivative(b_now, b_next, cfg.frame_dt).values))
        ior = ior_step(ior, (state.x, state.y), cfg.frame_dt, cfg.ior)
        mu = mass_density(gradient(b_now, cfg.h), motion, ior, cfg.mass)
        for j in range(n):
            pot = evolve_potential(pot, mu, tp)
            state = foa_step(state, pot.u, fp, cfg.h)
            samples.append(FoaSample((k * n + j + 1) * cfg.substep_dt,
                                     state.x, state.y, state.vx, state.vy))
        fields.append((mu.values, pot.u.values, ior.values))
    return Scanpath(tuple(samples)), fields


def csv_bytes(path):
    buf = io.BytesIO()
    export_scanpath(path, buf)
    return buf.getvalue()


def assert_matches_stepwise_run(frames, cfg):
    # bit for bit: the rows, and every dump's mass, potential and inhibition
    want_path, want_fields = stepwise_run(frames, cfg)
    path, dumps = run_simulation(frames, cfg)
    assert csv_bytes(path) == csv_bytes(want_path)
    assert [d.frame_index for d in dumps] == list(range(len(frames) - 1))
    for d, want in zip(dumps, want_fields):
        for got, value in zip((d.mass, d.potential, d.ior), want):
            assert np.array_equal(got.values, value)


class TestSubstepLoop:
    # the particle starts near a corner, and repelled it reaches the edges,
    # so both boundary policies act
    frames = tuple(synth.moving_blob_frames(20, 16, 7, (5.0, 8.0), (40.0, 0.0), 1 / 30,
                                            sigma=2.0, amp=1.0))

    @pytest.mark.parametrize("mode", ["mode = heat\ngamma = 0\nc = 5\n",
                                      "mode = wave\nlambda_drag = 0\nc = 20\n",
                                      "lambda_drag = 4\nc = 20\n"])
    @pytest.mark.parametrize("boundary", ["reflect", "clamp"])
    @pytest.mark.parametrize("sign", ["attract", "repel"])
    def test_in_place_loop_matches_stepwise_run(self, mode, boundary, sign):
        # each dump holds its own frame's potential, not the live buffer
        assert_matches_stepwise_run(self.frames, parse_config(
            mode + "alpha1 = 20000\nalpha2 = 50\ndissipation = 0.5\n"
            "blur_sigma0 = 1\ndump_every = 1\ninitial_foa = 1.5, 4\n"
            f"boundary = {boundary}\nattraction_sign = {sign}\n"))

    @pytest.mark.parametrize("clip", ["AAAAAAA", "AABBBA"])
    @pytest.mark.parametrize("setting", [
        "",  # sigma 0: the blur is the frame itself
        "blur_sigma0 = 2\nblur_decay_rate = 15\nblur_floor = 1\n",  # floor from frame 2
        "motion_source = flow_magnitude\nhs_max_iters = 20\n",
    ], ids=["sigma0", "blur-to-floor", "flow"])
    def test_repeated_frames_match_stepwise_run(self, monkeypatch, clip, setting):
        # a repeated frame is the same object again: its blur, detail and
        # |db/dt| = 0 are reused, and the run stays bit for bit the same
        cfg = parse_config("lambda_drag = 4\nc = 20\nalpha1 = 20000\nalpha2 = 50\n"
                           "dissipation = 0.5\ndump_every = 1\ninitial_foa = 1.5, 4\n"
                           + setting)
        frames = [{"A": self.frames[0], "B": self.frames[3]}[c] for c in clip]
        gradients, derivatives = [], []

        def counting_gradient(f, h):
            gradients.append(f)
            return _gradient_magnitude(f, h)

        def counting_ddt(prev, nxt, dt):
            derivatives.append(prev is nxt)
            return _rate(prev, nxt, dt)

        monkeypatch.setattr("gazefield.cli._gradient_magnitude", counting_gradient)
        monkeypatch.setattr("gazefield.cli._rate", counting_ddt)
        assert_matches_stepwise_run(frames, cfg)
        sigmas = [schedule_sigma(cfg.blur, k * cfg.frame_dt) for k in range(len(clip) - 1)]
        # one gradient per run of one frame at one sigma
        assert len(gradients) == sum(k == 0 or clip[k] != clip[k - 1]
                                     or sigmas[k] != sigmas[k - 1]
                                     for k in range(len(clip) - 1))
        # one derivative per pair of distinct frames, none on a repeated pair
        flow = cfg.mass.motion_source is MotionSource.FLOW_MAGNITUDE
        assert derivatives == [False] * (0 if flow else sum(
            a != b for a, b in zip(clip, clip[1:])))

    def test_potential_overflow_names_its_stage(self):
        cfg = parse_config("alpha1 = 1e308\nc = 100\nlambda_drag = 4\n")
        with pytest.raises(NumericalError, match="stage potential: potential overflow"):
            run_simulation(self.frames, cfg)

    @pytest.mark.parametrize("v, text", [
        (np.where(np.indices((8, 8)).sum(axis=0) % 2, 1e308, -1e308), "gradient"),
        (np.pad([[-1.5e308]], ((0, 7), (0, 7))), "magnitude"),
    ], ids=["gradient", "magnitude"])
    def test_detail_overflow_names_gradient_or_magnitude(self, v, text):
        # the detail's text is magnitude(gradient(b))'s: a difference past float
        # range, or a finite gradient whose hypot is not
        frame = Field2D(v)
        with pytest.raises(NumericalError, match=rf"^frame 0, stage differentiation: "
                                                 rf"{text} overflow: result contains"):
            run_simulation((frame, frame), parse_config("c = 20\n"))

    def test_runaway_particle_names_its_stage(self):
        # the potential stays finite, and its gradient throws the particle off the grid
        cfg = parse_config("alpha1 = 1e9\nc = 100\nlambda_drag = 4\ninitial_foa = 3, 5\n")
        with pytest.raises(NumericalError, match="frame 0, stage particle: particle step"):
            run_simulation(self.frames, cfg)

    @pytest.mark.parametrize("stage, source, error, want", [
        ("load", "temporal_derivative", DimensionError, DataError),
        ("blur", "temporal_derivative", ParameterError, ConfigError),
        ("differentiation", "temporal_derivative", NumericalError, NumericalError),
        ("motion", "temporal_derivative", NumericalError, NumericalError),
        ("motion", "flow_magnitude", NumericalError, NumericalError),
        ("inhibition", "temporal_derivative", DomainError, DataError),
        ("mass", "temporal_derivative", NumericalError, NumericalError),
        ("potential", "temporal_derivative", NumericalError, NumericalError),
        ("particle", "temporal_derivative", DomainError, DataError),
        ("dump", "temporal_derivative", GazefieldError, GazefieldError),
    ])
    def test_error_in_each_stage_names_frame_and_stage(self, monkeypatch, stage, source,
                                                       error, want):
        # a failure in frame 1 surfaces as "frame 1, stage NAME" with its
        # category kept; each stage fails in the call that falls in frame 1 of
        # what cli calls there (two substeps a frame, every frame distinct)
        cli = gazefield.cli

        def fail_on_call(fn, n):
            calls = itertools.count(1)

            def failing(*args):
                if next(calls) == n:
                    raise error("injected")
                return fn(*args)
            return failing

        cfg = parse_config(f"c = 20\nsubsteps_per_frame = 2\ndump_every = 1\n"
                           f"motion_source = {source}\nhs_max_iters = 5\n")
        frames, on_dump = iter(self.frames), None
        calls = {"blur": ("gaussian_blur", 3), "differentiation": ("_gradient_magnitude", 2),
                 "motion": ("horn_schunck" if source == "flow_magnitude" else "_rate", 2),
                 "inhibition": ("ior_step", 2), "mass": ("_mass", 2)}
        if stage in calls:
            name, n = calls[stage]
            monkeypatch.setattr(cli, name, fail_on_call(getattr(cli, name), n))
        elif stage == "load":
            frames = map(fail_on_call(lambda f: f, 2), self.frames)
        elif stage == "potential":
            stepper, step = cli._Workspace.stepper, fail_on_call(lambda run: run(), 3)
            monkeypatch.setattr(cli._Workspace, "stepper",
                                lambda ws, mu, p: lambda: step(stepper(ws, mu, p)))
        elif stage == "particle":
            stepper = cli._particle_stepper
            monkeypatch.setattr(cli, "_particle_stepper",
                                lambda *args: fail_on_call(stepper(*args), 3))
        else:
            on_dump = fail_on_call(lambda d: None, 2)
        with pytest.raises(want, match=rf"^frame 1, stage {stage}: injected$") as info:
            run_simulation(frames, cfg, on_dump=on_dump)
        assert type(info.value) is want and type(info.value.__cause__) is error


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

    @pytest.mark.parametrize("schedule", ["", "blur_sigma0 = 3\nblur_decay_rate = 2000\n"],
                             ids=["plain", "decaying-blur"])
    def test_synth_then_simulate_writes_a_row_per_substep(self, tmp_path, schedule):
        # the decaying blur has no floor: 2*sigma^2 underflows at frame 6
        frames, cfgfile, out = tmp_path / "frames", tmp_path / "run.cfg", tmp_path / "out"
        assert run_cli("synth", "two-blobs", "--frames", "31", "--out", str(frames)) == 0
        cfgfile.write_text("alpha1 = 150\nc = 100\nlambda_drag = 4\n" + schedule,
                           encoding="utf-8")
        assert run_cli("simulate", str(cfgfile), str(frames / "frame_*.pgm"),
                       "--out", str(out)) == 0
        rows = (out / "scanpath.csv").read_bytes().splitlines()[1:]  # under the header
        assert len(rows) == 1 + 30 * 8

    def test_runs_in_one_process_write_what_separate_processes_write(self, tmp_path,
                                                                       blob_frames_dir):
        # the parser is built once per process, and nothing of a run outlives it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha2 = 50\nc = 20\nsubsteps_per_frame = 4\ndump_every = 5\n",
                           encoding="utf-8")
        runs = {"saccades": ["--saccade-threshold", "10"], "plain": []}  # peak speed 17.8

        def outputs(out):
            return {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}

        for name, extra in runs.items():
            assert run_cli("simulate", str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
                           "--out", str(tmp_path / name), *extra) == 0
        for name, extra in runs.items():
            out = tmp_path / f"{name}-alone"
            done = run_cli_process("simulate", str(cfgfile),
                                   str(blob_frames_dir / "frame_*.pgm"), "--out", str(out),
                                   *extra)
            assert done.returncode == 0, done.stderr
            assert outputs(tmp_path / name) == outputs(out)
        csv = [(tmp_path / name / "scanpath.csv").read_bytes() for name in runs]
        assert csv[0] != csv[1]

    @pytest.mark.parametrize("clip, parses", [("A" * 31, 1), ("AABA", 3)],
                             ids=["31-identical", "AABA"])
    def test_simulate_parses_a_repeated_file_once(self, tmp_path, monkeypatch, clip,
                                                  parses):
        # files with the bytes of the file before them are not parsed again;
        # a "# frame k" header comment makes every file differ, so every frame
        # is parsed and recomputed, and the outputs are the same bytes
        images = {"A": save_pgm(synth.two_blob_image(32, 32, 2.5, 1.0)),
                  "B": save_pgm(synth.two_blob_image(32, 32, 4.0, 1.0))}
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha1 = 150\nc = 100\nlambda_drag = 4\ndump_every = 2\n",
                           encoding="utf-8")
        parsed = []

        def counting_load(data):
            parsed.append(len(data))
            return load_pgm(data)

        def run(name, header):
            frames, out = tmp_path / name, tmp_path / f"out_{name}"
            frames.mkdir()
            for k, c in enumerate(clip):
                (frames / f"frame_{k:04d}.pgm").write_bytes(
                    b"P5\n" + header(k) + images[c].removeprefix(b"P5\n"))
            parsed.clear()
            assert run_cli("simulate", str(cfgfile), str(frames / "frame_*.pgm"),
                           "--out", str(out)) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}, len(parsed)

        monkeypatch.setattr("gazefield.cli.load_pgm", counting_load)
        reused, reused_parses = run("plain", lambda k: b"")
        full, full_parses = run("commented", lambda k: b"# frame %d\n" % k)
        assert (reused_parses, full_parses) == (parses, len(clip))
        assert reused == full
        assert len(reused) == 1 + 3 * len(range(0, len(clip) - 1, 2))  # CSV and dumps

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
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config, encoding="utf-8")
        proc = run_cli_process("simulate", str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 4, proc.stderr

    @pytest.mark.parametrize("case", ["poisson", "poisson-oracle", "converge", "simulate",
                                      "simulate-mass", "simulate-motion",
                                      "simulate-gradient", "flow-ddt",
                                      "flow-sweeps", "flow-nan", "flow-nan-subnormal-dt"])
    def test_overflow_under_warnings_as_errors_exits_4_with_one_error_line(
            self, tmp_path, blob_frames_dir, case):
        # numpy's overflow warnings, raised as errors, used to end these in a
        # RuntimeWarning traceback with exit 1 before the non-finite checks ran
        src, cfgfile = tmp_path / "mu.foaf", tmp_path / "run.cfg"
        with open(src, "wb") as fh:
            export_field(Field2D(np.ones((32, 32))), fh)
        out = ("--out", str(tmp_path / "out"))
        clip = (str(cfgfile), str(blob_frames_dir / "frame_*.pgm"), *out)
        pair = (str(cfgfile), str(blob_frames_dir / "frame_0000.pgm"),
                str(blob_frames_dir / "frame_0001.pgm"), *out)
        command, config, args = {
            "poisson": ("poisson", "", (str(src), "--h", "1e200", *out)),
            # h*h overflows in the dense oracle; this exited 3, as a data error
            "poisson-oracle": ("poisson", "", (str(src), "--oracle", "--h", "1e200", *out)),
            "converge": ("converge", "", (str(src), "--c", "1", "--h", "1e200")),
            "simulate": ("simulate", "alpha1 = 1e308\nc = 100\nlambda_drag = 4\n", clip),
            "simulate-mass": ("simulate", "alpha2 = 1e308\n", clip),
            # the temporal derivative inside horn_schunck overflows
            "simulate-motion": ("simulate", "motion_source = flow_magnitude\nframe_dt = 1e-310\n",
                                clip),
            # the gradient divides by h and overflows; frame_dt keeps the substep stable
            "simulate-gradient": ("simulate", "h = 1e-309\nframe_dt = 5e-309\n", clip),
            "flow-ddt": ("flow", "frame_dt = 1e-310\n", pair),
            # bt stays finite and the sweeps overflow
            "flow-sweeps": ("flow", "frame_dt = 1e-308\n", pair),
            # the update is NaN from sweep 1; the sweeps ran on to the cap, for hours
            "flow-nan": ("flow", "frame_dt = 1e-308\nhs_max_iters = 100000000\n", pair),
            "flow-nan-subnormal-dt": ("flow", "frame_dt = 5e-309\nhs_max_iters = 100000000\n",
                                      pair),
        }[case]
        cfgfile.write_text(config, encoding="utf-8")
        proc = run_cli_process(command, *args, warn="error")
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not (tmp_path / "out" / "scanpath.csv").exists()
        assert not (tmp_path / "out").is_file()

    @pytest.mark.parametrize("config", [
        "blur_sigma0 = 1e300\n",  # no kernel of that radius can be allocated
        "blur_sigma0 = 11\n",  # radius 33 on 32x32 frames
    ])
    def test_simulate_blur_wider_than_frame_exits_2_promptly(self, tmp_path,
                                                             blob_frames_dir, config):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config, encoding="utf-8")
        proc = run_cli_process("simulate", str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "stage blur" in proc.stderr and "larger grid side 32" in proc.stderr

    @pytest.mark.parametrize("sigma, code", [("1e300", 2), ("1e200", 2), ("1e-200", 2),
                                             ("1e-160", 0)])
    def test_simulate_extreme_sigma_ior_under_warnings_as_errors(
            self, tmp_path, blob_frames_dir, sigma, code):
        # 2*sigma_ior**2 overflowed (an OverflowError traceback) or was 0 (exit 3
        # after 0/0 at the gaze node); a subnormal one warned of overflow
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"sigma_ior = {sigma}\n", encoding="utf-8")
        proc = run_cli_process("simulate", str(cfgfile), str(blob_frames_dir / "frame_*.pgm"),
                               "--out", str(tmp_path / "o"), warn="error")
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
        else:
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
            assert "sigma_ior" in lines[0]

    @pytest.mark.parametrize("kind", ["two-blobs", "moving-blob"])
    @pytest.mark.parametrize("sigma, code", [("1e200", 2), ("1e-200", 2), ("1e-160", 0)])
    def test_synth_extreme_blob_sigma_under_warnings_as_errors(self, tmp_path, kind,
                                                               sigma, code):
        # 2*sigma**2 was 0 (0/0 at the blob centre: a RuntimeWarning traceback) or
        # inf (a flat frame, exit 0); a subnormal one warned of overflow
        proc = run_cli_process("synth", kind, "--frames", "2", "--blob-sigma", sigma,
                               "--out", str(tmp_path / "frames"), warn="error")
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
        else:
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
            assert "sigma" in lines[0]

    @pytest.mark.parametrize("setting, name", [
        (["two-blobs", "--amp", "nan"], "amp"), (["two-blobs", "--amp", "inf"], "amp"),
        (["moving-blob", "--amp=-inf"], "amp"), (["moving-blob", "--speed", "inf"], "velocity"),
        (["moving-blob", "--speed", "nan"], "velocity"),
        (["moving-blob", "--frame-dt", "1e308"], "dt")])
    def test_synth_non_finite_setting_under_warnings_as_errors(self, tmp_path, setting, name):
        # a NaN amplitude or speed made a NaN frame, a data error (exit 3), and
        # an infinite amplitude a saturated or black one (exit 0); --frame-dt
        # 1e308 makes frame 2's time inf, and its centre y inf * 0 = NaN
        proc = run_cli_process("synth", *setting, "--frames", "3", "--width", "8",
                               "--height", "8", "--out", str(tmp_path / "f"), warn="error")
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert name in lines[0]

    @pytest.mark.parametrize("kind", ["black", "two-blobs", "moving-blob"])
    @pytest.mark.parametrize("size", ["--width", "--frames"])
    def test_synth_size_past_the_index_range_exits_2(self, tmp_path, kind, size):
        # np.mgrid raised ValueError and [image] * count OverflowError (exit 1), and
        # moving-blob built 1x1 frames in memory until it was stopped
        proc = run_cli_process("synth", kind, "--width", "1", "--height", "1", size,
                               "1" + "0" * 22, "--out", str(tmp_path / "f"), warn="error",
                               timeout=10)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert size[2:].replace("frames", "count") in lines[0]
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("kind", ["black", "two-blobs", "moving-blob"])
    def test_synth_frame_past_numpy_byte_size_exits_2(self, tmp_path, capsys, kind):
        # each side is inside the index range, but 8 * width * height bytes is not:
        # np.arange or np.zeros raised "ValueError: array is too big" (exit 1)
        out = tmp_path / "f"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("synth", kind, "--width", str(2**62), "--height", "4",
                           "--frames", "2", "--out", str(out))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "8 * width * height" in lines[0], lines
        assert not out.exists()

    def test_integer_past_float_range_is_a_parameter_error(self, tmp_path, capsys):
        # a float divided by it raised "OverflowError: int too large to convert
        # to float" (exit 1): frame_dt / substeps_per_frame in every config that
        # simulate and flow load, and the blob centres' width / 4 in synth
        huge = 10**400
        with pytest.raises(ParameterError, match="^substeps_per_frame "):
            SimConfig(substeps_per_frame=huge)
        with pytest.raises(ParameterError, match=r"^width .*, got an integer of 401 digits$"):
            synth.two_blob_image(huge, 4)
        frames, cfg, out = tmp_path / "f", tmp_path / "run.cfg", tmp_path / "v.foaf"
        assert run_cli("synth", "black", "--width", "4", "--height", "4", "--frames", "2",
                       "--out", str(frames)) == 0
        cfg.write_text(f"substeps_per_frame = {huge}\n", encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("flow", str(cfg), str(frames / "frame_0000.pgm"),
                           str(frames / "frame_0001.pgm"), "--out", str(out))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: substeps_per_frame "), lines
        assert not out.exists()

    @pytest.mark.parametrize("start", [(math.nan, 4.0), (4.0, math.inf)])
    def test_moving_blob_rejects_a_non_finite_start(self, start):
        with pytest.raises(ParameterError, match="start"):
            synth.moving_blob_frames(8, 8, 3, start, (1.0, 0.0), 0.1)

    def test_poisson_command_matches_library(self, tmp_path):
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

    @pytest.mark.parametrize("case, message", [
        ("garbage", "error: bad field magic"), ("missing-source", "error: cannot read "),
        ("missing-out-dir", "error: cannot write ")],
        ids=["garbage", "missing-source", "missing-out-dir"])
    def test_poisson_corrupt_input_exits_3(self, tmp_path, capsys, case, message):
        src, out = tmp_path / "mu.foaf", tmp_path / "u.foaf"
        if case == "garbage":
            src.write_bytes(b"FOAX garbage")
        elif case == "missing-out-dir":
            with open(src, "wb") as fh:
                export_field(Field2D(np.ones((8, 8))), fh)
            out = tmp_path / "missing" / "u.foaf"
        assert run_cli("poisson", str(src), "--out", str(out)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), lines
        assert not out.exists() and not out.with_name("u.foaf.part").exists()

    @pytest.mark.parametrize("command", ["poisson", "converge"])
    def test_field_header_past_the_index_range_exits_3(self, tmp_path, capsys, command):
        # 4 * w * h bytes is past what one read can ask for: the read raised
        # "OverflowError: cannot fit 'int' into an index-sized integer" (exit 1)
        src, out = tmp_path / "mu.foaf", tmp_path / "u.foaf"
        src.write_bytes(b"FOAF" + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(16))
        args = ["--out", str(out)] if command == "poisson" else ["--c", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(command, str(src), *args) == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "4294967295x4294967295" in lines[0], lines
        assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["mu.foaf"]

    def test_converge_command_reports_each_speed(self, tmp_path, capsys):
        img = synth.blob_image(12, 12, 6.0, 6.0, 2.0)
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(img, fh)
        assert run_cli("converge", str(src), "--c", "1,2", "--horizon", "5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("c=1 relative_gradient_error=")
        assert lines[1].startswith("c=2 relative_gradient_error=")

    def test_converge_prints_for_speeds_together_what_each_prints_alone(self, tmp_path,
                                                                         capsys):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.ones((32, 32))), fh)
        argv = ("converge", str(src), "--dt", "0.05", "--horizon", "2")
        together = run_cli_process(*argv, "--c", "1,2,3,4,5", warn="error")
        assert together.returncode == 0, together.stderr
        for c in "12345":
            assert run_cli(*argv, "--c", c) == 0
        alone = capsys.readouterr().out
        assert together.stdout == alone and len(alone.splitlines()) == 5

    @pytest.mark.parametrize("args", [
        ["--c", "1e300"], ["--c", "1,2", "--dt", "1e-9"], ["--c", "1,2", "--horizon", "1e9"],
        ["--c", "1,2", "--horizon", "1e300", "--dt", "1e-300"],
    ])
    def test_converge_over_the_work_budget_exits_2_at_once(self, tmp_path, capsys, args):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(synth.blob_image(32, 32, 16.0, 16.0, 4.0), fh)
        start = time.perf_counter()
        assert run_cli("converge", str(src), *args) == 2
        assert time.perf_counter() - start < 1.0
        assert "node steps" in capsys.readouterr().err

    def test_converge_heat_nan_stability_bound_exits_2(self, tmp_path, capsys):
        # h*h and c*c overflow, so the heat bound is NaN; it admitted any dt, and
        # the reference solve then exited 4 at its NaN residual
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.ones((8, 8))), fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("converge", str(src), "--mode", "heat", "--gamma", "0",
                           "--c", "1e200", "--h", "1e200", "--dt", "1") == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "stability violated" in lines[0], lines
        assert captured.out == ""

    @pytest.mark.parametrize("speeds, message", [
        ("fast", "error: --c: not a number: 'fast'"),
        (",", "error: --c needs at least one speed")], ids=["word", "empty"])
    def test_converge_bad_speed_list_exits_2(self, tmp_path, capsys, speeds, message):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.zeros((8, 8))), fh)
        assert run_cli("converge", str(src), "--c", speeds) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("command", ["poisson", "converge"])
    def test_non_finite_residual_exits_4_at_once(self, tmp_path, capsys, command):
        # h*h overflows: poisson stops at its first sweep's NaN residual instead
        # of running all 20000 sweeps, and converge's sine-mode reference is not
        # finite, with no sweeps to run
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(synth.blob_image(64, 64, 32.0, 32.0, 8.0), fh)
        args = ["--out", str(tmp_path / "u.foaf")] if command == "poisson" else ["--c", "1"]
        start = time.perf_counter()
        assert run_cli(command, str(src), *args, "--h", "1e200") == 4
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert ("in 1 of at most" if command == "poisson" else "potential overflow") in err

    def test_converge_on_a_large_mass_meets_its_reference_tolerance(self, tmp_path, capsys):
        # a relaxed reference has a rounding floor of about 2e-9 here, so an
        # absolute tol of 1e-10 ran all 200000 sweeps (15 s) and exited 4; the
        # sine-mode reference has no tolerance to miss
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.full((31, 33), 1e4)), fh)
        start = time.perf_counter()
        assert run_cli("converge", str(src), "--c", "1", "--horizon", "1") == 0
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().out.startswith("c=1 relative_gradient_error=")

    def test_converge_prints_the_benchmark_errors(self, tmp_path, capsys):
        # the elliptic benchmark's converge mass at seed 0: a draw of the 128x128
        # poisson mass, then a 64x64 one blurred with sigma 2, through FOAF
        rng = np.random.default_rng(0)
        rng.uniform(0.0, 1.0, (128, 128))
        mu = gaussian_blur(Field2D(rng.uniform(0.0, 1.0, (64, 64))), 2.0)
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(mu, fh)
        with open(src, "rb") as fh:
            assert np.array_equal(read_field(fh).values, mu.values.astype("<f4"))
        assert run_cli("converge", str(src), "--c", "1,2,4,8", "--drag", "4",
                       "--dt", "0.05") == 0
        assert capsys.readouterr().out.splitlines() == [
            "c=1 relative_gradient_error=0.949911", "c=2 relative_gradient_error=0.837708",
            "c=4 relative_gradient_error=0.53069", "c=8 relative_gradient_error=0.0857432"]

    def test_converge_on_a_grid_under_3x3_exits_3(self, tmp_path):
        src = tmp_path / "mu.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.ones((2, 2))), fh)
        proc = run_cli_process("converge", str(src), "--c", "1,2", warn="error")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: convergence_in_c needs at least 3x3, got 2x2"]

    @pytest.mark.parametrize("kind", ["flow", "synth", "synth-frame-0"])
    def test_memory_error_exits_3_with_one_error_line(self, tmp_path, capsys,
                                                       monkeypatch, kind):
        def too_large(*args):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        if kind == "flow":
            monkeypatch.setattr("gazefield.cli.load_pgm", too_large)
            frame, cfgfile = tmp_path / "a.pgm", tmp_path / "run.cfg"
            frame.write_bytes(gazefield.save_pgm(Field2D.zeros(4, 4)))
            cfgfile.write_text("", encoding="utf-8")
            argv = ["flow", str(cfgfile), str(frame), str(frame),
                    "--out", str(tmp_path / "v.foaf")]
        elif kind == "synth":
            monkeypatch.setattr(synth, "two_blob_image", too_large)
            argv = ["synth", "two-blobs", "--out", str(tmp_path / "frames")]
        else:  # frame 0 itself, as for synth black --width 1000000000000 --height 4
            monkeypatch.setattr(synth, "blob_image", too_large)
            argv = ["synth", "moving-blob", "--out", str(tmp_path / "frames")]
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == "error: Unable to allocate 298. GiB for an array\n"
        assert not (tmp_path / "frames").exists()

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
        assert args.drag == TelegraphParams.lambda_drag
        assert _parse_value("--mode", Mode, args.mode) is TelegraphParams.mode
        args = parser.parse_args(["poisson", "mu.foaf", "--out", "u.foaf"])
        assert (args.h, args.tol, args.max_iters) == poisson_solve.__defaults__[:3]
        args = parser.parse_args(["synth", "two-blobs", "--out", "frames"])
        assert (args.blob_sigma, args.amp) == synth.two_blob_image.__defaults__
        assert args.maxval == gazefield.save_pgm.__defaults__[0]

    def test_bare_synth_writes_the_library_default_frames(self, tmp_path):
        out = tmp_path / "frames"
        assert run_cli("synth", "two-blobs", "--out", str(out)) == 0
        want = gazefield.save_pgm(synth.two_blob_image(64, 64))
        assert (out / "frame_0000.pgm").read_bytes() == want
        assert (out / "frame_0060.pgm").read_bytes() == want

    def test_poisson_oracle_spacing_whose_half_rounds_to_zero_exits_2(self, tmp_path):
        # math.log(0.5 * h) raised ValueError: math domain error, exit 1
        src, out = tmp_path / "mu.foaf", tmp_path / "u.foaf"
        with open(src, "wb") as fh:
            export_field(Field2D(np.ones((32, 32))), fh)
        proc = run_cli_process("poisson", str(src), "--oracle", "--h", "5e-324",
                               "--out", str(out), warn="error")
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: h / 2 "), proc.stderr
        assert not out.exists()

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

    def test_flow_between_identical_frames_is_exactly_zero(self, tmp_path):
        frames, cfgfile, out = tmp_path / "frames", tmp_path / "run.cfg", tmp_path / "v.foaf"
        assert run_cli("synth", "two-blobs", "--frames", "2", "--out", str(frames)) == 0
        cfgfile.write_text("alpha1 = 150\nc = 100\nlambda_drag = 4\n", encoding="utf-8")
        proc = run_cli_process("flow", str(cfgfile), str(frames / "frame_0000.pgm"),
                               str(frames / "frame_0001.pgm"), "--out", str(out), warn="error")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{out}: 64x64 flow, mean speed 0 px/s\n"

    def test_flows_in_one_process_write_what_separate_processes_write(self, tmp_path,
                                                                        blob_frames_dir):
        # each solve builds its own buffers and kernels, so the second flow in a
        # process, on the reversed pair, writes what a fresh process writes
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("", encoding="utf-8")
        a, b = (str(blob_frames_dir / f"frame_000{k}.pgm") for k in range(2))
        pairs = {"fwd": (a, b), "rev": (b, a)}
        for name, pair in pairs.items():
            assert run_cli("flow", str(cfgfile), *pair, "--out", str(tmp_path / name)) == 0
        for name, pair in pairs.items():
            alone = tmp_path / f"{name}-alone"
            proc = run_cli_process("flow", str(cfgfile), *pair, "--out", str(alone))
            assert proc.returncode == 0, proc.stderr
            assert alone.read_bytes() == (tmp_path / name).read_bytes()

    def test_flow_takes_its_sweep_cap_from_the_config(self, tmp_path, blob_frames_dir):
        # one sweep and two end in different iterates, so their flows differ
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "v.foaf"
        flows = []
        for sweeps in (1, 2):
            cfgfile.write_text(f"hs_max_iters = {sweeps}\n", encoding="utf-8")
            assert run_cli("flow", str(cfgfile), str(blob_frames_dir / "frame_0000.pgm"),
                           str(blob_frames_dir / "frame_0001.pgm"), "--out", str(out)) == 0
            flows.append(out.read_bytes())
        assert flows[0] != flows[1]

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
