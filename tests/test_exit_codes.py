"""The exit-code contract, swept over every numeric option and config key.

Each numeric option of simulate, poisson, converge and synth, and each
numeric config key of simulate and flow, takes each value of a hostile
list, one at a time, on a tiny base input.  Run in process through cli.main
with warnings as errors, every case must exit 0, 2 (config), 3 (data) or 4
(numerical), never raise; a failure prints exactly one ``error:`` line and
leaves no output file behind.  The values that ask for a long run are
exempt, each option with its reason (EXEMPT).

Every input file format gets the same contract under a seeded byte-level
fuzz: bit flips, truncations, insertions and numeric tokens, a few hundred
mutants per format (FUZZ_CASES), each fed to the command that reads it.
"""

import io
import re
import struct
import warnings

import numpy as np
import pytest

from gazefield import DataError, Scanpath, save_pgm, synth
from gazefield.cli import _CONFIG_KEYS, _PARSER, export_scanpath, import_scanpath, main, read_flow

FLOATS = ["0", "-0.0", "5e-324", "1e-309", "1e-160", "1e-20", "0.5", "1e20", "1e154",
          "1e200", "1e308", "inf", "nan", "-1"]
INTS = ["0", "-1", "1", "3", str(10**5), str(10**22), str(2**62)]
LONG = {str(10**5), str(10**22), str(2**62)}  # the integers that ask for long runs

# (command, option or config key) -> the work its LONG values ask for; that
# takes as long as it was asked to, and a long run that was asked for is not a
# hang.  hs_max_iters, poisson --max-iters and converge --horizon need no entry
# here: swept one at a time, the tolerance stops the sweeps and a horizon past
# the work budget exits 2 at once, so their LONG values run
EXEMPT = {
    ("simulate", "substeps_per_frame"): "potential and particle steps a frame",
    ("synth", "--frames"): "frames, each written as a file (moving-blob makes them all "
                           "before it writes one)",
}

NUMERIC_KEYS = [k for k, (_, _, kind) in _CONFIG_KEYS.items() if kind in (int, float)]
SIMULATE_BASES = {  # the default damped wave, heat, wave and a flow motion term
    "damped_wave": {},
    "heat": {"mode": "heat", "gamma": "0"},
    "wave": {"mode": "wave", "lambda_drag": "0"},
    "flow": {"motion_source": "flow_magnitude"},
}
FLOW_KEYS = ["hs_lambda", "hs_max_iters", "hs_tol", "frame_dt", "blur_sigma0",
             "blur_decay_rate", "blur_floor"]  # the keys flow reads
# command -> numeric option -> (base arguments it joins, the kinds it is swept on)
OPTIONS = {
    "simulate": {"--saccade-threshold": ({}, None), "--min-fixation": ({}, None)},
    "poisson": {o: ({}, (None, "--oracle")) for o in ("--h", "--tol", "--max-iters")},
    "converge": {o: ({"--c": "1,2", "--horizon": "2"}, None)
                 for o in ("--c", "--gamma", "--drag", "--h", "--dt", "--horizon")},
    "synth": {
        "--width": ({}, ("black", "two-blobs", "moving-blob")),
        "--height": ({}, ("black", "two-blobs", "moving-blob")),
        "--frames": ({}, ("black", "two-blobs", "moving-blob")),
        "--blob-sigma": ({}, ("two-blobs", "moving-blob")),
        "--amp": ({}, ("two-blobs", "moving-blob")),
        "--speed": ({}, ("moving-blob",)),
        "--frame-dt": ({}, ("moving-blob",)),
        "--noise": ({}, ("two-blobs",)),
        "--seed": ({"--noise": "0.1"}, ("two-blobs",)),  # the seed is read for noise only
        "--maxval": ({}, ("two-blobs",)),
    },
}
SYNTH_BASE = {"--width": "4", "--height": "4", "--frames": "2"}


def subcommand(name):
    return next(a for a in _PARSER._actions if a.dest == "command").choices[name]


def is_int_option(command, option):
    action = next(a for a in subcommand(command)._actions if option in a.option_strings)
    return action.type is int


def values(command, name, integer):
    return [v for v in (INTS if integer else FLOATS)
            if (command, name) not in EXEMPT or v not in LONG]


def files_under(path):
    if path.is_dir():
        return [p for p in path.rglob("*") if p.is_file()]
    return [path] if path.exists() else []


def broken(capsys, cases):
    """Run each (label, argv, out) case in process; return those that break the
    contract, each with what it did."""
    found = []
    for label, argv, out in cases:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        except BaseException as e:  # SystemExit too: argparse prints more than one line
            found.append((label, f"raised {type(e).__name__}: {e}"))
            capsys.readouterr()
            continue
        lines = capsys.readouterr().err.splitlines()
        if code not in (0, 2, 3, 4):
            found.append((label, f"exit {code}"))
        elif code and not (len(lines) == 1 and lines[0].startswith("error: ")):
            found.append((label, f"exit {code}, stderr {lines}"))
        elif code and files_under(out):
            found.append((label, f"exit {code}, left {files_under(out)}"))
    return found


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 12x10x3 moving-blob clip, a 12x10 mass field record, and the fuzz's config."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "base.cfg").write_bytes(BASE_CONFIG)
    clip = root / "clip"
    clip.mkdir()
    for k, f in enumerate(synth.moving_blob_frames(12, 10, 3, (4.0, 5.0), (30.0, 0.0),
                                                   1.0 / 30.0, 2.0)):
        (clip / f"f{k}.pgm").write_bytes(save_pgm(f))
    mu = np.random.default_rng(3).uniform(0.0, 1.0, (10, 12))
    (root / "mu.foaf").write_bytes(b"FOAF" + struct.pack("<II", 12, 10)
                                   + mu.astype("<f4").tobytes())
    return root


@pytest.mark.parametrize("base", sorted(SIMULATE_BASES))
@pytest.mark.parametrize("key", NUMERIC_KEYS + ["initial_foa"])
def test_simulate_config_key(tmp_path, capsys, inputs, base, key):
    cases = []
    for v in values("simulate", key, _CONFIG_KEYS[key][2] is int):
        cfg, out = tmp_path / f"{v}.cfg", tmp_path / f"out{v}"
        settings = {**SIMULATE_BASES[base], key: f"{v},{v}" if key == "initial_foa" else v}
        cfg.write_text("".join(f"{k} = {x}\n" for k, x in settings.items()),
                       encoding="utf-8")
        cases.append((v, ["simulate", str(cfg), str(inputs / "clip" / "f*.pgm"),
                          "--out", str(out)], out))
    assert broken(capsys, cases) == []


@pytest.mark.parametrize("key", FLOW_KEYS)
def test_flow_config_key(tmp_path, capsys, inputs, key):
    cases = []
    for v in values("flow", key, _CONFIG_KEYS[key][2] is int):
        cfg, out = tmp_path / f"{v}.cfg", tmp_path / f"v{v}.foaf"
        cfg.write_text(f"{key} = {v}\n", encoding="utf-8")
        cases.append((v, ["flow", str(cfg), str(inputs / "clip" / "f0.pgm"),
                          str(inputs / "clip" / "f1.pgm"), "--out", str(out)], out))
    assert broken(capsys, cases) == []


@pytest.mark.parametrize("command, option", [(c, o) for c in OPTIONS for o in OPTIONS[c]])
def test_option(tmp_path, capsys, inputs, command, option):
    base, kinds = OPTIONS[command][option]
    cfg, cases = tmp_path / "run.cfg", []
    cfg.write_text("", encoding="utf-8")  # simulate's defaults
    for kind in kinds or (None,):
        for v in values(command, option, is_int_option(command, option)):
            out = tmp_path / f"{kind}{v}"
            args = [f"{o}={b}" for o, b in base.items() if o != option] + [f"{option}={v}"]
            if command == "simulate":
                argv = ["simulate", str(cfg), str(inputs / "clip" / "f*.pgm"),
                        "--out", str(out)]
            elif command == "synth":
                args += [f"{o}={b}" for o, b in SYNTH_BASE.items() if o != option]
                argv = ["synth", kind, "--out", str(out)]
            else:  # poisson and converge read the mass; converge writes no file
                argv = [command, str(inputs / "mu.foaf"), *([kind] if kind else [])]
                argv += ["--out", str(out)] if command == "poisson" else []
            cases.append((f"{kind} {v}", argv + args, out))
    assert broken(capsys, cases) == []


def test_every_numeric_option_is_swept():
    # a numeric option added to a command without an entry here would go unswept
    for name in ("simulate", "flow", "poisson", "converge", "synth"):
        numeric = {o for a in subcommand(name)._actions if a.type in (int, float)
                   for o in a.option_strings[:1]}
        assert numeric == set(OPTIONS.get(name, {})) - {"--c"}, name


# ---------------------------------------------------------------------------
# byte-level fuzz of the input formats
# ---------------------------------------------------------------------------

FUZZ_CASES = 300  # mutants per format and command
BASE_CONFIG = b"alpha1 = 150\nc = 100\nlambda_drag = 4\nsigma_ior = 2\nblur_sigma0 = 1\n"
TEXT_TOKENS = [b"0", b"-1", b"00", b"1e-309", b"5e-324", b"1e308", b"inf", b"nan", b"1e22",
               b"65536", str(2**62).encode(), b"9" * 25, b"1_0", b"0x10"]
SNAN = 0x7F800001  # a float32 signalling NaN
WORD_TOKENS = [0, 1, 3, 0xFFFF, 2**31, 2**32 - 1,  # as a u32 size or a float32's bits
               0x7F800000, 0xFF800000, 0x7FC00000, SNAN, 0x7F7FFFFF, 0x00000001]
FUZZ_FORMATS = ["frame", "config", "poisson", "converge"]  # a FOAF field goes to two commands


def mutants(data: bytes, rng, binary: bool) -> list[bytes]:
    """FUZZ_CASES mutants of data, in turn a flip of 1-3 bits, a truncation, an
    insertion of 1-4 random bytes, and a numeric token: a digit run replaced by
    one of TEXT_TOKENS, or for a binary format an aligned 4-byte word past the
    magic overwritten with one of WORD_TOKENS."""
    found = []
    for k in range(FUZZ_CASES):
        b = bytearray(data)
        if k % 4 == 0:
            for _ in range(rng.integers(1, 4)):
                b[rng.integers(len(b))] ^= 1 << int(rng.integers(8))
        elif k % 4 == 1:
            del b[rng.integers(len(b)):]
        elif k % 4 == 2:
            at = rng.integers(len(b) + 1)
            b[at:at] = rng.integers(0, 256, rng.integers(1, 5)).astype(np.uint8).tobytes()
        elif binary:
            at = 4 * rng.integers(1, len(b) // 4)
            b[at:at + 4] = struct.pack("<I", WORD_TOKENS[rng.integers(len(WORD_TOKENS))])
        else:
            runs = list(re.finditer(rb"\d+", data))
            m = runs[rng.integers(len(runs))]
            b[m.start():m.end()] = TEXT_TOKENS[rng.integers(len(TEXT_TOKENS))]
        found.append(bytes(b))
    return found


def fuzz_argv(fmt, inputs, path, out):
    """The argv that feeds the input file at path to the command under fmt."""
    clip = str(inputs / "clip" / "f*.pgm")
    if fmt == "frame":  # path is a frame, with two of the clip's
        return ["simulate", str(inputs / "base.cfg"), str(inputs / "clip" / "f[02].pgm"),
                str(path), "--out", str(out)]
    if fmt == "config":
        return ["simulate", str(path), clip, "--out", str(out)]
    if fmt == "poisson":  # a mass far above 1 misses the absolute tolerance: cap its sweeps
        return ["poisson", str(path), "--max-iters", "200", "--out", str(out / "u.foaf")]
    return ["converge", str(path), "--c", "1,2", "--horizon", "2"]


@pytest.mark.parametrize("fmt", FUZZ_FORMATS)
def test_fuzz_input_file(tmp_path, capsys, inputs, fmt):
    source = {"frame": inputs / "clip" / "f1.pgm", "config": inputs / "base.cfg"}
    data = source.get(fmt, inputs / "mu.foaf").read_bytes()
    rng = np.random.default_rng(FUZZ_FORMATS.index(fmt))
    cases = []
    for k, mutant in enumerate(mutants(data, rng, binary=fmt in ("poisson", "converge"))):
        path, out = tmp_path / f"in{k}", tmp_path / f"out{k}"
        path.write_bytes(mutant)
        if fmt == "poisson":
            out.mkdir()
        cases.append((f"mutant {k}: {mutant[:48]!r}", fuzz_argv(fmt, inputs, path, out), out))
    assert broken(capsys, cases) == []
    assert list(tmp_path.rglob("*.part")) == []


def test_fuzz_scanpath_csv():
    rows = np.random.default_rng(5).uniform(-40, 40, (30, 5))
    rows[:, 0] = np.arange(30) / 240
    path = Scanpath._own(rows, np.arange(30) % 7 == 0)
    sink = io.BytesIO()
    export_scanpath(path, sink)
    found = []
    for k, mutant in enumerate(mutants(sink.getvalue(), np.random.default_rng(4), binary=False)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = import_scanpath(mutant)
        except DataError:
            continue
        except BaseException as e:
            found.append((k, mutant[:48], f"raised {type(e).__name__}: {e}"))
            continue
        if not isinstance(got, Scanpath):
            found.append((k, mutant[:48], f"returned {type(got).__name__}"))
    assert found == []


# the fuzz's finds, each once a traceback (exit 1)

def test_config_not_utf8_exits_2(tmp_path, capsys, inputs):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg.write_bytes(b"alpha1 = 1\xe950\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(fuzz_argv("config", inputs, cfg, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["poisson", "converge"])
def test_foaf_signalling_nan_exits_3(tmp_path, capsys, inputs, command):
    data = bytearray((inputs / "mu.foaf").read_bytes())
    data[12 + 4 * 7:12 + 4 * 8] = struct.pack("<I", SNAN)
    path, out = tmp_path / "snan.foaf", tmp_path / "out"
    path.write_bytes(data)
    out.mkdir()
    argv = fuzz_argv(command, inputs, path, out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr().err == "error: field contains non-finite values\n"
    assert list(out.iterdir()) == []


def test_flow_record_signalling_nan_is_a_data_error(inputs):
    record = (inputs / "mu.foaf").read_bytes()
    bad = bytearray(record)
    bad[12:16] = struct.pack("<I", SNAN)
    for flow in (bytes(bad) + record, record + bytes(bad)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                read_flow(io.BytesIO(flow))
