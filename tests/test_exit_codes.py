"""The exit-code contract, swept over every numeric option and config key.

Each numeric option of simulate, poisson, converge and synth, and each
numeric config key of simulate and flow, takes each value of a hostile
list, one at a time, on a tiny base input.  Run in process through cli.main
with warnings as errors, every case must exit 0, 2 (config), 3 (data) or 4
(numerical), never raise; a failure prints exactly one ``error:`` line and
leaves no output file behind.  The values that ask for a long run are
exempt, each option with its reason (EXEMPT).
"""

import struct
import warnings

import numpy as np
import pytest

from gazefield import save_pgm, synth
from gazefield.cli import _CONFIG_KEYS, _PARSER, main

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
    """A 12x10x3 moving-blob clip, and a 12x10 mass field record."""
    root = tmp_path_factory.mktemp("inputs")
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
