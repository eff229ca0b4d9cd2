"""Pipeline orchestration, configuration, and bit-exact exports.

Configuration is a flat UTF-8 ``key = value`` file (``#`` starts a
comment, unknown keys are hard errors).  The frame loop runs: blur per the
smoothing schedule, spatial and temporal derivatives (optionally dense
optical flow), inhibition update at the current gaze point, mass density,
then substeps of potential evolution interleaved with particle steps, the
potential always updating first.  Scanpaths serialize to CSV with 9
significant digits and LF endings; fields serialize to a small binary
format ("FOAF" magic, little-endian u32 width and height, row-major f32
samples) so runs are byte-reproducible across platforms.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import array
import glob
import io
import itertools
import math
import os
import struct
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    GazefieldError,
    NumericalError,
    check_grid,
    check_int,
    check_real,
)
from .foa import (
    AttractionSign,
    BoundaryPolicy,
    FoaParams,
    Scanpath,
    _SaccadeStream,
    _check_rows,
    _stepper as _particle_stepper,
    # not called here, like mass_density and evolve_potential below:
    # perfbench/tracing.py's TARGETS rebinds these names in this module to time
    # them, until ROADMAP item 4 retires the tracer and these imports
    detect_saccades,
    foa_step,
)
from .mass import IorField, IorParams, MassParams, MotionSource, _mass, ior_step
from .mass import mass_density  # not called here: a name the tracer rebinds (above)
from .optical_flow import HsParams, horn_schunck
from .potential import (
    Mode,
    PotentialState,
    TelegraphParams,
    _SOLVE_H,
    _SOLVE_MAX_ITERS,
    _SOLVE_TOL,
    _Workspace,
    convergence_in_c,
    direct_potential,
    evolve_potential,  # not called here: a name the tracer rebinds (above)
    poisson_solve,
    stable_dt,
)
from .retina import (
    BlurSchedule,
    Field2D,
    FlowField,
    _PGM_MAXVAL,
    _finite,
    gaussian_blur,
    gradient,
    load_pgm,
    magnitude,
    save_pgm,
    schedule_sigma,
    temporal_derivative,
)
from . import synth

__all__ = [
    "SimConfig",
    "FieldDump",
    "parse_config",
    "load_config",
    "run_simulation",
    "export_scanpath",
    "import_scanpath",
    "export_field",
    "read_field",
    "export_flow",
    "read_flow",
    "main",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Every knob of one simulation run.

    The two step sizes are not stored: both the potential stepper and the
    particle advance by frame_dt / substeps_per_frame, derived at run
    time, and stability of that step is checked here at construction so a
    bad combination fails before any frame is read.  Fields shared with
    the stepper and particle settings take their defaults from there.
    """

    mass: MassParams = MassParams()
    ior: IorParams = IorParams()
    hs: HsParams = HsParams()
    blur: BlurSchedule = BlurSchedule()
    gamma: float = TelegraphParams.gamma
    lambda_drag: float = TelegraphParams.lambda_drag
    c: float = TelegraphParams.c
    h: float = TelegraphParams.h
    mode: Mode = TelegraphParams.mode
    dissipation: float = FoaParams.dissipation
    attraction_sign: AttractionSign = FoaParams.attraction_sign
    boundary: BoundaryPolicy = FoaParams.boundary
    frame_dt: float = 1.0 / 30.0
    substeps_per_frame: int = 8
    dump_every: int = 0
    initial_foa: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "frame_dt",
                           check_real("frame_dt", self.frame_dt, 0, lo_open=True))
        object.__setattr__(self, "substeps_per_frame",
                           check_int("substeps_per_frame", self.substeps_per_frame, 1))
        check_real("substeps_per_frame", self.substeps_per_frame)  # substep_dt divides by it
        object.__setattr__(self, "dump_every", check_int("dump_every", self.dump_every, 0))
        if self.initial_foa is not None:
            x, y = self.initial_foa
            object.__setattr__(self, "initial_foa", (check_real("initial_foa x", x),
                                                     check_real("initial_foa y", y)))
        # constructing the derived parameter sets validates ranges and the
        # stability of the shared substep before any frame is touched
        self.telegraph_params()
        self.foa_params()

    @property
    def substep_dt(self) -> float:
        return self.frame_dt / self.substeps_per_frame

    def telegraph_params(self) -> TelegraphParams:
        return TelegraphParams(gamma=self.gamma, lambda_drag=self.lambda_drag,
                               c=self.c, h=self.h, dt=self.substep_dt,
                               mode=self.mode)

    def foa_params(self) -> FoaParams:
        return FoaParams(dissipation=self.dissipation, dt=self.substep_dt,
                         attraction_sign=self.attraction_sign,
                         boundary=self.boundary)


def _parse_initial_foa(text: str) -> tuple[float, float] | None:
    # "center" is None: resolved against the frame size at run time
    if text == "center":
        return None
    try:
        x, y = (float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(
            f"config key 'initial_foa': expected 'center' or 'x,y', got {text!r}") from None
    return (x, y)


# config key -> (SimConfig sub-config field or None, field name, value type)
_CONFIG_KEYS = {
    "alpha1": ("mass", "alpha1", float),
    "alpha2": ("mass", "alpha2", float),
    "motion_source": ("mass", "motion_source", MotionSource),
    "beta": ("ior", "beta", float),
    "sigma_ior": ("ior", "sigma_ior", float),
    "hs_lambda": ("hs", "lam", float),
    "hs_max_iters": ("hs", "max_iters", int),
    "hs_tol": ("hs", "tol", float),
    "blur_sigma0": ("blur", "sigma0", float),
    "blur_decay_rate": ("blur", "decay_rate", float),
    "blur_floor": ("blur", "floor", float),
    "gamma": (None, "gamma", float),
    "lambda_drag": (None, "lambda_drag", float),
    "c": (None, "c", float),
    "h": (None, "h", float),
    "mode": (None, "mode", Mode),
    "dissipation": (None, "dissipation", float),
    "attraction_sign": (None, "attraction_sign", AttractionSign),
    "boundary": (None, "boundary", BoundaryPolicy),
    "frame_dt": (None, "frame_dt", float),
    "substeps_per_frame": (None, "substeps_per_frame", int),
    "dump_every": (None, "dump_every", int),
    "initial_foa": (None, "initial_foa", _parse_initial_foa),
}


def _parse_value(what: str, kind, text: str):
    """Convert one setting: a number, an integer, an enum spelled as its
    lowercased member name, or whatever a parser function returns."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        members = {m.name.lower(): m for m in kind}
        if text not in members:
            raise ConfigError(f"{what}: expected one of {sorted(members)}, got {text!r}")
        return members[text]
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what}: not {noun}: {text!r}") from None


def parse_config(text: str) -> SimConfig:
    """Build a SimConfig from flat ``key = value`` lines.

    ``#`` starts a comment anywhere on a line; blank lines are skipped;
    unknown and duplicate keys are hard errors so misspellings fail loudly.
    Keys left out keep the dataclass defaults.
    """
    top: dict = {}
    nested: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        owner, name, kind = _CONFIG_KEYS[key]
        fields = top if owner is None else nested.setdefault(owner, {})
        if name in fields:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"config line {lineno}: empty value for {key!r}")
        fields[name] = _parse_value(f"config key {key!r}", kind, value)
    for owner, fields in nested.items():
        top[owner] = replace(getattr(SimConfig, owner), **fields)
    return SimConfig(**top)


def load_config(path: str) -> SimConfig:
    """Read and parse a config file; unreadable or non-UTF-8 files are config errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


# ---------------------------------------------------------------------------
# simulation loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDump:
    """Snapshot of the field state at the end of one frame."""

    frame_index: int
    mass: Field2D
    potential: Field2D
    ior: IorField


# error category -> CLI exit code; the first entry that matches wins
_EXIT_CODES = {ConfigError: 2, DataError: 3, NumericalError: 4, GazefieldError: 1,
               OSError: 3, MemoryError: 3}  # MemoryError: an input too large to hold


class _stage:
    # failures anywhere in the loop surface with the frame and stage that
    # produced them, keeping their error category (and so the exit code);
    # one object wraps a whole frame, its name set to the stage that runs
    __slots__ = ("frame_index", "name")

    def __init__(self, frame_index: int, name: str):
        self.frame_index, self.name = frame_index, name

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, e, tb) -> None:
        if isinstance(e, GazefieldError):
            root = next(cls for cls in _EXIT_CODES if isinstance(e, cls))
            raise root(f"frame {self.frame_index}, stage {self.name}: {e}") from e


def _checked_frames(frames: Iterable[Field2D]) -> Iterator[Field2D]:
    # each frame is pulled (a lazy source reads it) in its own load stage, so
    # a frame that fails to load, is not a field or differs in size from
    # frame 0 is reported with its index; fewer than 2 is a DimensionError
    it = iter(frames)
    shape = None
    for k in itertools.count():
        with _stage(k, "load"):
            try:
                f = next(it)
            except StopIteration:
                break
            if not isinstance(f, Field2D):
                raise DataError(f"frame {k} is not a Field2D")
            shape = shape or f.values.shape
            check_grid(f"run_simulation frame {k}", shape, f.values.shape)
        yield f
    if k < 2:
        raise DimensionError(f"run_simulation needs at least 2 frames, got {k}")


def run_simulation(frames: Iterable[Field2D], cfg: SimConfig, *,
                   on_dump: Callable[[FieldDump], None] | None = None,
                   ) -> tuple[Scanpath, list[FieldDump]]:
    """Drive the full pipeline over a frame sequence.

    Per frame: smooth both endpoint frames per the schedule, take the spatial
    gradient and the motion term (|db/dt|, or the dense flow's speed when the
    mass wants it), decay-and-deposit inhibition at the gaze point, assemble
    the mass density, then run substeps_per_frame rounds of potential
    evolution each followed by one particle step.  The scanpath holds the
    initial state plus one sample per substep; dumps snapshot (mass,
    potential, inhibition) every dump_every-th frame.  Deterministic:
    identical inputs give bit-identical results.

    frames is any iterable of Field2D frames, a tuple or a generator, taken
    to be cfg.frame_dt apart, and consumed once, front to back.  Each field
    dies after its last reader: only the next frame (f_now), its blur
    (b_next), the inhibition, the potential and the particle outlive a
    frame, and the detail |grad b| only across a repeated frame, so a
    generator that reads frames on demand keeps memory flat in clip length.
    A frame's substeps run as one kernel on bare arrays, set up once per
    frame; the potential's scratch lives only while they run.
    A repeated frame is the same object as the frame before it (simulate's
    reader yields one object again for a file with the previous file's
    bytes): its blur and detail are reused and its |db/dt| is taken as +0,
    bit for bit what computing them again gives.  The grid comes from
    frame 0; each frame is checked as it arrives, and a bad one raises
    DataError naming its index (stage "load").  Every GazefieldError of the
    loop keeps its category and names its frame and stage: load, blur,
    differentiation, motion, inhibition, mass, potential, particle or dump.
    An overflow anywhere from the blur to the last substep raises
    NumericalError and no numpy warning, so also none under ``-W error``;
    on_dump runs outside that scope.

    Each dump goes to on_dump as soon as its frame finishes, and the
    returned dump list is then empty; with on_dump None the dumps are
    collected and returned.
    """
    rows = array.array("d")  # (t, x, y, vx, vy) per sample, flat: 40 bytes a sample
    dumps: list[FieldDump] = []
    for block in _sample_blocks(frames, cfg, dumps.append if on_dump is None else on_dump):
        rows += block
    return Scanpath._own(np.frombuffer(rows).reshape(-1, 5)), dumps


def _sample_blocks(frames: Iterable[Field2D], cfg: SimConfig,
                   on_dump: Callable[[FieldDump], None]) -> Iterator[array.array]:
    # run_simulation's loop: yields the initial sample, then each frame's as it ends
    window = _checked_frames(frames)
    f_now = next(window)
    tp = cfg.telegraph_params()
    w, h_px = f_now.width, f_now.height
    check_grid("run_simulation", (h_px, w), min_side=3)
    x, y = ((w - 1) / 2.0, (h_px - 1) / 2.0) if cfg.initial_foa is None else cfg.initial_foa
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h_px - 1):
        raise ConfigError(f"initial_foa {cfg.initial_foa} outside grid "
                          f"[0, {w - 1}] x [0, {h_px - 1}]")
    vx = vy = 0.0

    ior = IorField.zeros(w, h_px)
    # the potential is stepped in place, and the particle reads it as it steps
    pot = _Workspace(PotentialState.zero(w, h_px))
    particle_step = _particle_stepper(pot.u, cfg.foa_params(), cfg.h)
    substeps = cfg.substeps_per_frame
    dt_frame, dt_sub = cfg.frame_dt, cfg.substep_dt
    yield array.array("d", (0.0, x, y, vx, vy))

    sigma_prev = b_next = detail = None
    for k, f_next in enumerate(window):
        rows, stage = array.array("d"), _stage(k, "blur")
        with np.errstate(over="ignore", invalid="ignore"), stage:  # overflow: NumericalError
            sigma = schedule_sigma(cfg.blur, k * dt_frame)
            if sigma != sigma_prev:  # else frame k was blurred with sigma as b_next
                b_next = detail = None  # stale, they die before frame k is blurred again
                b_next = gaussian_blur(f_now, sigma)
            repeated = f_next is f_now  # then b_next stays b_now: one frame, one blur
            b_now, f_now = b_next, f_next  # only the blur reads f_now
            if not repeated:
                b_next = gaussian_blur(f_now, sigma)
            sigma_prev = sigma
            stage.name = "differentiation"
            if detail is None:  # else it is |grad b_now| from frame k - 1
                detail = magnitude(gradient(b_now, cfg.h)).values
            stage.name = "motion"
            if cfg.mass.motion_source is MotionSource.FLOW_MAGNITUDE:
                motion = magnitude(horn_schunck(b_now, b_next, dt_frame, cfg.hs)).values
            elif repeated:
                motion = None  # |db/dt| is +0 everywhere
            else:
                motion = np.abs(temporal_derivative(b_now, b_next, dt_frame).values)
            del b_now  # read by the differentiation and the motion only
            stage.name = "inhibition"
            ior = ior_step(ior, (x, y), dt_frame, cfg.ior)
            stage.name = "mass"
            mu = _mass(detail, motion, ior, cfg.mass)
            del motion  # read by the mass only
            if not repeated:
                detail = None  # else frame k + 1's b_now is frame k's, and so is its detail
            stage.name = "potential"
            potential_step = pot.stepper(mu, tp)  # scratch and a view of mu, for this frame
            try:
                for j in range(substeps):
                    potential_step()
                    stage.name = "particle"
                    x, y, vx, vy = particle_step(x, y, vx, vy)
                    rows.extend(((k * substeps + j + 1) * dt_sub, x, y, vx, vy))
                    stage.name = "potential"
            finally:  # once a frame, and first if a particle step failed: it may have read u
                del potential_step  # it dies with the frame's substeps, before the check
                name, stage.name = stage.name, "potential"
                _finite(pot.u, "potential")  # a bool mask, no float temporary
                stage.name = name
        if cfg.dump_every > 0 and k % cfg.dump_every == 0:
            with _stage(k, "dump"):
                on_dump(FieldDump(k, mu, Field2D(pot.u), ior))  # a copy, not the live u
        del mu  # read by the substeps and the dump only
        yield rows  # outside np.errstate, which would leak into the caller


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "t,x,y,vx,vy,saccade"
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%d\n"  # "%.9g" is format(x, ".9g"), -0 too
_CSV_CHUNK = 256  # rows formatted per write


def export_scanpath(path: Scanpath, sink) -> None:
    """Write a scanpath as CSV bytes: header, then one row per sample.

    Floats carry 9 significant digits, the saccade flag is 0 or 1, lines
    end with LF; identical paths serialize to identical bytes on every
    platform.  Rows go to the sink a chunk at a time.
    """
    sink.write(f"{_CSV_HEADER}\n".encode("ascii"))
    for i in range(0, len(path), _CSV_CHUNK):
        _write_rows(sink, path.rows[i:i + _CSV_CHUNK], path.saccade[i:i + _CSV_CHUNK])


def _write_rows(sink, rows: np.ndarray, flags: np.ndarray) -> None:
    sink.write("".join(_CSV_ROW % (*r, f) for r, f in zip(rows.tolist(), flags.tolist()))
               .encode("ascii"))


def _stream_scanpath(blocks: Iterable[array.array], sink, saccades) -> None:
    # export_scanpath of the path that flat (t, x, y, vx, vy) blocks make, in
    # chunks of at least _CSV_CHUNK rows, each checked as Scanpath checks a
    # path and flagged by saccades, a _SaccadeStream (None: all 0)
    sink.write(f"{_CSV_HEADER}\n".encode("ascii"))
    n, t_last, chunk = 0, -math.inf, array.array("d")
    for block in itertools.chain(blocks, [None]):  # None: the path has ended
        if block is None or len(chunk) >= 5 * _CSV_CHUNK:
            rows = np.array(chunk).reshape(-1, 5)  # a copy: chunk is refilled
            del chunk[:]
            _check_rows(rows, n, t_last)
            n, t_last = n + len(rows), rows[-1, 0]
            _write_rows(sink, *(saccades.feed(rows, last=block is None) if saccades
                                else (rows, np.zeros(len(rows), dtype=bool))))
        if block:
            chunk += block


def import_scanpath(data: bytes) -> Scanpath:
    """Parse bytes produced by export_scanpath back into a Scanpath."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise DataError(f"scanpath CSV is not ASCII: {e}") from e
    lines = text.split("\n")
    if not lines or lines[0] != _CSV_HEADER:
        raise DataError("scanpath CSV header missing or malformed")
    if lines[-1] != "":
        raise DataError("scanpath CSV must end with a newline")
    rows, flags = array.array("d"), bytearray()
    for lineno, line in enumerate(lines[1:-1], 2):
        parts = line.split(",")
        if len(parts) != 6 or parts[5] not in ("0", "1"):
            raise DataError(f"scanpath CSV line {lineno}: malformed row")
        try:
            values = [float(p) for p in parts[:5]]
        except ValueError as e:
            raise DataError(f"scanpath CSV line {lineno}: {e}") from e
        if not all(map(math.isfinite, values)):
            raise DataError(f"scanpath CSV line {lineno}: non-finite value")
        rows.extend(values)
        flags.append(parts[5] == "1")
    return Scanpath._own(np.frombuffer(rows).reshape(-1, 5),
                         np.frombuffer(flags, dtype=bool))


def export_field(f: Field2D, sink) -> None:
    """Write a field: "FOAF", u32le width and height, row-major f32le values.

    Raises NumericalError, writing nothing, for a value beyond float32 range."""
    if max(f.values.max(), -f.values.min()) > np.finfo(np.float32).max:
        raise NumericalError(f"field magnitude {np.abs(f.values).max():g} exceeds float32")
    sink.write(b"FOAF" + struct.pack("<II", f.width, f.height)
               + f.values.astype("<f4").tobytes())


def read_field(source) -> Field2D:
    """Read one field record; leaves the stream after its payload."""
    magic = source.read(4)
    if magic != b"FOAF":
        raise DataError(f"bad field magic {magic!r}, expected b'FOAF'")
    dims = source.read(8)
    if len(dims) < 8:
        raise DataError("field header truncated")
    w, h = struct.unpack("<II", dims)
    if w < 1 or h < 1:
        raise DataError(f"field dimensions must be positive, got {w}x{h}")
    if 4 * w * h > sys.maxsize:  # a read that large is an OverflowError, not a short read
        raise DataError(f"field {w}x{h} needs {4 * w * h} payload bytes, past the "
                        f"index range")
    payload = source.read(4 * w * h)
    if len(payload) < 4 * w * h:
        raise DataError(f"field payload truncated: expected {4 * w * h} bytes, "
                        f"got {len(payload)}")
    with np.errstate(invalid="ignore"):  # a signalling NaN is refused as non-finite
        return Field2D(np.frombuffer(payload, dtype="<f4").reshape(h, w))


def export_flow(v: FlowField, sink) -> None:
    """Write a flow as two concatenated field records: dx, then dy."""
    export_field(Field2D(v.dx), sink)
    export_field(Field2D(v.dy), sink)


def read_flow(source) -> FlowField:
    """Read the two-record flow layout written by export_flow."""
    return FlowField(read_field(source).values, read_field(source).values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _write_bytes(path: str, writer) -> None:
    # whole file or none: write under a temporary name in the same directory
    # and rename over path only once writer has finished
    tmp = f"{path}.part"
    try:
        try:
            with open(tmp, "wb") as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as e:
        raise DataError(f"cannot write {path}: {e}") from e


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    min_fixation = check_real("min_fixation", args.min_fixation, 0, lo_open=True)
    saccades = (None if args.saccade_threshold is None  # both checked before frame 0
                else _SaccadeStream(args.saccade_threshold, min_fixation))
    # Accept both a quoted glob and a shell-expanded file list.
    matched = set()
    for pat in args.frames:
        hits = glob.glob(pat)
        matched.update(hits if hits else ([pat] if os.path.exists(pat) else []))
    paths = sorted(matched)
    del matched, hits  # of these only paths lives through the run
    if len(paths) < 2:
        raise DataError(f"frame pattern {' '.join(args.frames)!r} matched "
                        f"{len(paths)} files, need at least 2")
    check_real(f"the last sample's time over {len(paths)} frames at frame_dt {cfg.frame_dt:g}",
               (len(paths) - 1) * cfg.substeps_per_frame * cfg.substep_dt)  # the rows' formula
    os.makedirs(args.out, exist_ok=True)
    dumps = 0

    def write_dump(d: FieldDump) -> None:
        nonlocal dumps
        for name, field in (("mass", d.mass), ("potential", d.potential),
                            ("ior", d.ior)):
            out = os.path.join(args.out, f"{name}_{d.frame_index:06d}.foaf")
            _write_bytes(out, lambda fh, f=field: export_field(f, fh))
        dumps += 1

    def read_frames() -> Iterator[Field2D]:
        # files in a row with equal bytes are parsed once and yield one object,
        # whose fields the frame loop then reuses; each file is read as pulled
        for data, run in itertools.groupby(map(_read_bytes, paths)):
            frame = load_pgm(data)
            yield from (frame for _ in run)

    # frames are read and samples written a frame at a time; the CSV is renamed
    # into place after the last frame, so a run that fails leaves no scanpath
    frames = read_frames()
    csv_path = os.path.join(args.out, "scanpath.csv")
    _write_bytes(csv_path, lambda fh: _stream_scanpath(
        _sample_blocks(frames, cfg, write_dump), fh, saccades))
    print(f"{csv_path}: {1 + (len(paths) - 1) * cfg.substeps_per_frame} samples over "
          f"{(len(paths) - 1) * cfg.frame_dt:g} s")
    if dumps:
        print(f"{3 * dumps} field dumps in {args.out}")
    return 0


def _cmd_flow(args) -> int:
    cfg = load_config(args.config)
    sigma = schedule_sigma(cfg.blur, 0.0)
    a = gaussian_blur(load_pgm(_read_bytes(args.frame_a)), sigma)
    b = gaussian_blur(load_pgm(_read_bytes(args.frame_b)), sigma)
    v = horn_schunck(a, b, cfg.frame_dt, cfg.hs)
    _write_bytes(args.out, lambda fh: export_flow(v, fh))
    speed = magnitude(v)
    print(f"{args.out}: {a.width}x{a.height} flow, "
          f"mean speed {float(speed.values.mean()):.6g} px/s")
    return 0


def _cmd_poisson(args) -> int:
    mu = read_field(io.BytesIO(_read_bytes(args.source)))
    if args.oracle:
        u = direct_potential(mu, args.h)
    else:
        u = poisson_solve(mu, h=args.h, tol=args.tol, max_iters=args.max_iters)
    _write_bytes(args.out, lambda fh: export_field(u, fh))
    print(f"{args.out}: potential for {mu.width}x{mu.height} source"
          + (" (dense oracle)" if args.oracle else ""))
    return 0


def _cmd_converge(args) -> int:
    mu = read_field(io.BytesIO(_read_bytes(args.source)))
    cs = [_parse_value("--c", float, p) for p in args.c.split(",") if p.strip()]
    if not cs:
        raise ConfigError("--c needs at least one speed")
    mode = _parse_value("--mode", Mode, args.mode)
    dt = args.dt
    if dt is None:
        dt = 0.9 * stable_dt(mode, args.gamma, args.drag, max(cs), args.h)
    base = TelegraphParams(gamma=args.gamma, lambda_drag=args.drag, c=max(cs),
                           h=args.h, dt=dt, mode=mode)
    errors = convergence_in_c(mu, cs, args.horizon, base)
    for c, err in zip(cs, errors):
        print(f"c={c:g} relative_gradient_error={err:.6g}")
    return 0


def _cmd_synth(args) -> int:
    w, h, n = args.width, args.height, args.frames
    if args.kind == "black":
        frames = synth._black(w, h, n)
    elif args.kind == "two-blobs":
        frames = synth._static(synth.two_blob_image(w, h, args.blob_sigma, args.amp), n)
    else:
        synth._check_frame(w, h)  # before the start divides the sides
        frames = synth._moving_blob(
            w, h, n, (w / 4.0, h / 2.0), (args.speed, 0.0), args.frame_dt,
            args.blob_sigma, args.amp)
    for k, f in enumerate(synth._noisy(frames, args.noise, args.seed)):  # made as written
        if k == 0:  # every check has passed and frame 0 exists: only now make --out
            os.makedirs(args.out, exist_ok=True)
        _write_bytes(os.path.join(args.out, f"frame_{k:04d}.pgm"),
                     lambda fh: fh.write(save_pgm(f, args.maxval)))
    print(f"{n} {args.kind} frames ({w}x{h}) in {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazefield",
        description="Scanpath simulation driven by attention potential fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the full pipeline over a frame sequence")
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("frames", nargs="+",
                   help="glob or file list for PGM frames, sorted lexically")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--saccade-threshold", type=float, default=None,
                   help="annotate saccades above this speed (px/s) before export")
    p.add_argument("--min-fixation", type=float, default=0.1,
                   help="fixations shorter than this (s) merge into saccades")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("flow", help="dense optical flow between two frames")
    p.add_argument("config")
    p.add_argument("frame_a")
    p.add_argument("frame_b")
    p.add_argument("--out", required=True, help="output flow file (two field records)")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("poisson", help="solve the elliptic potential for a mass field")
    p.add_argument("source", help="mass density field file")
    p.add_argument("--out", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="use the dense log-kernel sum instead of relaxation")
    p.add_argument("--h", type=float, default=_SOLVE_H, help="grid spacing")
    p.add_argument("--tol", type=float, default=_SOLVE_TOL)
    p.add_argument("--max-iters", type=int, default=_SOLVE_MAX_ITERS)
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("converge",
                       help="error of the evolved potential vs the elliptic limit per speed")
    p.add_argument("source", help="mass density field file")
    p.add_argument("--c", required=True, help="comma-separated wave speeds, ascending")
    p.add_argument("--mode", default=TelegraphParams.mode.name.lower())
    p.add_argument("--gamma", type=float, default=TelegraphParams.gamma)
    p.add_argument("--drag", type=float, default=TelegraphParams.lambda_drag,
                   help="first-order damping coefficient")
    p.add_argument("--h", type=float, default=TelegraphParams.h)
    p.add_argument("--dt", type=float, default=None,
                   help="step size (default: 90%% of the stability bound)")
    p.add_argument("--horizon", type=float, default=30.0)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("synth", help="generate synthetic PGM test frames")
    p.add_argument("kind", choices=["black", "two-blobs", "moving-blob"])
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--frames", type=int, default=61)
    p.add_argument("--blob-sigma", type=float, default=synth._BLOB_SIGMA)
    p.add_argument("--amp", type=float, default=synth._BLOB_AMP)
    p.add_argument("--speed", type=float, default=6.0,
                   help="blob velocity in px/s (moving-blob)")
    p.add_argument("--frame-dt", type=float, default=SimConfig.frame_dt)
    p.add_argument("--noise", type=float, default=0.0,
                   help="uniform pixel noise amplitude")
    p.add_argument("--seed", type=int, default=0,
                   help="noise seed (generation only; the pipeline is deterministic)")
    p.add_argument("--maxval", type=int, default=_PGM_MAXVAL)
    p.set_defaults(func=_cmd_synth)
    return parser


_PARSER = _build_parser()  # one per process, made at import; parse_args keeps no state


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
