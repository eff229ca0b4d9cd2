"""Workloads, output checks and metrics of the gazefield benchmark.

Every workload runs through ``gazefield.cli.main`` in-process, with the argv
a user would type.  Inputs are generated to files during set-up, from the
seed, so the program receives only files.  One client runs the workload
back to back (a closed loop), and every run's outputs are checked.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import statistics
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from gazefield import cli, synth
from gazefield.cli import export_field, export_scanpath, import_scanpath, read_field
from gazefield.errors import GazefieldError
from gazefield.retina import Field2D, gaussian_blur, save_pgm

from tracing import Tracer, run_stats

WORKLOADS = ("two-blob-64", "texture-256", "moving-flow-64", "elliptic-128")
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# acceptance 10's exploration config, with the substep count stated so the
# sample-count check does not lean on a default
SIM_CONFIG = """\
alpha1 = 150
c = 100
lambda_drag = 4
dissipation = 0.5
beta = 1
sigma_ior = 5
substeps_per_frame = 8
"""
SUBSTEPS = 8
SIGMA_IOR = 5.0
TEXTURE_CONFIG = SIM_CONFIG + """\
blur_sigma0 = 3
blur_decay_rate = 1
blur_floor = 1
dump_every = 10
"""
FLOW_CONFIG = SIM_CONFIG + "motion_source = flow_magnitude\n"
SACCADE_THRESHOLD = "30"
CONVERGE_ARGS = ["--c", "1,2,4,8", "--drag", "4", "--dt", "0.05"]
SOLVE_TOL = 1e-8  # the poisson command's default --tol

SETUP_SLOT = 0.05  # seconds of repeated set-ups before each timed run
KERNEL_ROUNDS = 260  # rounds of the reference kernel per kernel slot
# Close to the reference kernel's median CPU time on the machine in
# README.md; times are scaled to it, so they read close to that machine's.
KERNEL_REFERENCE_S = 0.35
MIN_TIMED = 3    # timed runs per invocation, however short --seconds is
MIN_TRACED = 2   # traced and untraced runs each, with --trace 1

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "run_norm_s": "s",
    "peak_alloc_mb": "MB",
    "ok_ratio": "share",
    "digest_match_ratio": "share",
}
PER_LAYER = {
    "potential.evolve_potential.ms": "ms",
    "potential.evolve_potential.calls": "count",
    "potential.us_per_step": "us",
    "foa.foa_step.ms": "ms",
    "foa.foa_step.calls": "count",
    "foa.us_per_step": "us",
    "optical_flow.horn_schunck.ms": "ms",
    "optical_flow.horn_schunck.calls": "count",
    "optical_flow.hs_sweeps": "count",
    "optical_flow.sweeps_per_call": "sweeps/call",
    "optical_flow.cap_hit_ratio": "share",
    "optical_flow.us_per_sweep": "us",
    "retina.gaussian_blur.ms": "ms",
    "retina.gradient.ms": "ms",
    "retina.temporal_derivative.ms": "ms",
    "retina.magnitude.ms": "ms",
    "mass.ior_step.ms": "ms",
    "mass.mass_density.ms": "ms",
    "retina.load_pgm.ms": "ms",
    "retina.load_pgm.calls": "count",
    "potential.poisson_solve.ms": "ms",
    "potential.convergence_in_c.ms": "ms",
    "foa.detect_saccades.ms": "ms",
    "cli.export_scanpath.ms": "ms",
    "cli.export_field.ms": "ms",
    "cli.export_field.bytes": "bytes",
    "cli.read_field.ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "share",
}
# counts that must repeat exactly from one traced run to the next
EXACT = tuple(n for n, u in PER_LAYER.items() if u in ("count", "bytes"))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """One workload's generated inputs and the commands that run it."""

    kind: str                      # "simulate" or "elliptic"
    root: Path                     # directory holding the inputs
    width: int = 0
    height: int = 0
    frames: int = 0
    dump_every: int = 0
    visit_by: float | None = None  # both blobs must be visited by this time, s
    saccades: bool = False

    def commands(self, out: Path) -> list[list[str]]:
        if self.kind == "simulate":
            argv = ["simulate", str(self.root / "run.cfg"),
                    str(self.root / "frame_*.pgm"), "--out", str(out)]
            if self.saccades:
                argv += ["--saccade-threshold", SACCADE_THRESHOLD]
            return [argv]
        return [["poisson", str(self.root / "mu_solve.foaf"), "--out", str(out / "u.foaf")],
                ["converge", str(self.root / "mu_converge.foaf")] + CONVERGE_ARGS]


def _frame_files(frames, config: str) -> dict:
    files = {f"frame_{k:04d}.pgm": save_pgm(f) for k, f in enumerate(frames)}
    files["run.cfg"] = config.encode("utf-8")
    return files


def _field_bytes(f: Field2D) -> bytes:
    buf = io.BytesIO()
    export_field(f, buf)
    return buf.getvalue()


def generate(name: str, seed: int, small: bool = False) -> tuple[dict, dict]:
    """A workload's input files (name -> bytes) and the Plan fields describing them.

    small shrinks every workload to a few frames or a small grid, for the
    self-test; the benchmark always runs the full size.
    """
    if name == "two-blob-64":
        n = 31 if small else 601
        frames = synth.static_frames(synth.two_blob_image(64, 64, 3.0, 1.0), n)
        return _frame_files(frames, SIM_CONFIG), dict(
            kind="simulate", width=64, height=64, frames=n,
            visit_by=None if small else 20.0, saccades=True)
    if name == "texture-256":
        n = 12 if small else 61
        image = synth.two_blob_image(256, 256, 24.0, 1.0)
        frames = synth.add_noise(synth.static_frames(image, n), 0.1, seed)
        return _frame_files(frames, TEXTURE_CONFIG), dict(
            kind="simulate", width=256, height=256, frames=n, dump_every=10)
    if name == "moving-flow-64":
        n = 3 if small else 21
        frames = synth.moving_blob_frames(64, 64, n, (16.0, 32.0), (6.0, 0.0),
                                          1.0 / 30.0, 3.0, 1.0)
        return _frame_files(frames, FLOW_CONFIG), dict(
            kind="simulate", width=64, height=64, frames=n)
    if name == "elliptic-128":
        rng = np.random.default_rng(seed)
        files = {}
        for fname, size in (("mu_solve.foaf", 32 if small else 128),
                            ("mu_converge.foaf", 16 if small else 64)):
            mu = gaussian_blur(Field2D(rng.uniform(0.0, 1.0, (size, size))), 2.0)
            files[fname] = _field_bytes(mu)
        return files, dict(kind="elliptic")
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(files: dict, root: Path) -> None:
    root.mkdir(parents=True)
    for fname, data in files.items():
        (root / fname).write_bytes(data)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_MU = _KERNEL_RNG.uniform(0.0, 1.0, (66, 66))
_KERNEL_IMAGE = _KERNEL_RNG.uniform(0.0, 1.0, (98, 98))


def kernel_seconds() -> float:
    """CPU time of a fixed reference kernel, a probe of the host's current speed.

    It mixes what the workloads spend their time on, written without
    gazefield so that no change to the program moves it: small-array numpy
    stencil steps, a separable blur, and a pure-Python loop over tuples.
    Every array stays under glibc's 128 KiB mmap threshold, so the kernel's
    time does not depend on what the process allocated before it.
    """
    inner = np.s_[1:-1, 1:-1]
    u = np.zeros_like(_KERNEL_MU)
    ut = np.zeros_like(_KERNEL_MU)
    image = _KERNEL_IMAGE.copy()
    samples, acc = [], 0.0
    start = process_time()
    for r in range(KERNEL_ROUNDS):
        for _ in range(8):
            drive = (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
                     - 4.0 * u[inner] + _KERNEL_MU[inner])
            ut_new = np.zeros_like(ut)
            ut_new[inner] = (0.9 * ut[inner] + 0.01 * drive) / 1.1
            u = u.copy()
            u[inner] += 0.01 * ut_new[inner]
            ut = ut_new
            gy, gx = np.gradient(u)
            samples.append((float(gx[33, 33]), float(gy[33, 33]), r))
        b = (image[:-2] + 2.0 * image[1:-1] + image[2:]) * 0.25
        b = (b[:, :-2] + 2.0 * b[:, 1:-1] + b[:, 2:]) * 0.25
        image[inner] = 0.5 * image[inner] + 0.5 * b
        for k, (x, y, _) in enumerate(samples[-8:]):
            acc += x * k + y
        for k in range(200):
            acc += (k & 7) * 0.5
    return process_time() - start


# ---------------------------------------------------------------------------
# one run, and its checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float                     # wall time of every command together
    cpu_seconds: float                 # process CPU time of the same
    command_seconds: list              # CPU time of each command
    codes: list
    stdouts: list
    problems: list
    digest: str = ""
    peak_bytes: int = 0                # tracemalloc peak, when it was on


def execute(plan: Plan, out: Path, tracer: Tracer | None = None) -> Outcome:
    """Run the workload's commands once, writing outputs under out."""
    out.mkdir(parents=True)
    o = Outcome(0.0, 0.0, [], [], [], [])
    with tracer.installed() if tracer else nullcontext():
        start, cpu_start = perf_counter(), process_time()
        with tracer.run() if tracer else nullcontext():
            for argv in plan.commands(out):
                buf = io.StringIO()
                t0 = process_time()
                try:
                    with tracer.span("cli.main") if tracer else nullcontext(), \
                            redirect_stdout(buf):
                        o.codes.append(cli.main(argv))
                except Exception:  # a crash fails this run, not the benchmark
                    o.codes.append(None)
                    o.problems.append(traceback.format_exc(limit=3))
                o.command_seconds.append(process_time() - t0)
                o.stdouts.append(buf.getvalue())
        o.seconds = perf_counter() - start
        o.cpu_seconds = process_time() - cpu_start
    return o


def check(plan: Plan, out: Path, o: Outcome) -> None:
    """Check a run's exit codes and outputs; set its digest, note its problems."""
    if any(code != 0 for code in o.codes):
        o.problems.append(f"exit codes {o.codes}")
        return
    check_outputs = _check_simulate if plan.kind == "simulate" else _check_elliptic
    try:
        o.digest = check_outputs(plan, out, o.stdouts, o.problems)
    except (OSError, ValueError, GazefieldError) as e:
        o.problems.append(f"unreadable output: {e}")


def _check_simulate(plan: Plan, out: Path, stdouts, problems) -> str:
    data = (out / "scanpath.csv").read_bytes()
    path = import_scanpath(data)
    again = io.BytesIO()
    export_scanpath(path, again)
    if again.getvalue() != data:
        problems.append("scanpath CSV does not round-trip through import_scanpath")
    expected = 1 + (plan.frames - 1) * SUBSTEPS
    if len(path) != expected:
        problems.append(f"{len(path)} samples, expected {expected}")
    ts = [s.t for s in path.samples]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append("timestamps do not increase")
    if not all(0.0 <= s.x <= plan.width - 1 and 0.0 <= s.y <= plan.height - 1
               for s in path.samples):
        problems.append("a position leaves the grid")
    if plan.visit_by is not None:
        for bx in (plan.width / 4.0, 3.0 * plan.width / 4.0):
            by = plan.height / 2.0
            t = next((s.t for s in path.samples
                      if math.hypot(s.x - bx, s.y - by) <= 2.0 * SIGMA_IOR), None)
            if t is None or t > plan.visit_by:
                problems.append(f"blob at ({bx:g}, {by:g}) not visited by {plan.visit_by:g} s")

    digest = hashlib.sha256(data)
    dumps = sorted(out.glob("*.foaf"))
    expected = 3 * len(range(0, plan.frames - 1, plan.dump_every)) if plan.dump_every else 0
    if len(dumps) != expected:
        problems.append(f"{len(dumps)} field dumps, expected {expected}")
    for p in dumps:
        raw = p.read_bytes()
        f = read_field(io.BytesIO(raw))
        if f.values.shape != (plan.height, plan.width):
            problems.append(f"{p.name} has shape {f.values.shape}")
        digest.update(p.name.encode("ascii") + raw)
    return digest.hexdigest()


def _check_elliptic(plan: Plan, out: Path, stdouts, problems) -> str:
    raw = (out / "u.foaf").read_bytes()
    u = read_field(io.BytesIO(raw)).values
    mu = read_field(io.BytesIO((plan.root / "mu_solve.foaf").read_bytes())).values
    if u.shape != mu.shape:
        problems.append(f"potential shape {u.shape} differs from source {mu.shape}")
    else:
        # The solver stops at interior residual < tol in float64.  Storing u
        # as float32 moves each sample by at most 2**-24 * max|u|, and the
        # 5-point stencil (h = 1) amplifies that by at most 8.
        lap = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4.0 * u[1:-1, 1:-1]
        residual = float(np.abs(lap + mu[1:-1, 1:-1]).max())
        bound = SOLVE_TOL + (8.0 * 2.0 ** -24 + 1e-12) * float(np.abs(u).max())
        if not residual <= bound:
            problems.append(f"poisson residual {residual:.3g} exceeds {bound:.3g}")

    errors = [float(line.rsplit("=", 1)[1]) for line in stdouts[1].splitlines()
              if "relative_gradient_error=" in line]
    n_speeds = len(CONVERGE_ARGS[1].split(","))
    if len(errors) != n_speeds:
        problems.append(f"converge printed {len(errors)} errors, expected {n_speeds}")
    if any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"converge errors not strictly decreasing: {errors}")
    return hashlib.sha256(raw + stdouts[1].encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, run_id: int) -> dict:
    stats, children = run_stats(spans, run_id)

    def ms(name):  # stats is a defaultdict: a name never called reads as 0
        return stats[name].seconds * 1e3

    def calls(name):
        return stats[name].calls

    hs = [s for s in spans if s.run_id == run_id and s.name == "optical_flow.horn_schunck"]
    sweeps = calls("optical_flow.hs_jacobi_step")
    m = {
        "potential.evolve_potential.ms": ms("potential.evolve_potential"),
        "potential.evolve_potential.calls": calls("potential.evolve_potential"),
        "potential.us_per_step": _per(ms("potential.evolve_potential") * 1e3,
                                      calls("potential.evolve_potential")),
        "foa.foa_step.ms": ms("foa.foa_step"),
        "foa.foa_step.calls": calls("foa.foa_step"),
        "foa.us_per_step": _per(ms("foa.foa_step") * 1e3, calls("foa.foa_step")),
        "optical_flow.horn_schunck.ms": ms("optical_flow.horn_schunck"),
        "optical_flow.horn_schunck.calls": len(hs),
        "optical_flow.hs_sweeps": sweeps,
        "optical_flow.sweeps_per_call": _per(sweeps, len(hs)),
        "optical_flow.cap_hit_ratio": _per(sum(children[s.span_id] >= s.note for s in hs),
                                           len(hs)),
        "optical_flow.us_per_sweep": _per(ms("optical_flow.hs_jacobi_step") * 1e3, sweeps),
        "cli.export_field.bytes": stats["cli.export_field"].note,
        "cli.self_ms": stats["cli.main"].self_seconds * 1e3,
    }
    for name in ("retina.gaussian_blur", "retina.gradient", "retina.temporal_derivative",
                 "retina.magnitude", "mass.ior_step", "mass.mass_density",
                 "retina.load_pgm", "potential.poisson_solve",
                 "potential.convergence_in_c", "foa.detect_saccades",
                 "cli.export_scanpath", "cli.export_field", "cli.read_field"):
        m[name + ".ms"] = ms(name)
    m["retina.load_pgm.calls"] = calls("retina.load_pgm")
    return m


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------

def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _timing_line(label: str, values, unit: str, scale: float = 1.0) -> str:
    q1, _, q3 = (v * scale for v in _quartiles(values))
    return (f"  {label:<24} {statistics.median(values) * scale:.6g} {unit}"
            f"  (n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                  # name -> value
    units: dict
    lines: list = field(default_factory=list)

    def json(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted, "failed": self.failed,
            "metrics": {n: {"value": v, "unit": self.units[n]}
                        for n, v in self.metrics.items()},
        })


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            small: bool = False, spans_csv: Path | None = None) -> Result:
    """Set up, run and check one workload for `seconds`; see run.py."""
    # Times are process CPU time (user + system), scaled to the reference
    # speed by a kernel timed in the same window.  The program is single
    # threaded and CPU bound, so on an unshared machine its CPU time is its
    # wall time; on a shared virtual machine wall time also counts the
    # moments the host takes the CPU away, and the CPU itself runs up to a
    # third faster or slower from one minute to the next as the host's other
    # load changes.  The unscaled CPU and wall times are still printed.
    #
    # setup_s times generating and encoding the inputs in memory; the files
    # are written once, untimed.  Creating or rewriting 601 small files took
    # from 50 ms to 600 ms of kernel time from one moment to the next on the
    # machine this was tuned on, which would swamp the figure.  Set-ups are
    # timed in slots between the timed runs, so that setup_s and run_norm_s
    # are sampled over the same window.
    files, fields = generate(name, seed, small)
    plan = Plan(root=work / "input", **fields)
    write_inputs(files, plan.root)

    def setup_seconds() -> float:
        start, cpu_start, n = perf_counter(), process_time(), 0
        while perf_counter() - start < SETUP_SLOT:
            generate(name, seed, small)
            n += 1
        return (process_time() - cpu_start) / n

    reference = None
    if seed == DEFAULT_SEED and not small:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="ascii")).get(name)
    runs: list[Outcome] = []

    def attempt(tracer=None, memory=False) -> Outcome:
        out = work / f"out-{len(runs)}"
        if memory:
            tracemalloc.start()
        try:
            o = execute(plan, out, tracer)
            if memory:
                o.peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            if memory:
                tracemalloc.stop()
        check(plan, out, o)
        shutil.rmtree(out)
        if runs and o.digest != runs[0].digest:
            o.problems.append("output bytes differ from the first run of this invocation")
        runs.append(o)
        return o

    lines = [f"workload {name}, seed {seed}"]
    if trace:
        attempt()  # warm-up
        tracer = Tracer()
        traced, untraced, per_run = [], [], []
        deadline = perf_counter() + seconds
        while (len(traced) < MIN_TRACED or len(untraced) < MIN_TRACED
               or perf_counter() < deadline):
            if len(traced) <= len(untraced):
                traced.append(attempt(tracer).cpu_seconds)
                per_run.append(layer_metrics(tracer.spans, tracer.run_id))
            else:
                untraced.append(attempt().cpu_seconds)
        if spans_csv is not None:
            tracer.write_csv(spans_csv)
        count_problems = [n for n in EXACT if len({m[n] for m in per_run}) != 1]
        metrics = {n: statistics.median(m[n] for m in per_run) for n in PER_LAYER
                   if n in per_run[0]}
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        units = PER_LAYER
        lines.append(_timing_line("traced run_cpu_s", traced, "s"))
        lines.append(_timing_line("untraced run_cpu_s", untraced, "s"))
        if count_problems:
            lines.append(f"  counts differ between traced runs: {count_problems}")
        if spans_csv is not None:
            lines.append(f"  {len(tracer.spans)} spans written to {spans_csv}")
    else:
        count_problems = []
        peak = attempt(memory=True).peak_bytes
        # A set-up slot, a kernel slot and a run, in turn.  Medians over the
        # window are scaled by the kernel's median over the same window: a
        # single kernel slot varies more than a whole run does.
        timed, setup_times, kernels = [], [], []
        deadline = perf_counter() + seconds
        while len(timed) < MIN_TIMED or perf_counter() < deadline:
            setup_times.append(setup_seconds())
            kernels.append(kernel_seconds())
            timed.append(attempt())
        scale = KERNEL_REFERENCE_S / statistics.median(kernels)
        cpus = [o.cpu_seconds for o in timed]
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup_times) * scale,
            "run_norm_s": statistics.median(cpus) * scale,
            "peak_alloc_mb": peak / 1e6,
        }
        lines.append(_timing_line("setup_s", setup_times, "s", scale))
        lines.append(_timing_line("run_norm_s", cpus, "s", scale))
        if plan.kind == "simulate":
            lines.append(_timing_line("ms_per_frame", cpus, "ms", 1e3 * scale / plan.frames))
        else:
            lines.append(_timing_line("solve_ms", [o.command_seconds[0] for o in timed],
                                      "ms", 1e3 * scale))
            lines.append(_timing_line("converge_s", [o.command_seconds[1] for o in timed],
                                      "s", scale))
        lines.append(f"  {'peak_alloc_mb':<24} {metrics['peak_alloc_mb']:.6g} MB")
        lines.append("  unscaled:")
        lines.append(_timing_line("kernel_s", kernels, "s"))
        lines.append(_timing_line("setup_cpu_s", setup_times, "s"))
        lines.append(_timing_line("run_cpu_s", cpus, "s"))
        lines.append(_timing_line("run_wall_s", [o.seconds for o in timed], "s"))

    attempted = len(runs)
    failed = sum(1 for o in runs if o.problems)
    matched = sum(1 for o in runs
                  if o.digest and o.digest == (reference or runs[0].digest))
    if not trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
        metrics["digest_match_ratio"] = matched / attempted
    lines.append(f"  {'failed_ratio':<24} {failed / attempted:.6g}  ({failed}/{attempted} runs)")
    lines.append(f"  {'digest_mismatch_ratio':<24} {(attempted - matched) / attempted:.6g}"
                 f"  (against {'the reference' if reference else 'the first run'};"
                 f" digest {runs[0].digest or 'none'})")
    for o in runs:
        for p in o.problems:
            lines.append(f"  problem: {p}")
    return Result(correct=failed == 0 and not count_problems, attempted=attempted,
                  failed=failed, metrics=metrics, units=units, lines=lines)
