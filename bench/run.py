"""bohmlab benchmark: one workload as a closed loop of whole runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
`src/` there, so nothing has to be installed or built. One client
starts one run after another, one process per run, for S seconds; each
run uses at most 2 threads. The seed is the ensemble seed of the
workload's sampler, so the same seed gives the same inputs.

--trace 0 prints the end-to-end metrics: medians over the loop's runs of
wall time, set-up time, CPU time and peak memory, plus the transport
accuracy, which is computed once per invocation outside the timed runs.
--trace 1 runs the same untraced loop, then one traced run whose spans
give the per-layer metrics, and reports the tracing overhead.

Every run passes a correctness gate (exit code, the run's own
`checks_passed`, byte-identical artifacts within the invocation); the
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

RUN_TIMEOUT_S = 120.0
# Set-up is sampled by every run and by this many extra runs that stop at
# the first library call, so workloads with few long runs still get a
# median of several set-ups.
SETUP_PROBES = 5
REF_PARTICLES = 2000
REF_NUMERICS = {"record_every": 1, "substeps": 4}

SPIN_HALF = "0.70710678118654752"
SETUP = {
    "b0": 0.0, "b_grad": 4.0, "mu": -1.0, "tau": 1.0, "t_drift": 2.0, "z_det": 4.5,
    "polarity": 1, "calibration_up": 1.0, "calibration_down": -1.0,
    "reverse_geometry": False,
}
PACKET = {"center": 0.0, "sigma": 1.0, "k": 0.0}
SG_NUMERICS = {
    "grid_n": 512, "x_min": -30.0, "x_max": 30.0, "dt": 0.00390625,
    "record_every": 8, "substeps": 4,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI command, or "library" for the in-library pipeline
    particles: int
    threads: int
    spin: tuple[str, str]  # spin_up, spin_down before normalization

    @property
    def keep_history(self) -> bool:
        return self.command == "library"

    def work(self) -> dict:
        """Work and working set of one run, computed from the parameters."""
        n_grid = SG_NUMERICS["grid_n"]
        split_steps = int(round((SETUP["tau"] + SETUP["t_drift"]) / SG_NUMERICS["dt"]))
        intervals = split_steps // SG_NUMERICS["record_every"]
        records = intervals + 1
        rk4 = intervals * SG_NUMERICS["substeps"]
        return {
            "split_steps": split_steps,
            "records": records,
            "rk4_steps": rk4,
            "particles": self.particles,
            "velocity_evals": 4 * rk4 * self.particles,
            "computed_bytes": {
                "wave_records": records * n_grid * 2 * 16,
                "flow_tables": 2 * records * n_grid * 8,
                "ensemble_arrays": self.particles * 8 * 7,
                "history": (rk4 + 1) * self.particles * 8 if self.keep_history else 0,
                "note": "computed from array shapes, not measured; ensemble_arrays "
                "counts q0, q_final and the RK4 state p, k1..k4",
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sg-born", "stern-gerlach", 10_000, 2, (SPIN_HALF, SPIN_HALF)),
        Workload("sg-history", "library", 20_000, 1, (SPIN_HALF, SPIN_HALF)),
    )
}

# Which end-to-end metric each layer metric should move, on which
# workloads, and what else is expected; written down before any
# optimisation is measured.
ALL = ["sg-born", "sg-history"]
PREDICTIONS = [
    ("propagation.evolve.us_per_step", "wall_s", ["sg-born", "sg-history"],
     "about 8% of sg-born's run"),
    ("propagation.evolve.steps", "wall_s", ["sg-born", "sg-history"],
     "counted split steps: fewer steps show as a count"),
    ("stern_gerlach.build_timeline.ms", "wall_s", ALL, ""),
    ("stern_gerlach.run_sg.self_ms", "wall_s", ["sg-born"], ""),
    ("stern_gerlach.no_crossing_check.ms", "wall_s", ["sg-history"], ""),
    ("trajectories.integrate_ensemble.ms", "wall_s", ALL, ""),
    ("trajectories.integrate_ensemble.ns_per_particle_step", "wall_s", ALL, ""),
    ("trajectories.velocity_calls", "wall_s", ALL,
     "counted batched velocity calls: fewer RK4 stages or steps show as a count"),
    ("trajectories.velocity_evals", "wall_s", ALL,
     "counted particle velocity evaluations: fewer evaluations show as a count"),
    ("trajectories.flow_table.ms_per_record", "wall_s", ["sg-born"], ""),
    ("trajectories.velocity.ns_per_particle", "wall_s", ALL, ""),
    ("trajectories.thread_speedup", "wall_s, cpu_s", ALL,
     "below 1 on sg-born (10k) at the seed commit; sg-history's 20k sits near the crossover"),
    ("trajectories.history_ratio", "wall_s, peak_rss_mb", ["sg-history"], ""),
    ("sampling.sample.ns_per_draw", "wall_s", ALL, ""),
    ("sampling.ks_distance.ns_per_sample", "wall_s", ["sg-history"], ""),
    ("cli.parse_config.ms", "setup_s", ["sg-born"], ""),
    ("cli.self_ms", "wall_s", ["sg-born"], "rendering plus artifact writes"),
    ("cli.render_ns_per_row", "wall_s", ["sg-born"], ""),
    ("cli.artifact_bytes", "wall_s", ["sg-born"], ""),
]


# Per-layer metrics of the traced run and their units. A layer that does
# not run on a workload reads 0 there, and so does history_ratio where the
# traced run keeps no history.
LAYER_UNITS = {
    "propagation.evolve.us_per_step": "us",
    "propagation.evolve.steps": "count",
    "stern_gerlach.build_timeline.ms": "ms",
    "stern_gerlach.run_sg.self_ms": "ms",
    "stern_gerlach.no_crossing_check.ms": "ms",
    "trajectories.integrate_ensemble.ms": "ms",
    "trajectories.integrate_ensemble.ns_per_particle_step": "ns",
    "trajectories.velocity_calls": "count",
    "trajectories.velocity_evals": "count",
    "trajectories.flow_table.ms_per_record": "ms",
    "trajectories.velocity.ns_per_particle": "ns",
    "trajectories.thread_speedup": "ratio",
    "trajectories.history_ratio": "ratio",
    "sampling.sample.ns_per_draw": "ns",
    "sampling.ks_distance.ns_per_sample": "ns",
    "cli.parse_config.ms": "ms",
    "cli.self_ms": "ms",
    "cli.render_ns_per_row": "ns",
    "cli.artifact_bytes": "B",
    "trace.overhead_ms": "ms",
}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------- inputs

def config_text(w: Workload, seed: int, out: Path) -> str:
    """The CLI config with every key the command reads written out."""
    n = SG_NUMERICS
    lines = [
        "[run]", f"command = {w.command}", f"seed = {seed}",
        f"n_samples = {w.particles}", f"out = {out}", "format = csv,json",
        "[grid]", f"n = {n['grid_n']}", f"x_min = {n['x_min']!r}", f"x_max = {n['x_max']!r}",
        "[packet]", *(f"{k} = {v!r}" for k, v in PACKET.items()),
        f"spin_up = {w.spin[0]}", f"spin_down = {w.spin[1]}",
        "[setup]",
        *(f"{k} = {str(v).lower() if isinstance(v, bool) else repr(v)}" for k, v in SETUP.items()),
        "[numerics]", f"dt = {n['dt']!r}", f"record_every = {n['record_every']}",
        f"substeps = {n['substeps']}",
    ]
    return "\n".join(lines) + "\n"


def spin_amplitudes(w: Workload) -> tuple[float, float]:
    """Spinor amplitudes the run uses: the configured pair, normalized.

    This is what the CLI does with the pair; for SPIN_HALF twice it gives
    sqrt(0.5) twice, exactly what criterion 07 passes to the library.
    """
    up, down = float(w.spin[0]), float(w.spin[1])
    norm = math.hypot(up, down)
    return up / norm, down / norm


def child_spec(w: Workload, seed: int, out: Path, cfg: Path, mode: str, stamps: Path) -> dict:
    spec = {"mode": mode, "stamps": str(stamps)}
    if w.command == "library":
        a, b = spin_amplitudes(w)
        spec.update(
            kind="sg-history", seed=seed, n=w.particles, threads=w.threads, out=str(out),
            setup=SETUP, packet=PACKET, numerics=SG_NUMERICS,
            spin_up=[a, 0.0], spin_down=[b, 0.0],
        )
    else:
        spec.update(kind="cli", argv=["--config", str(cfg), "--threads", str(w.threads)])
    return spec


# ---------------------------------------------------------------- one run

@dataclass
class Run:
    exit_code: int
    wall_ns: int
    cpu_s: float
    rss_mb: float
    record: dict
    problems: list

    def stamp(self, key: str) -> int | None:
        return self.record.get("stamps", {}).get(key)


def spawn(spec: dict, log: Path) -> Run:
    """Run child.py once; wall time is spawn to reaped exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the run's only threads are the transport's workers
    stamps = Path(spec["stamps"])
    stamps.unlink(missing_ok=True)
    with open(log, "ab") as fh:
        t0 = now_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            stdin=subprocess.DEVNULL, stdout=fh, stderr=fh, cwd=ROOT, env=env,
        )
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = now_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(stamps.read_text()) if stamps.exists() else {}
    for key in ("setup", "done"):
        if key in record.get("stamps", {}):
            record["stamps"][key] -= t0
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    if proc.returncode == 0 and "done" not in record.get("stamps", {}):
        problems.append("no stamps written")
    return Run(
        exit_code=proc.returncode,
        wall_ns=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        record=record,
        problems=problems,
    )


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_outputs(out: Path) -> list:
    """Problems with a run's own checks; empty when every check passed."""
    summary = out / "summary.json"
    if not summary.exists():
        return ["summary.json missing"]
    checks = json.loads(summary.read_text()).get("checks_passed", {})
    if not checks:
        return ["summary.json has no checks_passed"]
    return [f"check {name} failed" for name, ok in sorted(checks.items()) if ok is not True]


# ---------------------------------------------------------------- accuracy

def read_positions(w: Workload, out: Path):
    """q0 and q_final of the run's first REF_PARTICLES particles, exactly."""
    import numpy as np

    if w.command == "library":
        return np.load(out / "q0.npy")[:REF_PARTICLES], np.load(out / "q_final.npy")[:REF_PARTICLES]
    rows = (out / "ensemble.csv").read_text().splitlines()[2:2 + REF_PARTICLES]
    fields = [row.split(",") for row in rows]
    # The CLI writes floats with repr, so float() recovers them bit for bit.
    return (np.array([float(f[1]) for f in fields]), np.array([float(f[2]) for f in fields]))


def transport_error(w: Workload, first_out: Path) -> dict:
    """Transport accuracy of the run's first particles against a reference.

    The run's transported positions are compared with the same q0
    transported through the public API on a refined timeline (a record
    every split step, 4 RK4 substeps per record).

    The bounded metric, cdf_max, is max |F(q_final) - F(q_ref)| with F the
    reference's final cumulative distribution: the largest displacement
    of a particle in probability mass, the quantity equivariance keeps.
    Max |q_final - q_ref| is reported beside it but not bounded: when the
    branch weights differ, particles born near the separatrix between the
    branches amplify any error without limit, so the maximum follows
    whichever sample lies nearest to it.
    """
    sys.path.insert(0, str(SRC))
    import numpy as np

    from bohmlab import PacketSpec, SGNumerics, SGSetup, build_timeline, density, integrate_ensemble

    a, b = spin_amplitudes(w)
    q0, q_final = read_positions(w, first_out)
    ref = SGNumerics(**{**SG_NUMERICS, **REF_NUMERICS})
    timeline = build_timeline(SGSetup(**SETUP), a, b, PacketSpec(**PACKET), ref)
    q_ref = integrate_ensemble(timeline, q0, dt_traj=ref.dt_traj).q_final

    final = timeline.fields[-1]
    rho = np.append(density(final), density(final)[0])
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (rho[:-1] + rho[1:]) * final.grid.dx)])
    nodes = np.append(final.grid.xs(), final.grid.x_max)

    def cdf(q):
        return np.interp(q, nodes, mass / mass[-1])

    z_det = SETUP["z_det"]

    def detector(q):
        return np.sign(q) * (np.abs(q) > z_det)

    dq = np.abs(q_final - q_ref)
    return {
        "cdf_max": float(np.max(np.abs(cdf(q_final) - cdf(q_ref)))),
        "q_max": float(np.max(dq)),
        "q_p99": float(np.quantile(dq, 0.99)),
        "outcome_disagreements": int(np.sum(detector(q_final) != detector(q_ref))),
        "reference": "same q0 transported on a refined timeline; F from its final density",
        "particles": int(q0.size), **REF_NUMERICS, "dt_traj": ref.dt_traj,
        "run_record_every": SG_NUMERICS["record_every"], "run_substeps": SG_NUMERICS["substeps"],
    }


# ---------------------------------------------------------------- traced run

# Per-span work: items and steps the call's arguments ask for, and the
# split steps and velocity evaluations counted while it ran (child.py).
SPAN_COUNTS = ("items", "steps", "split.calls", "velocity.calls", "velocity.items")


def span_table(spans: list) -> dict:
    """Per traced function: calls, total and self time, and work counts.

    Counted work is the span's own, not its children's: a count goes to
    the innermost open span.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    table: dict = {}
    for s, children in zip(spans, child_ns):
        row = table.setdefault(s["name"], dict.fromkeys(
            ("calls", "total_ns", "self_ns", "particle_steps", *SPAN_COUNTS), 0))
        row["calls"] += 1
        row["total_ns"] += s["end"] - s["start"]
        row["self_ns"] += s["end"] - s["start"] - children
        for key in SPAN_COUNTS:
            row[key] += s.get(key, 0)
        row["particle_steps"] += s.get("items", 0) * s.get("steps", 0)
    return table


def layer_metrics(w: Workload, traced: Run, out: Path) -> dict:
    table = span_table(traced.record.get("spans", []))
    probes = traced.record.get("probes", {})
    empty = dict.fromkeys(("total_ns", "self_ns", "particle_steps", *SPAN_COUNTS), 0)

    def get(name: str, key: str) -> int:
        return table.get(name, empty)[key]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    evolve, ens = "propagation.evolve", "trajectories.integrate_ensemble"
    cli_self_ms = get("cli.run", "self_ns") / 1e6
    artifacts = [] if w.command == "library" else list(out.iterdir())
    csv_rows = sum(len(p.read_text().splitlines()) - 2 for p in artifacts if p.suffix == ".csv")
    return {
        "propagation.evolve.us_per_step":
            per(get(evolve, "total_ns") / 1e3, get(evolve, "split.calls")),
        "propagation.evolve.steps": get(evolve, "split.calls"),
        "stern_gerlach.build_timeline.ms": get("stern_gerlach.build_timeline", "total_ns") / 1e6,
        "stern_gerlach.run_sg.self_ms": get("stern_gerlach.run_sg", "self_ns") / 1e6,
        "stern_gerlach.no_crossing_check.ms":
            get("stern_gerlach.no_crossing_check", "total_ns") / 1e6,
        "trajectories.integrate_ensemble.ms": get(ens, "total_ns") / 1e6,
        # per particle-step the call asks for, whatever work it does for it
        "trajectories.integrate_ensemble.ns_per_particle_step":
            per(get(ens, "total_ns"), get(ens, "particle_steps")),
        "trajectories.velocity_calls": get(ens, "velocity.calls"),
        "trajectories.velocity_evals": get(ens, "velocity.items"),
        "trajectories.flow_table.ms_per_record": probes.get("flow_table_ns_per_record", 0.0) / 1e6,
        "trajectories.velocity.ns_per_particle": probes.get("velocity_ns_per_particle", 0.0),
        "trajectories.thread_speedup": probes.get("thread_speedup", 0.0),
        "trajectories.history_ratio": probes.get("history_ratio", 0.0),
        "sampling.sample.ns_per_draw":
            per(get("sampling.sample", "total_ns"), get("sampling.sample", "items")),
        "sampling.ks_distance.ns_per_sample":
            per(get("sampling.ks_distance", "total_ns"), get("sampling.ks_distance", "items")),
        "cli.parse_config.ms": get("cli.parse_config", "total_ns") / 1e6,
        "cli.self_ms": cli_self_ms,
        "cli.render_ns_per_row": per(cli_self_ms * 1e6, csv_rows),
        "cli.artifact_bytes": sum(p.stat().st_size for p in artifacts),
        "trace.overhead_ms": traced.record.get("overhead", {}).get("overhead_ns", 0.0) / 1e6,
    }


# ---------------------------------------------------------------- facts

def machine_facts() -> dict:
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "source_sha256": source_digest(),
    }


PROBE_KERNEL = (
    "median of 5 timings of 50 rounds of fft+ifft of 4096 complex values and two "
    "gathers of 100000 of them, on fixed data into preallocated arrays"
)


def machine_probe() -> float:
    """Milliseconds of a fixed numpy kernel (PROBE_KERNEL), run in this process.

    It does not depend on the program, so when it moves between two sets
    of runs the machine changed speed, not the code. It allocates nothing
    while timed: fresh allocations would time the allocator's state
    (whether large blocks come back as new pages), which depends on what
    this process did before.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    z = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    idx = rng.integers(0, z.size, 100_000)
    spectrum, back = np.empty_like(z), np.empty_like(z)
    re, im = np.empty(idx.size), np.empty(idx.size)
    times = []
    for _ in range(5):
        t0 = now_ns()
        for _ in range(50):
            np.fft.fft(z, out=spectrum)
            np.fft.ifft(spectrum, out=back)
            np.take(back.real, idx, out=re)
            np.take(back.imag, idx, out=im)
            np.add(re, im, out=re)
        times.append(now_ns() - t0)
    return statistics.median(times) / 1e6


def commit_id() -> str:
    """HEAD of the checkout's git metadata; checkouts without it say so."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata; see source_sha256)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bohmlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- main

def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohmlab" / "__init__.py").is_file():
        print(f"bench: no bohmlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(w, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(w: Workload, args, work: Path) -> int:
    log = work / "child.log"
    problems: list[str] = []

    def spec(index: int, mode: str) -> dict:
        out = work / f"out-{index:03d}"
        cfg = work / f"run-{index:03d}.cfg"
        if w.command != "library":
            cfg.write_text(config_text(w, args.seed, out))
        return child_spec(w, args.seed, out, cfg, mode, work / f"stamps-{index:03d}.json")

    speed_before = machine_probe()
    setup_ns = []
    for i in range(SETUP_PROBES):
        probe = spawn(spec(900 + i, "setup"), log)
        if probe.problems or probe.stamp("setup") is None:
            problems.append(f"set-up probe {i}: {', '.join(probe.problems) or 'no stamp'}")
        else:
            setup_ns.append(probe.stamp("setup"))

    runs: list[Run] = []
    first_digest = None
    deadline = time.monotonic() + args.seconds
    while not runs or time.monotonic() < deadline:
        index = len(runs)
        run = spawn(spec(index, "run"), log)
        out = work / f"out-{index:03d}"
        if not run.problems:
            run.problems += check_outputs(out)
        digest = artifact_digest(out)
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            run.problems.append("artifacts differ from the first run's")
        if run.stamp("setup") is not None:
            setup_ns.append(run.stamp("setup"))
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        runs.append(run)

    speed_after = machine_probe()
    ok = [r for r in runs if not r.problems] or runs
    failed = sum(1 for r in runs if r.problems)
    for i, r in enumerate(runs):
        if r.problems:
            problems.append(f"run {i}: {'; '.join(r.problems)}")
    summary = {
        "wall_s": quartiles([r.wall_ns / 1e9 for r in ok]),
        "setup_s": quartiles([s / 1e9 for s in setup_ns] or [r.wall_ns / 1e9 for r in ok]),
        "cpu_s": quartiles([r.cpu_s for r in ok]),
        "peak_rss_mb": quartiles([r.rss_mb for r in ok]),
    }

    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed: 1 client, 1 process per run, at most 2 threads per run",
        "machine": machine_facts(),
        "machine_probe": {
            "before_ms": speed_before, "after_ms": speed_after, "kernel": PROBE_KERNEL,
            "note": "the machine's speed around the loop; a recorded fact, not a metric",
        },
        "work": w.work(),
        "config": config_text(w, args.seed, Path("OUT")) if w.command != "library" else {
            "pipeline": "build_timeline; run_sg(keep_history=True); no_crossing_check; ks_distance",
            "n": w.particles, "threads": w.threads, "spin": list(spin_amplitudes(w)),
            "setup": SETUP, "packet": PACKET, "numerics": SG_NUMERICS,
        },
        "end_to_end": summary,
        "failed_frac": failed / len(runs),
        "runs": [
            {"wall_s": r.wall_ns / 1e9, "setup_s": (r.stamp("setup") or 0) / 1e9,
             "cpu_s": r.cpu_s, "peak_rss_mb": r.rss_mb, "problems": r.problems}
            for r in runs
        ],
    }
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": summary[name]["median"], "unit": units[name]} for name in units}

    if args.trace == 0:
        if runs[0].exit_code == 0:
            accuracy = transport_error(w, work / "out-000")
        else:
            accuracy = {"cdf_max": 0.0, "reference": "not computed: the first run failed"}
            problems.append("transport reference not computed")
        metrics["transport_err_cdf_max"] = {"value": accuracy["cdf_max"], "unit": "prob"}
        report["transport_accuracy"] = accuracy
    else:
        traced = spawn(spec(999, "trace"), log)
        out = work / "out-999"
        traced.problems += check_outputs(out) if not traced.problems else []
        if artifact_digest(out) != first_digest:
            traced.problems.append("traced artifacts differ from the untraced run's")
        probes = traced.record.get("probes", {})
        if probes.get("bit_identical") is False:
            traced.problems.append("integrate_ensemble q_final differs across thread counts")
        problems += [f"traced run: {p}" for p in traced.problems]
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name]}
            for name, value in layer_metrics(w, traced, out).items()
        }
        report["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        report["spans"] = span_table(traced.record.get("spans", []))
        report["traced_wall_s"] = (traced.stamp("done") or 0) / 1e9
        report["tracing_overhead"] = traced.record.get("overhead", {})
        report["probes"] = probes
        report["predictions"] = [
            {"layer_metric": m, "moves": e, "workloads": ws, "note": note}
            for m, e, ws, note in PREDICTIONS
        ]
    report["problems"] = problems
    if problems and log.exists():
        sys.stderr.write(log.read_text()[-4000:])

    print_human(w, args, report, metrics, len(runs), failed)
    print("BENCH_REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def print_human(w, args, report, metrics, attempted, failed) -> None:
    print(f"bohmlab benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds:g} s closed loop, trace {args.trace}")
    if args.trace == 0:
        for name, q in report["end_to_end"].items():
            print(f"  {name:<22} {q['median']:.6g} {metrics[name]['unit']:<6} "
                  f"median of n={q['n']} (q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
        acc = report["transport_accuracy"]
        print(f"  {'transport_err_cdf_max':<22} {acc['cdf_max']:.6g} prob  "
              f"over {acc.get('particles', 0)} particles; reference: {acc['reference']}")
        if "q_max" in acc:
            print(f"  {'':<22} max |dq| {acc['q_max']:.6g}, p99 |dq| {acc['q_p99']:.6g} length, "
                  f"detector outcome disagreements {acc['outcome_disagreements']}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<54} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<22} {failed}/{attempted}")
    probe = report["machine_probe"]
    print(f"  machine probe {probe['before_ms']:.4g} ms before the loop, "
          f"{probe['after_ms']:.4g} ms after (fixed kernel; not a metric)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
