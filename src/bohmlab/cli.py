"""Deterministic batch front end.

Runs are described by a flat sectioned key = value config file, executed
with `bohmlab --config run.cfg`, and produce CSV data files plus a JSON
summary in the output directory.  For a fixed config and seed the output
bytes are identical across reruns and thread counts; nothing
time-dependent enters the data files.

Config sections and keys (all optional except run.command):

    [run]        command, seed, n_samples, out, format
    [grid]       n, x_min, x_max
    [packet]     center, sigma, k, spin_up, spin_down
    [setup]      b0, b_grad, mu, tau, t_drift, z_det, polarity,
                 calibration_up, calibration_down, reverse_geometry
    [numerics]   dt, record_every, substeps
    [propagate]  t_total
    [trajectories] t_total
    [contextuality] q_points, q_span
    [pointer]    state, spec_file

Commands: propagate, trajectories, born-check, stern-gerlach,
contextuality, pointer-model, nogo.

The default packet spin is spin_up = 1, spin_down = 0: a pure spin-up
packet.  With it born-check and stern-gerlach run a p = 1 experiment,
and contextuality, which needs |spin_up| = |spin_down|, rejects the
config (exit 2).  Set both to 0.70710678118654752 for equal weights.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .grids import density, gaussian_packet, make_grid
from .operators import (
    ExperimentSpec,
    Outcome,
    StateVec,
    born_probabilities,
    expectation,
    pointer_model,
    reproducibility_check,
    spec_from_text,
)
from .peres_mermin import contextual_witness
from .propagation import HamiltonianSpec, evolve
from .sampling import KS_COEFF, ks_distance, sample
from .stern_gerlach import (
    PacketSpec,
    SGNumerics,
    SGSetup,
    branch_overlap,
    build_timeline,
    contextuality_demo,
    run_sg,
)
from .trajectories import integrate_ensemble

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

COMMANDS = (
    "propagate",
    "trajectories",
    "born-check",
    "stern-gerlach",
    "contextuality",
    "pointer-model",
    "nogo",
)
FORMATS = ("csv", "json")
CSV_SCHEMA_VERSION = 1
SEED_MAX = 2**64 - 1


class ConfigError(Exception):
    """Carries the complete list of configuration problems, not just the first."""

    def __init__(self, errors) -> None:
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    n_samples: int
    out: str
    formats: tuple[str, ...]
    grid_n: int
    x_min: float
    x_max: float
    packet: PacketSpec
    spin_up: complex
    spin_down: complex
    setup: SGSetup
    dt: float
    record_every: int
    substeps: int
    t_total: float
    q_points: int
    q_span: float
    pointer_state: tuple[complex, ...]
    spec_file: str | None


# ---------------------------------------------------------------- parsing

def _tokenize(text: str):
    """Low-level pass: sections of key -> (raw value, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    errors: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                errors.append(f"line {lineno}: empty section name")
                current = None
                continue
            current = name
            sections.setdefault(name, {})
            section_lines.setdefault(name, lineno)
            continue
        if "=" not in line:
            errors.append(
                f"line {lineno}: expected 'key = value' or a [section] header, got {line!r}"
            )
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {lineno}: missing key before '='")
            continue
        if current is None:
            errors.append(f"line {lineno}: key {key!r} appears before any [section] header")
            continue
        if key in sections[current]:
            first = sections[current][key][1]
            errors.append(
                f"line {lineno}: duplicate key {key!r} in section [{current}], "
                f"first set on line {first}"
            )
            continue
        sections[current][key] = (value, lineno)
    return sections, section_lines, errors


def _as_str(value: str) -> str:
    return value


def _as_int(value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _as_seed(value: str) -> int:
    n = _as_int(value)
    if not 0 <= n <= SEED_MAX:
        raise ValueError(f"seed must lie in [0, 2^64), got {n}")
    return n


def _as_float(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _as_complex(value: str) -> complex:
    try:
        z = complex(value.replace(" ", ""))
    except ValueError:
        raise ValueError(f"expected a complex number like 0.6+0.8j, got {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"expected a finite complex number, got {value!r}")
    return z


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {value!r}")


_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "command": (_as_str, None),
        "seed": (_as_seed, 0),
        "n_samples": (_as_int, 10_000),
        "out": (_as_str, "out"),
        "format": (_as_str, "csv,json"),
    },
    "grid": {
        "n": (_as_int, 512),
        "x_min": (_as_float, -30.0),
        "x_max": (_as_float, 30.0),
    },
    "packet": {
        "center": (_as_float, 0.0),
        "sigma": (_as_float, 1.0),
        "k": (_as_float, 0.0),
        "spin_up": (_as_complex, complex(1.0)),
        "spin_down": (_as_complex, complex(0.0)),
    },
    "setup": {
        "b0": (_as_float, 0.0),
        "b_grad": (_as_float, 4.0),
        "mu": (_as_float, -1.0),
        "tau": (_as_float, 1.0),
        "t_drift": (_as_float, 2.0),
        "z_det": (_as_float, 4.5),
        "polarity": (_as_int, 1),
        "calibration_up": (_as_float, 1.0),
        "calibration_down": (_as_float, -1.0),
        "reverse_geometry": (_as_bool, False),
    },
    "numerics": {
        "dt": (_as_float, 1.0 / 256.0),
        "record_every": (_as_int, 8),
        "substeps": (_as_int, 4),
    },
    "propagate": {"t_total": (_as_float, 2.0)},
    "trajectories": {"t_total": (_as_float, 2.0)},
    "contextuality": {"q_points": (_as_int, 99), "q_span": (_as_float, 2.5)},
    "pointer": {"state": (_as_str, "0.6 0.8"), "spec_file": (_as_str, None)},
}

_SPLITTING_COMMANDS = ("born-check", "stern-gerlach", "contextuality")


def _parse_formats(value: str) -> tuple[str, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated subset of {','.join(FORMATS)}")
    bad = [p for p in parts if p not in FORMATS]
    if bad:
        raise ValueError(f"unknown format(s) {', '.join(map(repr, bad))}; choose from {FORMATS}")
    seen: list[str] = []
    for p in parts:
        if p not in seen:
            seen.append(p)
    return tuple(seen)


def _check_window_steps(name: str, duration: float, dt: float, record_every: int, fail) -> None:
    if duration <= 0:
        return
    steps = duration / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
        fail(f"{name} = {duration} must be an integer multiple of dt = {dt}")
    elif int(round(steps)) % record_every != 0:
        fail(
            f"record_every = {record_every} must divide the {steps:.0f} steps of {name}"
        )


def parse_config(text: str) -> RunConfig:
    """Validate the whole config, reporting every problem at once."""
    sections, section_lines, errors = _tokenize(text)

    for name in sections:
        if name not in _SCHEMA:
            errors.append(f"line {section_lines[name]}: unknown section [{name}]")
    for name, keys in sections.items():
        if name not in _SCHEMA:
            continue
        for key, (_, lineno) in keys.items():
            if key not in _SCHEMA[name]:
                errors.append(f"line {lineno}: unknown key {key!r} in section [{name}]")

    values: dict[str, dict] = {}
    for name, schema in _SCHEMA.items():
        values[name] = {}
        present = sections.get(name, {})
        for key, (converter, default) in schema.items():
            if key in present:
                raw, lineno = present[key]
                try:
                    values[name][key] = converter(raw)
                except ValueError as exc:
                    errors.append(f"line {lineno}: [{name}] {key}: {exc}")
                    values[name][key] = default
            else:
                values[name][key] = default

    def fail(section: str, key: str, message: str) -> None:
        entry = sections.get(section, {}).get(key)
        prefix = f"line {entry[1]}: " if entry else ""
        errors.append(f"{prefix}[{section}] {key}: {message}")

    v = values
    command = v["run"]["command"]
    if command is None:
        fail("run", "command", f"required; one of {', '.join(COMMANDS)}")
    elif command not in COMMANDS:
        fail("run", "command", f"unknown command {command!r}; one of {', '.join(COMMANDS)}")
    if v["run"]["n_samples"] < 1:
        fail("run", "n_samples", f"must be >= 1, got {v['run']['n_samples']}")
    if not v["run"]["out"]:
        fail("run", "out", "must be a nonempty directory name")
    formats: tuple[str, ...] = ("csv", "json")
    try:
        formats = _parse_formats(v["run"]["format"])
    except ValueError as exc:
        fail("run", "format", str(exc))

    n = v["grid"]["n"]
    if n < 16 or n & (n - 1) != 0:
        fail("grid", "n", f"must be a power of two >= 16, got {n}")
    if not v["grid"]["x_min"] < v["grid"]["x_max"]:
        fail("grid", "x_min", f"must satisfy x_min < x_max, got [{v['grid']['x_min']}, {v['grid']['x_max']}]")

    sigma = v["packet"]["sigma"]
    if sigma <= 0:
        fail("packet", "sigma", f"must be positive, got {sigma}")
    spin_up, spin_down = v["packet"]["spin_up"], v["packet"]["spin_down"]
    if spin_up == 0 and spin_down == 0:
        fail("packet", "spin_up", "spin_up and spin_down must not both be zero")
    if sigma > 0:
        center = v["packet"]["center"]
        if not (v["grid"]["x_min"] < center - 5 * sigma and center + 5 * sigma < v["grid"]["x_max"]):
            fail(
                "packet", "center",
                f"packet support (center +- 5 sigma) = [{center - 5 * sigma}, {center + 5 * sigma}] "
                "must lie strictly inside the grid",
            )

    if v["setup"]["polarity"] not in (1, -1):
        fail("setup", "polarity", f"must be +1 or -1, got {v['setup']['polarity']}")
    if v["setup"]["tau"] <= 0:
        fail("setup", "tau", f"must be positive, got {v['setup']['tau']}")
    if v["setup"]["t_drift"] < 0:
        fail("setup", "t_drift", f"must be nonnegative, got {v['setup']['t_drift']}")
    if v["setup"]["z_det"] < 0:
        fail("setup", "z_det", f"must be nonnegative, got {v['setup']['z_det']}")
    if v["setup"]["reverse_geometry"] and v["setup"]["b0"] != 0:
        fail("setup", "reverse_geometry", "geometry reversal requires b0 = 0")

    if v["numerics"]["dt"] <= 0:
        fail("numerics", "dt", f"must be positive, got {v['numerics']['dt']}")
    if v["numerics"]["record_every"] < 1:
        fail("numerics", "record_every", f"must be >= 1, got {v['numerics']['record_every']}")
    if v["numerics"]["substeps"] < 1:
        fail("numerics", "substeps", f"must be >= 1, got {v['numerics']['substeps']}")

    for sec in ("propagate", "trajectories"):
        if v[sec]["t_total"] <= 0:
            fail(sec, "t_total", f"must be positive, got {v[sec]['t_total']}")
    if v["contextuality"]["q_points"] < 1:
        fail("contextuality", "q_points", f"must be >= 1, got {v['contextuality']['q_points']}")
    if v["contextuality"]["q_span"] <= 0:
        fail("contextuality", "q_span", f"must be positive, got {v['contextuality']['q_span']}")

    pointer_state: tuple[complex, ...] = ()
    tokens = v["pointer"]["state"].split()
    if not tokens:
        fail("pointer", "state", "must hold at least one complex component")
    else:
        comps: list[complex] = []
        for tok in tokens:
            try:
                comps.append(_as_complex(tok))
            except ValueError as exc:
                fail("pointer", "state", str(exc))
                comps = []
                break
        if comps:
            if all(z == 0 for z in comps):
                fail("pointer", "state", "components must not all be zero")
            pointer_state = tuple(comps)

    # Command-conditional checks: everything a command will touch is
    # validated here, before any computation starts.
    dt, rec = v["numerics"]["dt"], v["numerics"]["record_every"]
    valid_stepping = dt > 0 and rec >= 1
    if command in ("propagate", "trajectories") and valid_stepping:
        _check_window_steps(
            "t_total", v[command]["t_total"], dt, rec,
            lambda msg: fail(command, "t_total", msg),
        )
    if command in _SPLITTING_COMMANDS:
        if v["packet"]["center"] != 0 or v["packet"]["k"] != 0:
            fail(
                "packet", "center",
                "the splitting experiment needs a packet centered at 0 with k = 0",
            )
        if v["setup"]["mu"] * v["setup"]["b_grad"] == 0:
            fail("setup", "b_grad", "mu * b_grad must be nonzero or the beam never splits")
        if valid_stepping and v["setup"]["tau"] > 0:
            _check_window_steps(
                "tau", v["setup"]["tau"], dt, rec, lambda msg: fail("setup", "tau", msg)
            )
            _check_window_steps(
                "t_drift", v["setup"]["t_drift"], dt, rec,
                lambda msg: fail("setup", "t_drift", msg),
            )
    if command == "contextuality":
        if v["setup"]["b0"] != 0:
            fail("setup", "b0", "the reversal demonstration requires b0 = 0")
        if v["setup"]["reverse_geometry"]:
            fail("setup", "reverse_geometry", "must be false; the demonstration drives the reversal")
        nrm = math.hypot(abs(spin_up), abs(spin_down))
        if nrm > 0 and abs(abs(spin_up) - abs(spin_down)) / nrm > 1e-12:
            fail("packet", "spin_up", "the reversal demonstration requires |spin_up| = |spin_down|")
        if sigma > 0 and v["contextuality"]["q_span"] >= 5 * sigma:
            fail(
                "contextuality", "q_span",
                f"must be less than 5 * sigma = {5 * sigma} so the grid stays in the packet support",
            )

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        command=command,
        seed=v["run"]["seed"],
        n_samples=v["run"]["n_samples"],
        out=v["run"]["out"],
        formats=formats,
        grid_n=v["grid"]["n"],
        x_min=v["grid"]["x_min"],
        x_max=v["grid"]["x_max"],
        packet=PacketSpec(center=v["packet"]["center"], sigma=sigma, k=v["packet"]["k"]),
        spin_up=spin_up,
        spin_down=spin_down,
        setup=SGSetup(
            b0=v["setup"]["b0"],
            b_grad=v["setup"]["b_grad"],
            mu=v["setup"]["mu"],
            tau=v["setup"]["tau"],
            t_drift=v["setup"]["t_drift"],
            z_det=v["setup"]["z_det"],
            polarity=v["setup"]["polarity"],
            calibration_up=v["setup"]["calibration_up"],
            calibration_down=v["setup"]["calibration_down"],
            reverse_geometry=v["setup"]["reverse_geometry"],
        ),
        dt=dt,
        record_every=rec,
        substeps=v["numerics"]["substeps"],
        t_total=v[command]["t_total"] if command in ("propagate", "trajectories") else v["propagate"]["t_total"],
        q_points=v["contextuality"]["q_points"],
        q_span=v["contextuality"]["q_span"],
        pointer_state=pointer_state,
        spec_file=v["pointer"]["spec_file"],
    )


# ---------------------------------------------------------------- output

def _ffmt(x: float) -> str:
    return repr(float(x))


def _cfmt(z: complex) -> str:
    return repr(complex(z))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(val) for k, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _cfmt(complex(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return None if not math.isfinite(x) else x
    return obj


def _csv_file(header: str, rows) -> str:
    lines = [f"# bohmlab-csv v{CSV_SCHEMA_VERSION}: {header}", header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _numerics(config: RunConfig) -> SGNumerics:
    return SGNumerics(
        grid_n=config.grid_n,
        x_min=config.x_min,
        x_max=config.x_max,
        dt=config.dt,
        record_every=config.record_every,
        substeps=config.substeps,
    )


def _normalized_spin(a: complex, b: complex) -> tuple[complex, complex]:
    norm = math.hypot(abs(a), abs(b))
    return a / norm, b / norm


def _echo_params(config: RunConfig) -> dict:
    s = config.setup
    return {
        "grid": {"n": config.grid_n, "x_min": config.x_min, "x_max": config.x_max},
        "packet": {
            "center": config.packet.center,
            "sigma": config.packet.sigma,
            "k": config.packet.k,
            "spin_up": _cfmt(config.spin_up),
            "spin_down": _cfmt(config.spin_down),
        },
        "setup": {
            "b0": s.b0,
            "b_grad": s.b_grad,
            "mu": s.mu,
            "tau": s.tau,
            "t_drift": s.t_drift,
            "z_det": s.z_det,
            "polarity": s.polarity,
            "calibration_up": s.calibration_up,
            "calibration_down": s.calibration_down,
            "reverse_geometry": s.reverse_geometry,
        },
        "numerics": {
            "dt": config.dt,
            "record_every": config.record_every,
            "substeps": config.substeps,
        },
        "n_samples": config.n_samples,
        "formats": list(config.formats),
    }


def _summary_json(config: RunConfig, theoretical, empirical, stderr, checks, extra_params=None) -> str:
    params = _echo_params(config)
    if extra_params:
        params.update(extra_params)
    doc = {
        "command": config.command,
        "params": params,
        "seed": config.seed,
        "theoretical": theoretical,
        "empirical": empirical,
        "stderr_estimates": stderr,
        "checks_passed": checks,
        "versions": {
            "package": __version__,
            "csv_schema": CSV_SCHEMA_VERSION,
            "summary_schema": 1,
        },
    }
    return json.dumps(_jsonify(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _claim(value, definition: str) -> dict:
    return {"value": value, "definition": definition}


BORN_DEF = "born_weight: p_a = ||P_a psi||^2"
EXPECT_DEF = "calibrated_expectation: sum_a p_a lambda_a = <psi, A psi>"


# ---------------------------------------------------------------- drivers

def _moments(field) -> tuple[float, float, float]:
    rho = density(field)
    dx = field.grid.dx
    xs = field.grid.xs()
    total = float(np.sum(rho) * dx)
    center = float(np.sum(xs * rho) * dx / total)
    var = float(np.sum((xs - center) ** 2 * rho) * dx / total)
    return math.sqrt(total), center, math.sqrt(max(var, 0.0))


def _free_timeline(config: RunConfig):
    grid = make_grid(config.grid_n, config.x_min, config.x_max)
    a, b = _normalized_spin(config.spin_up, config.spin_down)
    psi0 = gaussian_packet(
        grid, config.packet.center, config.packet.sigma, config.packet.k, a, b
    )
    return evolve(psi0, HamiltonianSpec.free(grid), config.t_total, config.dt, config.record_every), (a, b)


def _run_propagate(config: RunConfig, threads: int) -> dict[str, str]:
    timeline, (a, b) = _free_timeline(config)
    rows = []
    norms, centers, widths = [], [], []
    for i, field in enumerate(timeline.fields):
        norm, center, width = _moments(field)
        norms.append(norm)
        centers.append(center)
        widths.append(width)
        rows.append(
            ",".join(
                [str(i), _ffmt(timeline.times[i]), _ffmt(norm), _ffmt(center), _ffmt(width)]
            )
        )
    sigma0 = config.packet.sigma
    t_end = config.t_total
    width_theory = sigma0 * math.sqrt(1.0 + (t_end / (2.0 * sigma0**2)) ** 2)
    center_theory = config.packet.center + config.packet.k * t_end
    norm_drift = max(abs(x - 1.0) for x in norms)
    checks = {
        "width_within_1pct": abs(widths[-1] - width_theory) <= 0.01 * width_theory,
        "center_within_1e-6": abs(centers[-1] - center_theory) <= 1e-6 * max(1.0, abs(center_theory)),
        "norm_drift_le_1e-10": norm_drift <= 1e-10,
    }
    theoretical = {
        "width_final": _claim(
            width_theory,
            "free_gaussian_width: sigma(t) = sigma0 sqrt(1 + (t / (2 sigma0^2))^2)",
        ),
        "center_final": _claim(center_theory, "free_drift: center(t) = center0 + k t"),
        "norm": _claim(1.0, "unitarity: the propagator preserves the norm"),
    }
    empirical = {
        "width_final": widths[-1],
        "center_final": centers[-1],
        "norm_final": norms[-1],
        "norm_drift_max": norm_drift,
        "boundary_mass_final": float(timeline.boundary_mass[-1]),
    }
    extra = {"t_total": config.t_total, "spin_normalized": [_cfmt(a), _cfmt(b)]}
    return {
        "timeline.csv": _csv_file("index,time,norm,center,width", rows),
        "summary.json": _summary_json(config, theoretical, empirical, {}, checks, extra),
    }


def _run_trajectories(config: RunConfig, threads: int) -> dict[str, str]:
    timeline, (a, b) = _free_timeline(config)
    q0 = sample(timeline.fields[0], config.n_samples, config.seed)
    paths = integrate_ensemble(
        timeline, q0, dt_traj=_numerics(config).dt_traj, keep_history=False, threads=threads
    )
    ks = ks_distance(paths.q_final, timeline.fields[-1])
    band = KS_COEFF / math.sqrt(config.n_samples)
    rows = [
        f"{i},{_ffmt(paths.q0[i])},{_ffmt(paths.q_final[i])},,"
        for i in range(config.n_samples)
    ]
    checks = {"equivariance_ks_within_band": ks <= band}
    theoretical = {
        "ks_band": _claim(
            band,
            f"ks_band: {KS_COEFF} / sqrt(n), the 5% acceptance band for the "
            "distance between transported samples and the evolved density",
        )
    }
    empirical = {"ks_distance": ks}
    stderr = {"ks_distance": band / 3.0}
    extra = {"t_total": config.t_total, "spin_normalized": [_cfmt(a), _cfmt(b)]}
    return {
        "ensemble.csv": _csv_file("index,q0,q_final,outcome,lambda", rows),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks, extra),
    }


def _run_splitting(config: RunConfig, threads: int, calibrated: bool) -> dict[str, str]:
    a, b = _normalized_spin(config.spin_up, config.spin_down)
    numerics = _numerics(config)
    timeline = build_timeline(config.setup, a, b, config.packet, numerics)
    stats, ensemble = run_sg(
        config.setup,
        a,
        b,
        config.packet,
        config.n_samples,
        config.seed,
        numerics,
        keep_history=False,
        threads=threads,
        timeline=timeline,
    )
    overlap = branch_overlap(timeline.fields[-1])
    rows = []
    for i in range(config.n_samples):
        lam = ensemble.lambdas[i]
        rows.append(
            ",".join(
                [
                    str(i),
                    _ffmt(ensemble.q0[i]),
                    _ffmt(ensemble.q_final[i]),
                    str(ensemble.outcomes[i]),
                    "" if math.isnan(lam) else _ffmt(lam),
                ]
            )
        )
    p = stats.born["up"]
    n_detected = stats.counts["up"] + stats.counts["down"]
    freq_detected = stats.counts["up"] / n_detected if n_detected else float("nan")
    band = 3.0 * math.sqrt(p * (1.0 - p) / config.n_samples)
    checks = {
        "born_within_3sigma": n_detected > 0 and abs(freq_detected - p) <= band,
        "null_fraction_le_1pct": stats.null_fraction <= 0.01,
    }
    theoretical = {
        "p_up": _claim(p, BORN_DEF),
        "p_down": _claim(stats.born["down"], BORN_DEF),
        "null_fraction": _claim(
            0.0, "ideal_detection: fully separated branches land on the detectors"
        ),
    }
    empirical = {
        "counts": stats.counts,
        "freq_up": stats.frequencies["up"],
        "freq_down": stats.frequencies["down"],
        "freq_up_detected": freq_detected,
        "null_fraction": stats.null_fraction,
        "branch_overlap_final": overlap,
    }
    stderr = {"freq_up": math.sqrt(p * (1.0 - p) / config.n_samples)}
    if calibrated:
        se = stats.stderr_mean
        ok = (
            math.isfinite(se)
            and abs(stats.calibrated_mean - stats.expectation_theory) <= 3.0 * se
        ) or (se == 0.0 and stats.calibrated_mean == stats.expectation_theory)
        checks["calibrated_mean_within_3se"] = ok
        checks["branch_overlap_le_1e-4"] = overlap <= 1e-4
        theoretical["calibrated_expectation"] = _claim(stats.expectation_theory, EXPECT_DEF)
        empirical["calibrated_mean"] = stats.calibrated_mean
        stderr["calibrated_mean"] = se
    extra = {"spin_normalized": [_cfmt(a), _cfmt(b)]}
    return {
        "ensemble.csv": _csv_file("index,q0,q_final,outcome,lambda", rows),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks, extra),
    }


def _run_contextuality(config: RunConfig, threads: int) -> dict[str, str]:
    a, b = _normalized_spin(config.spin_up, config.spin_down)
    q_grid = np.linspace(-config.q_span, config.q_span, config.q_points)
    report = contextuality_demo(
        config.setup,
        a,
        b,
        config.packet,
        q_grid,
        n=config.n_samples,
        seed=config.seed,
        numerics=_numerics(config),
        threads=threads,
    )
    rows = []
    for i in range(q_grid.size):
        lb, lr = report.lambda_base[i], report.lambda_reversed[i]
        rows.append(
            ",".join(
                [
                    str(i),
                    _ffmt(q_grid[i]),
                    "" if math.isnan(lb) else _ffmt(lb),
                    "" if math.isnan(lr) else _ffmt(lr),
                ]
            )
        )
    sb, sr = report.stats_base, report.stats_reversed
    checks = {
        "pointwise_opposite": report.pointwise_opposite,
        "born_base_within_3sigma": report.born_ok_base,
        "born_reversed_within_3sigma": report.born_ok_reversed,
    }
    theoretical = {
        "p_up_base": _claim(sb.born["up"], BORN_DEF),
        "p_up_reversed": _claim(sr.born["up"], BORN_DEF),
        "calibrated_expectation": _claim(sb.expectation_theory, EXPECT_DEF),
    }
    empirical = {
        "freq_up_base": sb.frequencies["up"],
        "freq_up_reversed": sr.frequencies["up"],
        "calibrated_mean_base": sb.calibrated_mean,
        "calibrated_mean_reversed": sr.calibrated_mean,
        "n_null_base": report.n_null_base,
        "n_null_reversed": report.n_null_reversed,
    }
    pb, pr = sb.born["up"], sr.born["up"]
    stderr = {
        "freq_up_base": math.sqrt(pb * (1.0 - pb) / config.n_samples),
        "freq_up_reversed": math.sqrt(pr * (1.0 - pr) / config.n_samples),
        "calibrated_mean_base": sb.stderr_mean,
        "calibrated_mean_reversed": sr.stderr_mean,
    }
    extra = {
        "q_points": config.q_points,
        "q_span": config.q_span,
        "spin_normalized": [_cfmt(a), _cfmt(b)],
    }
    return {
        "outcome_map.csv": _csv_file("index,q0,lambda_base,lambda_reversed", rows),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks, extra),
    }


def _default_pointer_spec() -> ExperimentSpec:
    up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    down = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    return ExperimentSpec(dim=2, outcomes=(Outcome("up", up, 1.0), Outcome("down", down, -1.0)))


def _run_pointer(config: RunConfig, threads: int) -> dict[str, str]:
    if config.spec_file is not None:
        spec = spec_from_text(Path(config.spec_file).read_text())
    else:
        spec = _default_pointer_spec()
    vec = np.array(config.pointer_state, dtype=np.complex128)
    if vec.size != spec.dim:
        raise ValueError(
            f"pointer state has {vec.size} components but the experiment has dimension {spec.dim}"
        )
    psi = StateVec.normalized(vec)
    born = born_probabilities(psi, spec)
    result = pointer_model(psi, spec)
    deviation = float(np.max(np.abs(result.marginals - born)))
    weighted = float(np.dot(born, spec.calibrations()))
    quadratic = expectation(psi, spec)
    checks = {
        "marginals_match_born": deviation <= 1e-12,
        "expectation_identity": abs(weighted - quadratic) <= 1e-12,
        "reproducible": reproducibility_check(psi, spec),
    }
    labels = spec.labels()
    theoretical = {
        "born": _claim({lbl: float(pv) for lbl, pv in zip(labels, born)}, BORN_DEF),
        "expectation": _claim(weighted, EXPECT_DEF),
    }
    empirical = {
        "marginals": {lbl: float(m) for lbl, m in zip(labels, result.marginals)},
        "max_marginal_deviation": deviation,
        "expectation_quadratic_form": quadratic,
        "pointer_dim": result.pointer_dim,
        "composite_dim": result.system_dim * result.pointer_dim,
    }
    extra = {
        "pointer_state": [_cfmt(z) for z in config.pointer_state],
        "pointer_state_normalized": [_cfmt(z) for z in psi.vec],
        "spec_file": config.spec_file,
        "outcome_labels": list(labels),
    }
    return {"summary.json": _summary_json(config, theoretical, empirical, {}, checks, extra)}


def _run_nogo(config: RunConfig, threads: int) -> dict[str, str]:
    witness = contextual_witness()
    checks = {
        "all_candidates_examined": witness.n_candidates == 512,
        "parity_obstruction": witness.n_consistent == 0 and witness.parity_product == -1,
    }
    theoretical = {
        "consistent_assignments": _claim(
            0,
            "parity_obstruction: each entry appears in exactly one row and one "
            "column constraint, so the product of all six constraints is +1 "
            "while the sign targets multiply to -1",
        )
    }
    empirical = {
        "candidates_examined": witness.n_candidates,
        "consistent_assignments": witness.n_consistent,
        "parity_product": witness.parity_product,
        "constraints": list(witness.constraint_lines),
    }
    return {
        "certificate.txt": witness.as_text() + "\n",
        "summary.json": _summary_json(config, theoretical, empirical, {}, checks),
    }


_DRIVERS = {
    "propagate": _run_propagate,
    "trajectories": _run_trajectories,
    "born-check": lambda cfg, th: _run_splitting(cfg, th, calibrated=False),
    "stern-gerlach": lambda cfg, th: _run_splitting(cfg, th, calibrated=True),
    "contextuality": _run_contextuality,
    "pointer-model": _run_pointer,
    "nogo": _run_nogo,
}


# ---------------------------------------------------------------- runner

def _write_artifacts(out_dir: str, artifacts: dict[str, str]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name in sorted(artifacts):
            path = out / name
            path.write_text(artifacts[name])
            written.append(path)
    except BaseException:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def _selected(artifacts: dict[str, str], formats: tuple[str, ...]) -> dict[str, str]:
    keep = {}
    for name, content in artifacts.items():
        ext = name.rsplit(".", 1)[-1]
        if ext in FORMATS and ext not in formats:
            continue
        keep[name] = content
    return keep


def run(config: RunConfig, *, threads: int = 1) -> int:
    """Execute one command; artifacts land in config.out only on success."""
    try:
        artifacts = _DRIVERS[config.command](config, max(1, int(threads)))
        _write_artifacts(config.out, _selected(artifacts, config.formats))
    except (ValueError, RuntimeError, OSError) as exc:
        report = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": config.command,
        }
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohmlab",
        description="Deterministic batch runner for guided-wave experiments.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", default=None, help="override the configured output directory")
    parser.add_argument(
        "--format", dest="formats", default=None, help="override the configured formats, e.g. csv,json"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="at most this many worker threads; outputs do not depend on this"
    )
    args = parser.parse_args(argv)

    def config_failure(messages) -> int:
        report = {"error": "ConfigError", "messages": list(messages)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 2

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return config_failure([f"cannot read config file: {exc}"])
    try:
        config = parse_config(text)
    except ConfigError as exc:
        return config_failure(exc.errors)

    overrides: dict[str, object] = {}
    override_errors: list[str] = []
    if args.seed is not None:
        if 0 <= args.seed <= SEED_MAX:
            overrides["seed"] = args.seed
        else:
            override_errors.append(f"--seed must lie in [0, 2^64), got {args.seed}")
    if args.out is not None:
        if args.out:
            overrides["out"] = args.out
        else:
            override_errors.append("--out must be a nonempty directory name")
    if args.formats is not None:
        try:
            overrides["formats"] = _parse_formats(args.formats)
        except ValueError as exc:
            override_errors.append(f"--format: {exc}")
    if override_errors:
        return config_failure(override_errors)
    if overrides:
        config = dataclasses.replace(config, **overrides)

    return run(config, threads=max(1, args.threads))


if __name__ == "__main__":
    raise SystemExit(main())
