"""Deterministic batch front end.

Runs are described by a flat sectioned key = value config file, executed
with `bohmlab --config run.cfg`, and produce CSV data files plus a JSON
summary in the output directory.  For a fixed config and seed the output
bytes are identical across reruns and thread counts; nothing
time-dependent enters the data files.

README.md ("Batch CLI") documents every section, key and default.  The
[grid], [packet], [setup] and [numerics] keys are fields of SGNumerics,
PacketSpec and SGSetup, which own their defaults and checks.

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
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# operators and peres_mermin are imported inside the pointer-model and
# nogo drivers, so no other command loads them.
from . import __version__
from .grids import check_packet_fits, gaussian_packet
from .propagation import HamiltonianSpec, evolve, window_steps
from .sampling import KS_COEFF, ks_distance, sample
from .stern_gerlach import (
    PacketSpec,
    SGNumerics,
    SGSetup,
    _check_equal_weights,
    _check_in_support,
    _check_kick_resolved,
    _check_packet_symmetric,
    _check_reversal_setup,
    branch_overlap,
    build_timeline,
    contextuality_demo,
    run_sg,
)
from .trajectories import integrate_ensemble

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

FORMATS = ("csv", "json")
CSV_SCHEMA_VERSION = 1
SEED_MAX = 2**64 - 1
# Ensemble rows rendered from one tolist() of each column: few enough that
# the Python objects add nothing measurable to a run's peak memory.
RENDER_CHUNK = 512


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
    packet: PacketSpec
    spin_up: complex
    spin_down: complex
    setup: SGSetup
    numerics: SGNumerics
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


def _as_count(value: str) -> int:
    n = _as_int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _as_command(value: str) -> str:
    if value not in COMMANDS:
        raise ValueError(f"unknown command {value!r}; one of {', '.join(COMMANDS)}")
    return value


def _as_out(value: str) -> str:
    if not value:
        raise ValueError("must be a nonempty directory name")
    return value


def _as_float(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _as_positive(value: str) -> float:
    x = _as_float(value)
    if x <= 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _as_complex(value: str) -> complex:
    try:
        z = complex(value.replace(" ", ""))
    except ValueError:
        raise ValueError(f"expected a complex number like 0.6+0.8j, got {value!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"expected a finite complex number, got {value!r}")
    return z


def _as_state(value: str) -> tuple[complex, ...]:
    comps = tuple(_as_complex(tok) for tok in value.split())
    if not comps:
        raise ValueError("must hold at least one complex component")
    if all(z == 0 for z in comps):
        raise ValueError("components must not all be zero")
    return comps


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {value!r}")


def _parse_formats(value: str) -> tuple[str, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated subset of {','.join(FORMATS)}")
    bad = [p for p in parts if p not in FORMATS]
    if bad:
        raise ValueError(f"unknown format(s) {', '.join(map(repr, bad))}; choose from {FORMATS}")
    return tuple(dict.fromkeys(parts))  # first occurrence of each, in order


# Sections whose keys are dataclass fields: section -> (class, {key: field}).
# [grid] holds the SGNumerics fields that make the grid, [numerics] the rest.
_GRID_KEYS = {"n": "grid_n", "x_min": "x_min", "x_max": "x_max"}
_FIELD_SECTIONS = {
    "grid": (SGNumerics, _GRID_KEYS),
    "packet": (PacketSpec, {f.name: f.name for f in dataclasses.fields(PacketSpec)}),
    "setup": (SGSetup, {f.name: f.name for f in dataclasses.fields(SGSetup)}),
    "numerics": (
        SGNumerics,
        {f.name: f.name for f in dataclasses.fields(SGNumerics) if f.name not in _GRID_KEYS.values()},
    ),
}

# Field annotations are strings under `from __future__ import annotations`.
_CONVERTERS = {"int": _as_int, "float": _as_float, "bool": _as_bool}


def _field_schema(section: str) -> dict[str, tuple]:
    cls, keys = _FIELD_SECTIONS[section]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    return {
        key: (_CONVERTERS[fields[name].type], fields[name].default) for key, name in keys.items()
    }


_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "command": (_as_command, None),
        "seed": (_as_seed, 0),
        "n_samples": (_as_count, 10_000),
        "out": (_as_out, "out"),
        "format": (_parse_formats, ("csv", "json")),
    },
    "grid": _field_schema("grid"),
    "packet": {
        **_field_schema("packet"),
        "spin_up": (_as_complex, complex(1.0)),
        "spin_down": (_as_complex, complex(0.0)),
    },
    "setup": _field_schema("setup"),
    "numerics": _field_schema("numerics"),
    "propagate": {"t_total": (_as_positive, 2.0)},
    "trajectories": {"t_total": (_as_positive, 2.0)},
    "contextuality": {"q_points": (_as_count, 99), "q_span": (_as_positive, 2.5)},
    "pointer": {"state": (_as_state, (0.6 + 0j, 0.8 + 0j)), "spec_file": (str, None)},
}

_SPLITTING_COMMANDS = ("born-check", "stern-gerlach", "contextuality")
_FREE_COMMANDS = ("propagate", "trajectories")


def parse_config(text: str) -> RunConfig:
    """Validate the whole config, reporting every problem at once.

    The [grid], [packet], [setup] and [numerics] values are checked by
    constructing SGNumerics, PacketSpec and SGSetup from them, plus the
    library checks the command will meet: the grid, the packet fitting
    it, the splitting preconditions, the magnet's kick inside the grid's
    band and the tiling of each window.
    """
    sections, section_lines, errors = _tokenize(text)

    def fail(section: str, key: str | None, message: str) -> None:
        """Report on the key's line, or on the section header's if key is None."""
        if key is None:
            lineno, label = section_lines.get(section), f"[{section}]"
        else:
            lineno, label = sections.get(section, {}).get(key, (None, None))[1], f"[{section}] {key}:"
        errors.append(f"line {lineno}: {label} {message}" if lineno else f"{label} {message}")

    def check(section: str, key: str, rule, *args) -> None:
        """Run a library check; a ValueError is reported on the key's line."""
        try:
            rule(*args)
        except ValueError as exc:
            fail(section, key, str(exc))

    for name, keys in sections.items():
        if name not in _SCHEMA:
            errors.append(f"line {section_lines[name]}: unknown section [{name}]")
            continue
        for key, (_, lineno) in keys.items():
            if key not in _SCHEMA[name]:
                errors.append(f"line {lineno}: unknown key {key!r} in section [{name}]")

    values: dict[str, dict] = {}
    for name, schema in _SCHEMA.items():
        values[name] = {}
        present = sections.get(name, {})
        for key, (converter, default) in schema.items():
            values[name][key] = default
            if key in present:
                try:
                    values[name][key] = converter(present[key][0])
                except ValueError as exc:
                    fail(name, key, str(exc))

    def construct(cls, check):
        """cls built from the values of its keys and passed to check, or None.

        When that raises, each key the config sets is tried on its own,
        the other fields at their defaults: a key that fails alone is
        reported on its line, and a failure that only the remaining keys
        together produce goes to the header of the class's first section.
        """
        parts = [s for s, (c, _) in _FIELD_SECTIONS.items() if c is cls]
        items = [
            (s, key, name, values[s][key])
            for s in parts
            for key, name in _FIELD_SECTIONS[s][1].items()
            if key in sections.get(s, {})
        ]

        def attempt(chosen):
            obj = cls(**{name: value for _, _, name, value in chosen})
            check(obj)
            return obj

        try:
            return attempt(items)
        except ValueError:
            pass
        kept = []
        for item in items:
            try:
                attempt([item])
            except ValueError as exc:
                fail(item[0], item[1], str(exc))
            else:
                kept.append(item)
        try:
            attempt(kept)
        except ValueError as exc:
            fail(parts[0], None, str(exc))
        return None

    v = values
    command = v["run"]["command"]
    if "command" not in sections.get("run", {}):
        fail("run", "command", f"required; one of {', '.join(COMMANDS)}")

    splitting = command in _SPLITTING_COMMANDS
    numerics = construct(SGNumerics, SGNumerics.grid)
    grid = numerics.grid() if numerics is not None else None

    def check_packet(packet: PacketSpec) -> None:
        if grid is not None:
            check_packet_fits(grid, packet.center, packet.sigma, packet.k)
        if splitting:
            _check_packet_symmetric(packet)

    def check_setup(setup: SGSetup) -> None:
        if splitting:
            setup.upper_branch  # raises when mu * b_grad = 0
            if packet is not None and grid is not None:
                _check_kick_resolved(setup, packet, grid)
        if command == "contextuality":
            _check_reversal_setup(setup)

    packet = construct(PacketSpec, check_packet)
    setup = construct(SGSetup, check_setup)

    spin_up, spin_down = v["packet"]["spin_up"], v["packet"]["spin_down"]
    if spin_up == 0 and spin_down == 0:
        fail("packet", "spin_up", "spin_up and spin_down must not both be zero")

    # Every window the command evolves must tile into whole record intervals.
    windows = []
    if command in _FREE_COMMANDS:
        windows.append((command, "t_total", v[command]["t_total"]))
    if splitting and setup is not None:
        windows += [("setup", "tau", setup.tau), ("setup", "t_drift", setup.t_drift)]
    for section, key, window in windows:
        if numerics is not None and window > 0:  # build_timeline skips a zero drift
            check(section, key, window_steps, window, numerics.dt, numerics.record_every, key)

    if command == "contextuality":
        check("packet", "spin_up", _check_equal_weights, spin_up, spin_down)
        if packet is not None:  # the outcome grid spans [-q_span, q_span]
            q_span = v["contextuality"]["q_span"]
            check("contextuality", "q_span", _check_in_support, (-q_span, q_span), packet)

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        command=command,
        seed=v["run"]["seed"],
        n_samples=v["run"]["n_samples"],
        out=v["run"]["out"],
        formats=v["run"]["format"],
        packet=packet,
        spin_up=spin_up,
        spin_down=spin_down,
        setup=setup,
        numerics=numerics,
        t_total=v[command]["t_total"] if command in _FREE_COMMANDS else v["propagate"]["t_total"],
        q_points=v["contextuality"]["q_points"],
        q_span=v["contextuality"]["q_span"],
        pointer_state=v["pointer"]["state"],
        spec_file=v["pointer"]["spec_file"] or None,
    )


# ---------------------------------------------------------------- output

def _ffmt(x: float) -> str:
    return repr(float(x))


def _cfmt(z: complex) -> str:
    return repr(complex(z))


def _lfmt(lam: float) -> str:
    """A calibrated outcome value; empty for the null outcome (NaN)."""
    return "" if math.isnan(lam) else _ffmt(lam)


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


def _ensemble_csv(q0, q_final, outcomes, lam_text: dict) -> str:
    """ensemble.csv: lam_text renders each outcome's calibration.

    Rows are rendered RENDER_CHUNK at a time; Python floats from tolist()
    print as _ffmt prints numpy's, in less time.
    """
    rows = []
    for lo in range(0, q0.size, RENDER_CHUNK):
        chunk = zip(*(c[lo:lo + RENDER_CHUNK].tolist() for c in (q0, q_final, outcomes)))
        rows += [
            f"{i},{a!r},{b!r},{outcome},{lam_text[outcome]}"
            for i, (a, b, outcome) in enumerate(chunk, lo)
        ]
    return _csv_file("index,q0,q_final,outcome,lambda", rows)


def _normalized_spin(config: RunConfig) -> tuple[complex, complex]:
    """The packet's spinor scaled to unit norm, as the packet commands use it."""
    norm = math.hypot(abs(config.spin_up), abs(config.spin_down))
    return config.spin_up / norm, config.spin_down / norm


def _echo_params(config: RunConfig) -> dict:
    objects = {SGNumerics: config.numerics, PacketSpec: config.packet, SGSetup: config.setup}
    params: dict = {
        section: {key: getattr(objects[cls], name) for key, name in keys.items()}
        for section, (cls, keys) in _FIELD_SECTIONS.items()
    }
    params["packet"].update(spin_up=_cfmt(config.spin_up), spin_down=_cfmt(config.spin_down))
    if config.command in _FREE_COMMANDS + _SPLITTING_COMMANDS:
        params["spin_normalized"] = [_cfmt(z) for z in _normalized_spin(config)]
    params["n_samples"] = config.n_samples
    params["formats"] = list(config.formats)
    return params


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

def _free_timeline(config: RunConfig):
    nm = config.numerics
    grid = nm.grid()
    psi0 = gaussian_packet(
        grid, config.packet.center, config.packet.sigma, config.packet.k, *_normalized_spin(config)
    )
    return evolve(psi0, HamiltonianSpec.free(grid), config.t_total, nm.dt, nm.record_every)


def _run_propagate(config: RunConfig, threads: int) -> dict[str, str]:
    timeline = _free_timeline(config)
    norms, centers, widths = zip(*(field.moments() for field in timeline.fields))
    rows = [
        f"{i},{_ffmt(t)},{_ffmt(norm)},{_ffmt(center)},{_ffmt(width)}"
        for i, (t, norm, center, width) in enumerate(zip(timeline.times, norms, centers, widths))
    ]
    center_theory, width_theory = config.packet.free_center_width(config.t_total)
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
    extra = {"t_total": config.t_total}
    return {
        "timeline.csv": _csv_file("index,time,norm,center,width", rows),
        "summary.json": _summary_json(config, theoretical, empirical, {}, checks, extra),
    }


def _run_trajectories(config: RunConfig, threads: int) -> dict[str, str]:
    timeline = _free_timeline(config)
    q0 = sample(timeline.fields[0], config.n_samples, config.seed)
    paths = integrate_ensemble(
        timeline, q0, dt_traj=config.numerics.dt_traj, keep_history=False, threads=threads
    )
    ks = ks_distance(paths.q_final, timeline.fields[-1])
    band = KS_COEFF / math.sqrt(config.n_samples)
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
    extra = {"t_total": config.t_total}
    # no detectors: the outcome and lambda cells stay empty
    no_outcome = np.full(config.n_samples, "")
    return {
        "ensemble.csv": _ensemble_csv(paths.q0, paths.q_final, no_outcome, {"": ""}),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks, extra),
    }


def _run_splitting(config: RunConfig, threads: int, calibrated: bool) -> dict[str, str]:
    a, b = _normalized_spin(config)
    timeline = build_timeline(config.setup, a, b, config.packet, config.numerics)
    stats, ensemble = run_sg(
        config.setup,
        a,
        b,
        config.packet,
        config.n_samples,
        config.seed,
        config.numerics,
        keep_history=False,
        threads=threads,
        timeline=timeline,
    )
    overlap = branch_overlap(timeline.fields[-1])
    lam_text = {
        "up": _lfmt(config.setup.calibration_up),
        "down": _lfmt(config.setup.calibration_down),
        "null": "",
    }
    checks = {
        "born_within_3sigma": stats.born_within_3sigma,
        "null_fraction_le_1pct": stats.null_fraction <= 0.01,
    }
    theoretical = {
        "p_up": _claim(stats.born["up"], BORN_DEF),
        "p_down": _claim(stats.born["down"], BORN_DEF),
        "null_fraction": _claim(
            0.0, "ideal_detection: fully separated branches land on the detectors"
        ),
    }
    empirical = {
        "counts": stats.counts,
        "freq_up": stats.frequencies["up"],
        "freq_down": stats.frequencies["down"],
        "freq_up_detected": stats.freq_up_detected,
        "null_fraction": stats.null_fraction,
        "branch_overlap_final": overlap,
    }
    stderr = {"freq_up": stats.stderr_freq_up}
    if calibrated:
        checks["calibrated_mean_within_3se"] = stats.calibrated_within_3se
        checks["branch_overlap_le_1e-4"] = overlap <= 1e-4
        theoretical["calibrated_expectation"] = _claim(stats.expectation_theory, EXPECT_DEF)
        empirical["calibrated_mean"] = stats.calibrated_mean
        stderr["calibrated_mean"] = stats.stderr_mean
    return {
        "ensemble.csv": _ensemble_csv(ensemble.q0, ensemble.q_final, ensemble.outcomes, lam_text),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks),
    }


def _run_contextuality(config: RunConfig, threads: int) -> dict[str, str]:
    q_grid = np.linspace(-config.q_span, config.q_span, config.q_points)
    report = contextuality_demo(
        config.setup, *_normalized_spin(config), config.packet, q_grid,
        n=config.n_samples, seed=config.seed, numerics=config.numerics, threads=threads,
    )
    rows = [
        f"{i},{_ffmt(q_grid[i])},{_lfmt(report.lambda_base[i])},{_lfmt(report.lambda_reversed[i])}"
        for i in range(q_grid.size)
    ]
    sb, sr = report.stats_base, report.stats_reversed
    checks = {
        "pointwise_opposite": report.pointwise_opposite,
        "born_base_within_3sigma": sb.born_within_3sigma,
        "born_reversed_within_3sigma": sr.born_within_3sigma,
    }
    theoretical = {
        "p_up_base": _claim(sb.born["up"], BORN_DEF),
        "p_up_reversed": _claim(sr.born["up"], BORN_DEF),
        "calibrated_expectation": _claim(sb.expectation_theory, EXPECT_DEF),
    }
    empirical = {
        "freq_up_base": sb.frequencies["up"],
        "freq_up_reversed": sr.frequencies["up"],
        "freq_up_detected_base": sb.freq_up_detected,
        "freq_up_detected_reversed": sr.freq_up_detected,
        "calibrated_mean_base": sb.calibrated_mean,
        "calibrated_mean_reversed": sr.calibrated_mean,
        "n_null_base": report.n_null_base,
        "n_null_reversed": report.n_null_reversed,
    }
    stderr = {
        "freq_up_base": sb.stderr_freq_up,
        "freq_up_reversed": sr.stderr_freq_up,
        "calibrated_mean_base": sb.stderr_mean,
        "calibrated_mean_reversed": sr.stderr_mean,
    }
    extra = {"q_points": config.q_points, "q_span": config.q_span}
    return {
        "outcome_map.csv": _csv_file("index,q0,lambda_base,lambda_reversed", rows),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks, extra),
    }


def _run_pointer(config: RunConfig, threads: int) -> dict[str, str]:
    from .operators import (
        ExperimentSpec,
        Outcome,
        StateVec,
        born_probabilities,
        build_observable,
        expectation,
        pointer_model,
        reproducibility_check,
        spec_from_text,
    )

    if config.spec_file is not None:
        spec = spec_from_text(Path(config.spec_file).read_text())
    else:
        up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        down = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
        spec = ExperimentSpec(dim=2, outcomes=(Outcome("up", up, 1.0), Outcome("down", down, -1.0)))
    psi = StateVec.normalized(config.pointer_state)
    born = born_probabilities(psi, spec)
    result = pointer_model(psi, spec)
    deviation = float(np.max(np.abs(result.marginals - born)))
    weighted = expectation(psi, spec)
    quadratic = float(np.vdot(psi.vec, build_observable(spec).entries @ psi.vec).real)
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
    from .peres_mermin import contextual_witness

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
COMMANDS = tuple(_DRIVERS)


# ---------------------------------------------------------------- runner

def _write_artifacts(out_dir: str, artifacts: dict[str, str], formats: tuple[str, ...]) -> None:
    """Write the artifacts in the selected formats, plus any plain text.

    Every artifact is first written to a temporary file in out_dir; only
    when all writes have succeeded do they replace the files of an
    earlier run, and then this command's artifacts in the other formats
    are removed, so a file from an earlier run never sits beside this
    run's summary.  A failed write leaves out_dir as it was, without
    temporary files.  Each replace is atomic on its own, not the set: if
    one fails, the files replaced before it (in name order) are this
    run's and the rest the earlier run's.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    left_out = set(FORMATS) - set(formats)
    dropped = {name for name in artifacts if name.rsplit(".", 1)[-1] in left_out}
    staged = [
        (out / f".{name}.{os.getpid()}.tmp", out / name) for name in sorted(artifacts.keys() - dropped)
    ]
    try:
        for temp, path in staged:
            temp.write_text(artifacts[path.name])
        for temp, path in staged:
            os.replace(temp, path)
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
    for name in dropped:
        (out / name).unlink(missing_ok=True)


def run(config: RunConfig, *, threads: int = 1) -> int:
    """Execute one command; artifacts land in config.out only on success."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    try:
        artifacts = _DRIVERS[config.command](config, threads)
        _write_artifacts(config.out, artifacts, config.formats)
    except Exception as exc:  # any driver failure gets the JSON report
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
    parser.add_argument("--seed", default=None, help="override the configured seed")
    parser.add_argument("--out", default=None, help="override the configured output directory")
    parser.add_argument(
        "--format", dest="formats", default=None, help="override the configured formats, e.g. csv,json"
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="at most this many worker processes; outputs do not depend on this"
    )
    args = parser.parse_args(argv)

    # The config's problems and the flags' are reported together, the config's first.
    errors: list[str] = []
    try:
        config = parse_config(Path(args.config).read_text())
    except OSError as exc:
        errors.append(f"cannot read config file: {exc}")
    except ConfigError as exc:
        errors += exc.errors

    overrides: dict[str, object] = {}
    for flag, field, convert in (
        ("--seed", "seed", _as_seed), ("--out", "out", _as_out), ("--format", "formats", _parse_formats)
    ):
        raw = getattr(args, field)
        if raw is not None:
            try:
                overrides[field] = convert(raw)
            except ValueError as exc:
                errors.append(f"{flag}: {exc}")
    if args.threads < 1:
        errors.append(f"--threads must be >= 1, got {args.threads}")
    if errors:
        print(json.dumps({"error": "ConfigError", "messages": errors}, sort_keys=True), file=sys.stderr)
        return 2

    return run(dataclasses.replace(config, **overrides), threads=args.threads)


if __name__ == "__main__":
    raise SystemExit(main())
