"""Deterministic batch front end.

Runs are described by a flat sectioned key = value config file, executed
with `bohmlab --config run.cfg`, and produce CSV data files plus a JSON
summary in the output directory.  For a fixed config the output bytes
are identical across reruns and thread counts; nothing time-dependent
enters the data files.

README.md ("Batch CLI") documents every section, key and default.  The
[grid], [packet], [setup] and [numerics] keys are fields of SGNumerics,
PacketSpec and SGSetup, which own their defaults and checks.  Every
section is parsed and checked; _DRIVERS names the ones each command
reads, and summary.json's params echoes exactly those.  Each check in a
summary is the verdict of the library object that owns its claim.

The default packet spin is spin_up = 1, spin_down = 0: with it born-check
and stern-gerlach run a p = 1 experiment, and contextuality, which needs
|spin_up| = |spin_down| and a packet at center 0 with k 0, rejects the
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
from .grids import _check_int, _unit_vector, check_packet_fits, gaussian_packet
from .propagation import NORM_DEF, HamiltonianSpec, evolve, norm_drift, window_steps
from .sampling import KS_BAND_DEF, _check_seed, ks_distance, ks_verdict, sample
from .stern_gerlach import (
    OutcomeStatistics,
    PacketSpec,
    SGNumerics,
    SGSetup,
    _check_equal_weights,
    _check_in_support,
    _check_kick_resolved,
    _check_packet_symmetric,
    _check_reversal_setup,
    _magnet_hamiltonian,
    branch_overlap,
    branches_separated,
    build_timeline,
    contextuality_demo,
    run_sg,
)
from .trajectories import integrate_ensemble

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

FORMATS = ("csv", "json")
CSV_SCHEMA_VERSION = 1
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
    """A parsed config.  The fields of a section the command does not read
    (see _DRIVERS) hold None."""

    command: str
    seed: int
    n_samples: int
    out: str
    formats: tuple[str, ...]
    packet: PacketSpec | None = None
    spin_up: complex | None = None
    spin_down: complex | None = None
    setup: SGSetup | None = None
    numerics: SGNumerics | None = None
    t_total: float | None = None
    q_points: int | None = None
    q_span: float | None = None
    pointer_state: tuple[complex, ...] | None = None
    spec_file: str | None = None


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


def _int_by(rule, *args):
    """The converter to an int that the library's rule(n, *args) refuses or passes."""
    def convert(value: str) -> int:
        n = _as_int(value)
        rule(n, *args)
        return n
    return convert


def _as_command(value: str) -> str:
    if value not in COMMANDS:
        raise ValueError(f"unknown command {value!r}; one of {', '.join(COMMANDS)}")
    return value


def _as_out(value: str) -> str:
    if not value:
        raise ValueError("must be a nonempty directory name")
    return value


def _as_float(value: str) -> float:
    """A number; the dataclass whose field it fills refuses NaN and inf."""
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None


def _as_positive(value: str) -> float:
    x = _as_float(value)
    if not 0 < x < math.inf:
        raise ValueError(f"must be positive and finite, got {x}")
    return x


def _as_complex(value: str) -> complex:
    """A complex number; _unit_vector refuses a spin or state not finite."""
    try:
        return complex(value.replace(" ", ""))
    except ValueError:
        raise ValueError(f"expected a complex number like 0.6+0.8j, got {value!r}") from None


def _as_state(value: str) -> tuple[complex, ...]:
    comps = tuple(_as_complex(tok) for tok in value.split())
    if not comps:
        raise ValueError("must hold at least one complex component")
    _unit_vector(comps)
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


# Sections whose keys are dataclass fields: section -> (class, the RunConfig
# field that holds it, {key: class field}).  [grid] holds the SGNumerics
# fields that make the grid, [numerics] the rest.
_GRID_KEYS = {"n": "grid_n", "x_min": "x_min", "x_max": "x_max"}
_NUMERICS_KEYS = {f.name: f.name for f in dataclasses.fields(SGNumerics) if f.name not in _GRID_KEYS.values()}
_FIELD_SECTIONS = {
    "grid": (SGNumerics, "numerics", _GRID_KEYS),
    "packet": (PacketSpec, "packet", {f.name: f.name for f in dataclasses.fields(PacketSpec)}),
    "setup": (SGSetup, "setup", {f.name: f.name for f in dataclasses.fields(SGSetup)}),
    "numerics": (SGNumerics, "numerics", _NUMERICS_KEYS),
}

# Field annotations are strings under `from __future__ import annotations`.
_CONVERTERS = {"int": _as_int, "float": _as_float, "bool": _as_bool}


def _field_schema(section: str) -> dict[str, tuple]:
    cls, field, keys = _FIELD_SECTIONS[section]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    return {
        key: (_CONVERTERS[fields[name].type], fields[name].default, field) for key, name in keys.items()
    }


# section -> {key: (converter, default, the RunConfig field the key fills)}
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "command": (_as_command, None, "command"),
        "seed": (_int_by(_check_seed), 0, "seed"),
        "n_samples": (_int_by(_check_int, "ensemble size"), 10_000, "n_samples"),
        "out": (_as_out, "out", "out"),
        "format": (_parse_formats, ("csv", "json"), "formats"),
    },
    "grid": _field_schema("grid"),
    "packet": {
        **_field_schema("packet"),
        "spin_up": (_as_complex, complex(1.0), "spin_up"),
        "spin_down": (_as_complex, complex(0.0), "spin_down"),
    },
    "setup": _field_schema("setup"),
    "numerics": _field_schema("numerics"),
    "propagate": {"t_total": (_as_positive, 2.0, "t_total")},
    "trajectories": {"t_total": (_as_positive, 2.0, "t_total")},
    "contextuality": {
        "q_points": (_int_by(_check_int, "q_points"), 99, "q_points"),
        "q_span": (_as_positive, 2.5, "q_span"),
    },
    "pointer": {
        "state": (_as_state, (0.6 + 0j, 0.8 + 0j), "pointer_state"),
        "spec_file": (lambda value: value or None, None, "spec_file"),  # empty means none
    },
}


def parse_config(text: str) -> RunConfig:
    """Validate the whole config, reporting every problem at once.

    The [grid], [packet], [setup] and [numerics] values are checked by
    constructing SGNumerics, PacketSpec and SGSetup from them, plus the
    library checks the command will meet: the grid, the packet fitting
    it, the packet's spin, the magnet's kick inside the grid's band and
    coupling, the tiling of each window and contextuality's preconditions.
    """
    sections, section_lines, errors = _tokenize(text)

    def fail(section: str, key: str | None, message: str) -> None:
        """Report on the key's line, or on the section header's if key is None."""
        if key is None:
            lineno, label = section_lines.get(section), f"[{section}]"
        else:
            lineno, label = sections.get(section, {}).get(key, (None, None))[1], f"[{section}] {key}:"
        errors.append(f"line {lineno}: {label} {message}" if lineno else f"{label} {message}")

    def check(section: str, key: str, rule, *args):
        """rule(*args), or None once its ValueError is reported on the key's line."""
        try:
            return rule(*args)
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
        for key, (converter, default, _) in schema.items():
            values[name][key] = default
            if key in present:
                try:
                    values[name][key] = converter(present[key][0])
                except ValueError as exc:
                    fail(name, key, str(exc))

    def settle(keys, rule, where):
        """rule(*values) of keys, (section, key) pairs, or None once its
        failure is reported.

        A key the config sets gives its value, the others their defaults.
        A key that fails alone is reported on its line, and what only the
        rest fail together on where.
        """
        def attempt(chosen):
            return rule(*(values[s][k] if (s, k) in chosen else _SCHEMA[s][k][1] for s, k in keys))

        present = [(s, k) for s, k in keys if k in sections.get(s, {})]
        try:
            return attempt(present)
        except ValueError:
            pass
        kept = []
        for item in present:
            try:
                attempt([item])
            except ValueError as exc:
                fail(*item, str(exc))
            else:
                kept.append(item)
        try:
            attempt(kept)
        except ValueError as exc:
            fail(*where, str(exc))
        return None

    def construct(cls, check):
        """cls built from the values of its keys and passed to check, or
        None; what only the keys together fail goes to the header of the
        class's first section."""
        parts = [s for s, (c, _, _) in _FIELD_SECTIONS.items() if c is cls]
        keys = {(s, key): name for s in parts for key, name in _FIELD_SECTIONS[s][2].items()}

        def build(*args):
            obj = cls(**dict(zip(keys.values(), args)))
            check(obj)
            return obj

        return settle(list(keys), build, (parts[0], None))

    v = values
    command = v["run"]["command"]
    if "command" not in sections.get("run", {}):
        fail("run", "command", f"required; one of {', '.join(COMMANDS)}")

    # Every section is checked; a command's own rules follow the sections it
    # reads, and the commands that read [setup] split the packet.
    reads = ("run", *_DRIVERS[command][1]) if command else ("run",)
    splitting = "setup" in reads

    def check_numerics(numerics: SGNumerics) -> None:
        grid = numerics.grid()
        if splitting:  # check_setup builds the magnet's (n, 3) field on it
            try:
                np.empty((grid.n, 3))
            except (MemoryError, ValueError) as exc:
                raise ValueError(f"cannot allocate the magnet field on this grid: {exc}") from None

    numerics = construct(SGNumerics, check_numerics)
    grid = numerics.grid() if numerics is not None else None

    def check_packet(packet: PacketSpec) -> None:
        if grid is not None:
            check_packet_fits(grid, packet.center, packet.sigma, packet.k)
        if command == "contextuality":
            _check_packet_symmetric(packet)

    def check_setup(setup: SGSetup) -> None:
        if splitting and packet is not None and grid is not None:
            _check_kick_resolved(setup, packet, grid)
            _magnet_hamiltonian(setup, grid)  # its coupling, as build_timeline builds it
        if command == "contextuality":
            _check_reversal_setup(setup)

    packet = construct(PacketSpec, check_packet)
    setup = construct(SGSetup, check_setup)

    spins = [("packet", "spin_up"), ("packet", "spin_down")]
    spin = settle(spins, lambda *ab: _unit_vector(ab), spins[0])  # what only both fail goes to spin_up

    # Every window the command evolves must tile into whole record
    # intervals: its key, dt and record_every are settled like a class's
    # fields, what only they together fail going to the window's key.
    windows = [(s, "t_total") for s in reads if "t_total" in v[s]]
    if splitting and setup is not None:
        windows += [("setup", "tau"), ("setup", "t_drift")]
    for section, key in windows:
        if numerics is not None and v[section][key] > 0:  # build_timeline skips a zero drift
            tiling = [(section, key), ("numerics", "dt"), ("numerics", "record_every")]
            settle(tiling, lambda *args: window_steps(*args, key), (section, key))

    if command == "contextuality":
        if spin is not None:  # judged as the run's, scaled to unit norm
            check("packet", "spin_up", _check_equal_weights, *spin)
        if packet is not None:  # the outcome grid spans [-q_span, q_span]
            q_span = v["contextuality"]["q_span"]
            check("contextuality", "q_span", _check_in_support, (-q_span, q_span), packet)

    if errors:
        raise ConfigError(errors)

    built = {"numerics": numerics, "packet": packet, "setup": setup}
    return RunConfig(**{
        field: built[field] if field in built else v[section][key]
        for section in reads
        for key, (_, _, field) in _SCHEMA[section].items()
    })


# ---------------------------------------------------------------- output

def _ffmt(x: float) -> str:
    return repr(float(x))


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
        return repr(complex(obj))
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


def _echo_params(config: RunConfig) -> dict:
    """n_samples and formats, and every value of the sections the command
    reads: a dataclass section's under its keys, another's under its
    RunConfig fields.  Then the packet's spinor scaled to unit norm."""
    params: dict = {"n_samples": config.n_samples, "formats": config.formats}
    for section in _DRIVERS[config.command][1]:
        attrs = _FIELD_SECTIONS[section][2] if section in _FIELD_SECTIONS else None
        for key, (_, _, field) in _SCHEMA[section].items():
            value = getattr(config, field)
            if attrs is None:
                params[field] = value
            else:
                params.setdefault(section, {})[key] = getattr(value, attrs[key]) if key in attrs else value
    if config.spin_up is not None:
        params["spin_normalized"] = _unit_vector((config.spin_up, config.spin_down))
    return params


def _summary_json(config: RunConfig, theoretical, empirical, stderr, checks, derived=None) -> str:
    """derived: values the run derives from its config, echoed beside it."""
    params = {**_echo_params(config), **(derived or {})}
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


# ---------------------------------------------------------------- drivers

def _free_timeline(config: RunConfig):
    nm = config.numerics
    grid = nm.grid()
    psi0 = gaussian_packet(
        grid, config.packet.center, config.packet.sigma, config.packet.k, config.spin_up, config.spin_down
    )
    return evolve(psi0, [(HamiltonianSpec.free(grid), config.t_total)], nm.dt, nm.record_every)


def _run_propagate(config: RunConfig, threads: int) -> dict[str, str]:
    timeline = _free_timeline(config)
    norms, centers, widths = zip(*(field.moments() for field in timeline.fields))
    rows = [
        f"{i},{_ffmt(t)},{_ffmt(norm)},{_ffmt(center)},{_ffmt(width)}"
        for i, (t, norm, center, width) in enumerate(zip(timeline.times, norms, centers, widths))
    ]
    center_theory, width_theory = config.packet.free_center_width(config.t_total)
    width_ok, center_ok = config.packet.free_motion_verdicts(config.t_total, centers[-1], widths[-1])
    drift, unitary = norm_drift(norms)
    checks = {"width_within_1pct": width_ok, "center_within_1e-6": center_ok, "norm_drift_le_1e-10": unitary}
    theoretical = {
        "width_final": _claim(width_theory, PacketSpec.WIDTH_DEF),
        "center_final": _claim(center_theory, PacketSpec.CENTER_DEF),
        "norm": _claim(1.0, NORM_DEF),
    }
    empirical = {
        "width_final": widths[-1],
        "center_final": centers[-1],
        "norm_final": norms[-1],
        "norm_drift_max": drift,
        "boundary_mass_final": float(timeline.boundary_mass[-1]),
    }
    return {
        "timeline.csv": _csv_file("index,time,norm,center,width", rows),
        "summary.json": _summary_json(config, theoretical, empirical, {}, checks),
    }


def _run_trajectories(config: RunConfig, threads: int) -> dict[str, str]:
    timeline = _free_timeline(config)
    q0 = sample(timeline.fields[0], config.n_samples, config.seed)
    paths = integrate_ensemble(timeline, q0, dt_traj=config.numerics.dt_traj, threads=threads)
    ks = ks_distance(paths.q_final, timeline.fields[-1])
    within, band, error = ks_verdict(ks, config.n_samples)
    checks = {"equivariance_ks_within_band": within}
    theoretical = {"ks_band": _claim(band, KS_BAND_DEF)}
    empirical = {"ks_distance": ks}
    stderr = {"ks_distance": error}
    # no detectors: the outcome and lambda cells stay empty
    no_outcome = np.full(config.n_samples, "")
    return {
        "ensemble.csv": _ensemble_csv(paths.q0, paths.q_final, no_outcome, {"": ""}),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks),
    }


def _run_splitting(config: RunConfig, threads: int) -> dict[str, str]:
    """born-check, and stern-gerlach, which also judges the calibrated mean."""
    a, b = config.spin_up, config.spin_down
    timeline = build_timeline(config.setup, a, b, config.packet, config.numerics)
    stats, ensemble = run_sg(
        config.setup,
        a,
        b,
        config.packet,
        config.n_samples,
        config.seed,
        config.numerics,
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
        "null_fraction_le_1pct": stats.null_fraction_le_1pct,
    }
    theoretical = {
        "p_up": _claim(stats.born["up"], stats.BORN_DEF),
        "p_down": _claim(stats.born["down"], stats.BORN_DEF),
        "null_fraction": _claim(0.0, stats.NULL_DEF),
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
    if config.command == "stern-gerlach":
        checks["calibrated_mean_within_3se"] = stats.calibrated_within_3se
        checks["branch_overlap_le_1e-4"] = branches_separated(overlap)
        theoretical["calibrated_expectation"] = _claim(stats.expectation_theory, stats.EXPECT_DEF)
        empirical["calibrated_mean"] = stats.calibrated_mean
        stderr["calibrated_mean"] = stats.stderr_mean
    return {
        "ensemble.csv": _ensemble_csv(ensemble.q0, ensemble.q_final, ensemble.outcomes, lam_text),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks),
    }


def _run_contextuality(config: RunConfig, threads: int) -> dict[str, str]:
    q_grid = np.linspace(-config.q_span, config.q_span, config.q_points)
    report = contextuality_demo(
        config.setup, config.spin_up, config.spin_down, config.packet, q_grid,
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
        "p_up_base": _claim(sb.born["up"], sb.BORN_DEF),
        "p_up_reversed": _claim(sr.born["up"], sr.BORN_DEF),
        "calibrated_expectation": _claim(sb.expectation_theory, sb.EXPECT_DEF),
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
    return {
        "outcome_map.csv": _csv_file("index,q0,lambda_base,lambda_reversed", rows),
        "summary.json": _summary_json(config, theoretical, empirical, stderr, checks),
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
        within_tolerance,
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
        "marginals_match_born": within_tolerance(deviation),
        "expectation_identity": within_tolerance(abs(weighted - quadratic)),
        "reproducible": reproducibility_check(psi, spec),
    }
    labels = spec.labels()
    theoretical = {
        "born": _claim({lbl: float(pv) for lbl, pv in zip(labels, born)}, OutcomeStatistics.BORN_DEF),
        "expectation": _claim(weighted, OutcomeStatistics.EXPECT_DEF),
    }
    empirical = {
        "marginals": {lbl: float(m) for lbl, m in zip(labels, result.marginals)},
        "max_marginal_deviation": deviation,
        "expectation_quadratic_form": quadratic,
        "pointer_dim": result.pointer_dim,
        "composite_dim": result.system_dim * result.pointer_dim,
    }
    derived = {"pointer_state_normalized": psi.vec, "outcome_labels": labels}
    return {"summary.json": _summary_json(config, theoretical, empirical, {}, checks, derived)}


def _run_nogo(config: RunConfig, threads: int) -> dict[str, str]:
    from .peres_mermin import contextual_witness

    witness = contextual_witness()
    checks = {
        "all_candidates_examined": witness.all_candidates_examined,
        "parity_obstruction": witness.parity_obstruction,
    }
    theoretical = {"consistent_assignments": _claim(0, witness.PARITY_DEF)}
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


# command -> (driver, the sections it reads besides [run]).  parse_config
# fills the RunConfig fields of these sections only, and summary.json
# echoes them; the other sections are parsed and checked, not read.
_DRIVERS = {
    "propagate": (_run_propagate, ("grid", "packet", "numerics", "propagate")),
    "trajectories": (_run_trajectories, ("grid", "packet", "numerics", "trajectories")),
    "born-check": (_run_splitting, ("grid", "packet", "setup", "numerics")),
    "stern-gerlach": (_run_splitting, ("grid", "packet", "setup", "numerics")),
    "contextuality": (_run_contextuality, ("grid", "packet", "setup", "numerics", "contextuality")),
    "pointer-model": (_run_pointer, ("pointer",)),
    "nogo": (_run_nogo, ()),
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
    _check_int(threads, "threads")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # a fault is the JSON error
            artifacts = _DRIVERS[config.command][0](config, threads)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is reported as a config problem is: one JSON line."""
        self.exit(2, json.dumps({"error": "ConfigError", "messages": [message]}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = _Parser(prog="bohmlab", description="Deterministic batch runner for guided-wave experiments.")
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument(
        "--threads", default="1", help="at most this many worker processes; outputs do not depend on this"
    )
    args = parser.parse_args(argv)

    # The config's problems and the flag's are reported together, the config's first.
    errors: list[str] = []
    try:
        config = parse_config(Path(args.config).read_text())
    except OSError as exc:
        errors.append(f"cannot read config file: {exc}")
    except ConfigError as exc:
        errors += exc.errors
    try:
        threads = _int_by(_check_int, "threads")(args.threads)
    except ValueError as exc:
        errors.append(f"--threads: {exc}")
    if errors:
        print(json.dumps({"error": "ConfigError", "messages": errors}, sort_keys=True), file=sys.stderr)
        return 2
    return run(config, threads=threads)


if __name__ == "__main__":
    raise SystemExit(main())
