"""Config parsing, batch drivers, artifact determinism."""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bohmlab import (
    KS_COEFF,
    ExperimentSpec,
    HamiltonianSpec,
    Outcome,
    OutcomeStatistics,
    PacketSpec,
    SGNumerics,
    SGSetup,
    WaveTimeline,
    branch_overlap,
    branches_separated,
    build_timeline,
    cli,
    contextual_witness,
    contextuality_demo,
    gaussian_packet,
    integrate_ensemble,
    ks_verdict,
    make_grid,
    norm_drift,
    outcome_map,
    reproducibility_check,
    run_sg,
    sample,
    within_tolerance,
)
from bohmlab.cli import ConfigError, main, parse_config
from bohmlab.operators import StateVec

# small grid and short windows keep every invocation under a second
FAST_NUMERICS = """
[grid]
n = 256

[numerics]
dt = 0.00390625
record_every = 16
substeps = 4
"""


# a strong magnet at a coarse dt: each split step is exact up to a phase
STRONG_MAGNET = """
[grid]
x_min = -32
x_max = 32
[setup]
mu = -1.5
b_grad = 3
[numerics]
dt = 0.0078125
"""

# the kick 25.5 plus 5/(2 sigma) = 2.5 leaves the band pi/dx = 26.808
KICK_OUTSIDE_THE_BAND = """
[setup]
b_grad = 25.5
t_drift = 0
[numerics]
dt = 0.00048828125
record_every = 16
"""


def sg_config(command, n_samples=400, seed=100, extra=""):
    return (
        f"[run]\ncommand = {command}\nn_samples = {n_samples}\nseed = {seed}\n"
        + FAST_NUMERICS
        + "[packet]\nspin_up = 0.70710678118654752\nspin_down = 0.70710678118654752\n"
        + extra
    )


def readme_config_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


def run_block(**keys) -> str:
    """[run] keys to append to a config: the header again, so no line of it moves."""
    return "\n[run]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())


def invoke(tmp_path, text, *flags, **run_keys):
    """main on text plus these [run] keys, and out = tmp_path / "out" unless
    either sets out; returns the exit code and the directory out names, or
    None if it names none."""
    named = re.search(r"(?m)^out *= *(\S*)", text)
    if named is None:
        run_keys.setdefault("out", tmp_path / "out")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + run_block(**run_keys))
    out = run_keys.get("out") or named.group(1)
    return main(["--config", str(cfg), *flags]), Path(out) if out else None


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


def echoed_config(summary) -> str:
    """The config text that summary.json echoes: the dataclass sections as
    they are, and the command's own keys, which params holds at its top."""
    params, command = summary["params"], summary["command"]
    lines = [
        "[run]", f"command = {command}", f"seed = {summary['seed']}",
        f"n_samples = {params['n_samples']}", f"format = {','.join(params['formats'])}",
    ]
    for section, keys in params.items():
        if isinstance(keys, dict):
            lines += [f"[{section}]", *(f"{key} = {value}" for key, value in keys.items())]
    if "t_total" in params:
        lines += [f"[{command}]", f"t_total = {params['t_total']}"]
    if "q_span" in params:
        lines += ["[contextuality]", f"q_points = {params['q_points']}", f"q_span = {params['q_span']}"]
    if "pointer_state" in params:
        lines += ["[pointer]", "state = " + " ".join(params["pointer_state"])]
        lines += [f"spec_file = {params['spec_file']}"] if params["spec_file"] else []
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("[run]\ncommand = born-check\n")
        assert cfg.command == "born-check"
        assert cfg.seed == 0
        assert cfg.n_samples == 10_000
        assert cfg.out == "out"
        assert cfg.formats == ("csv", "json")
        assert cfg.numerics.grid_n == 512
        assert cfg.setup.b_grad == 4.0
        assert cfg.packet.sigma == 1.0

    def test_inline_comments_and_blank_lines(self):
        cfg = parse_config(
            "# header\n[run]\ncommand = nogo  # trailing note\n\nseed = 9\n"
        )
        assert cfg.seed == 9

    def test_collects_every_error(self):
        text = (
            "[run]\n"
            "command = warp\n"
            "n_samples = 0\n"
            "seed = -4\n"
            "[grid]\n"
            "n = 100\n"
            "[mystery]\n"
            "x = 1\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msgs = "\n".join(err.value.errors)
        assert "unknown command 'warp'" in msgs
        assert "n_samples" in msgs and ">= 1" in msgs
        assert "seed must lie in [0, 2^64)" in msgs
        assert "power of two" in msgs
        assert "unknown section [mystery]" in msgs
        assert len(err.value.errors) == 5

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError, match="line 3.*first set on line 2"):
            parse_config("[run]\ncommand = nogo\ncommand = nogo\n")

    def test_key_before_any_section(self):
        with pytest.raises(ConfigError, match=r"before any \[section\] header"):
            parse_config("command = nogo\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'turbo'"):
            parse_config("[run]\ncommand = nogo\nturbo = yes\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="required; one of"):
            parse_config("[run]\nseed = 1\n")

    def test_packet_must_fit_the_grid(self):
        with pytest.raises(ConfigError, match="strictly inside the grid"):
            parse_config("[run]\ncommand = propagate\n[packet]\nsigma = 8.0\n")

    def test_dataclass_errors_name_the_key_or_the_header(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "[run]\ncommand = nogo\n[grid]\nx_min = 10\nx_max = 5\n"
                "[setup]\npolarity = 3\nb0 = 1\nreverse_geometry = true\n"
            )
        assert err.value.errors == (
            "line 3: [grid] grid bounds must satisfy x_min < x_max, got [10.0, 5.0]",
            "line 7: [setup] polarity: polarity must be +1 or -1, got 3",
            "line 6: [setup] geometry reversal is defined for b0 = 0 only",
        )
        # each key fails against the other's default, but not together
        cfg = parse_config(
            "[run]\ncommand = propagate\n[grid]\nx_min = 35\nx_max = 45\n"
            "[packet]\ncenter = 40\nsigma = 0.5\n"
        )
        assert (cfg.numerics.x_min, cfg.numerics.x_max, cfg.packet.center) == (35.0, 45.0, 40.0)

    def test_stepping_must_tile_the_windows(self):
        with pytest.raises(ConfigError, match="integer multiple of dt"):
            parse_config("[run]\ncommand = propagate\n[propagate]\nt_total = 0.33\n")
        with pytest.raises(ConfigError, match="must divide"):
            parse_config(
                "[run]\ncommand = propagate\n[numerics]\nrecord_every = 7\n"
                "[propagate]\nt_total = 1.0\n"
            )
        # a zero drift is no window: build_timeline skips it
        cfg = parse_config("[run]\ncommand = born-check\n[setup]\nt_drift = 0\n")
        assert cfg.setup.t_drift == 0.0

    def test_stepping_is_reported_on_the_key_that_fails_alone(self):
        # dt tiles neither default window: the report goes to dt's line
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\ncommand = stern-gerlach\n[numerics]\ndt = 1e-320\n")
        assert err.value.errors == (
            "line 4: [numerics] dt: tau / dt = inf is not a finite step count",
            "line 4: [numerics] dt: t_drift / dt = inf is not a finite step count",
        )
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\ncommand = propagate\n[numerics]\nrecord_every = 7\n")
        assert err.value.errors == (
            "line 4: [numerics] record_every: record_every = 7 must divide the step count 512 "
            "of t_total so the final time is recorded",
        )
        # each passes against the other's default, but not together: the
        # report goes to the window
        with pytest.raises(ConfigError) as err:
            parse_config(
                "[run]\ncommand = propagate\n[numerics]\nrecord_every = 256\n"
                "[propagate]\nt_total = 0.5\n"
            )
        assert err.value.errors == (
            "line 6: [propagate] t_total: record_every = 256 must divide the step count 128 "
            "of t_total so the final time is recorded",
        )

    def test_splitting_preconditions(self):
        # the preconditions shared with the library: TestSharedPreconditions
        with pytest.raises(ConfigError, match="never splits"):
            parse_config("[run]\ncommand = born-check\n[setup]\nb_grad = 0\n")

    def test_band_limit_is_the_library_rule(self):
        # default grid: pi/dx = 26.808, so the kick |mu b_grad| tau plus
        # 5/(2 sigma) = 2.5 holds at b_grad = 24.30 and not at 24.31
        text = "[run]\ncommand = born-check\n[setup]\nt_drift = 0\nb_grad = {}\n"
        parse_config(text.format(24.30))
        build_timeline(SGSetup(b_grad=24.30, t_drift=0.0), 1.0, 0.0, PacketSpec())
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(24.31))
        with pytest.raises(ValueError) as refused:
            build_timeline(SGSetup(b_grad=24.31, t_drift=0.0), 1.0, 0.0, PacketSpec())
        assert err.value.errors == (f"line 5: [setup] b_grad: {refused.value}",)
        assert str(refused.value).startswith("magnet kick |mu b_grad| tau = 24.31: ")

    def test_pointer_state_parsing(self):
        cfg = parse_config("[run]\ncommand = pointer-model\n[pointer]\nstate = 0.6 0.8j\n")
        assert cfg.pointer_state == (0.6 + 0j, 0.8j)
        with pytest.raises(ConfigError, match="complex"):
            parse_config("[run]\ncommand = pointer-model\n[pointer]\nstate = 0.6 what\n")
        with pytest.raises(ConfigError, match="cannot normalize the zero vector"):
            parse_config("[run]\ncommand = pointer-model\n[pointer]\nstate = 0 0\n")

    def test_readme_config_block_holds_the_defaults(self):
        block = readme_config_block()
        cfg = parse_config(block)
        assert cfg.packet == PacketSpec()
        assert cfg.setup == SGSetup()
        assert cfg.numerics == SGNumerics()
        # every other value is the default too, except the documented spin
        assert (cfg.spin_up, cfg.spin_down) == (0.70710678118654752, 0.70710678118654752)
        minimal = parse_config(f"[run]\ncommand = {cfg.command}\n")
        assert dataclasses.replace(cfg, spin_up=1, spin_down=0) == minimal

    def test_echoed_params_parse_back_to_the_run_config(self, tmp_path):
        # README's block, which sets every section, at a small size; invoke
        # sets out, which is not echoed
        small = readme_config_block().replace("n_samples = 10000", "n_samples = 64")
        small = small.replace("n = 512", "n = 256").replace("out = out\n", "")
        for command in cli.COMMANDS:
            block = small.replace("command = stern-gerlach", f"command = {command}")
            code, out = invoke(tmp_path, block)
            assert code == 0, command
            assert parse_config(echoed_config(read_summary(out))) == parse_config(block), command

    def test_every_section_is_known_and_read(self):
        # every section a command reads has keys, and every other section but [run] is read
        read = {section for _, sections in cli._DRIVERS.values() for section in sections}
        assert read == cli._SCHEMA.keys() - {"run"}

    def test_format_list(self):
        cfg = parse_config("[run]\ncommand = nogo\nformat = json\n")
        assert cfg.formats == ("json",)
        with pytest.raises(ConfigError, match="unknown format"):
            parse_config("[run]\ncommand = nogo\nformat = yaml\n")



SQ2 = 0.70710678118654752
SMALL_PACKET = gaussian_packet(make_grid(64, -8.0, 8.0), 0.0, 1.0, 0.0)


class TestSharedPreconditions:
    """parse_config and the library state each Stern-Gerlach precondition
    in one function, so both refuse a violation with one message.  Each
    case lists every library entry point that checks its precondition;
    the parser's own refusals list none."""

    @pytest.mark.parametrize("config, where, library", [
        pytest.param(
            "[run]\ncommand = contextuality\n[packet]\nspin_up = 0.6\nspin_down = 0.8\n",
            "line 4: [packet] spin_up",
            [
                lambda: contextuality_demo(SGSetup(), 0.6, 0.8, PacketSpec(), [0.0]),
            ],
            id="equal-weights",
        ),
        pytest.param(
            sg_config("contextuality", extra="[packet]\ncenter = 1.0\n"),
            "line 17: [packet] center",
            [lambda: contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(center=1.0), [1.0])],
            id="centered-packet",
        ),
        pytest.param(
            sg_config("contextuality", extra="[contextuality]\nq_span = 5.0\n"),
            "line 17: [contextuality] q_span",
            [
                lambda: outcome_map(SGSetup(), SQ2, SQ2, PacketSpec(), [-5.0, 5.0]),
                lambda: contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [-5.0, 5.0]),
            ],
            id="q-in-support",
        ),
        pytest.param(
            sg_config("contextuality", extra="[setup]\npolarity = -1\n"),
            "line 17: [setup] polarity",
            [lambda: contextuality_demo(SGSetup(polarity=-1), SQ2, SQ2, PacketSpec(), [0.0])],
            id="base-polarity",
        ),
        pytest.param(
            sg_config("contextuality", extra="[setup]\ncalibration_up = 3\n"),
            "line 17: [setup] calibration_up",
            [lambda: contextuality_demo(SGSetup(calibration_up=3.0), SQ2, SQ2, PacketSpec(), [0.0])],
            id="base-calibrations",
        ),
        pytest.param(
            "[run]\ncommand = born-check\nn_samples = 0\n",
            "line 3: [run] n_samples",
            [
                lambda: sample(SMALL_PACKET, 0, 0),
                lambda: run_sg(SGSetup(), 1.0, 0.0, PacketSpec(), 0, 0),
                lambda: contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], n=0),
            ],
            id="ensemble-size",
        ),
        pytest.param(
            "[run]\ncommand = propagate\n[setup]\nb_grad = 0\n",
            "line 4: [setup] b_grad",
            [lambda: SGSetup(b_grad=0.0), lambda: SGSetup(mu=0.0)],
            id="splitting-setup",
        ),
        pytest.param(
            "[run]\ncommand = propagate\n[packet]\nspin_up = 0\nspin_down = 0\n",
            "line 4: [packet] spin_up",
            [
                lambda: gaussian_packet(SMALL_PACKET.grid, 0.0, 1.0, 0.0, a=0, b=0),
                lambda: run_sg(SGSetup(), 0, 0, PacketSpec(), 10, 0),
                lambda: outcome_map(SGSetup(), 0, 0, PacketSpec(), [0.0]),
                lambda: contextuality_demo(SGSetup(), 0, 0, PacketSpec(), [0.0]),
            ],
            id="spin-amplitudes",
        ),
        pytest.param(
            "[run]\ncommand = propagate\n[packet]\nspin_up = 1.5e308+1.5e308j\n",
            "line 4: [packet] spin_up",
            [lambda: gaussian_packet(SMALL_PACKET.grid, 0.0, 1.0, 0.0, a=1.5e308 + 1.5e308j, b=0)],
            id="spin-in-float-range",
        ),
        *(
            pytest.param(
                f"[run]\ncommand = propagate\n[packet]\n{key} = {value}\n",
                f"line 4: [packet] {key}",
                [
                    lambda pair=pair: gaussian_packet(SMALL_PACKET.grid, 0.0, 1.0, 0.0, *pair),
                    lambda pair=pair: run_sg(SGSetup(), *pair, PacketSpec(), 10, 0),
                ],
                id=f"{key}-{value}",
            )
            # each key's refusal on its own line; the other key holds its default
            for key, value, pair in [
                ("spin_up", "nan", (complex("nan"), 0)),
                ("spin_up", "inf", (complex("inf"), 0)),
                ("spin_down", "nan", (1, complex("nan"))),
                ("spin_down", "-infj", (1, complex("-infj"))),
            ]
        ),
        *(
            pytest.param(
                f"[run]\ncommand = pointer-model\n[pointer]\nstate = {state}\n",
                "line 4: [pointer] state",
                [lambda state=state: StateVec.normalized([complex(z) for z in state.split()])],
                id="pointer-state-" + state.replace(" ", "-"),
            )
            for state in ("nan 0.8", "0.6 inf")
        ),
        pytest.param(
            sg_config("born-check", extra="[setup]\nb0 = 1e308\n"),
            "line 17: [setup] b0",
            [lambda: build_timeline(SGSetup(b0=1e308), SQ2, SQ2, PacketSpec(), SGNumerics(grid_n=256))],
            id="magnet-coupling",
        ),
        pytest.param(
            "[run]\ncommand = pointer-model\n[pointer]\nstate = 0 0\n",
            "line 4: [pointer] state",
            [lambda: StateVec.normalized([0, 0])],
            id="pointer-state",
        ),
        *(
            pytest.param(
                f"[run]\ncommand = born-check\n[grid]\nn = {2**p}\n", "line 4: [grid] n", [], id=f"grid-2^{p}",
            )
            for p in (58, 62)  # numpy's MemoryError, and its ValueError for a size past intp
        ),
        pytest.param("[run]\ncommand = nogo\n[ ]\n", "line 3", [], id="empty-section-name"),
        pytest.param("[run]\ncommand = nogo\nseed\n", "line 3", [], id="no-equals-sign"),
        pytest.param("[run]\ncommand = nogo\n= 5\n", "line 3", [], id="no-key"),
        pytest.param("[run]\ncommand = nogo\nout =\n", "line 3: [run] out", [], id="empty-out"),
        pytest.param("[run]\ncommand = nogo\nformat = ,\n", "line 3: [run] format", [], id="empty-format"),
        pytest.param(
            "[run]\ncommand = pointer-model\n[pointer]\nstate =\n", "line 4: [pointer] state", [],
            id="empty-state",
        ),
    ])
    def test_config_and_library_refuse_alike(self, tmp_path, capsys, config, where, library):
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        (message,) = err.value.errors
        assert message.startswith(where + ": ")
        code, out = invoke(tmp_path, config)
        assert code == 2 and not (out and out.exists())
        assert json.loads(capsys.readouterr().err)["messages"] == [message]
        for call in library:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message[len(where) + 2:]

    def test_only_the_mirror_demo_needs_an_even_packet(self, tmp_path, capsys):
        # the splitting commands take an off-centre, moving packet and judge
        # every claim on it; run_sg and outcome_map on it: test_stern_gerlach.py
        moving = "[packet]\ncenter = 0.3\nk = 0.4\n"
        for command in ("born-check", "stern-gerlach"):
            code, out = invoke(tmp_path, sg_config(command, extra=moving), out=tmp_path / command)
            assert code == 0, command
            checks = read_summary(out)["checks_passed"]
            assert all(verdict is True for verdict in checks.values()), (command, checks)
        code, out = invoke(tmp_path, sg_config("contextuality", extra=moving), out=tmp_path / "contextuality")
        assert code == 2 and not out.exists()
        assert json.loads(capsys.readouterr().err)["messages"][0].startswith("line 17: [packet] center: ")

    def test_flag_and_library_refuse_alike(self, tmp_path, capsys):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n", "--threads", "0")
        assert code == 2 and not out.exists()
        (message,) = json.loads(capsys.readouterr().err)["messages"]
        timeline = WaveTimeline(
            [0.0, 0.25], (SMALL_PACKET, SMALL_PACKET), ((HamiltonianSpec.free(SMALL_PACKET.grid), 1),)
        )
        with pytest.raises(ValueError) as refused:
            integrate_ensemble(timeline, [0.0], 0.125, threads=0)
        assert message == "--threads: " + str(refused.value)


class TestCommands:
    def test_propagate(self, tmp_path):
        text = "[run]\ncommand = propagate\n" + FAST_NUMERICS + "[propagate]\nt_total = 1.0\n"
        code, out = invoke(tmp_path, text)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "timeline.csv"]
        summary = read_summary(out)
        assert summary["command"] == "propagate"
        assert all(summary["checks_passed"].values())
        assert summary["params"]["spin_normalized"] == ["(1+0j)", "0j"]
        lines = (out / "timeline.csv").read_text().splitlines()
        assert lines[0].startswith("# bohmlab-csv v1:")
        assert lines[1] == "index,time,norm,center,width"

    def test_trajectories(self, tmp_path):
        text = (
            "[run]\ncommand = trajectories\nn_samples = 500\nseed = 100\n"
            + FAST_NUMERICS
            + "[trajectories]\nt_total = 1.0\n"
        )
        code, out = invoke(tmp_path, text)
        assert code == 0
        summary = read_summary(out)
        assert summary["checks_passed"]["equivariance_ks_within_band"] is True
        rows = (out / "ensemble.csv").read_text().splitlines()
        assert rows[1] == "index,q0,q_final,outcome,lambda"
        assert len(rows) == 2 + 500

    def test_born_check(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("born-check"))
        assert code == 0
        summary = read_summary(out)
        assert summary["checks_passed"]["born_within_3sigma"] is True
        assert summary["checks_passed"]["null_fraction_le_1pct"] is True
        assert "calibrated_mean_within_3se" not in summary["checks_passed"]

    def test_stern_gerlach(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("stern-gerlach"))
        assert code == 0
        summary = read_summary(out)
        checks = summary["checks_passed"]
        assert checks["born_within_3sigma"] is True
        assert checks["calibrated_mean_within_3se"] is True
        assert checks["branch_overlap_le_1e-4"] is True
        assert summary["seed"] == 100
        row = (out / "ensemble.csv").read_text().splitlines()[2]
        index, q0, q_final, outcome, lam = row.split(",")
        assert index == "0"
        assert outcome in ("up", "down", "null")

    def test_ensemble_rows_print_floats_as_repr(self, tmp_path, monkeypatch):
        # NaN, signed zeros, subnormals, infinities and huge values print as
        # repr(float(x)) of the numpy element; lambda prints the outcome's
        # calibration as repr(float(x)), and "" for the null outcome
        special = np.array([np.nan, -0.0, 0.0, 5e-324, 2.5e-310, -2.2250738585072014e-308,
                            1e300, 0.1, 1 / 3, -np.inf])
        calibrations = "[setup]\ncalibration_up = 0.3333333333333333\ncalibration_down = -2.5e-310\n"
        real, seen = cli.run_sg, []

        def crafted(*args, **kwargs):
            stats, ensemble = real(*args, **kwargs)
            values = np.resize(special, ensemble.q0.size)
            outcomes = np.resize(np.array(["up", "down", "null"]), values.size)
            lambdas = np.select([outcomes == "up", outcomes == "down"], [1 / 3, -2.5e-310], np.nan)
            seen.append(dataclasses.replace(
                ensemble, q0=values, q_final=-values, outcomes=outcomes, lambdas=lambdas
            ))
            return stats, seen[-1]

        monkeypatch.setattr(cli, "run_sg", crafted)
        monkeypatch.setattr(cli, "RENDER_CHUNK", 7)  # 57 full chunks and one of 1
        code, out = invoke(tmp_path, sg_config("stern-gerlach", extra=calibrations))
        assert code == 0
        (e,) = seen
        expected = [
            f"{i},{repr(float(q0))},{repr(float(q1))},{outcome},"
            + ("" if np.isnan(lam) else repr(float(lam)))
            for i, (q0, q1, outcome, lam) in enumerate(zip(e.q0, e.q_final, e.outcomes, e.lambdas))
        ]
        assert (out / "ensemble.csv").read_text().splitlines()[2:] == expected
        assert expected[3].split(",")[1:3] == ["5e-324", "-5e-324"]

        # the trajectories command renders the same columns, without detectors
        real_paths = cli.integrate_ensemble

        def crafted_paths(*args, **kwargs):
            paths = real_paths(*args, **kwargs)
            values = np.resize(special, paths.q0.size)
            return dataclasses.replace(paths, q0=values, q_final=-values)

        monkeypatch.setattr(cli, "integrate_ensemble", crafted_paths)
        monkeypatch.setattr(cli, "ks_distance", lambda samples, field: 0.0)  # NaN has no CDF
        text = "[run]\ncommand = trajectories\nn_samples = 400\n" + FAST_NUMERICS
        code, out = invoke(tmp_path, text + "[trajectories]\nt_total = 1.0\n")
        assert code == 0
        values = np.resize(special, 400)
        assert (out / "ensemble.csv").read_text().splitlines()[2:] == [
            f"{i},{repr(float(q))},{repr(float(-q))},," for i, q in enumerate(values)
        ]

    def test_library_takes_the_spinor_the_cli_takes(self, tmp_path):
        # run_sg scales (1, 1) to unit norm once, as born-check does: the same q_final bits
        extra = "[packet]\nspin_up = 1\nspin_down = 1\n"
        code, out = invoke(tmp_path, "[run]\ncommand = born-check\nn_samples = 64\nseed = 3\n" + FAST_NUMERICS + extra)
        assert code == 0
        _, ensemble = run_sg(SGSetup(), 1, 1, PacketSpec(), 64, 3, SGNumerics(grid_n=256, substeps=4))
        rows = (out / "ensemble.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2] for row in rows] == [repr(q) for q in ensemble.q_final.tolist()]

    def test_huge_calibrations_keep_finite_statistics(self, tmp_path):
        # the calibrations' squares would overflow: the mean and its standard
        # error are taken over them divided by a power of two
        text = "[run]\ncommand = stern-gerlach\nn_samples = 64\n[grid]\nn = 256\n[setup]\ncalibration_up = 1e200\n"
        code, out = invoke(tmp_path, text + "[packet]\nspin_up = 1\nspin_down = 1\n")
        assert code == 0
        summary = read_summary(out)
        mean, stderr = summary["empirical"]["calibrated_mean"], summary["stderr_estimates"]["calibrated_mean"]
        assert 0.0 < mean < 1e200 and 0.0 < stderr < 1e200

    def test_contextuality(self, tmp_path):
        extra = "[contextuality]\nq_points = 15\nq_span = 1.5\n"
        code, out = invoke(tmp_path, sg_config("contextuality", n_samples=800, extra=extra))
        assert code == 0
        summary = read_summary(out)
        checks = summary["checks_passed"]
        assert checks["pointwise_opposite"] is True
        assert checks["born_base_within_3sigma"] is True
        assert checks["born_reversed_within_3sigma"] is True
        rows = (out / "outcome_map.csv").read_text().splitlines()
        assert rows[1] == "index,q0,lambda_base,lambda_reversed"
        assert len(rows) == 2 + 15

    def test_contextuality_takes_any_b0(self, tmp_path):
        # a uniform field adds only a relative phase between the spin
        # components, which the velocity cannot see: b0 = 1 reads b0 = 0's map
        extra = "[contextuality]\nq_points = 15\nq_span = 1.5\n"
        maps = []
        for b0 in ("0", "1"):
            config = sg_config("contextuality", extra=extra + f"[setup]\nb0 = {b0}\n")
            code, out = invoke(tmp_path, config, out=tmp_path / b0)
            assert code == 0
            assert read_summary(out)["checks_passed"]["pointwise_opposite"] is True
            maps.append((out / "outcome_map.csv").read_bytes())
        assert maps[0] == maps[1]

    @pytest.mark.parametrize("up, down, verdict", [
        (160, 160, True),  # detected 0.5; over all particles 0.4, off by 1.33 bands
        (190, 130, False),  # detected 0.594, off by 1.25 bands; over all 0.475
    ])
    def test_one_born_rule_for_the_demo_and_the_cli(self, tmp_path, monkeypatch, up, down, verdict):
        # 80 nulls in 400 split the frequency over all particles from the
        # detected one; the band is 3 sqrt(0.25 / 400) = 0.075
        from bohmlab import stern_gerlach

        crafted = OutcomeStatistics(
            n=400, counts={"up": up, "down": down, "null": 80},
            frequencies={"up": up / 400, "down": down / 400, "null": 0.2},
            born={"up": 0.5, "down": 0.5, "null": 0.0},
            calibrated_mean=0.0, expectation_theory=0.0, stderr_mean=0.05,
        )
        monkeypatch.setattr(stern_gerlach, "_statistics", lambda *args: crafted)
        report = contextuality_demo(
            SGSetup(), SQ2, SQ2, PacketSpec(), [0.0], n=400, seed=100,
            numerics=SGNumerics(grid_n=256, substeps=4),
        )
        verdicts = [report.stats_base.born_within_3sigma, report.stats_reversed.born_within_3sigma]
        extra = "[contextuality]\nq_points = 3\nq_span = 1.0\n"
        for command in ("born-check", "stern-gerlach", "contextuality"):
            code, out = invoke(tmp_path, sg_config(command, extra=extra), format="json")
            assert code == 0
            summary = read_summary(out)
            verdicts += [value for key, value in summary["checks_passed"].items() if key.startswith("born_")]
        assert verdicts == [verdict] * 6
        # the contextuality summary reports the frequency its checks judge
        judged = [summary["empirical"][f"freq_up_detected_{s}"] for s in ("base", "reversed")]
        assert judged == [crafted.freq_up_detected] * 2 == [up / (up + down)] * 2
        assert crafted.born_within_3sigma is verdict

    def test_pointer_model(self, tmp_path):
        text = "[run]\ncommand = pointer-model\n[pointer]\nstate = 0.6 0.8\n"
        code, out = invoke(tmp_path, text)
        assert code == 0
        summary = read_summary(out)
        checks = summary["checks_passed"]
        assert checks["marginals_match_born"] is True
        assert checks["expectation_identity"] is True
        assert checks["reproducible"] is True
        assert summary["empirical"]["pointer_dim"] == 3
        born = summary["theoretical"]["born"]["value"]
        assert born["up"] == pytest.approx(0.36, abs=1e-12)

    def test_pointer_model_normalizes_a_tiny_state(self, tmp_path):
        # the norm is math.hypot of the moduli, so 1e-200 does not underflow to 0
        code, out = invoke(tmp_path, "[run]\ncommand = pointer-model\n[pointer]\nstate = 1e-200 0\n")
        assert code == 0
        assert read_summary(out)["params"]["pointer_state_normalized"] == ["(1+0j)", "0j"]

    def test_pointer_model_expectation_identity_can_fail(self, tmp_path, monkeypatch):
        # shifted weights move sum_a p_a lambda_a but not <psi, A psi>
        from bohmlab import operators

        real = operators.born_probabilities
        monkeypatch.setattr(
            operators, "born_probabilities", lambda psi, spec: real(psi, spec) + [1e-6, -1e-6]
        )
        code, out = invoke(tmp_path, "[run]\ncommand = pointer-model\n")
        assert code == 0
        summary = read_summary(out)
        assert summary["checks_passed"]["expectation_identity"] is False
        assert summary["empirical"]["expectation_quadratic_form"] == pytest.approx(-0.28, abs=1e-15)

    def test_pointer_model_empty_spec_file_means_default(self, tmp_path):
        text = "[run]\ncommand = pointer-model\n[pointer]\nstate = 0.6 0.8\nspec_file =\n"
        code, out = invoke(tmp_path, text)
        assert code == 0
        summary = read_summary(out)
        assert summary["params"]["spec_file"] is None
        assert summary["params"]["outcome_labels"] == ["up", "down"]

    def test_nogo(self, tmp_path):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n")
        assert code == 0
        summary = read_summary(out)
        assert summary["checks_passed"]["all_candidates_examined"] is True
        assert summary["checks_passed"]["parity_obstruction"] is True
        assert summary["empirical"]["consistent_assignments"] == 0
        assert "spin_normalized" not in summary["params"]  # nogo takes no packet
        certificate = (out / "certificate.txt").read_text()
        assert "512 assignments examined" in certificate

    def test_summary_schema(self, tmp_path):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n")
        assert code == 0
        summary = read_summary(out)
        assert sorted(summary) == [
            "checks_passed",
            "command",
            "empirical",
            "params",
            "seed",
            "stderr_estimates",
            "theoretical",
            "versions",
        ]
        assert summary["versions"]["csv_schema"] == 1


def owner_verdicts(config, out) -> dict:
    """checks_passed as the library objects that own the claims state it of
    the run of config whose artifacts are in out: its figures are read back
    from the artifacts, or the library reruns it."""
    summary = read_summary(out)
    if config.command == "propagate":
        rows = [line.split(",")[2:] for line in (out / "timeline.csv").read_text().splitlines()[2:]]
        norms, centers, widths = (list(map(float, column)) for column in zip(*rows))
        width_ok, center_ok = config.packet.free_motion_verdicts(config.t_total, centers[-1], widths[-1])
        return {"width_within_1pct": width_ok, "center_within_1e-6": center_ok,
                "norm_drift_le_1e-10": norm_drift(norms)[1]}
    if config.command == "trajectories":
        return {"equivariance_ks_within_band": ks_verdict(summary["empirical"]["ks_distance"], config.n_samples)[0]}
    if config.command in ("born-check", "stern-gerlach"):
        args = (config.setup, config.spin_up, config.spin_down, config.packet)
        stats, _ = run_sg(*args, config.n_samples, config.seed, config.numerics)
        checks = {"born_within_3sigma": stats.born_within_3sigma, "null_fraction_le_1pct": stats.null_fraction_le_1pct}
        if config.command == "stern-gerlach":
            checks["calibrated_mean_within_3se"] = stats.calibrated_within_3se
            overlap = branch_overlap(build_timeline(*args, config.numerics).fields[-1])
            checks["branch_overlap_le_1e-4"] = branches_separated(overlap)
        return checks
    if config.command == "contextuality":
        q_grid = np.linspace(-config.q_span, config.q_span, config.q_points)
        report = contextuality_demo(
            config.setup, config.spin_up, config.spin_down, config.packet, q_grid,
            n=config.n_samples, seed=config.seed, numerics=config.numerics,
        )
        return {
            "pointwise_opposite": report.pointwise_opposite,
            "born_base_within_3sigma": report.stats_base.born_within_3sigma,
            "born_reversed_within_3sigma": report.stats_reversed.born_within_3sigma,
        }
    if config.command == "pointer-model":
        empirical, expectation = summary["empirical"], summary["theoretical"]["expectation"]["value"]
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        spec = ExperimentSpec(dim=2, outcomes=(Outcome("up", up, 1.0), Outcome("down", down, -1.0)))
        return {
            "marginals_match_born": within_tolerance(empirical["max_marginal_deviation"]),
            "expectation_identity": within_tolerance(abs(expectation - empirical["expectation_quadratic_form"])),
            "reproducible": reproducibility_check(StateVec.normalized(config.pointer_state), spec),
        }
    certificate = contextual_witness()
    return {
        "all_candidates_examined": certificate.all_candidates_examined,
        "parity_obstruction": certificate.parity_obstruction,
    }


def witness(**changes):
    return dataclasses.replace(contextual_witness(), **changes)


def statistics(nulls: int, n: int) -> OutcomeStatistics:
    return OutcomeStatistics(
        n=n, counts={"up": 0, "down": n - nulls, "null": nulls}, frequencies={},
        born={"up": 0.5, "down": 0.5, "null": 0.0}, calibrated_mean=0.0, expectation_theory=0.0, stderr_mean=1.0,
    )


# The last norms above and below 1 whose drift is at most 1e-10, doubles
# being 2^-52 apart above 1 and 2^-53 below: no difference of doubles near
# 1 is 1e-10 itself, so the rule's bound lies between two norms.
LAST_UNITARY_ABOVE, LAST_UNITARY_BELOW = (
    1.0 + sign * math.floor(1e-10 / ulp) * ulp for sign, ulp in ((1, 2.0**-52), (-1, 2.0**-53))
)


class TestOwnedVerdicts:
    """Each entry of checks_passed is the verdict of the library object
    that owns its claim.  Each rule holds at its bound and fails one ulp
    past it, on crafted figures; and the summary of a run reports what the
    owners say of that same run."""

    @pytest.mark.parametrize("verdict, bound, outward", [
        # |101 - 100| = 1 = 0.01 * 100 exactly, at t = 0 where the law's width is sigma
        pytest.param(lambda w: PacketSpec(sigma=100.0).free_motion_verdicts(0.0, 0.0, w)[0], 101.0, np.inf, id="width"),
        pytest.param(lambda c: PacketSpec().free_motion_verdicts(0.0, c, 1.0)[1], 1e-6, np.inf, id="center"),
        pytest.param(lambda c: PacketSpec().free_motion_verdicts(0.0, c, 1.0)[1], -1e-6, -np.inf, id="center-below"),
        pytest.param(lambda x: norm_drift([1.0, x])[1], LAST_UNITARY_ABOVE, np.inf, id="norm"),
        pytest.param(lambda x: norm_drift([x, 1.0])[1], LAST_UNITARY_BELOW, -np.inf, id="norm-below"),
        pytest.param(lambda ks: ks_verdict(ks, 400)[0], ks_verdict(0.0, 400)[1], np.inf, id="ks-400"),
        pytest.param(lambda ks: ks_verdict(ks, 10_000)[0], ks_verdict(0.0, 10_000)[1], np.inf, id="ks-10k"),
        pytest.param(branches_separated, 1e-4, np.inf, id="overlap"),
        pytest.param(within_tolerance, 1e-12, np.inf, id="atol"),
    ])
    def test_a_rule_holds_at_its_bound_and_fails_one_ulp_past(self, verdict, bound, outward):
        assert bool(verdict(bound)) is True
        assert bool(verdict(float(np.nextafter(bound, outward)))) is False

    def test_the_ks_band_and_its_stated_error(self):
        within, band, error = ks_verdict(0.0, 400)
        assert (within, band, error) == (True, KS_COEFF / math.sqrt(400), KS_COEFF / math.sqrt(400) / 3.0)

    def test_the_null_fraction_rule(self):
        assert statistics(100, 10_000).null_fraction == 0.01
        assert statistics(100, 10_000).null_fraction_le_1pct is True
        # the least fraction past 0.01, as counts give it
        past = statistics(10**16 + 2, 10**18)
        assert past.null_fraction == np.nextafter(0.01, 1.0)
        assert past.null_fraction_le_1pct is False

    def test_the_witness_rules(self):
        assert witness().all_candidates_examined and witness().parity_obstruction
        for n in (511, 513):
            assert witness(n_candidates=n).all_candidates_examined is False
        for changes in ({"n_consistent": 1}, {"parity_product": 1}):
            assert witness(**changes).parity_obstruction is False

    @pytest.mark.parametrize("text", [
        "[run]\ncommand = propagate\n" + FAST_NUMERICS + "[propagate]\nt_total = 1.0\n",
        "[run]\ncommand = trajectories\nn_samples = 500\nseed = 100\n" + FAST_NUMERICS
        + "[trajectories]\nt_total = 1.0\n",
        sg_config("born-check"),
        sg_config("stern-gerlach"),
        sg_config("contextuality", extra="[contextuality]\nq_points = 3\nq_span = 1.0\n"),
        "[run]\ncommand = pointer-model\n[pointer]\nstate = 0.6 0.8\n",
        "[run]\ncommand = nogo\n",
    ], ids=lambda text: parse_config(text).command)
    def test_a_summary_reports_the_owners_verdicts(self, tmp_path, text):
        code, out = invoke(tmp_path, text)
        assert code == 0
        assert read_summary(out)["checks_passed"] == owner_verdicts(parse_config(text), out)


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
            cfg.write_text(sg_config("stern-gerlach") + run_block(out=out))
            code = main(["--config", str(cfg), "--threads", threads])
            assert code == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_changes_the_ensemble(self, tmp_path):
        ensembles = []
        for seed in (100, 5):
            code, out = invoke(tmp_path, sg_config("born-check", seed=seed))
            assert code == 0
            ensembles.append((out / "ensemble.csv").read_bytes())
        assert ensembles[0] != ensembles[1]


class TestFormatSelection:
    def test_csv_only(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("born-check"), format="csv")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv"]

    def test_rerun_removes_its_left_out_formats(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("born-check"), format="csv,json")
        assert code == 0
        other = out / "notes.csv"
        other.write_text("not an artifact of this command\n")
        code, _ = invoke(tmp_path, sg_config("born-check", seed=5), format="json")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.csv", "summary.json"]
        assert read_summary(out)["seed"] == 5

    def test_json_only_keeps_plain_text(self, tmp_path):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n", format="json")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["certificate.txt", "summary.json"]


# Values at the edges of the float range, whose windows, kicks, grid
# lengths and sizes overflow, beside ordinary and malformed ones.
# Parsing allocates nothing, so no size here costs memory.
FUZZ_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-320", "0", "-1", "1", "2", "0.5",
    "16", "7", "abc", "", "true", "1+1j", "csv", "0.00390625", "3.0", "-30", "30", "256", "4096",
    str(2**1024), "1.5e308+1.5e308j", "1e200",
)
FUZZ_KEYS = [(s, k) for s, schema in cli._SCHEMA.items() for k in schema if k != "command"]


# Drawn runs keep their work small: 64 samples on a 256-point grid, and
# the default RK4 substeps and outcome-map points; [run] out names their
# directory.
SIZES = {("run", "n_samples"): "64", ("grid", "n"): "256"}
FIXED = {*SIZES, ("numerics", "substeps"), ("contextuality", "q_points"), ("run", "out")}
RUN_KEYS = [k for k in FUZZ_KEYS if k not in FIXED]


def config_text(values) -> str:
    sections: dict[str, list[str]] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFailureModes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(cli.COMMANDS),
        values=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), max_size=8),
    )
    def test_every_config_parses_or_raises_config_error(self, fuzz_dir, command, values):
        cfg, out = fuzz_dir / "run.cfg", fuzz_dir / "out"
        text = config_text({("run", "command"): command, ("run", "out"): out, **values})
        try:
            parse_config(text)
        except ConfigError as refused:
            # the CLI refuses it too: exit 2, one JSON line, no work done
            cfg.write_text(text)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main(["--config", str(cfg)]) == 2
            line, = stderr.getvalue().splitlines()
            assert json.loads(line) == {"error": "ConfigError", "messages": list(refused.errors)}
            assert not out.exists()

    @settings(
        max_examples=40, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(
        command=st.sampled_from(cli.COMMANDS),
        values=st.dictionaries(st.sampled_from(RUN_KEYS), st.sampled_from(FUZZ_VALUES), max_size=3),
    )
    def test_drawn_configs_run_cleanly(self, fuzz_dir, command, values):
        cfg, out = fuzz_dir / "run.cfg", fuzz_dir / "out"
        text = config_text({("run", "command"): command, ("run", "out"): out, **SIZES, **values})
        try:
            config = parse_config(text)
        except ConfigError:
            assume(False)
        cfg.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["--config", str(cfg)])
        if code == 1:  # a run-time failure: one JSON report, no artifacts
            line, = stderr.getvalue().splitlines()
            assert json.loads(line)["command"] == command
            assert not out.exists()
            return
        assert code == 0
        if "json" in config.formats:  # out changes no byte, so it is not echoed
            echoed = parse_config(echoed_config(read_summary(out)))
            assert dataclasses.replace(echoed, out=config.out) == config
        shutil.rmtree(out)

    def test_failed_write_leaves_the_previous_run_intact(self, tmp_path, monkeypatch):
        code, out = invoke(tmp_path, sg_config("born-check"), format="csv,json")
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_write = Path.write_text

        def disk_full(self, data, *args, **kwargs):
            # a full disk: the summary's first bytes land, then the write fails
            if "summary.json" in self.name:
                real_write(self, data[:5], *args, **kwargs)
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(self, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)
        for formats in ("csv,json", "json"):
            code, _ = invoke(tmp_path, sg_config("born-check", seed=5), format=formats)
            assert code == 1
            # no temporary file, no truncated summary, the old ensemble.csv
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_replace_keeps_the_files_after_it(self, tmp_path, monkeypatch):
        code, out = invoke(tmp_path, sg_config("born-check"), format="csv,json")
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace = os.replace

        def busy(src, dst):
            if Path(dst).name == "summary.json":
                raise OSError(errno.EBUSY, "Device or resource busy")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", busy)
        code, _ = invoke(tmp_path, sg_config("born-check", seed=5), format="csv,json")
        assert code == 1
        # replaces run in name order: the new ensemble.csv, the old summary
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(after) == ["ensemble.csv", "summary.json"]
        assert after["summary.json"] == before["summary.json"]
        assert after["ensemble.csv"] != before["ensemble.csv"]

    def test_config_errors_exit_2_with_json_report(self, tmp_path, capsys):
        code, out = invoke(tmp_path, "[run]\ncommand = warp\nn_samples = 0\n")
        assert code == 2
        assert not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert len(report["messages"]) == 2

    def test_contextuality_with_default_spin_exits_2(self, tmp_path, capsys):
        # the default packet is pure spin up, (1, 0)
        code, out = invoke(tmp_path, "[run]\ncommand = contextuality\n")
        assert code == 2
        assert not out.exists()
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages == [
            "[packet] spin_up: the mirror-symmetric experiment requires |spin_up| = |spin_down|"
        ]

    @pytest.mark.parametrize(
        "command, section, key",
        [("propagate", "propagate", "t_total"), ("born-check", "setup", "t_drift")],
    )
    def test_window_shorter_than_one_step_exits_2(self, tmp_path, capsys, command, section, key):
        code, out = invoke(
            tmp_path, sg_config(command, extra=f"[{section}]\n{key} = 1e-12\n")
        )
        assert code == 2
        assert not out.exists()
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert len(messages) == 1
        assert f"[{section}] {key}: " in messages[0]
        assert "integer multiple of dt" in messages[0]

    def test_band_limit_violation_exits_2_before_any_work(self, tmp_path, capsys):
        text = (
            "[run]\ncommand = stern-gerlach\nn_samples = 400\n"
            "[packet]\nspin_up = 0.70710678118654752\nspin_down = 0.70710678118654752\n"
            + KICK_OUTSIDE_THE_BAND
        )
        code, out = invoke(tmp_path, text)
        assert code == 2
        assert not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ConfigError"
        assert len(report["messages"]) == 1
        assert report["messages"][0].startswith("line 9: [setup] b_grad: magnet kick ")

    def test_strong_magnet_at_a_coarse_dt_runs_quietly(self, tmp_path, capsys):
        text = (
            "[run]\ncommand = stern-gerlach\nn_samples = 400\n"
            "[packet]\nspin_up = 0.70710678118654752\nspin_down = 0.70710678118654752\n"
            + STRONG_MAGNET
        )
        code, out = invoke(tmp_path, text)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert all(read_summary(out)["checks_passed"].values())

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        report = json.loads(capsys.readouterr().err)
        assert "cannot read config file" in report["messages"][0]

    def test_runtime_failure_exits_1_without_artifacts(self, tmp_path, capsys):
        text = (
            "[run]\ncommand = pointer-model\n"
            f"[pointer]\nspec_file = {tmp_path / 'missing.spec'}\n"
        )
        code, out = invoke(tmp_path, text)
        assert code == 1
        assert not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report["command"] == "pointer-model"
        assert report["error"] == "FileNotFoundError"

    def test_bad_override_values(self, tmp_path, capsys):
        for threads in ("0", "-3"):
            code, out = invoke(tmp_path, "[run]\ncommand = nogo\n", "--threads", threads)
            assert code == 2
            report = json.loads(capsys.readouterr().err)
            assert report["messages"] == [f"--threads: threads must be >= 1, got {threads}"]
        assert not out.exists()

    def test_flag_errors_join_the_config_errors(self, tmp_path, capsys):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\nn_samples = 0\n", "--threads", "0")
        assert code == 2
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages[0] == "line 3: [run] n_samples: ensemble size must be >= 1, got 0"
        assert [m.split(":")[0] for m in messages[1:]] == ["--threads"]
        assert main(["--config", str(tmp_path / "missing.cfg"), "--threads", "0"]) == 2
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages[0].startswith("cannot read config file")
        assert messages[1].startswith("--threads: ")
        assert len(messages) == 2
        assert not out.exists()

    def test_run_rejects_fewer_than_one_thread(self, tmp_path):
        config = dataclasses.replace(parse_config("[run]\ncommand = nogo\n"), out=str(tmp_path / "out"))
        for threads, message in ((0, ">= 1, got 0"), (2.9, "an int, got 2.9"), (True, "an int, got True")):
            with pytest.raises(ValueError, match=f"threads must be {message}"):
                cli.run(config, threads=threads)
        assert not (tmp_path / "out").exists()

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit):
            main([])

    def test_a_wave_that_is_not_finite_stops_at_the_first_step(self, tmp_path, capsys, monkeypatch):
        # a config whose coupling overflows is refused at parse time, so NaN
        # step factors stand in for one: the magnet's first step makes the wave NaN
        from bohmlab import propagation

        monkeypatch.setattr(
            propagation, "_half_potential_factors", lambda h, dt: (np.full(h.grid.n, np.nan),) * 4
        )
        code, out = invoke(tmp_path, "[run]\ncommand = born-check\nn_samples = 64\n[grid]\nn = 256\n")
        assert code == 1 and not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report["message"] == "the wave is not finite at t = 0.00390625: its boundary mass is nan"

    def test_contextuality_refuses_a_spin_past_float_range_once(self):
        # the equal-weights rule judges the spin as the run does, scaled to
        # unit norm, so it meets no modulus past float range
        with pytest.raises(ConfigError) as err:
            parse_config("[run]\ncommand = contextuality\n[packet]\nspin_up = 1.5e308+1.5e308j\n")
        assert err.value.errors == (
            "line 4: [packet] spin_up: cannot normalize the zero vector, or a norm out of "
            "float range: got inf",
        )

    @pytest.mark.parametrize("text, patch, flags, code", [
        pytest.param(
            "[run]\ncommand = born-check\nn_samples = 64\n[grid]\nn = 256\n[setup]\nb0 = 1e308\n",
            "", (), 2, id="coupling",
        ),
        pytest.param(
            "[run]\ncommand = propagate\n[packet]\nspin_up = 1.5e308+1.5e308j\n", "", (), 2, id="spin",
        ),
        pytest.param(
            "[run]\ncommand = nogo\n",
            "cli._DRIVERS['nogo'] = (lambda config, threads: {'x.txt': str(np.float64(1e308) * 10)}, ())\n",
            (), 1, id="driver-overflow",
        ),
        # usage errors: an unknown flag, a removed one, no config
        pytest.param("[run]\ncommand = nogo\n", "", ("--bogus",), 2, id="unknown-flag"),
        pytest.param("[run]\ncommand = nogo\n", "", ("--seed", "5"), 2, id="seed-flag"),
        pytest.param("[run]\ncommand = nogo\n", "", None, 2, id="no-config"),
    ])
    def test_stderr_is_one_json_line(self, tmp_path, text, patch, flags, code):
        # a fresh interpreter prints numpy's warnings to stderr; under pytest
        # they are errors, which hides a stray line
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(text + run_block(out=out))
        script = f"import numpy as np\nfrom bohmlab import cli\n{patch}raise SystemExit(cli.main())\n"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"), PYTHONWARNINGS="default")
        argv = [] if flags is None else ["--config", str(cfg), *flags]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code and not out.exists()
        line, = done.stderr.splitlines()
        report = json.loads(line)
        assert report["error"] == ("ConfigError" if code == 2 else "FloatingPointError")

    def test_pointer_state_dimension_mismatch(self, tmp_path, capsys):
        text = "[run]\ncommand = pointer-model\n[pointer]\nstate = 1 0 0\n"
        code, out = invoke(tmp_path, text)
        assert code == 1
        report = json.loads(capsys.readouterr().err)
        assert "dimension" in report["message"]

    def test_any_driver_exception_gets_the_json_report(self, tmp_path, capsys, monkeypatch):
        def broken(config, threads):
            raise KeyError("lost")

        monkeypatch.setitem(cli._DRIVERS, "nogo", (broken, ()))
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n")
        assert code == 1
        assert not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report == {"command": "nogo", "error": "KeyError", "message": "'lost'"}
