"""Config parsing, batch drivers, artifact determinism."""

import dataclasses
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmlab import (
    OutcomeStatistics,
    PacketSpec,
    SGNumerics,
    SGSetup,
    TrajectoryEnsemble,
    build_timeline,
    cli,
    contextuality_demo,
    no_crossing_check,
    outcome_map,
    run_sg,
)
from bohmlab.cli import ConfigError, main, parse_config

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


def invoke(tmp_path, text, *args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *args]), out


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("[run]\ncommand = nogo\n")
        assert cfg.command == "nogo"
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

    def test_splitting_preconditions(self):
        # the four preconditions shared with the library: TestSharedPreconditions
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
        with pytest.raises(ConfigError, match="not all be zero"):
            parse_config("[run]\ncommand = pointer-model\n[pointer]\nstate = 0 0\n")

    def test_readme_config_block_holds_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block)
        assert cfg.packet == PacketSpec()
        assert cfg.setup == SGSetup()
        assert cfg.numerics == SGNumerics()
        # every other value is the default too, except the documented spin
        assert (cfg.spin_up, cfg.spin_down) == (0.70710678118654752, 0.70710678118654752)
        minimal = parse_config(f"[run]\ncommand = {cfg.command}\n")
        assert dataclasses.replace(cfg, spin_up=1, spin_down=0) == minimal

    def test_format_list(self):
        cfg = parse_config("[run]\ncommand = nogo\nformat = json\n")
        assert cfg.formats == ("json",)
        with pytest.raises(ConfigError, match="unknown format"):
            parse_config("[run]\ncommand = nogo\nformat = yaml\n")



SQ2 = 0.70710678118654752


def mirror_ensemble(**changes) -> TrajectoryEnsemble:
    """A mirror-symmetric two-record ensemble of one particle, then changes."""
    one = np.ones(1)
    ensemble = TrajectoryEnsemble(
        times=np.array([0.0, 1.0]), q0=one, q_final=one, outcomes=np.array(["up"]),
        lambdas=one, positions=np.ones((2, 1)), setup=SGSetup(), spin_up=SQ2,
        spin_down=SQ2, packet=PacketSpec(), seed=0,
    )
    return dataclasses.replace(ensemble, **changes)


class TestSharedPreconditions:
    """parse_config and the library state each Stern-Gerlach precondition
    in one function, so both refuse a violation with one message.  Each
    case lists every library entry point that checks its precondition."""

    @pytest.mark.parametrize("config, where, library", [
        pytest.param(
            "[run]\ncommand = contextuality\n[packet]\nspin_up = 0.6\nspin_down = 0.8\n",
            "line 4: [packet] spin_up",
            [
                lambda: contextuality_demo(SGSetup(), 0.6, 0.8, PacketSpec(), [0.0]),
                lambda: no_crossing_check(mirror_ensemble(spin_up=0.6, spin_down=0.8)),
            ],
            id="equal-weights",
        ),
        pytest.param(
            "[run]\ncommand = born-check\n[packet]\ncenter = 1.0\n",
            "line 4: [packet] center",
            [
                lambda: run_sg(SGSetup(), 1.0, 0.0, PacketSpec(center=1.0), 10, 0),
                lambda: outcome_map(SGSetup(), 1.0, 0.0, PacketSpec(center=1.0), [1.0]),
                lambda: contextuality_demo(SGSetup(), SQ2, SQ2, PacketSpec(center=1.0), [1.0]),
                lambda: no_crossing_check(mirror_ensemble(packet=PacketSpec(center=1.0))),
            ],
            id="centered-packet",
        ),
        pytest.param(
            sg_config("contextuality", extra="[setup]\nb0 = 0.5\n"),
            "line 17: [setup] b0",
            [
                lambda: contextuality_demo(SGSetup(b0=0.5), SQ2, SQ2, PacketSpec(), [0.0]),
                lambda: no_crossing_check(mirror_ensemble(setup=SGSetup(b0=0.5))),
            ],
            id="zero-offset",
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
    ])
    def test_config_and_library_refuse_alike(self, config, where, library):
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        (message,) = err.value.errors
        assert message.startswith(where + ": ")
        for call in library:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message[len(where) + 2:]


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
            code, out = invoke(tmp_path, sg_config(command, extra=extra), "--format", "json")
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


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(sg_config("stern-gerlach"))
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            code = main(
                ["--config", str(cfg), "--out", str(out), "--threads", threads]
            )
            assert code == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_changes_the_ensemble(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(sg_config("born-check"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(a)]) == 0
        assert main(["--config", str(cfg), "--out", str(b), "--seed", "5"]) == 0
        assert (a / "ensemble.csv").read_bytes() != (b / "ensemble.csv").read_bytes()

    def test_seed_override_equals_configured_seed(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text(sg_config("born-check", seed=0))
        configured = tmp_path / "configured.cfg"
        configured.write_text(sg_config("born-check", seed=5))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(base), "--out", str(a), "--seed", "5"]) == 0
        assert main(["--config", str(configured), "--out", str(b)]) == 0
        assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestFormatSelection:
    def test_csv_only(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("born-check"), "--format", "csv")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["ensemble.csv"]

    def test_rerun_removes_its_left_out_formats(self, tmp_path):
        code, out = invoke(tmp_path, sg_config("born-check"), "--format", "csv,json")
        assert code == 0
        other = out / "notes.csv"
        other.write_text("not an artifact of this command\n")
        code, _ = invoke(tmp_path, sg_config("born-check"), "--format", "json", "--seed", "5")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.csv", "summary.json"]
        assert read_summary(out)["seed"] == 5

    def test_json_only_keeps_plain_text(self, tmp_path):
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n", "--format", "json")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["certificate.txt", "summary.json"]


# Values at the edges of the float range, whose windows, kicks, grid
# lengths and sizes overflow, beside ordinary and malformed ones.
# Parsing allocates nothing, so no size here costs memory.
FUZZ_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-320", "0", "-1", "1", "2", "0.5",
    "16", "7", "abc", "", "true", "1+1j", "csv", "0.00390625", "3.0", "-30", "30", "256", "4096",
    str(2**1024),
)
FUZZ_KEYS = [(s, k) for s, schema in cli._SCHEMA.items() for k in schema if k != "command"]


class TestFailureModes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(cli.COMMANDS),
        values=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), max_size=8),
    )
    def test_every_config_parses_or_raises_config_error(self, command, values):
        sections = {"run": [f"command = {command}"]}
        for (section, key), value in values.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
        try:
            parse_config(text)
        except ConfigError:
            pass

    def test_failed_write_leaves_the_previous_run_intact(self, tmp_path, monkeypatch):
        code, out = invoke(tmp_path, sg_config("born-check"), "--format", "csv,json")
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
            code, _ = invoke(tmp_path, sg_config("born-check", seed=5), "--format", formats)
            assert code == 1
            # no temporary file, no truncated summary, the old ensemble.csv
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_replace_keeps_the_files_after_it(self, tmp_path, monkeypatch):
        code, out = invoke(tmp_path, sg_config("born-check"), "--format", "csv,json")
        assert code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace = os.replace

        def busy(src, dst):
            if Path(dst).name == "summary.json":
                raise OSError(errno.EBUSY, "Device or resource busy")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", busy)
        code, _ = invoke(tmp_path, sg_config("born-check", seed=5), "--format", "csv,json")
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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\ncommand = nogo\n")
        assert main(["--config", str(cfg), "--seed", "-1"]) == 2
        report = json.loads(capsys.readouterr().err)
        assert "--seed" in report["messages"][0]
        assert main(["--config", str(cfg), "--format", "yaml"]) == 2
        capsys.readouterr()
        for threads in ("0", "-3"):
            assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--threads", threads]) == 2
            report = json.loads(capsys.readouterr().err)
            assert report["messages"] == [f"--threads must be >= 1, got {threads}"]
        assert not (tmp_path / "out").exists()

    def test_flag_errors_join_the_config_errors(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\ncommand = nogo\nn_samples = 0\n")
        flags = ["--seed", "-1", "--format", "yaml", "--threads", "0"]
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 2
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages[0] == "line 3: [run] n_samples: must be >= 1, got 0"
        assert [m.split(":")[0] for m in messages[1:]] == [
            "--seed", "--format", "--threads must be >= 1, got 0"
        ]
        assert main(["--config", str(tmp_path / "missing.cfg"), "--seed", "-1"]) == 2
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages[0].startswith("cannot read config file")
        assert messages[1].startswith("--seed: ")
        assert len(messages) == 2
        assert not (tmp_path / "out").exists()

    def test_run_rejects_fewer_than_one_thread(self, tmp_path):
        config = dataclasses.replace(parse_config("[run]\ncommand = nogo\n"), out=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            cli.run(config, threads=0)
        assert not (tmp_path / "out").exists()

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit):
            main([])

    def test_pointer_state_dimension_mismatch(self, tmp_path, capsys):
        text = "[run]\ncommand = pointer-model\n[pointer]\nstate = 1 0 0\n"
        code, out = invoke(tmp_path, text)
        assert code == 1
        report = json.loads(capsys.readouterr().err)
        assert "dimension" in report["message"]

    def test_any_driver_exception_gets_the_json_report(self, tmp_path, capsys, monkeypatch):
        def broken(config, threads):
            raise KeyError("lost")

        monkeypatch.setitem(cli._DRIVERS, "nogo", broken)
        code, out = invoke(tmp_path, "[run]\ncommand = nogo\n")
        assert code == 1
        assert not out.exists()
        report = json.loads(capsys.readouterr().err)
        assert report == {"command": "nogo", "error": "KeyError", "message": "'lost'"}
