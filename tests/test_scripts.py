"""Each script runs at its smallest size and prints its table.

The scripts are users of the library's public names; running them keeps
an API change from breaking one unnoticed.  Each runs in a fresh
interpreter with warnings as errors, as the suite runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name: str, *args: str) -> list[list[str]]:
    """The script's stdout, one list of words per line; fails on a nonzero exit."""
    done = run(name, *args)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


@pytest.mark.parametrize("name, args, header, rows", [
    ("free_gaussian_study.py", ("--t", "0.5"), "t width theory rel err", 17),
    ("born_sweep.py", ("--n", "400", "--seeds", "1"),
     "p_up det. freq spread stderr in 3 SE null%", 5),
    ("contextuality_demo.py", ("--n", "400", "--points", "5"), "q0 base reversed", 5),
], ids=["free_gaussian_study", "born_sweep", "contextuality_demo"])
def test_script_prints_its_table(name, args, header, rows):
    lines = run_script(name, *args)
    start = lines.index(header.split()) + 1
    table = lines[start:start + rows]
    assert len(table) == rows
    assert all(len(row) == len(table[0]) for row in table)


def test_free_study_refuses_a_time_its_steps_do_not_tile():
    # 0.3 is 76.8 steps of 1/256: no whole number of steps ends there
    done = run("free_gaussian_study.py", "--t", "0.3")
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error: dt = 0.00390625 does not divide --t = 0.3" in done.stderr
