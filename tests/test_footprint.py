"""What a run loads: the package resolves submodules on first access, and
the Stern-Gerlach path never imports numpy.random, operators or
peres_mermin.  Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import run_block, sg_config

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_BY_SG = ["bohmlab.operators", "bohmlab.peres_mermin", "numpy.random"]


def loaded_after(code: str, cwd: Path) -> list[str]:
    """Names from sys.modules after running code in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = loaded_after("import bohmlab", tmp_path)
    assert [m for m in loaded if m.startswith("bohmlab.")] == []


def test_run_sg_loads_no_unused_module(tmp_path):
    code = (
        "import numpy as np\n"
        "from bohmlab import PacketSpec, SGSetup, run_sg\n"
        "run_sg(SGSetup(), np.sqrt(0.5), np.sqrt(0.5), PacketSpec(), n=500, seed=0, threads=1)\n"
    )
    loaded = loaded_after(code, tmp_path)
    assert "bohmlab.stern_gerlach" in loaded
    assert [m for m in UNUSED_BY_SG if m in loaded] == []


def test_cli_stern_gerlach_loads_no_unused_module(tmp_path):
    (tmp_path / "run.cfg").write_text(sg_config("stern-gerlach") + run_block(out="out"))
    code = (
        "from bohmlab import cli\n"
        "assert cli.main(['--config', 'run.cfg', '--threads', '1']) == 0\n"
    )
    loaded = loaded_after(code, tmp_path)
    assert (tmp_path / "out" / "ensemble.csv").exists()
    assert [m for m in UNUSED_BY_SG if m in loaded] == []
