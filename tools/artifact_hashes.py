"""sha256 of a fixed set of bohmlab artifacts and library arrays.

    PYTHONPATH=src python tools/artifact_hashes.py > hashes.txt
    python tools/artifact_hashes.py --diff BASE.txt HEAD.txt CHANGES.diff

The first form imports bohmlab from the path it is given, so one copy of
this script hashes any source tree, and prints one "<sha256>  <name>"
line per artifact:

- every CLI command's configuration at a small size, run with --threads 1
  and 2: each output file and the exit code (contextuality with equal
  spins; the ensembles of 5000 are large enough to split in two); and so
  born-check at spins (1, 1), which must be scaled to unit norm exactly
  once, stern-gerlach at (0.6, 0.8), and born-check on an off-centre,
  moving packet (center 0.3, k 0.4), which the splitting commands take;
- build_timeline at the bench numerics, with the default drift and with
  t_drift = 0: its times, boundary masses, generator run lengths and
  every record's components;
- q0, q_final and positions of the sg-history pipeline of the benchmark
  (bench numerics, 20k particles, one thread, history kept);
- integrate_ensemble's q0, q_final and positions at 203 particles on 3
  forked workers with history, on the default Stern-Gerlach timeline;
- integrate_ensemble's q_final at 70000 particles on that timeline, on
  one worker and on two, each of which steps its block in tiles.

It takes a few seconds.  The second form compares two such listings and
exits 1 if an artifact differs, or exists in one only, unless a line
that CHANGES.diff adds (a unified diff of CHANGES.md) declares it:
"ARTIFACT-CHANGED: <name> <why>".  Hashes are compared on one machine
with one numpy; they are not portable across either.
"""

from __future__ import annotations

import hashlib
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = (
    "propagate", "trajectories", "born-check", "stern-gerlach", "contextuality", "pointer-model",
    "nogo",
)
SMALL = """
[grid]
n = 256
[numerics]
dt = 0.00390625
record_every = 16
substeps = 4
"""
EQUAL_SPINS = "[packet]\nspin_up = 0.70710678118654752\nspin_down = 0.70710678118654752\n"
# name -> (command, [packet] section).  A second scaling of (1, 1)'s unit
# pair moves it by an ulp, and the artifacts with it.
PACKET_RUNS = {
    "born-check-spin-1-1": ("born-check", "[packet]\nspin_up = 1\nspin_down = 1\n"),
    "stern-gerlach-spin-0.6-0.8": ("stern-gerlach", "[packet]\nspin_up = 0.6\nspin_down = 0.8\n"),
    "born-check-center-0.3-k-0.4": ("born-check", EQUAL_SPINS + "center = 0.3\nk = 0.4\n"),
}


def config_text(command: str, out: Path, packet: str | None = None) -> str:
    samples = "n_samples = 5000\n" if command in ("trajectories", "born-check", "stern-gerlach") else ""
    if packet is None:
        packet = EQUAL_SPINS if command in ("born-check", "stern-gerlach", "contextuality") else ""
    return f"[run]\ncommand = {command}\nout = {out}\n{samples}{SMALL}{packet}"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_sha(a) -> str:
    a = np.ascontiguousarray(a)
    return sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def cli_hashes(workdir: Path):
    from bohmlab.cli import main

    runs = {**{command: (command, None) for command in COMMANDS}, **PACKET_RUNS}
    for name, (command, packet) in runs.items():
        for threads in (1, 2):
            cfg, out = workdir / f"{name}-t{threads}.cfg", workdir / f"{name}-t{threads}"
            cfg.write_text(config_text(command, out, packet))
            code = main(["--config", str(cfg), "--threads", str(threads)])
            yield f"cli/{name}/t{threads}/exit", sha(str(code).encode())
            for path in sorted(out.glob("*")) if out.exists() else ():
                yield f"cli/{name}/t{threads}/{path.name}", sha(path.read_bytes())


def timeline_hashes(name: str, timeline):
    yield f"sg-timeline/{name}/times", array_sha(timeline.times)
    yield f"sg-timeline/{name}/boundary_mass", array_sha(timeline.boundary_mass)
    yield f"sg-timeline/{name}/runs", sha(repr([n for _, n in timeline.generators]).encode())
    yield f"sg-timeline/{name}/records", array_sha([(f.comp1, f.comp2) for f in timeline.fields])


def library_hashes():
    from bohmlab import (
        PacketSpec, SGNumerics, SGSetup, build_timeline, integrate_ensemble, run_sg, sample,
    )
    from bohmlab import trajectories

    setup, packet = SGSetup(), PacketSpec()
    a = b = 0.70710678118654752
    numerics = SGNumerics(dt=0.00390625, record_every=8, substeps=4)  # the benchmark's
    timeline = build_timeline(setup, a, b, packet, numerics)
    yield from timeline_hashes("drift", timeline)
    yield from timeline_hashes("no-drift", build_timeline(SGSetup(t_drift=0.0), a, b, packet, numerics))
    _, ensemble = run_sg(
        setup, a, b, packet, 20_000, 0, numerics, keep_history=True, timeline=timeline
    )
    for name in ("q0", "q_final", "positions"):
        yield f"sg-history/{name}", array_sha(getattr(ensemble, name))

    # 203 particles split 67/68/68 over 3 forked workers whatever the
    # machine; the bits do not depend on the split, so the hashes stay
    # comparable if these names ever stop taking effect
    trajectories.MIN_PER_WORKER = 16
    trajectories._usable_cpus = lambda: 3
    numerics = SGNumerics()
    timeline = build_timeline(setup, a, b, packet, numerics)
    q0 = sample(timeline.fields[0], 203, seed=12)
    paths = integrate_ensemble(timeline, q0, numerics.dt_traj, keep_history=True, threads=3)
    for name in ("q0", "q_final", "positions"):
        yield f"integrate-203-on-3/{name}", array_sha(getattr(paths, name))

    # more than twice trajectories.TILE = 32768, so the one worker and
    # each of two cut their blocks into tiles
    q0 = sample(timeline.fields[0], 70_000, seed=13)
    for threads in (1, 2):
        paths = integrate_ensemble(timeline, q0, numerics.dt_traj, threads=threads)
        yield f"integrate-70000/t{threads}/q_final", array_sha(paths.q_final)


def listing(path: str) -> dict[str, str]:
    pairs = (line.split() for line in Path(path).read_text().splitlines() if line.strip())
    return {name: digest for digest, name in pairs}


def diff(base: str, head: str, changes: str) -> int:
    old, new = listing(base), listing(head)
    changed = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    added = [line[1:] for line in Path(changes).read_text().splitlines()
             if line.startswith("+") and not line.startswith("+++")]
    declared = {m.group(1) for line in added for m in re.finditer(r"ARTIFACT-CHANGED: (\S+)", line)}
    for name in changed:
        print(f"{'declared' if name in declared else 'UNDECLARED'}: {name}")
    print(f"{len(old)} base and {len(new)} head artifacts, {len(changed)} differ")
    return 1 if set(changed) - declared else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 4:
        return diff(*argv[1:])
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)  # the usage lines
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in (*cli_hashes(Path(tmp)), *library_hashes()):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
