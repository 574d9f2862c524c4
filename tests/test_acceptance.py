"""Acceptance gate: end-to-end physics and reproducibility criteria.

Run with -s to see the per-criterion PASS/FAIL lines.
"""

import json
import time

import numpy as np
import pytest

from bohmlab import (
    HamiltonianSpec,
    PacketSpec,
    SGNumerics,
    SGSetup,
    StateVec,
    assignment_search,
    born_probabilities,
    build_observable,
    build_timeline,
    contextuality_demo,
    evolve,
    expectation,
    gaussian_packet,
    integrate_ensemble,
    ks_distance,
    make_grid,
    no_crossing_check,
    pointer_model,
    reproducibility_check,
    run_sg,
    sample,
    standard_grid,
    verify_grid,
)
from bohmlab.cli import main as cli_main
from helpers import free_width, l2_distance, moments, random_spec, random_state

GRID = make_grid(512, -30.0, 30.0)
N_RUNS = 20
N_PER_RUN = 10_000
KS_SEEDS = range(100, 120)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def spin_configs():
    # weight of the upper detector: 0.25, 0.50, 0.75
    return {
        0.25: (0.5, np.sqrt(0.75)),
        0.50: (np.sqrt(0.5), np.sqrt(0.5)),
        0.75: (np.sqrt(0.75), 0.5),
    }


@pytest.fixture(scope="module")
def sg_timelines(spin_configs):
    return {
        p: build_timeline(SGSetup(), a, b, PacketSpec())
        for p, (a, b) in spin_configs.items()
    }


@pytest.fixture(scope="module")
def pointer_cases():
    rng = np.random.default_rng(20240817)
    cases = []
    dims = [2, 3, 4, 5, 6, 7, 8]
    while len(cases) < 200:
        dim = dims[len(cases) % len(dims)]
        spec = random_spec(rng, dim)
        while dim * (spec.n_outcomes + 1) > 64:
            spec = random_spec(rng, dim)
        cases.append((spec, random_state(rng, dim)))
    return cases


@pytest.fixture(scope="module")
def free_timeline():
    f = gaussian_packet(GRID, 0.0, 1.0, 0.0)
    return evolve(f, HamiltonianSpec.free(GRID), 2.0, 1 / 256, record_every=8)


def test_01_born_frequencies(spin_configs, sg_timelines):
    setup = SGSetup()
    numerics = SGNumerics()
    all_ok = True
    details = []
    for p, (a, b) in sorted(spin_configs.items()):
        start = time.perf_counter()
        timeline = sg_timelines[p]
        psi0 = timeline.fields[0]
        draws = [sample(psi0, N_PER_RUN, seed=s) for s in range(N_RUNS)]
        paths = integrate_ensemble(
            timeline, np.concatenate(draws), dt_traj=numerics.dt_traj
        )
        band = 3.0 * np.sqrt(p * (1.0 - p) / N_PER_RUN)
        passes = 0
        for i in range(N_RUNS):
            q_final = paths.q_final[i * N_PER_RUN : (i + 1) * N_PER_RUN]
            freq = float(np.mean(q_final > setup.z_det))
            passes += abs(freq - p) <= band
        elapsed = time.perf_counter() - start
        ok = passes >= int(np.ceil(0.95 * N_RUNS)) and elapsed < 120.0
        all_ok &= ok
        details.append(f"p={p}: {passes}/{N_RUNS} in band, {elapsed:.1f}s")
    report(1, "detector frequencies track the spin weights", all_ok, "; ".join(details))
    assert all_ok


def test_02_expectation_identity(sg_timelines):
    rng = np.random.default_rng(915)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        spec = random_spec(rng, dim)
        psi = random_state(rng, dim)
        weighted = expectation(psi, spec)
        quadratic = float(np.vdot(psi.vec, build_observable(spec).entries @ psi.vec).real)
        worst = max(worst, abs(weighted - quadratic))
    algebra_ok = worst <= 1e-12

    stats, _ = run_sg(
        SGSetup(), 0.5, np.sqrt(0.75), PacketSpec(), N_PER_RUN, seed=0,
        keep_history=False, timeline=sg_timelines[0.25],
    )
    dev = abs(stats.calibrated_mean - stats.expectation_theory)
    beam_ok = dev <= 3.0 * stats.stderr_mean
    ok = algebra_ok and beam_ok
    report(
        2, "calibrated means equal the quadratic form", ok,
        f"max algebra dev {worst:.2e}; beam dev {dev:.4f} vs 3SE {3 * stats.stderr_mean:.4f}",
    )
    assert ok


def test_03_pointer_marginals(pointer_cases):
    worst = 0.0
    for spec, psi in pointer_cases:
        res = pointer_model(psi, spec)
        dev = float(np.max(np.abs(res.marginals - born_probabilities(psi, spec))))
        worst = max(worst, dev)
    ok = worst <= 1e-12
    report(3, "apparatus marginals reproduce the Born weights", ok, f"max dev {worst:.2e}")
    assert ok


def test_04_repetition(pointer_cases):
    ok = all(reproducibility_check(psi, spec) for spec, psi in pointer_cases)
    report(4, "immediate repetition returns the same outcome", ok, "200 cases")
    assert ok


def test_05_equivariance(free_timeline, sg_timelines):
    band = 1.63 / np.sqrt(4000)
    results = {}
    for name, timeline in (("free", free_timeline), ("magnet", sg_timelines[0.50])):
        hits = 0
        for s in KS_SEEDS:
            q0 = sample(timeline.fields[0], 4000, seed=s)
            paths = integrate_ensemble(timeline, q0, dt_traj=timeline.spacing / 4)
            hits += ks_distance(paths.q_final, timeline.fields[-1]) <= band
        results[name] = hits
    ok = all(h >= 18 for h in results.values())
    report(
        5, "transported ensembles stay Born-distributed", ok,
        ", ".join(f"{k}: {v}/20 seeds in band" for k, v in results.items()),
    )
    assert ok


def test_06_propagator_accuracy(free_timeline):
    # long-run unitarity in a confining configuration
    xs = GRID.xs()
    b = np.zeros((GRID.n, 3))
    b[:, 0] = 0.7
    b[:, 2] = 1.1 * np.sin(2.0 * np.pi * xs / GRID.length)
    trap = HamiltonianSpec(GRID, 0.02 * xs**2, b, 1.0)
    f0 = gaussian_packet(GRID, 0.0, 1.0, 0.0, 0.6, 0.8)
    steps = 10_000
    tl = evolve(f0, trap, steps / 256, 1 / 256, record_every=steps)
    drift = abs(tl.fields[-1].norm() - 1.0)
    norm_ok = drift <= 1e-10

    width_dev = max(
        abs(moments(field)[2] - free_width(1.0, float(t))) / free_width(1.0, float(t))
        for t, field in zip(free_timeline.times, free_timeline.fields)
    )
    width_ok = width_dev <= 0.01

    bounded = HamiltonianSpec(GRID, 2.0 * np.cos(2.0 * np.pi * xs / GRID.length), b, 1.0)

    def final(dt):
        return evolve(f0, bounded, 0.5, dt, record_every=int(round(0.5 / dt))).fields[-1]

    ref = final(1 / 4096)
    errors = [l2_distance(final(dt), ref) for dt in (1 / 32, 1 / 64, 1 / 128, 1 / 256)]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    order_ok = all(3.5 <= r <= 4.5 for r in ratios)

    ok = norm_ok and width_ok and order_ok
    report(
        6, "propagator holds its accuracy contracts", ok,
        f"drift {drift:.2e}; width dev {width_dev:.2e}; "
        f"stepping ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )
    assert ok


def test_07_no_crossing(sg_timelines):
    a = b = np.sqrt(0.5)
    _, ensemble = run_sg(
        SGSetup(), a, b, PacketSpec(), N_PER_RUN, seed=0,
        keep_history=True, timeline=sg_timelines[0.50],
    )
    ok = no_crossing_check(ensemble)
    dev = ensemble.positions - 0.0
    crossers = int(np.sum((dev > 1e-9).any(axis=0) & (dev < -1e-9).any(axis=0)))
    report(
        7, "no trajectory crosses the symmetry plane", ok,
        f"{crossers} crossings in {N_PER_RUN} trajectories",
    )
    assert ok


def test_08_outcome_map_reversal():
    qs = np.linspace(-2.5, 2.5, 99)
    demo = contextuality_demo(
        SGSetup(), np.sqrt(0.5), np.sqrt(0.5), PacketSpec(), qs,
        n=N_PER_RUN, seed=0,
    )
    born = demo.stats_base.born_within_3sigma and demo.stats_reversed.born_within_3sigma
    ok = demo.pointwise_opposite and born
    report(
        8, "field reversal flips the outcome map but not the statistics", ok,
        f"{qs.size} grid points, nulls {demo.n_null_base}/{demo.n_null_reversed}",
    )
    assert ok


def test_09_assignment_obstruction():
    grid = standard_grid()
    checks = verify_grid(grid)
    start = time.perf_counter()
    examined, consistent = assignment_search(grid)
    elapsed = time.perf_counter() - start
    ok = checks.ok and examined == 512 and consistent == 0 and elapsed < 1.0
    report(
        9, "no context-free value assignment exists", ok,
        f"{examined} candidates, {consistent} consistent, {elapsed * 1000:.0f}ms",
    )
    assert ok


def test_10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\ncommand = stern-gerlach\nn_samples = 2000\nseed = 100\n"
        "[packet]\nspin_up = 0.70710678118654752\nspin_down = 0.70710678118654752\n"
    )
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = cli_main(
            ["--config", str(cfg), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] == outputs[2]
    checks = json.loads(outputs[0]["summary.json"])["checks_passed"]
    ok = ok and all(checks.values())
    report(
        10, "batch runs are byte-identical and thread-independent", ok,
        f"{len(outputs[0])} artifacts compared",
    )
    assert ok
