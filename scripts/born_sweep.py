"""Sweep the spinor weight and compare detector frequencies with the
Born weights over a batch of seeds.

Usage: python3 scripts/born_sweep.py [--n 4000] [--seeds 8]
"""

import argparse

import numpy as np

from bohmlab import PacketSpec, SGSetup, build_timeline, run_sg

WEIGHTS = (0.1, 0.25, 0.5, 0.75, 0.9)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000, help="trajectories per run")
    ap.add_argument("--seeds", type=int, default=8, help="independent runs per weight")
    args = ap.parse_args()

    setup = SGSetup()

    print(f"n = {args.n} trajectories, {args.seeds} seeds per weight")
    print(f"{'p_up':>6} {'det. freq':>10} {'spread':>8} {'stderr':>8} {'in 3 SE':>8} {'null%':>7}")
    for p in WEIGHTS:
        a, b = np.sqrt(p), np.sqrt(1.0 - p)
        timeline = build_timeline(setup, a, b, PacketSpec())
        freqs, nulls, hits = [], [], 0
        for seed in range(args.seeds):
            stats, _ = run_sg(
                setup, a, b, PacketSpec(), args.n, seed, keep_history=False, timeline=timeline
            )
            freqs.append(stats.freq_up_detected)
            nulls.append(stats.null_fraction)
            hits += stats.born_within_3sigma
        print(
            f"{p:6.2f} {np.mean(freqs):10.4f} {np.std(freqs):8.4f} "
            f"{stats.stderr_freq_up:8.4f} {hits:>5}/{args.seeds} {100 * np.mean(nulls):6.2f}%"
        )


if __name__ == "__main__":
    main()
