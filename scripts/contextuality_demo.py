"""Run the polarity-reversal pair and print the position-level outcome
maps side by side.

The two experiments share the operator (same Born statistics, same
calibrated mean) yet assign opposite values to every detected initial
position.

Usage: python3 scripts/contextuality_demo.py [--n 4000] [--points 21]
"""

import argparse

import numpy as np

from bohmlab import PacketSpec, SGSetup, contextuality_demo


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4000, help="trajectories per statistics run")
    ap.add_argument("--points", type=int, default=21, help="outcome-map grid points")
    ap.add_argument("--span", type=float, default=2.5, help="half-width of the map grid")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    qs = np.linspace(-args.span, args.span, args.points)
    a = b = np.sqrt(0.5)
    report = contextuality_demo(SGSetup(), a, b, PacketSpec(), qs, n=args.n, seed=args.seed)

    print(report.summary())
    print()
    print(f"{'q0':>8} {'base':>6} {'reversed':>9}")
    for q, lb, lr in zip(report.q_grid, report.lambda_base, report.lambda_reversed):
        fb = "null" if np.isnan(lb) else f"{lb:+.0f}"
        fr = "null" if np.isnan(lr) else f"{lr:+.0f}"
        print(f"{q:8.3f} {fb:>6} {fr:>9}")


if __name__ == "__main__":
    main()
