"""Free Gaussian spreading: recorded width against the closed-form law,
and a fan of trajectories riding the self-similar profile.

Usage: python3 scripts/free_gaussian_study.py [--t 2.0] [--sigma 1.0]
"""

import argparse

import numpy as np

from bohmlab import HamiltonianSpec, PacketSpec, evolve, gaussian_packet, integrate_ensemble, make_grid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t", type=float, default=2.0, help="evolution time")
    ap.add_argument("--sigma", type=float, default=1.0, help="initial width")
    ap.add_argument("--dt", type=float, default=1 / 256)
    args = ap.parse_args()

    grid = make_grid(512, -30.0, 30.0)
    packet = PacketSpec(sigma=args.sigma)
    psi0 = gaussian_packet(grid, packet.center, packet.sigma, packet.k)
    steps = int(round(args.t / args.dt))
    record = max(1, steps // 16)
    timeline = evolve(
        psi0, HamiltonianSpec.free(grid), record * (steps // record) * args.dt,
        args.dt, record_every=record,
    )

    print(f"{'t':>7} {'width':>10} {'theory':>10} {'rel err':>10}")
    for t, field in zip(timeline.times, timeline.fields):
        width = field.moments()[2]
        theory = packet.free_center_width(float(t))[1]
        print(f"{t:7.3f} {width:10.6f} {theory:10.6f} {abs(width - theory) / theory:10.2e}")

    starts = args.sigma * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    paths = integrate_ensemble(timeline, starts, keep_history=True)
    stretch = packet.free_center_width(float(timeline.times[-1]))[1] / packet.sigma
    print()
    print(f"trajectory fan at t = {timeline.times[-1]:.3f} (profile stretch {stretch:.4f}):")
    print(f"{'q0':>8} {'q_final':>10} {'q0 * stretch':>13}")
    for q0, qf in zip(paths.q0, paths.q_final):
        print(f"{q0:8.3f} {qf:10.5f} {q0 * stretch:13.5f}")


if __name__ == "__main__":
    main()
