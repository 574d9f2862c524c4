"""Free Gaussian spreading: recorded width against the closed-form law,
and a fan of trajectories riding the self-similar profile.

Usage: python3 scripts/free_gaussian_study.py [--t 2.0] [--sigma 1.0]

The grid, dt and RK4 substeps are SGNumerics()'s.  The wave is recorded
every steps // 16 steps of dt, and a --t that those records do not tile
exactly is refused (exit 2).
"""

import argparse

import numpy as np

from bohmlab import (
    HamiltonianSpec, PacketSpec, SGNumerics, evolve, gaussian_packet, integrate_ensemble,
    window_steps,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t", type=float, default=2.0, help="evolution time")
    ap.add_argument("--sigma", type=float, default=1.0, help="initial width")
    args = ap.parse_args()

    numerics = SGNumerics()
    record = max(1, int(round(args.t / numerics.dt)) // 16)
    try:
        window_steps(args.t, numerics.dt, record, name="--t")
    except ValueError as exc:
        ap.error(str(exc))
    grid = numerics.grid()
    packet = PacketSpec(sigma=args.sigma)
    psi0 = gaussian_packet(grid, packet.center, packet.sigma, packet.k)
    timeline = evolve(psi0, HamiltonianSpec.free(grid), args.t, numerics.dt, record_every=record)

    print(f"{'t':>7} {'width':>10} {'theory':>10} {'rel err':>10}")
    for t, field in zip(timeline.times, timeline.fields):
        width = field.moments()[2]
        theory = packet.free_center_width(float(t))[1]
        print(f"{t:7.3f} {width:10.6f} {theory:10.6f} {abs(width - theory) / theory:10.2e}")

    starts = args.sigma * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    paths = integrate_ensemble(timeline, starts, dt_traj=timeline.spacing / numerics.substeps)
    stretch = packet.free_center_width(float(timeline.times[-1]))[1] / packet.sigma
    print()
    print(f"trajectory fan at t = {timeline.times[-1]:.3f} (profile stretch {stretch:.4f}):")
    print(f"{'q0':>8} {'q_final':>10} {'q0 * stretch':>13}")
    for q0, qf in zip(paths.q0, paths.q_final):
        print(f"{q0:8.3f} {qf:10.5f} {q0 * stretch:13.5f}")


if __name__ == "__main__":
    main()
