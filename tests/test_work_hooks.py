"""The private functions a tracer wraps to count the work done.

bench/child.py counts split steps through propagation._step_arrays (a
free evolve is exact and takes none) and velocity evaluations through
trajectories._interp_quotient, whose batch it reads from the 4th
positional argument q.  A rename, or a call that
bypasses the module attribute, would make those counts read 0 without an
error, so both hooks are pinned here.
"""

import inspect

import numpy as np

from bohmlab import (
    HamiltonianSpec, SGSetup, evolve, gaussian_packet, integrate_ensemble, make_grid,
)
from bohmlab import propagation, trajectories
from bohmlab.stern_gerlach import _magnet_hamiltonian

GRID = make_grid(256, -20.0, 20.0)


def counting(monkeypatch, module, name, record):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        record(args, kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_every_split_step_goes_through_step_arrays(monkeypatch):
    calls = []
    counting(monkeypatch, propagation, "_step_arrays", lambda args, kwargs: calls.append(1))
    psi = gaussian_packet(GRID, 0.0, 1.0, 0.0)
    # the magnet is not free, so each of its steps is a split step
    magnet = _magnet_hamiltonian(SGSetup(b_grad=1.0), GRID)
    evolve(psi, magnet, 0.25, 1 / 64, record_every=4)
    assert len(calls) == 16
    # a free window is exact: it takes no split step
    calls.clear()
    evolve(psi, HamiltonianSpec.free(GRID), 0.25, 1 / 64, record_every=4)
    assert calls == []


def test_every_velocity_evaluation_goes_through_interp_quotient(monkeypatch):
    params = list(inspect.signature(trajectories._interp_quotient).parameters)
    assert params[3] == "q"
    batches = []
    counting(
        monkeypatch, trajectories, "_interp_quotient",
        lambda args, kwargs: batches.append(np.size(args[3])),
    )
    psi = gaussian_packet(GRID, 0.0, 1.0, 0.0)
    timeline = evolve(psi, HamiltonianSpec.free(GRID), 0.25, 1 / 64, record_every=4)
    integrate_ensemble(timeline, np.linspace(-1.0, 1.0, 37), dt_traj=timeline.spacing / 4)
    # four evaluations per RK4 step, four steps per record interval
    assert batches == [37] * 4 * 4 * (len(timeline.times) - 1)
