"""The package's public surface: each module's __all__, re-exported once."""

import bohmlab


def test_every_public_name_is_listed_once_and_resolves():
    modules = [
        bohmlab.grids, bohmlab.operators, bohmlab.peres_mermin, bohmlab.propagation,
        bohmlab.sampling, bohmlab.stern_gerlach, bohmlab.trajectories,
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert bohmlab.__all__ == ["__version__", *names]
    for module in modules:
        for name in module.__all__:
            assert getattr(bohmlab, name) is getattr(module, name)
