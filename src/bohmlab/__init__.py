"""Numerical laboratory for the de Broglie-Bohm guidance picture in one
dimension: spectral spinor propagation, trajectory transport, equilibrium
sampling (an in-house Philox4x64-10 stream, the same as numpy's
Philox(key=seed)), an operator layer mapping experiments to observables,
a simulated beam-splitting experiment, and an exhaustive contextuality
search, all behind a deterministic batch CLI.

Each module's __all__ is the one list of its public names; the package
re-exports them all.  Submodules and names load on first access, so a
run imports only the modules it uses: `import bohmlab` loads none, and
the Stern-Gerlach pipeline never loads operators or peres_mermin.
"""

import importlib

__version__ = "0.1.0"

# Names are looked up module by module in this order, which follows the
# imports: a name of the Stern-Gerlach pipeline loads pipeline modules
# only, and only a name of operators or peres_mermin loads those two.
_SUBMODULES = ("grids", "propagation", "sampling", "trajectories", "stern_gerlach", "operators", "peres_mermin")


def __getattr__(name: str):
    if name in _SUBMODULES or name == "cli":  # cli's names are not re-exported
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":  # the modules' lists in alphabetical module order
        value = ["__version__"] + [
            public for module in sorted(_SUBMODULES) for public in __getattr__(module).__all__
        ]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        for module in map(__getattr__, _SUBMODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES, "cli"})
