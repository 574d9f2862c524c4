"""The package's public surface: each module's __all__, re-exported once,
and no public function that only its own module's unit tests call."""

import ast
import importlib
import inspect
from pathlib import Path

import bohmlab

ROOT = Path(__file__).resolve().parents[1]
# Public functions kept for a test of a paper claim: name -> that test's class.
CLAIM_TESTS = {
    "outcome_map": "test_stern_gerlach.TestOneOperatorTwoExperiments",
    "spectral_decompose": "test_stern_gerlach.TestOneOperatorTwoExperiments",
    "joint_value_distribution": "test_peres_mermin.TestValuesBelongToContexts",
}


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


def identifiers(source: str) -> set[str]:
    """The names a source's code refers to: names, attributes and imported
    names.  Strings and comments are not code, so "outcome_map.csv" does
    not use outcome_map."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_identifiers_skip_strings_and_comments():
    source = 'import a.b as c\nfrom d import e\nf(g.h, "i")  # j\n'
    assert identifiers(source) == {"b", "e", "f", "g", "h"}


def test_every_public_function_has_a_user():
    # a user is another library module, a script, the benchmark, the
    # acceptance criteria or the paper-claim test named in CLAIM_TESTS
    paths = [
        *(ROOT / "src" / "bohmlab").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
        *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py",
    ]
    unused = []
    for name in bohmlab.__all__:
        func = getattr(bohmlab, name)
        if not inspect.isfunction(func):
            continue
        home = Path(inspect.getsourcefile(func)).resolve()
        users = [path.read_text() for path in paths if path.resolve() != home]
        if name in CLAIM_TESTS:
            module, cls = CLAIM_TESTS[name].split(".")
            users.append(inspect.getsource(getattr(importlib.import_module(module), cls)))
        if not any(name in identifiers(text) for text in users):
            unused.append(name)
    assert unused == []
