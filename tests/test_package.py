"""The package's public surface: each module's __all__, re-exported once,
and no public function, method or property that only its own module's
unit tests call."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import bohmlab

ROOT = Path(__file__).resolve().parents[1]
# Public names kept for a test of a paper claim: name -> that test's class.
CLAIM_TESTS = {
    "outcome_map": "test_stern_gerlach.TestOneOperatorTwoExperiments",
    "spectral_decompose": "test_stern_gerlach.TestOneOperatorTwoExperiments",
    "calibrations": "test_stern_gerlach.TestOneOperatorTwoExperiments",
    "joint_value_distribution": "test_peres_mermin.TestValuesBelongToContexts",
}
# Where a user may be: another library module, a script, the benchmark or
# the acceptance criteria; or the paper-claim test named in CLAIM_TESTS.
USER_PATHS = [
    *(ROOT / "src" / "bohmlab").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
    *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py",
]


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


@functools.cache
def file_identifiers(path: Path) -> frozenset[str]:
    return frozenset(identifiers(path.read_text()))


def has_user(name: str, home: Path) -> bool:
    """Whether code outside home, the module that defines name, uses it."""
    if any(name in file_identifiers(path) for path in USER_PATHS if path.resolve() != home):
        return True
    if name in CLAIM_TESTS:
        module, cls = CLAIM_TESTS[name].split(".")
        return name in identifiers(inspect.getsource(getattr(importlib.import_module(module), cls)))
    return False


def home_of(obj) -> Path:
    return Path(inspect.getsourcefile(obj)).resolve()


def test_every_public_function_has_a_user():
    unused = [
        name for name in bohmlab.__all__
        if inspect.isfunction(func := getattr(bohmlab, name)) and not has_user(name, home_of(func))
    ]
    assert unused == []


def test_every_public_method_and_property_has_a_user():
    # the rule for functions, applied to what each public class defines
    unused = []
    for name in bohmlab.__all__:
        cls = getattr(bohmlab, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            member = inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
            if member and not attr.startswith("_") and not has_user(attr, home_of(cls)):
                unused.append(f"{name}.{attr}")
    assert unused == []
