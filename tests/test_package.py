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


def uses(source: str) -> set[tuple[str, str | None, bool]]:
    """The names a source's code refers to, names, attributes and imported
    names, each with its owner, the module-level function or the method of
    a module-level class whose code it is in (None outside them), and
    whether it is an attribute."""
    tree = ast.parse(source)
    owners = {}
    for top in tree.body:
        for member in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.update((id(node), member.name) for node in ast.walk(member))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add((node.id, owners.get(id(node)), False))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, owners.get(id(node)), True))
        elif isinstance(node, ast.alias):
            found.add((node.name.rsplit(".", 1)[-1], owners.get(id(node)), False))
    return found


def identifiers(source: str) -> set[str]:
    """The names a source's code refers to.  Strings and comments are not
    code, so "outcome_map.csv" does not use outcome_map."""
    return {name for name, _, _ in uses(source)}


def test_identifiers_skip_strings_and_comments():
    source = 'import a.b as c\nfrom d import e\nf(g.h, "i")  # j\n'
    assert identifiers(source) == {"b", "e", "f", "g", "h"}


def test_uses_name_their_owner():
    source = "def f():\n    g()\nclass C:\n    def m(self):\n        h.i()\n    k = 1\nx()\n"
    assert uses(source) == {
        ("g", "f", False), ("h", "m", False), ("i", "m", True), ("k", None, False),
        ("x", None, False),
    }


@functools.cache
def file_uses(path: Path) -> frozenset[tuple[str, str | None, bool]]:
    return frozenset(uses(path.read_text()))


def user_files() -> dict[Path, frozenset]:
    return {path.resolve(): file_uses(path) for path in USER_PATHS}


def has_user(name: str, home: Path, member: bool, flagged, files) -> bool:
    """Whether code in files outside home, the module that defines name,
    uses it; a member, a method or property, only as an attribute, so a
    local variable row does not use a method row.  Code owned by a flagged
    (name, home) pair in its own home does not count: a user with no user
    of its own uses nothing."""
    for path, found in files.items():
        if path != home and any(
            used == name and (attr or not member) and (owner, path) not in flagged
            for used, owner, attr in found
        ):
            return True
    if name in CLAIM_TESTS:
        module, cls = CLAIM_TESTS[name].split(".")
        return name in identifiers(inspect.getsource(getattr(importlib.import_module(module), cls)))
    return False


def flag_unused(candidates: dict[str, tuple[str, Path]], files) -> list[str]:
    """The labels of candidates, label -> (name, home), with no user in
    files, flagged again with the users flagged so far discounted until
    nothing more is flagged.  A label "Class.attr" names a member."""
    flagged: set[str] = set()
    while True:
        discounted = {candidates[label][:2] for label in flagged}
        now = {
            label for label, (name, home) in candidates.items()
            if not has_user(name, home, "." in label, discounted, files)
        }
        if now == flagged:
            return sorted(flagged)
        flagged = now


def test_users_that_are_flagged_do_not_count():
    a, b, c = Path("a.py"), Path("b.py"), Path("c.py")
    files = {
        a: uses("def f():\n    pass\n"),
        b: uses("import a\ndef g():\n    a.f()\nclass C:\n    def m(self):\n        g()\n"),
        c: uses("import b\nfor m in b.C().n():\n    pass\n"),
    }
    candidates = {"f": ("f", a), "g": ("g", b), "C.m": ("m", b)}
    # g's only user is C.m in g's own module; f's is g, flagged once g
    # is; a variable m is no user of the method m
    assert flag_unused(candidates, files) == ["C.m", "f", "g"]
    files[c] = uses("import b\nb.C().m()\n")
    assert flag_unused(candidates, files) == ["f", "g"]
    files[c] = uses("import b\nb.g()\n")
    assert flag_unused(candidates, files) == ["C.m"]


def home_of(obj) -> Path:
    return Path(inspect.getsourcefile(obj)).resolve()


@functools.cache
def unused_public_names() -> list[str]:
    """The public functions, and the public methods and properties of the
    public classes, that flag_unused flags: "name" or "Class.attr"."""
    candidates = {}
    for name in bohmlab.__all__:
        obj = getattr(bohmlab, name)
        if inspect.isfunction(obj):
            candidates[name] = (name, home_of(obj))
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                member = inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
                if member and not attr.startswith("_"):
                    candidates[f"{name}.{attr}"] = (attr, home_of(obj))
    return flag_unused(candidates, user_files())


def test_every_public_function_has_a_user():
    assert [name for name in unused_public_names() if "." not in name] == []


def test_every_public_method_and_property_has_a_user():
    # the rule for functions, applied to what each public class defines
    assert [name for name in unused_public_names() if "." in name] == []


def is_number(node: ast.expr) -> bool:
    """A numeric literal, signed or not: 512, 1e-10, -1."""
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)


def judgements(source: str) -> list[str]:
    """The comparisons in source's _run_* functions that judge a figure:
    an ordering, or any other comparison with a numeric literal."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_"):
            for cmp in (n for n in ast.walk(node) if isinstance(n, ast.Compare)):
                ordering = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in cmp.ops)
                if ordering or any(map(is_number, [cmp.left, *cmp.comparators])):
                    found.append(f"{node.name}: {ast.unparse(cmp)}")
    return found


def test_judgements_are_found():
    source = (
        "def _run_a(x):\n    return {'k': x <= 1e-10, 'm': x.n == 512, 'c': x.c == 'nogo'}\n"
        "def _run_b(x):\n    return (x.p == -1, x > x.band, x is None, x in (1, 2))\n"
        "def _helper(x):\n    return x < 1\n"
    )
    assert judgements(source) == [
        "_run_a: x <= 1e-10", "_run_a: x.n == 512", "_run_b: x.p == -1", "_run_b: x > x.band",
    ]


def test_the_cli_drivers_judge_no_claim():
    # each check in a summary is the verdict of the library object that
    # owns the claim; a driver only collects it
    assert judgements((ROOT / "src" / "bohmlab" / "cli.py").read_text()) == []
