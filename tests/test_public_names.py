"""Every public top-level name of ``src/lsrigid`` has a user outside the tests.

Claims covered:
    - a public function, class or constant of a module is referred to by
      ``src/lsrigid`` (outside its own definition; the re-exports of
      ``__init__.py`` do not count) or by the benchmark in ``perfbench/``,
      unless ALLOWED names it with the reason it is kept
    - ALLOWED lists no name that has gained a user
    - every defaulted parameter of a public function or method of
      ``src/lsrigid`` is passed, by position or keyword, by some call in
      ``src/``, ``perfbench/`` or ``tests/``, unless KNOBS names it with the
      reason it is kept; a parameter nothing sets is a constant
    - KNOBS lists no parameter that has gained a caller
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DIAGNOSTIC = "measures a constant the theory assumes; kept for the manifest's diagnostics stage"
_FIXTURE = "doctored coding for the negative tests"

ALLOWED = {
    "ball_counts": "exact ball counts, the reference whose growth rate v* must match",
    "measure_mass_band": _DIAGNOSTIC,
    "recurrence_report": _DIAGNOSTIC,
    "rough_ray": _DIAGNOSTIC,
    "sweep_telescoping": _DIAGNOSTIC,
    "witness_deviation": _DIAGNOSTIC,
    "coding_missing_generator_edge": _FIXTURE,
    "coding_with_dead_end": _FIXTURE,
}

KNOBS = {
    ("rough_ray", "limit"): _DIAGNOSTIC,
    ("recurrence_report", "visit_cap"): _DIAGNOSTIC,
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _referenced(node):
    """Identifiers a top-level statement refers to; ``x.name`` counts as ``name``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_public_name_has_a_user():
    package = ROOT / "src" / "lsrigid"
    modules = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    users: dict[str, set[int]] = {}  # identifier -> ids of the top-level statements using it
    for tree in modules + bench:
        for node in tree.body:
            for name in _referenced(node):
                users.setdefault(name, set()).add(id(node))
    unused = sorted(
        name
        for tree in modules
        for name, node in _definitions(tree)
        if not name.startswith("_") and not users.get(name, set()) - {id(node)}
    )
    assert unused == sorted(ALLOWED)
    assert all(ALLOWED.values())


def _defaulted_parameters(tree):
    """(call name, parameter, position) for each defaulted parameter of a
    public function or method (``__init__`` is called by the class name);
    the position excludes self or cls, and is None for a keyword-only one."""

    def defaulted(fn, call, offset):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for k in range(first, len(args)):
            yield call, args[k].arg, k - offset
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield call, arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from defaulted(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__" or not fn.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    call = node.name if fn.name == "__init__" else fn.name
                    yield from defaulted(fn, call, 0 if static else 1)


def test_every_defaulted_parameter_is_set_somewhere():
    calls: dict[str, list[ast.Call]] = {}  # called name (``x.name`` counts as ``name``) -> calls
    for path in sorted(p for top in ("src", "perfbench", "tests") for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, name, position):
        return any(
            any(kw.arg in (name, None) for kw in c.keywords)
            or position is not None
            and (len(c.args) > position or any(isinstance(a, ast.Starred) for a in c.args))
            for c in calls.get(call, ())
        )

    package = ROOT / "src" / "lsrigid"
    unset = sorted(
        (call, name)
        for path in sorted(package.glob("*.py"))
        for call, name, position in _defaulted_parameters(ast.parse(path.read_text()))
        if not passed(call, name, position)
    )
    assert unset == sorted(KNOBS)
    assert all(KNOBS.values())
