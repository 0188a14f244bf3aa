"""Every public top-level name of ``src/lsrigid`` has a user outside the tests.

Claims covered:
    - a public function, class or constant of a module is referred to by
      ``src/lsrigid`` (outside its own definition; the re-exports of
      ``__init__.py`` do not count) or by the benchmark in ``perfbench/``,
      unless ALLOWED names it with the reason it is kept
    - ALLOWED lists no name that has gained a user
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
