"""Source hygiene, by stdlib ``ast`` walks.

No module imports a name it never uses: a walk over the package and the
tests (``__init__.py`` files are exempt: their imports are re-exports).  A
name counts as used when it is read anywhere in the module, including as the
root of an attribute chain (``np`` in ``np.zeros``) or inside a quoted
annotation.

Files are written and read through ``gaitrl.codec`` alone: no class in the
package outside it has a method named like a hand-written serializer.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for d in (ROOT / "src" / "gaitrl", ROOT / "tests")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line (``from __future__`` excluded)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            # a quoted annotation such as "np.ndarray" names its root
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_the_check_sees_both_trees():
    assert any(p.parent.name == "gaitrl" for p in FILES)
    assert any(p.parent.name == "tests" for p in FILES)


def test_the_check_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport numpy as np\nfrom json import dumps, loads\n"
        "x: 'np.ndarray'\nprint(dumps)\n"
    )
    tree = ast.parse(probe.read_text())
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["loads", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


SERIALIZER_NAMES = {
    "to_dict", "from_dict", "state_dict", "from_state_dict",
    "to_json_dict", "from_json_dict", "save", "load",
}
# perfbench/ calls these two, so they stay, each a call into the codec
SERIALIZER_EXEMPT = {"ActorCritic.to_dict", "BenchmarkReport.to_json_dict"}


def serializer_methods(tree: ast.Module) -> list[str]:
    """``Class.method`` for each method named like a hand-written serializer."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name in SERIALIZER_NAMES
        and f"{node.name}.{item.name}" not in SERIALIZER_EXEMPT
    ]


def test_the_check_flags_a_serializer_method():
    tree = ast.parse(
        "class Clip:\n    def save(self, path): ...\n    def duration(self): ...\n"
        "class ActorCritic:\n    def to_dict(self): ...\n"
    )
    assert serializer_methods(tree) == ["Clip.save"]


def test_one_serializer():
    found = [
        f"{path.name}: {method}"
        for path in FILES
        if path.parent.name == "gaitrl" and path.name != "codec.py"
        for method in serializer_methods(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
