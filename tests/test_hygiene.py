"""Source hygiene, by stdlib ``ast`` walks.

No module imports a name it never uses: a walk over the package and the
tests (``__init__.py`` files are exempt: their imports are re-exports).  A
name counts as used when it is read anywhere in the module, including as the
root of an attribute chain (``np`` in ``np.zeros``) or inside a quoted
annotation.

Files are written and read through ``gaitrl.codec`` alone: no class in the
package outside it has a method named like a hand-written serializer.

No state is kept that nothing reads: every attribute a class of the package
sets (``self.<name> = ...``) and every dataclass field is read, as
``.<name>`` or ``getattr(x, "<name>")``, somewhere in the package, the tests
or the benchmark harness.  Nor is code kept that nothing calls: every
method and property a class of the package defines (dunders excepted) is
read the same way.  The checks go by name alone, so a name read anywhere
counts for every class.

Networks take ``[B, d]`` batches and nothing else: no module of the package
names numpy's ``atleast_*`` shape coercions.  A caller that holds a single
sample passes a batch of one (``x[None]``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(p for d in ("src/gaitrl", "tests", "perfbench") for p in (ROOT / d).glob("*.py"))
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def stored_attributes(tree: ast.Module) -> list[str]:
    """``Class.name`` for each dataclass field and each ``self.<name> =`` in a class."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        names = []
        if _is_dataclass(cls):
            names += [
                item.target.id
                for item in cls.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
            ]
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        names.append(t.attr)
        found += [f"{cls.name}.{name}" for name in dict.fromkeys(names)]
    return found


def read_attributes(tree: ast.Module) -> set[str]:
    """Names read as ``.<name>`` or as ``getattr(x, "<name>")``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return read


def test_the_check_flags_state_nothing_reads():
    tree = ast.parse(
        "@dataclass\nclass Result:\n    kept: int\n    dropped: int = 0\n"
        "    version: ClassVar[int] = 1\n"
        "class Env:\n    def __init__(self):\n        self.a, self.b = 0, 1\n"
        "        self.c: int = 2\n        self.c += 1\n"
        "    def f(self, r):\n        return r.kept + self.a + getattr(self, 'b')\n"
    )
    read = read_attributes(tree)
    assert [a for a in stored_attributes(tree) if a.split(".")[1] not in read] == [
        "Result.dropped", "Env.c",
    ]


def names_read() -> set[str]:
    """Every name read as an attribute in the package, the tests or the harness."""
    return set().union(*(read_attributes(ast.parse(p.read_text())) for p in READERS))


def test_no_state_that_nothing_reads():
    read = names_read()
    unread = [
        f"{path.name}: {attr}"
        for path in READERS
        if path.parent.name == "gaitrl"
        for attr in stored_attributes(ast.parse(path.read_text(), filename=str(path)))
        if attr.split(".", 1)[1] not in read
    ]
    assert unread == []


def defined_methods(tree: ast.Module) -> list[str]:
    """``Class.name`` for each method and property a class defines, dunders excepted."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        names = [
            item.name
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
        ]
        found += [f"{cls.name}.{name}" for name in dict.fromkeys(names)]
    return found


def test_the_check_flags_a_method_nothing_reads():
    tree = ast.parse(
        "class Net:\n    def __init__(self): ...\n    def forward(self, x): ...\n"
        "    def copy(self): ...\n    @property\n    def width(self): ...\n"
        "    @property\n    def depth(self): ...\n"
        "def run(net):\n    return net.forward(1) + getattr(net, 'width')\n"
    )
    read = read_attributes(tree)
    assert [m for m in defined_methods(tree) if m.split(".")[1] not in read] == [
        "Net.copy", "Net.depth",
    ]


def test_no_method_that_nothing_reads():
    read = names_read()
    unread = [
        f"{path.name}: {method}"
        for path in READERS
        if path.parent.name == "gaitrl"
        for method in defined_methods(ast.parse(path.read_text(), filename=str(path)))
        if method.split(".", 1)[1] not in read
    ]
    assert unread == []


SHAPE_COERCIONS = {"atleast_1d", "atleast_2d", "atleast_3d"}
# the field that holds the name, for each node kind that can name a coercion
NAME_FIELDS = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}


def shape_coercions(tree: ast.Module) -> list[int]:
    """The lines that name one of numpy's ``atleast_*`` shape coercions."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if type(node) in NAME_FIELDS and getattr(node, NAME_FIELDS[type(node)]) in SHAPE_COERCIONS
    )


def test_the_check_flags_a_shape_coercion():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import atleast_1d as one\n"
        "x = np.atleast_2d(y)\nz = y[None, :]\nw = np.asarray(y)\n"
    )
    assert shape_coercions(tree) == [2, 3]


def test_no_shape_coercions():
    found = [
        f"{path.name}:{line}"
        for path in FILES
        if path.parent.name == "gaitrl"
        for line in shape_coercions(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
