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

No module-level name is kept that nothing reads: every constant, function
and class a module of the package binds at its top level (dunders excepted)
is read somewhere in the package, the tests or the benchmark harness, by
name, as an attribute or through an import.  And no function of the package
takes a parameter it never reads (``self`` and ``cls`` excepted), apart from
the exemptions listed with their reasons in ``PARAMETERS_EXEMPT``.

No value is stashed on an object behind its class's back: no module of the
package calls ``object.__setattr__`` (a frozen config holds its fields and
nothing derived from them).  And no parameter keeps a default that no caller
overrides: every parameter with a default, of every function and method of
the package, is passed, by keyword or by position, by at least one call in
the package, the tests or the benchmark harness, apart from the exemptions
in ``DEFAULTS_EXEMPT``.  Calls are matched to functions by name, so a call
of any function of that name counts.

No code is kept that only the tests reach: every module-level name and
every method and property of the package is read, by the same name match,
in the package or the benchmark harness, apart from the exemptions listed
with their reasons in ``ONLY_TESTS_EXEMPT``.  A helper that only tests use
lives in the tests (``tests/oracles.py`` when several share it).

Every config field states its admissible values: each int, float and tuple
field of each section reachable from ``RunConfig`` declares a bound
(``Annotated[float, POSITIVE]``, :mod:`gaitrl.codec`), apart from the
exemptions listed with their reasons in ``BOUNDS_EXEMPT``.
"""

from __future__ import annotations

import ast
import dataclasses
import typing
from pathlib import Path
from typing import Annotated

import pytest

from gaitrl.codec import POSITIVE, Bounded, field_bounds
from gaitrl.config import RunConfig

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
    """Names read (not only bound) anywhere in the module."""
    used = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
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


def module_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds at its top level -> its line: assignments,
    functions and classes (dunders excepted)."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Name):
                        names[t.id] = node.lineno
    return {k: v for k, v in names.items() if not (k.startswith("__") and k.endswith("__"))}


def module_names_read(tree: ast.Module) -> set[str]:
    """Names read by name, as an attribute, or imported from a module."""
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return used_names(tree) | read_attributes(tree) | imported


def test_the_check_flags_a_module_name_nothing_reads():
    tree = ast.parse(
        "import os\nfrom json import dumps as d\nLIMIT = 3\nUNUSED, PAIR = 1, 2\n"
        "_cache: dict = {}\n__version__ = '1'\n"
        "def helper(): ...\ndef dead(): ...\nclass Kept: ...\n"
        "def run():\n    return helper() + LIMIT + PAIR + len(os.sep) + Kept.x\n"
        "print(run(), d)\n"
    )
    read = module_names_read(tree)
    assert [n for n in module_names(tree) if n not in read] == ["UNUSED", "_cache", "dead"]
    # a name imported from a module counts as read there
    assert "dumps" in read


def test_no_module_name_that_nothing_reads():
    read = set().union(*(module_names_read(ast.parse(p.read_text())) for p in READERS))
    unread = [
        f"{path.name}:{line}: {name}"
        for path in READERS
        if path.parent.name == "gaitrl"
        for name, line in module_names(ast.parse(path.read_text(), filename=str(path))).items()
        if name not in read
    ]
    assert unread == []


# Names that only the tests reach but that stay in the package, each with the reason.
ONLY_TESTS_EXEMPT = {
    "controllers.ScriptedWalker": "scripted controllers for the tests; they move under tests/ "
                                  "with the tests that use them when evaluation runs as one batch "
                                  "(ROADMAP, item 8)",
    "controllers.ConstantController": "as controllers.ScriptedWalker",
    "env.TERMINATIONS": "the vocabulary of StepResult.termination, stated once beside the env "
                        "that writes it; per-reason termination counts will index it (ROADMAP, "
                        "item 5)",
}
# the code a run reaches: the package and the benchmark harness
IN_USE = sorted(p for d in ("src/gaitrl", "perfbench") for p in (ROOT / d).glob("*.py"))


def only_tests_reach(package: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """``module.name`` for each name a module of ``package`` (stem -> tree)
    binds at its top level, and ``Class.name`` for each method and property
    its classes define, that no tree of ``readers`` reads by name, as an
    attribute or through an import."""
    read = set().union(*(module_names_read(tree) for tree in readers))
    return [
        *(f"{stem}.{name}" for stem, tree in package.items() for name in module_names(tree)
          if name not in read),
        *(method for tree in package.values() for method in defined_methods(tree)
          if method.split(".", 1)[1] not in read),
    ]


def test_the_check_flags_code_that_only_tests_reach():
    package = {"lib": ast.parse(
        "LIMIT = 3\nSPARE = 4\n"
        "class Env:\n    def step(self): ...\n    def peek(self): ...\n"
        "    @property\n    def width(self): ...\n"
        "def run(env):\n    return env.step() + env.width + LIMIT\n"
        "def helper(): ...\n"
    )}
    harness = ast.parse("from lib import Env, run\nrun(Env())\n")
    test = ast.parse("from lib import SPARE, helper\nhelper(SPARE)\nEnv().peek()\n")
    assert only_tests_reach(package, [*package.values(), harness]) == [
        "lib.SPARE", "lib.helper", "Env.peek",
    ]
    assert only_tests_reach(package, [*package.values(), harness, test]) == []


def test_no_code_that_only_tests_reach():
    package = {p.stem: ast.parse(p.read_text(), filename=str(p))
               for p in IN_USE if p.parent.name == "gaitrl"}
    found = only_tests_reach(package, [ast.parse(p.read_text()) for p in IN_USE])
    assert sorted(set(found) - set(ONLY_TESTS_EXEMPT)) == []
    # an exemption goes with the code it names, or once the code is read
    assert sorted(set(ONLY_TESTS_EXEMPT) - set(found)) == []


# Parameters that stay although their function does not read them, each
# keyed by the function's signature, with the reason.
PARAMETERS_EXEMPT = {
    # the controller protocol (gaitrl.controllers): the benchmark passes a
    # controller both, and each controller reads what it needs
    "act(self, bundle, state)": {"bundle", "state"},
    # perfbench passes it; the next change to the benchmark drops it in both
    # places (ROADMAP, item 1)
    "recompute_cell_from_trace(trace_path, goal_m)": {"goal_m"},
}


def unread_parameters(tree: ast.Module) -> list[tuple[int, str, str]]:
    """``(line, signature, parameter)`` for each parameter of a function or
    lambda that its body never reads (``self`` and ``cls`` excepted)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        params = [p for p in params if p is not None]
        signature = f"{getattr(fn, 'name', 'lambda')}({', '.join(p.arg for p in params)})"
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (fn.lineno, signature, p.arg)
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return found


def test_the_check_flags_a_parameter_nothing_reads():
    tree = ast.parse(
        "def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
        "class C:\n    def m(self, x, y):\n        def inner():\n            return x\n"
        "        y = 2\n        return inner\n"
        "g = lambda u, v: u\n"
    )
    assert [(sig, p) for _, sig, p in unread_parameters(tree)] == [
        ("f(a, b, args, c, kw)", "b"),
        ("f(a, b, args, c, kw)", "args"),
        ("f(a, b, args, c, kw)", "c"),
        ("m(self, x, y)", "y"),
        ("lambda(u, v)", "v"),
    ]


def test_no_parameter_that_its_function_never_reads():
    unread = [
        f"{path.name}:{line}: {signature}: {param}"
        for path in READERS
        if path.parent.name == "gaitrl"
        for line, signature, param in unread_parameters(ast.parse(path.read_text()))
        if param not in PARAMETERS_EXEMPT.get(signature, ())
    ]
    assert unread == []


def object_setattr_calls(tree: ast.Module) -> list[int]:
    """The lines that call ``object.__setattr__``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_the_check_flags_an_object_setattr_call():
    tree = ast.parse(
        "class Model:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, '_cache', 1)\n"
        "        setattr(self, 'x', 2)\n        super().__setattr__('y', 3)\n"
    )
    assert object_setattr_calls(tree) == [3]


def test_no_object_setattr():
    found = [
        f"{path.name}:{line}"
        for path in FILES
        if path.parent.name == "gaitrl"
        for line in object_setattr_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


# Parameters with a default that no call passes, each keyed by
# ``callee: parameter``, with the reason it stays.
DEFAULTS_EXEMPT: dict[str, str] = {}


def defaulted_parameters(tree: ast.Module) -> list[tuple[int, str, str, int | None]]:
    """``(line, callee, parameter, position)`` for each parameter with a
    default of each function and method.  A method's ``__init__`` is called
    as its class; ``position`` counts the arguments a call passes before
    the parameter (``self`` and ``cls`` not counted), and is None for a
    keyword-only one.  Dunders other than ``__init__`` are not called by name."""
    found = []
    owner = {
        id(item): cls
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("__") and fn.name != "__init__":
            continue
        cls = owner.get(id(fn))
        callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        )
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        found += [
            (fn.lineno, callee, p.arg, i - bound)
            for i, p in enumerate(positional[first:], first)
        ]
        found += [
            (fn.lineno, callee, p.arg, None)
            for p, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None
        ]
    return found


def passed_arguments(tree: ast.Module) -> dict[str, tuple[set[str], float]]:
    """Callee name -> (the keywords some call passes, the most positional
    arguments a call passes).  A callee is the called name or attribute; a
    ``*args`` or ``**kwargs`` splat counts as passing every parameter."""
    passed: dict[str, tuple[set[str], float]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is None:
            continue
        keywords, n_positional = passed.get(name, (set(), 0))
        keywords = keywords | {k.arg for k in node.keywords if k.arg is not None}
        n_positional = max(n_positional, len(node.args))
        if any(isinstance(x, ast.Starred) for x in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            n_positional = float("inf")
            keywords.add("**")
        passed[name] = (keywords, n_positional)
    return passed


def defaults_nothing_passes(tree: ast.Module, passed: dict) -> list[str]:
    found = []
    for line, callee, param, position in defaulted_parameters(tree):
        keywords, n_positional = passed.get(callee, (set(), 0))
        by_position = position is not None and n_positional > position
        if not (param in keywords or "**" in keywords or by_position):
            found.append(f"{line}: {callee}: {param}")
    return found


def test_the_check_flags_a_default_nothing_passes():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    ...\n"
        "class Walker:\n    def __init__(self, model=None, gain=1.0):\n        ...\n"
        "    def act(self, x, scale=2.0):\n        ...\n"
        "    @staticmethod\n    def make(n=1):\n        ...\n"
        "def g(u=0, v=1):\n    ...\n"
        "f(0, 1, e=5)\nWalker(model)\nWalker(None).act(1)\nWalker.make(2)\n"
        "args = (1, 2)\ng(*args)\n"
    )
    assert defaults_nothing_passes(tree, passed_arguments(tree)) == [
        "1: f: c", "1: f: d", "4: Walker: gain", "6: act: scale",
    ]


def test_every_default_is_passed_by_some_call():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in READERS]
    passed: dict[str, tuple[set[str], float]] = {}
    for tree in trees:
        for name, (keywords, n_positional) in passed_arguments(tree).items():
            seen, most = passed.get(name, (set(), 0))
            passed[name] = (seen | keywords, max(most, n_positional))
    unpassed = [
        f"{path.name}:{entry}"
        for path, tree in zip(READERS, trees)
        if path.parent.name == "gaitrl"
        for entry in defaults_nothing_passes(tree, passed)
        if entry.split(": ", 1)[1] not in DEFAULTS_EXEMPT
    ]
    assert unpassed == []


# int, float and tuple config fields that declare no bound, each with the reason
BOUNDS_EXEMPT = {
    "EnvConfig.n_gaits": "RunConfig bounds it by the reference gaits, with its own message",
}


def config_sections(cls, path: str = ""):
    """``(path, class)`` of each dataclass section under ``cls``, depth first
    (``gaits``, then ``gaits.clip_params``)."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            sub = f"{path}.{f.name}" if path else f.name
            yield sub, hints[f.name]
            yield from config_sections(hints[f.name], sub)


def unbounded_fields(root) -> list[str]:
    """``Class.field`` for each int, float or tuple field of ``root`` and its
    sections that declares no bound."""
    found = []
    for cls in {root, *(cls for _, cls in config_sections(root))}:
        bounded = {name for name, _ in field_bounds(cls)}
        hints = typing.get_type_hints(cls)
        found += [
            f"{cls.__name__}.{f.name}"
            for f in dataclasses.fields(cls)
            if (typing.get_origin(hints[f.name]) or hints[f.name]) in (int, float, tuple)
            and f.name not in bounded
        ]
    return sorted(found)


@dataclasses.dataclass
class _ProbeSection(Bounded):
    width: Annotated[int, POSITIVE] = 1
    scale: float = 1.0
    name: str = ""


@dataclasses.dataclass
class _ProbeRun:
    section: _ProbeSection = dataclasses.field(default_factory=_ProbeSection)
    sizes: tuple[int, ...] = ()
    ranked: bool = False


def test_the_check_flags_a_field_without_a_bound():
    assert unbounded_fields(_ProbeRun) == ["_ProbeRun.sizes", "_ProbeSection.scale"]


def test_every_config_field_declares_its_bound():
    assert unbounded_fields(RunConfig) == sorted(BOUNDS_EXEMPT)
