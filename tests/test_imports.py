"""Every import in the package's modules is used, every dataclass field is
read, and no function calls itself.

``__init__.py`` only re-exports, so it is left out of the import scan. A
name counts as used when it appears anywhere in the module's code,
including inside a string annotation such as ``"LinkParams | None"``. A
field counts as read when some attribute load of its name (``x.field``)
appears in the package, its tests or its benchmark. A function calls
itself when its body, nested functions included, calls its own name, bare
or as ``self.name`` or ``cls.name``: a recursive search has a depth limit
that a long path or a large graph reaches.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qkdnet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return [name for name in imported if name not in used]


def test_the_scan_flags_an_unused_import():
    source = 'from typing import TYPE_CHECKING, Iterable\nimport os\ndef f(x: "Iterable[int]"): pass\n'
    assert unused_imports(source) == ["TYPE_CHECKING", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []



def attribute_loads(sources: list[str]) -> set[str]:
    """Every name read as an attribute, ``x.name``, in ``sources``."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(source: str, read: set[str]) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of a ``@dataclass`` in ``source`` not in ``read``."""
    return [
        (node.name, item.target.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and any("dataclass" in _names(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in read
    ]


def test_the_scan_flags_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
        "@dataclass\nclass B:\n    z: int\n"
        "class C:\n    w: int\n"
        "def f(a, b):\n    b.z = a.x\n"
    )
    assert unread_fields(source, attribute_loads([source])) == [("A", "y"), ("B", "z")]


def test_every_dataclass_field_is_read():
    read = attribute_loads([p.read_text() for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")])
    assert [(path.name, *field) for path in MODULES for field in unread_fields(path.read_text(), read)] == []


def _calls_by_name(call: ast.AST, name: str) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr == name
    return isinstance(func, ast.Name) and func.id == name


def self_calls(source: str) -> list[str]:
    """Names of the functions in ``source``, nested ones included, that call themselves."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_calls_by_name(call, node.name) for call in ast.walk(node))
    )


def test_the_scan_flags_a_self_call():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g():\n    def walk(x):\n        yield from walk(x)\n    return walk\n"
        "class A:\n    def m(self):\n        return self.m()\n"
        "    def k(self, other):\n        return other.k() + f(1)\n"
    )
    assert self_calls(source) == ["f", "m", "walk"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text()) == []
