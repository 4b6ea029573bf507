"""Every public top-level name of a `stratlogic` submodule has a use in the
package itself: a reference in its own module or another one, or a
re-export from `stratlogic/__init__.py`.  Every private top-level name is
read somewhere in the package too.  A name only tests use belongs under
`tests/`."""

from __future__ import annotations

import ast
from pathlib import Path

import stratlogic

PACKAGE = Path(stratlogic.__file__).parent


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level, dunders aside."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def _used(tree: ast.Module) -> set[str]:
    """The names a module reads, as a name, an attribute or an import."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
    return used


def _unused(package: Path) -> list[str]:
    """``module.name`` for each top-level name that no module reads."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = set().union(*map(_used, trees.values()))
    return sorted(
        f"{module[:-3]}.{name}" for module, tree in trees.items() for name in _defined(tree) - used
    )


def unused_public_names(package: Path = PACKAGE) -> list[str]:
    # What `__init__.py` binds publicly is the package's interface.
    return [
        name
        for name in _unused(package)
        if not name.startswith("__init__.") and not name.split(".")[1].startswith("_")
    ]


def unused_private_names(package: Path = PACKAGE) -> list[str]:
    return [name for name in _unused(package) if name.split(".")[1].startswith("_")]


def test_every_public_name_has_a_use_in_the_package():
    assert unused_public_names() == []


def test_every_private_name_is_read_in_the_package():
    assert unused_private_names() == []


def test_the_scan_flags_a_name_nothing_uses(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        "from .b import helper\n"
        "def kept(): return helper() + LIMIT\n"
        "def spare(): pass\n"
        "LIMIT = 3\n"
        "SPARE: int = 4\n"
        "def _private(): pass\n"
        "class Shape: pass\n"
    )
    (tmp_path / "b.py").write_text("import a\ndef helper(): return a.Shape\n")
    assert unused_public_names(tmp_path) == ["a.SPARE", "a.spare"]


def test_the_scan_flags_a_private_name_nothing_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n_SPARE = 1\n")
    (tmp_path / "a.py").write_text(
        "from .b import _helper\n"
        "def kept(): return _helper() + _LIMIT + _local()\n"
        "def _local(): return 1\n"
        "def _spare(): pass\n"
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "class _Shape: pass\n"
        "__all__ = ['kept']\n"
    )
    (tmp_path / "b.py").write_text("def _helper(): return 2\n")
    assert unused_private_names(tmp_path) == ["__init__._SPARE", "a._Shape", "a._TABLE", "a._spare"]
    assert unused_public_names(tmp_path) == []
