"""Every name a package module imports is read in that module, `__init__.py` aside. The only
exceptions are the bindings that the benchmark's span recorder replaces (its entry points'
`bound_in` modules), which some modules import without calling."""

import ast
from pathlib import Path

import impulse_floquet
from perfbench.spans import ENTRY_POINTS

PACKAGE = Path(impulse_floquet.__file__).parent


def _imported(tree) -> set:
    """The names an `import` or `from ... import` binds, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _read(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _recorder_bindings() -> set:
    """(module, name) of every module-level binding that the span recorder replaces."""
    return {(module.rsplit(".", 1)[1], entry.owner.split(":")[1])
            for entry in ENTRY_POINTS for module in entry.bound_in}


def test_no_module_imports_a_name_it_never_reads():
    kept = _recorder_bindings()
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _imported(tree) - _read(tree) - {name for module, name in kept
                                                 if module == path.stem}
        if names:
            unread[path.name] = sorted(names)
    assert unread == {}
