"""Every name a ``reachmon`` module imports is used in it or re-exported
through its ``__all__``, so an import left behind by a deletion fails here."""

import ast
import pathlib

import pytest

import reachmon

SRC = pathlib.Path(reachmon.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))

# module -> imported names it keeps unused: ``perfbench/selftest.py`` checks
# that the tracer patches ``pipeline.monitor_predict`` as a binding site
ALLOWED = {"reachmon.pipeline": {"monitor_predict"}}


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - exported


@pytest.mark.parametrize("path", MODULES, ids=_module_name)
def test_every_import_is_used(path):
    assert unused_imports(path) == ALLOWED.get(_module_name(path), set())
