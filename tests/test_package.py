import ast
from pathlib import Path

import pytest

import tapearm

_MODULES = sorted(path for path in Path(tapearm.__file__).parent.glob("*.py")
                  if path.name != "__init__.py")


def test_every_public_name_resolves():
    missing = [name for name in tapearm.__all__ if not hasattr(tapearm, name)]
    assert missing == []
    assert len(set(tapearm.__all__)) == len(tapearm.__all__)


@pytest.mark.parametrize("path", _MODULES, ids=[path.stem for path in _MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"
