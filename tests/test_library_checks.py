"""Library code reports bad input and broken invariants with the typed errors
of sidshrink.errors: an assert statement is stripped under `python -O`. Every
name that the package or one of its modules exports resolves."""
import ast
import importlib
from pathlib import Path

import sidshrink


def test_library_has_no_assert_statements():
    sources = sorted(Path(sidshrink.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves():
    package = Path(sidshrink.__file__).parent
    modules = [sidshrink] + [importlib.import_module(f"sidshrink.{path.stem}")
                             for path in sorted(package.glob("*.py"))
                             if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
