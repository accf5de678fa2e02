"""Library code reports bad input and broken invariants with the typed errors
of sidshrink.errors: an assert statement is stripped under `python -O`."""
import ast
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
