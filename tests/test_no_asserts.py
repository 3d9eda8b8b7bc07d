"""The package checks its internal identities with typed errors.

`python -O` strips `assert` statements, so an identity checked by one
would go unchecked there.  Every such check in src/chowstab raises a
ChowstabError instead; this test keeps it that way.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "chowstab").glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"exactcore.py", "testconfig.py"}


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
