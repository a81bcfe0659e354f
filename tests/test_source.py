"""The package computes; identities are checked by the tests and the verify suites."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "covario"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_in_the_package(path):
    # identity checks live in the tests and the verify rows; the CLI's exit
    # 1 is for its typed check failures, and an assert vanishes under -O
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "AssertionError")
             or (isinstance(node, ast.Attribute) and node.attr == "AssertionError")]
    assert found == [], f"{path.name} lines {found}"
