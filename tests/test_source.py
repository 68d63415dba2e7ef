"""Rules the package's own source keeps."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rolemodel"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_only_errors_opens_files(module):
    # every file goes through errors.open_text or errors.create_text, so
    # undecodable input is a format error and a failed write leaves no file
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert not calls, f"{module} calls open() on lines {calls}"
