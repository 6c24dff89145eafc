"""Tooling guards on the package source."""

import ast
import pathlib

import sqsums
from sqsums.core import FAMILY_NAMES

# the family table and the family record are the two places that name families
_RECORDS = {"core.py", "families.py"}


def _names(node) -> list:
    """The family-name literals that node is, or holds as a tuple, list or set."""
    parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [p.value for p in parts if isinstance(p, ast.Constant) and p.value in FAMILY_NAMES]


def _dispatch_on_family_names(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
        ):
            named = [v for operand in (node.left, *node.comparators) for v in _names(operand)]
        elif isinstance(node, ast.Dict):
            named = [v for key in node.keys if key is not None for v in _names(key)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
            named = [kw.arg for kw in node.keywords if kw.arg in FAMILY_NAMES]
        else:
            continue
        if named:
            found.append((node.lineno, named))
    return found


def test_only_the_family_records_dispatch_on_family_names():
    # a decision per family belongs in a row of core._FAMILIES or
    # families.FAMILIES, not in a comparison or a table keyed by name elsewhere
    src = pathlib.Path(sqsums.__file__).parent
    found = {
        path.name: hits
        for path in sorted(src.glob("*.py"))
        if path.name not in _RECORDS
        and (hits := _dispatch_on_family_names(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
