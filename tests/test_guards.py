"""Tooling guards on the package source."""

import ast
import importlib
import pathlib

import pytest

import sqsums
from sqsums import legendre
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
        elif isinstance(node, ast.Subscript):  # FAMILIES["bbh"]
            named = _names(node.slice)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "FamilyId":
            # FamilyId("mkz"), core.FamilyId(name="mkz")
            named = [v for arg in (*node.args, *(kw.value for kw in node.keywords)) for v in _names(arg)]
        else:
            continue
        if named:
            found.append((node.lineno, named))
    return found


def test_the_guard_sees_each_form_of_dispatch():
    # each form the guard catches, in the source it parses
    forms = [
        'family.name == "bbh"',
        'name in ("szasz", "mkz")',
        '{"baskakov": 1}',
        'dict(bernstein=1)',
        'FAMILIES["bbh"].bounds',
        'core._FAMILIES["mkz"].to_base',
        'FamilyId("mkz")',
        'core.FamilyId(name="bbh")',
    ]
    for form in forms:
        assert _dispatch_on_family_names(ast.parse(form)), form
    assert _dispatch_on_family_names(ast.parse('FAMILIES[family.key]; FamilyId(name, c); d["x"]')) == []


def test_only_the_family_records_dispatch_on_family_names():
    # a decision per family belongs in a row of core._FAMILIES or
    # families.FAMILIES, not in a comparison, a table keyed by name, a
    # lookup by a name or a family built from one elsewhere
    src = pathlib.Path(sqsums.__file__).parent
    found = {
        path.name: hits
        for path in sorted(src.glob("*.py"))
        if path.name not in _RECORDS
        and (hits := _dispatch_on_family_names(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def _functions_reading(tree, name: str) -> list:
    """The functions (by qualified name) whose own bodies load ``name``,
    bare or as an attribute (``RuleKind.CHEBYSHEV_01``)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
            elif getattr(child, "id", getattr(child, "attr", None)) == name and isinstance(child.ctx, ast.Load):
                found.append(".".join(scope) or "<module>")
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def _package_readers(name: str) -> list:
    """The functions of the package (as file:qualified name) whose own
    bodies load ``name``, once per load."""
    src = pathlib.Path(sqsums.__file__).parent
    return [
        f"{path.name}:{fn}"
        for path in sorted(src.glob("*.py"))
        for fn in _functions_reading(ast.parse(path.read_text(), str(path)), name)
    ]


def test_z_switch_is_read_in_one_function():
    # the closed form's hand-over is decided once, by the pair grid that both
    # S and T run, not by a copy of the test in each
    readers = _package_readers("Z_SWITCH")
    assert len(set(readers)) == 1, readers


def test_neg_c_log_sum_is_read_in_one_function():
    # the c < 0 log sum is the series route's own sum; the closed form runs
    # the Legendre rows, so the two are independent witnesses
    readers = _package_readers("_neg_c_log_sum")
    assert set(readers) == {"evalnum.py:s_series_grid"}, readers


@pytest.mark.parametrize("name", ["_TANH_SINH_START", "_SZASZ_START_EDGES", "_TS_TAIL"])
def test_quadrature_regime_is_decided_by_its_plan(name):
    # S's quadrature decides its rule, first node count and claim in one
    # plan, which its route and the closed form's hand-over both read
    assert set(_package_readers(name)) == {"evalnum.py:_s_quad_plan"}


def test_only_the_quadrature_plan_picks_the_chebyshev_rule():
    # T's quadrature is S's plan at a pair parameter: no second integrand
    # of T chooses its own rule
    assert set(_package_readers("CHEBYSHEV_01")) == {"evalnum.py:_s_quad_plan"}


def test_twice_a_is_read_once_per_route():
    # 2a = 2n/c is sorted once per call of the series, the closed form and
    # the quadrature, not again in each helper they call
    readers = _package_readers("_twice_a")
    assert len(readers) == len(set(readers)) <= 3, readers


@pytest.mark.parametrize("name", ["s_closed", "s_series", "s_quad"])
def test_analysis_reads_no_scalar_route(name):
    # the finite-difference scans take every stencil point's S from one
    # grid call, not one scalar call per point
    path = pathlib.Path(sqsums.__file__).parent / "analysis.py"
    assert _functions_reading(ast.parse(path.read_text(), str(path)), name) == []


def test_cli_writes_documents_to_the_stream():
    # each verb writes its document to the output stream as it is produced;
    # no function of the cli holds a whole text in a string buffer
    path = pathlib.Path(sqsums.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _functions_reading(tree, "io") == []


def _package_reads():
    """The package's module trees, by file name, and a set of (reader,
    module, name): reader reads module's top-level name as ``module.name``,
    through ``from .module import name``, or, in module itself, as a bare
    name outside the definition of that name."""
    src = pathlib.Path(sqsums.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    read = set()
    for reader, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    read.add((reader, f"{node.value.id}.py", node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((reader, f"{node.module}.py", alias.name) for alias in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
                    read.add((reader, reader, node.id))
    return trees, read


def test_legendre_exports_only_what_the_package_runs():
    # legendre.py keeps what another module of the package reads; an oracle
    # that only a test calls lives in that test
    _, read = _package_reads()
    exported = {name for reader, module, name in read if module == "legendre.py" and reader != module}
    assert set(legendre.__all__) - exported == set()


def _traced_names(classes: bool = False) -> set:
    """(module, name) for each top-level name the benchmark's tracer
    (``perfbench/tracing.py`` TARGETS) looks up; a "Class.method" entry
    looks up the class.  With ``classes``, only those classes."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    return {
        (f"{module}.py", attr.split(".")[0])
        for _, module, attrs in ast.literal_eval(targets)
        for attr in attrs
        if "." in attr or not classes
    }


def test_every_traced_class_is_in_its_module():
    # the tracer looks a "Class.method" entry's class up without a default,
    # so a missing class would fail every traced operation (a missing
    # method is skipped)
    names = _traced_names(classes=True)
    assert ("exactalg.py", "RationalFn") in names
    missing = [
        f"{module}:{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"sqsums.{module.removesuffix('.py')}"), name)
    ]
    assert missing == []


def test_exact_layer_and_cli_functions_are_run_by_the_package():
    # a top-level function of these modules is read by another function of
    # the package, or at a module's top level, or is exported by sqsums, or
    # is looked up by the benchmark's tracer; a function that only a test
    # calls lives in that test
    trees, read = _package_reads()
    read |= {("perfbench/tracing.py", module, name) for module, name in _traced_names()}
    unread = [
        f"{module}:{fn.name}"
        for module in ("exactalg.py", "legendre.py", "cli.py", "evalnum.py", "core.py", "analysis.py", "bounds.py", "families.py")
        for fn in trees[module].body
        if isinstance(fn, ast.FunctionDef)
        and fn.name not in sqsums.__all__
        and not any(m == module and name == fn.name for _, m, name in read)
    ]
    assert unread == []


def test_conjecture_scan_writes_reports_to_the_stream():
    # each report goes through the streaming writer into its open file, not
    # through a whole text first
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "conjecture_scan.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _functions_reading(tree, "_write_json") == ["main"]
    assert _functions_reading(tree, "json_text") == []
    assert not any(isinstance(node, ast.Attribute) and node.attr == "write_text" for node in ast.walk(tree))
