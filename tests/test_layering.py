"""The import layering of the package: the closed forms share no code with
the oracles that check them.

`optimize` and `verify` hold the registry's oracles (grid-and-golden search,
bisection). The closed-form modules import neither, and they have one root
solver, `specfun._itp`. Scalar and array callers share one arth(c x) kernel
and one AGM, and the CLI evaluates no formula of its own. Every private
module-level name is used somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import hyplam
from hyplam import qcbounds, specfun

SRC = Path(hyplam.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, relatively or by name."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level and parts[0] != "hyplam":
                continue
            if node.level:
                parts.insert(0, "hyplam")
            # "from . import x" and "from hyplam import x" name modules
            found |= {parts[1]} if len(parts) > 1 and parts[1] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("hyplam.")}
    return found


@pytest.mark.parametrize("module", ["specfun", "geometry", "lambert", "qcbounds"])
def test_closed_forms_import_no_oracle(module):
    assert not _package_imports(module) & {"optimize", "verify"}


def test_optimize_imports_only_errors():
    assert _package_imports("optimize") == {"errors"}


def _defined_in(name: str) -> list[str]:
    """The package modules that define a function `name`."""
    return [
        path.stem
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_one_itp():
    assert _defined_in("_itp") == ["specfun"]
    assert qcbounds._itp is specfun._itp


@pytest.mark.parametrize("name", ["_arth_cx", "agm", "_agm"])
def test_one_kernel(name):
    # scalars and ndarrays share one arth(c x) and one AGM
    assert _defined_in(name) == ["specfun"]


def test_cli_evaluates_no_formula():
    # the sweeps, whose rows live in _sweep, call the library's kernels: no
    # arth, log or AGM step of their own
    trees = [_tree("cli"), _tree("_sweep")]
    used = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"arctanh", "atanh", "log", "log1p", "sqrt", "cos", "sin", "agm", "_arth_cx"}


def _module_level_imports(module: str) -> set[str]:
    """The top-level packages that `module` imports outside any function."""
    found = set()
    for node in _tree(module).body:
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_modules_that_hold_rows_import_numpy_at_load():
    # the scalar layers and the CLI's reports tell rows through _rows (geometry
    # in _points) and load numpy only for rows; the sweep, the registry and its
    # oracles hold rows always
    assert [p.stem for p in sorted(SRC.glob("*.py")) if "numpy" in _module_level_imports(p.stem)] == [
        "_sweep", "optimize", "verify"
    ]


def test_no_module_binds_its_own_ndarray():
    # the row test is _rows.is_rows, and geometry's _points: no module binds numpy's array type
    bound = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "_ndarray"
    ]
    assert not bound


#: the Array API aliases numpy added in 2.0; pyproject allows numpy 1.24,
#: which has only arccos, arcsin, arctan, arctan2, arctanh, arcsinh, arccosh,
#: power, concatenate and transpose (test_array_core also hides them at run time)
NUMPY2_ONLY = {"acos", "asin", "atan", "atan2", "atanh", "asinh", "acosh", "pow", "concat", "permute_dims"}


def _numpy_namespace(node: ast.expr) -> bool:
    """np, numpy, a namespace ns that may be numpy, or a call that picks one:
    _rows.ns(...), ns(...) inside _rows, or _ns(...)."""
    if isinstance(node, ast.Call):
        node = node.func
        if isinstance(node, ast.Attribute) and node.attr == "ns":  # _rows.ns(...)
            return True
    return isinstance(node, ast.Name) and node.id in {"np", "numpy", "ns", "_ns"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_numpy2_only_aliases(path):
    # CI installs the latest numpy, where these exist: only this test sees a slip
    used = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in NUMPY2_ONLY and _numpy_namespace(node.value)
    ]
    assert not used


def _registered(node: ast.AST) -> bool:
    """A sweep that @claim adds to the registry, which nothing calls by name."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "claim" for d in node.decorator_list)


def test_every_private_name_is_used():
    # a private def, class or assignment at module level is read somewhere in
    # the package other than inside its own definition
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [] if _registered(node) else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and not any(
                    m != module or not node.lineno <= line <= node.end_lineno for m, line in reads.get(name, [])
                ):
                    unused.append(f"{module}.{name}")
    assert not unused
