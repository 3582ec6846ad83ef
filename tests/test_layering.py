"""The import layering of the package: the closed forms share no code with
the oracles that check them.

`optimize` and `verify` hold the registry's oracles (grid-and-golden search,
verify's bracket search for the geodesic distance, and verify's AGM, the
oracle of mu). The closed-form modules import neither, and they have one root
solver, `specfun._itp`. Scalar and array callers share one arth(c x) kernel;
specfun takes mu from the nome and defines no AGM, and the CLI evaluates no
formula of its own. Every private module-level name is used somewhere in the
package.
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
    # since bisect_root left for the tests, not even errors
    assert _package_imports("optimize") == set()


#: verify's geodesic-distance oracle, the search that geodesic_distance's closed form is checked against
ORACLE = ("_bracket_min", "_ends_form", "_clamped", "_on_geodesics", "_least_over_g2", "_distance_rows")


def test_the_distance_oracle_uses_no_closed_form():
    tree = _tree("verify")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE) <= set(defs)
    used = {
        getattr(node, "id", getattr(node, "attr", None))
        for name in ORACLE
        for node in ast.walk(defs[name])
    }
    assert not used & {"geodesic_distance", "_ends_distance", "_ends_of"}


#: verify's oracles of mu and mu^{-1}: the AGM and the bisection on its mu
MU_ORACLE = ("_agm", "_agm_mu", "_mu_inverse_bisect")


def test_the_mu_oracle_uses_no_closed_form():
    tree = _tree("verify")
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(MU_ORACLE) <= set(defs)
    used = {
        getattr(node, "id", getattr(node, "attr", None))
        for name in MU_ORACLE
        for node in ast.walk(defs[name])
    }
    assert not used & {"grotzsch_mu", "_mu_pair", "mu_inverse", "_mu_inverse_pair", "_nome_moduli", "rprime"}


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


#: the modules that define each kernel: scalars and ndarrays share one
#: arth(c x); specfun defines no AGM, and verify's, the oracle of mu, is the one
KERNEL_HOMES = {"_arth_cx": ["specfun"], "agm": [], "_agm": ["verify"]}


@pytest.mark.parametrize("name", KERNEL_HOMES)
def test_one_kernel(name):
    assert _defined_in(name) == KERNEL_HOMES[name]


def test_cli_evaluates_no_formula():
    # the sweeps, whose rows live in _sweep, call the library's kernels: no
    # arth, log or AGM step of their own
    trees = [_tree("cli"), _tree("_sweep")]
    used = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"arctanh", "atanh", "log", "log1p", "sqrt", "cos", "sin", "agm", "_arth_cx"}


def _imports(module: str) -> list[str]:
    """The top-level package of each import in `module`, at any level: an
    import statement, or a call of __import__ or importlib.import_module."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in (
            "__import__", "import_module"
        ):
            found += [a.value.split(".")[0] for a in node.args[:1] if isinstance(a, ast.Constant)]
    return found


def test_only_rows_imports_numpy():
    # _rows.numpy() is the one import of numpy, so that one module decides
    # how it is loaded and what its absence means: every other module that
    # holds rows takes it from there
    assert {p.stem: _imports(p.stem).count("numpy") for p in SRC.glob("*.py") if "numpy" in _imports(p.stem)} == {
        "_rows": 1
    }


def test_no_module_binds_its_own_ndarray():
    # the row test is _rows.is_rows: no module binds numpy's array type
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
    """np, numpy, a table ns that may be the rows table, or a call that picks
    one: _rows.ns(...), _rows.rows(), ns(...) inside _rows, or _ns(...)."""
    if isinstance(node, ast.Call):
        node = node.func
        if isinstance(node, ast.Attribute) and node.attr in ("ns", "rows"):  # _rows.ns(...), _rows.rows()
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
