"""The import layering of the package: the closed forms share no code with
the oracles that check them.

`optimize` holds every oracle of the registry (grid-and-golden search, the
bracket search for the geodesic distance, the AGM that checks mu, the
bisection that checks mu^{-1}, and the side distances of the Lambert sweeps).
One import rule keeps them apart, so that a new oracle is guarded as soon as
it is written there: `optimize` imports no package module but `_rows`, and
no closed-form module imports `optimize` or `verify`; and no name in all of
`optimize` is a closed form of the geodesic distance or of mu. The closed forms have
one root solver, `specfun._itp`. Scalar and array callers share one arth(c x)
kernel; specfun takes mu from the nome and defines no AGM, and the CLI
evaluates no formula of its own. Every private module-level name is used
somewhere in the package.
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


def test_optimize_imports_only_errors():
    # the name dates from when errors was all that optimize might import; with
    # the oracles it imports the numpy loader _rows and nothing else. An oracle
    # that called a closed form would have to import its module: relatively,
    # or by the package's name, which optimize never spells
    assert _package_imports("optimize") == {"_rows"} and "hyplam" not in _imports("optimize")


def _names_in(module: str) -> set[str]:
    """Every name and attribute that `module`'s code reads or binds."""
    return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(_tree(module))}


def _functions_of(module: str) -> set[str]:
    return {node.name for node in _tree(module).body if isinstance(node, ast.FunctionDef)}


def test_the_distance_oracle_uses_no_closed_form():
    # the whole of optimize is searched, so an oracle added there is covered
    assert "_distance_rows" in _functions_of("optimize")
    assert not _names_in("optimize") & {"geodesic_distance", "_ends_distance", "_ends_of"}


def test_the_mu_oracle_uses_no_closed_form():
    assert {"_agm_mu", "_mu_inverse_bisect"} <= _functions_of("optimize")
    closed = {"grotzsch_mu", "_mu_pair", "mu_inverse", "_mu_inverse_pair", "_nome_moduli", "rprime"}
    assert not _names_in("optimize") & closed


@pytest.mark.parametrize("module", ["specfun", "geometry", "lambert", "qcbounds", "_sweep", "cli"])
def test_closed_forms_import_no_oracle(module):
    # the CLI's verify subcommand runs the registry, so the CLI alone may load
    # verify (and through it the oracles), never optimize itself
    assert _package_imports(module) & {"optimize", "verify"} <= ({"verify"} if module == "cli" else set())


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
#: arth(c x); specfun defines no AGM, and optimize's, the oracle of mu, is the one
KERNEL_HOMES = {"_arth_cx": ["specfun"], "agm": [], "_agm": ["optimize"]}


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
