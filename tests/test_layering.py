"""Import layering: the oracle stays free of formula code."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kronspectra
from kronspectra.graphs import Hamming, Johnson
from kronspectra.verify import FamilyOracle, poly_report, verify_family

PACKAGE = Path(kronspectra.__file__).parent


def imported_modules(path):
    """Modules of the kronspectra package that a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kronspectra" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "kronspectra":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from kronspectra import x
                found.update(alias.name for alias in node.names)
    return found


def test_oracle_modules_import_no_formula_code():
    formula = {"closedform", "circulant", "polynomials", "verify"}
    for name in ("graphs", "numeric"):
        assert not imported_modules(PACKAGE / f"{name}.py") & formula, name


def test_closedform_does_not_import_polynomials():
    assert "polynomials" not in imported_modules(PACKAGE / "closedform.py")


def test_polynomials_does_not_import_verify():
    # verify runs the p(A) = D check on its oracle; polynomials only gives p
    assert "verify" not in imported_modules(PACKAGE / "polynomials.py")


def names_used(path):
    """Every name a source file imports, reads or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_only_graphs_proves_a_translation_shape():
    # graphs.translation_table builds and proves every shaped atom's table,
    # and a product's rows are read off its atoms, so no other module
    # reaches the proof itself, and the proof has that one entry
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "graphs.py":
            for name in ("translation_neighbours", "_prove_translation_table"):
                assert name not in names_used(path), (path.name, name)
    assert "_prove_translation_table" in names_used(PACKAGE / "graphs.py")
    defined = {node.name for node in ast.walk(ast.parse((PACKAGE / "graphs.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "translation_table" in defined and "translation_neighbours" not in defined


def test_verify_solves_only_through_the_block_group_solver():
    # every oracle spectrum is one block_group_matrix_eigenvalues call, so
    # verify calls no other eigensolver or DFT
    solvers = {"eigvalsh", "eigh", "eigvals", "eig", "fft", "fftn",
               "symmetric_eigenvalues", "group_matrix_eigenvalues", "oracle_spectrum"}
    called = []
    for node in ast.walk(ast.parse((PACKAGE / "verify.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            called.append(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert not solvers & set(called), sorted(solvers & set(called))
    assert called.count("block_group_matrix_eigenvalues") == 1


def test_a_shaped_atom_oracle_keeps_no_graph():
    # its graph is built and proven in graphs.translation_table, and only an
    # unshaped family's oracle holds a graph
    for spec in (Hamming(3, 3), Johnson(7, 1)):
        oracle = FamilyOracle(spec)
        assert oracle.shape is not None
        for check in (lambda: verify_family(spec, 1e-6, "adjacency", oracle),
                      lambda: verify_family(spec, 1e-6, "distance", oracle),
                      lambda: poly_report(spec, 1e-8, oracle)):
            assert check().match
        assert "graph" not in vars(oracle), spec


def test_every_public_definition_is_in_its_modules_all():
    checked = 0
    for info in pkgutil.iter_modules(kronspectra.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"kronspectra.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        checked += 1
        defined = {name for name, value in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isclass(value) or inspect.isfunction(inspect.unwrap(value)))
                   and value.__module__ == module.__name__}
        assert defined <= set(module.__all__), (info.name, sorted(defined - set(module.__all__)))
    assert checked == 7


def test_imported_modules_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .closedform import x\n"
        "from . import circulant\n"
        "import kronspectra.verify\n"
        "from kronspectra.polynomials import y\n"
        "from kronspectra import spectrum\n"
        "def f():\n    from .errors import z\n"
        "import numpy\nfrom fractions import Fraction\n"
    )
    assert imported_modules(probe) == {
        "closedform", "circulant", "verify", "polynomials", "spectrum", "errors"}


def test_the_distribution_is_named_and_versioned_as_the_package():
    # read without tomllib, which Python 3.10 lacks: the [project] table's
    # one-line string fields
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    fields = dict(re.findall(r'^([\w-]+) = "([^"]*)"$', table, re.M))
    assert fields["name"] == kronspectra.__name__ == "kronspectra"
    assert fields["version"] == kronspectra.__version__
