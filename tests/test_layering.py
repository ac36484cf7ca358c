"""Import layering: the oracle stays free of formula code."""

import ast
import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import numpy as np

import kronspectra
from kronspectra import graphs, polynomials, verify
from kronspectra.graphs import Complete, Graph, Hamming, Johnson, Kron, translation_shape
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
    for name in ("graphs", "numeric", "oracle"):
        assert not imported_modules(PACKAGE / f"{name}.py") & formula, name
    assert imported_modules(PACKAGE / "oracle.py") <= {"graphs", "numeric", "spectrum", "errors"}


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


def calls_made(path):
    """The called name of every call in a source file, one entry per call."""
    called = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            called.append(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def test_verify_solves_only_through_the_block_group_solver():
    # every oracle spectrum is the one block_group_matrix_eigenvalues call
    # in oracle, which calls no other eigensolver or DFT; verify calls none
    solvers = {"eigvalsh", "eigh", "eigvals", "eig", "fft", "fftn",
               "symmetric_eigenvalues", "group_matrix_eigenvalues", "oracle_spectrum"}
    called = calls_made(PACKAGE / "oracle.py")
    assert not solvers & set(called), sorted(solvers & set(called))
    assert called.count("block_group_matrix_eigenvalues") == 1
    called = set(calls_made(PACKAGE / "verify.py"))
    assert not (solvers | {"block_group_matrix_eigenvalues"}) & called


def test_only_the_oracle_reads_blocks_orbits_and_rows():
    # verify and polynomials reach the oracle through FamilyOracle alone
    internals = {"orbit_table", "atom_blocks", "product_blocks",
                 "block_group_matrix_eigenvalues", "polynomial_rows", "orbits"}
    for name in ("verify", "polynomials"):
        assert not names_used(PACKAGE / f"{name}.py") & internals, name


def test_a_shaped_atom_oracle_keeps_no_graph(monkeypatch):
    # its table is built and proven in graphs.translation_table, with no
    # CSR Graph at all, and the oracle keeps only the proven table
    def no_graph(self, *args):
        raise AssertionError("a shaped atom built a graph")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    for spec in (Hamming(3, 3), Johnson(7, 1)):
        oracle = FamilyOracle(spec)
        assert translation_shape(spec) is not None
        for check in (lambda: verify_family(spec, 1e-6, "adjacency", oracle),
                      lambda: verify_family(spec, 1e-6, "distance", oracle),
                      lambda: poly_report(spec, 1e-8, oracle)):
            assert check().match
        assert set(vars(oracle)) == {"spec", "orbits", "_blocks", "_eigenvalues"}, spec


def test_no_family_reaches_a_dense_n_by_n_route(monkeypatch):
    # every grid family, the largest J(m,r>=2) fibre under the cap and two
    # products with large J(m,r>=2) atoms: no all-sources BFS, dense A,
    # dense p(A) or eigensolve of an n x n matrix
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return refused

    for namespace, name in ((verify, "distance_matrix"), (graphs, "distance_matrix"),
                            (Graph, "adjacency_matrix"),
                            (polynomials, "matrix_polynomial_eval")):
        monkeypatch.setattr(namespace, name, refuse(name))
    largest, eigvalsh = [0], np.linalg.eigvalsh

    def solve(a):
        largest[0] = max(largest[0], a.shape[-1])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    graphs._atom_walks.cache_clear()
    cases = verify.default_grid(1200)
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    cases += [(Johnson(14, 7), kind) for kind in kinds]
    reports = verify.run_grid(cases)
    assert [report.error for report in reports] == [None] * len(cases)
    assert all(report.match for report in reports)
    # no closed form covers these two; their oracle spectra are all they have
    for spec in (Kron(Complete(2), Johnson(13, 6)), Kron(Johnson(6, 2), Johnson(10, 5))):
        oracle = FamilyOracle(spec)
        for matrix in ("distance", "adjacency"):
            assert oracle.eigenvalues(matrix).size == graphs.family_order(spec)
    # the largest block is J(14,7)'s 264 x 264, over Z_13
    assert largest == [264]
    graphs._atom_walks.cache_clear()


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
    assert checked == 8


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
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as stream:
        fields = tomllib.load(stream)["project"]
    assert fields["name"] == kronspectra.__name__ == "kronspectra"
    assert fields["version"] == kronspectra.__version__
