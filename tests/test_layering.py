"""Import layering: the oracle stays free of formula code, and the code
that both routes trust is the specs alone."""

import ast
import importlib
import inspect
import pkgutil
import tomllib
from pathlib import Path

import numpy as np

import kronspectra
from kronspectra import atoms, graphs, polynomials, verify
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
    for name in ("families", "atoms", "graphs", "numeric", "oracle"):
        assert not imported_modules(PACKAGE / f"{name}.py") & formula, name


# every package module that each of these may import: the oracle reads the
# atoms and never the CSR library, the atoms read the specs alone, and the
# specs, which both routes read, read nothing
IMPORTS_ALLOWED = {
    "oracle": {"atoms", "families", "numeric", "spectrum", "errors"},
    "atoms": {"families", "errors"},
    "families": {"errors"},
}
GRAPH_SIDE = {"families", "atoms", "graphs"}
# the graph modules that each formula module may import
GRAPH_SIDE_ALLOWED = {
    "closedform": {"families"},
    "circulant": {"families"},
    "polynomials": {"families", "graphs"},
    "verify": {"families", "graphs"},
}


def test_each_layer_imports_only_what_it_may():
    for name, allowed in IMPORTS_ALLOWED.items():
        imported = imported_modules(PACKAGE / f"{name}.py")
        assert imported <= allowed, (name, sorted(imported - allowed))
    for name, allowed in GRAPH_SIDE_ALLOWED.items():
        imported = imported_modules(PACKAGE / f"{name}.py") & GRAPH_SIDE
        assert imported <= allowed, (name, sorted(imported - allowed))


def names_imported_from(path, module):
    """(name, marked) for every name that an import of the package module
    ``module`` binds in a source file, the module itself for ``from . import
    module`` or ``import kronspectra.module``, and whether the import is
    marked ``# noqa: F401``."""
    lines = Path(path).read_text().splitlines()
    found = []
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "kronspectra":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                names = [alias.name for alias in node.names] if parts[0] == module else []
            else:  # from . import x, from kronspectra import x
                names = [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name == f"kronspectra.{module}"]
        else:
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        found += [(name, marked) for name in names]
    return found


def test_formula_modules_read_the_library_only_for_the_tracer():
    # polynomials and verify keep two unused library names for
    # benchmarks/tracing.py, and read nothing else from graphs
    for name in ("polynomials", "verify"):
        assert sorted(names_imported_from(PACKAGE / f"{name}.py", "graphs")) == [
            ("build_family", True), ("distance_matrix", True)], name
    for name in ("closedform", "circulant", "oracle", "atoms", "families"):
        assert names_imported_from(PACKAGE / f"{name}.py", "graphs") == [], name


def test_names_imported_from_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .graphs import a, b  # noqa: F401\n"
        "from . import graphs\n"
        "import kronspectra.graphs\n"
        "from kronspectra.graphs import (\n    c,\n)\n"
        "from .atoms import graphs as other\n"
        "from numpy import graphs\n"
    )
    assert names_imported_from(probe, "graphs") == [
        ("a", True), ("b", True), ("graphs", False), ("kronspectra.graphs", False),
        ("c", False)]


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


def test_only_atoms_proves_a_translation_shape():
    # atoms.translation_table builds and proves every shaped atom's table,
    # and a product's rows are read off its atoms, so no other module
    # reaches the proof itself, and the proof has that one entry
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "atoms.py":
            for name in ("translation_neighbours", "_prove_translation_table"):
                assert name not in names_used(path), (path.name, name)
    assert "_prove_translation_table" in names_used(PACKAGE / "atoms.py")
    defined = {node.name for node in ast.walk(ast.parse((PACKAGE / "atoms.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    assert "translation_table" in defined and "translation_neighbours" not in defined


def csr_reads(path):
    """(definition, read) for every ``indptr`` name or argument, and every
    ``.indptr`` or ``.indices`` attribute, in a source file, under the
    top-level definition that holds it (None outside any)."""
    found = []
    for top in ast.parse(Path(path).read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices"):
                found.append((owner, "." + node.attr))
            elif getattr(node, "id", None) == "indptr" or getattr(node, "arg", None) == "indptr":
                found.append((owner, "indptr"))
    return found


def test_only_the_neighbour_validator_reads_csr_arrays_in_atoms():
    # the atoms' BFS reads one format, the (n, width) neighbour table;
    # only the check of a Graph's outside input takes CSR arrays
    found = csr_reads(PACKAGE / "atoms.py")
    assert found and set(found) == {("validate_neighbours", "indptr")}, sorted(set(found))


def test_csr_reads_sees_names_arguments_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def validate_neighbours(indptr, indices):\n    return indptr\n"
        "def _bfs_depths(g):\n    return g.indptr\n"
        "class Table:\n    def rows(self, indptr=None):\n        return self.indices\n"
        "SIZE = len(graph.indices)\n"
        "def _queue_level(indices):\n    return indices\n"
    )
    assert sorted(csr_reads(probe), key=repr) == sorted([
        ("validate_neighbours", "indptr"), ("validate_neighbours", "indptr"),
        ("_bfs_depths", ".indptr"), ("Table", "indptr"), ("Table", ".indices"),
        (None, ".indices")], key=repr)


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


def test_no_oracle_path_builds_a_library_graph(monkeypatch):
    # a J(m,r>=2) atom's table passes the neighbour validator with no CSR
    # Graph, alone or as a product's atom, and a shaped atom is proven
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the CSR library")

    for namespace, name in ((graphs, "Graph"), (graphs, "build_family"), (Graph, "__init__")):
        monkeypatch.setattr(namespace, name, refuse)
    specs = (Johnson(6, 3), Hamming(3, 3), Kron(Complete(3), Johnson(5, 2)))
    cases = [case for case in verify.default_grid(1200) if case[0] in specs]
    assert sorted(set(spec for spec, _ in cases), key=str) == sorted(specs, key=str)
    atoms._atom_walks.cache_clear()
    try:
        reports = verify.run_grid(cases)
        # the grid reads only the product's D; its A takes the same route
        assert FamilyOracle(specs[-1]).eigenvalues("adjacency").size == 30
    finally:
        atoms._atom_walks.cache_clear()
    assert [report.error for report in reports] == [None] * len(cases) == [None] * 7
    assert all(report.match for report in reports)


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
    atoms._atom_walks.cache_clear()
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
    atoms._atom_walks.cache_clear()


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
    assert checked == 10


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
