"""The package names the benchmark harness looks up or patches.

``benchmarks/tracing.py`` wraps entry points in the module namespaces they
are looked up from, and ``benchmarks/test_harness.py`` patches two closed
forms to plant failures.  A refactor that drops one of those names, or
routes around it, would only break the benchmark; these tests catch it here.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import kronspectra
import kronspectra.cli  # noqa: F401  (the tracer wraps cli.main)
from kronspectra import closedform, verify
from kronspectra.graphs import Complete, Cycle, Graph, Hamming, Johnson, Kron
from kronspectra.spectrum import Spectrum

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"
PACKAGE = ROOT / "src" / "kronspectra"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_restores_every_wrapped_name():
    tracing = load_tracing()
    targets = tracing._targets(kronspectra)
    before = [getattr(namespace, attr) for _, namespace, attr in targets]
    from_pairs = Spectrum.__dict__["from_pairs"]
    with tracing.Tracer(kronspectra):
        assert all(getattr(namespace, attr) is not original
                   for (_, namespace, attr), original in zip(targets, before))
    assert [getattr(namespace, attr) for _, namespace, attr in targets] == before
    assert Spectrum.__dict__["from_pairs"] is from_pairs


def unused_imports():
    """(module, name) for every name that an import marked ``# noqa: F401``
    binds in a ``src/kronspectra`` module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            found += [(path.stem, (alias.asname or alias.name).split(".")[0])
                      for alias in node.names]
    return found


def test_every_unused_import_is_a_name_the_tracer_looks_up():
    """An import kept only for ``benchmarks/tracing.py`` goes when the
    tracer stops looking the name up in that module."""
    looked_up = {(namespace.__name__.rpartition(".")[2], attr)
                 for _, namespace, attr in load_tracing()._targets(kronspectra)}
    found = unused_imports()
    assert ("numeric", "spectrum_from_values") in found
    assert [entry for entry in found if entry not in looked_up] == []


def test_cycles_route_through_cycle_distance_spectrum(monkeypatch):
    planted = Spectrum(((1.0, 9),))
    monkeypatch.setattr(closedform, "cycle_distance_spectrum",
                        lambda n, group_tol=1e-6: planted)
    spectrum, _ = verify.closed_form_distance_spectrum(Cycle(9))
    assert spectrum is planted


def test_complete_like_products_route_through_kron_complete_spectrum(monkeypatch):
    planted = Spectrum(((1.0, 9),))
    monkeypatch.setattr(closedform, "kron_complete_spectrum", lambda n, m: planted)
    spectrum, _ = verify.closed_form_distance_spectrum(Kron(Complete(3), Cycle(3)))
    assert spectrum is planted


def test_shaped_families_reach_the_eigensolve_without_the_dense_solve(monkeypatch):
    """The tracer's ``numeric.eig`` and ``graphs.bfs`` spans wrap
    ``verify.symmetric_eigenvalues`` and ``verify.distance_matrix``.  Every
    family's solve is ``oracle.block_group_matrix_eigenvalues``, so no
    family reaches ``symmetric_eigenvalues`` (a traced grid reads
    ``numeric.eig.calls`` 0), and no family builds an n x n matrix: no
    ``Graph.adjacency_matrix`` and no all-sources BFS.  A family with a
    translation shape makes no ``np.linalg.eigvalsh`` call.  A
    ``J(m,r>=2)`` family makes one for each of its two matrices, on its
    b x b blocks: J(6,3)'s five 4 x 4 blocks over Z_5."""
    calls, shapes = Counter(), []
    eigvalsh = np.linalg.eigvalsh

    def count(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for namespace, name in ((verify, "symmetric_eigenvalues"), (verify, "distance_matrix"),
                            (Graph, "adjacency_matrix")):
        monkeypatch.setattr(namespace, name, count(name, getattr(namespace, name)))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    for spec, expected in ((Hamming(3, 3), []), (Johnson(6, 3), [(5, 4, 4)] * 2)):
        shapes.clear()
        assert all(report.match for report in verify.run_grid([(spec, k) for k in kinds]))
        assert calls == Counter() and shapes == expected, spec
