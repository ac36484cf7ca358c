"""The package names the benchmark harness looks up or patches.

``benchmarks/tracing.py`` wraps entry points in the module namespaces they
are looked up from, and ``benchmarks/test_harness.py`` patches two closed
forms to plant failures.  A refactor that drops one of those names, or
routes around it, would only break the benchmark; these tests catch it here.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import kronspectra
import kronspectra.cli  # noqa: F401  (the tracer wraps cli.main)
from kronspectra import closedform, verify
from kronspectra.graphs import Complete, Cycle, Graph, Hamming, Johnson, Kron
from kronspectra.spectrum import Spectrum

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
    ``verify.symmetric_eigenvalues`` and ``verify.distance_matrix``.  A
    family with a translation shape reaches neither: its checks build no
    n x n matrix at all, so it makes no ``Graph.adjacency_matrix`` and no
    ``np.linalg.eigvalsh`` call either.  An unshaped one makes each of its
    two dense solves through them, and one all-sources BFS."""
    calls = Counter()

    def count(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for namespace, name in ((verify, "symmetric_eigenvalues"), (verify, "distance_matrix"),
                            (Graph, "adjacency_matrix"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(namespace, name, count(name, getattr(namespace, name)))
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    dense = Counter(symmetric_eigenvalues=2, eigvalsh=2, distance_matrix=1, adjacency_matrix=1)
    for spec, expected in ((Hamming(3, 3), Counter()), (Johnson(6, 3), dense)):
        calls.clear()
        assert all(report.match for report in verify.run_grid([(spec, k) for k in kinds]))
        assert calls == expected, spec
