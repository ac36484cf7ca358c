"""The package names the benchmark harness looks up or patches.

``benchmarks/tracing.py`` wraps entry points in the module namespaces they
are looked up from, and ``benchmarks/test_harness.py`` patches two closed
forms to plant failures.  A refactor that drops one of those names, or
routes around it, would only break the benchmark; these tests catch it here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import kronspectra
import kronspectra.cli  # noqa: F401  (the tracer wraps cli.main)
from kronspectra import closedform, verify
from kronspectra.graphs import Complete, Cycle, Hamming, Johnson, Kron
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
    """The tracer's ``numeric.eig`` span wraps ``verify.symmetric_eigenvalues``;
    a family with a translation shape passes through it to one DFT, and
    only an unshaped one reaches ``np.linalg.eigvalsh``."""
    routed, dense = [], []
    solve, eigvalsh = verify.symmetric_eigenvalues, np.linalg.eigvalsh
    monkeypatch.setattr(verify, "symmetric_eigenvalues",
                        lambda *args: routed.append(args[1]) or solve(*args))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: dense.append(a.shape) or eigvalsh(a))
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    for spec, shape, solves in ((Hamming(3, 3), (3, 3, 3), 0), (Johnson(6, 3), None, 2)):
        routed.clear()
        dense.clear()
        assert all(report.match for report in verify.run_grid([(spec, k) for k in kinds]))
        assert routed == [shape, shape]
        assert len(dense) == solves
