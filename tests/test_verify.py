"""The per-family oracle context that a family's grid checks share."""

import numpy as np
import pytest

from kronspectra import verify
from kronspectra.errors import OrderCapError
from kronspectra.graphs import Complete, Cycle, Graph, Hamming, Johnson, Kron
from kronspectra.verify import (
    FamilyOracle,
    oracle_adjacency_spectrum,
    oracle_distance_spectrum,
    poly_report,
    run_grid,
    verify_family,
)


def test_family_oracle_computes_each_part_on_first_use(monkeypatch):
    calls = []
    bfs = verify.distance_matrix
    monkeypatch.setattr(verify, "distance_matrix", lambda g: calls.append(g) or bfs(g))
    spec = Johnson(6, 3)
    oracle = FamilyOracle(spec)
    assert verify_family(spec, 1e-6, "adjacency", oracle).match
    assert "graph" in vars(oracle) and "distances" not in vars(oracle)
    assert not calls
    assert verify_family(spec, 1e-6, "distance", oracle).match
    assert poly_report(spec, 1e-8, oracle).match
    assert calls == [oracle.graph]


def test_family_oracle_keeps_no_failed_result(monkeypatch):
    monkeypatch.setenv("KRON_SPECTRA_MAX_ORDER", "10")
    spec = Hamming(2, 4)
    oracle = FamilyOracle(spec)
    messages = []
    for check in (lambda: verify_family(spec, 1e-6, "distance", oracle),
                  lambda: poly_report(spec, 1e-8, oracle)):
        with pytest.raises(OrderCapError) as info:
            check()
        messages.append(str(info.value))
    assert messages == ["distance matrix order 16 exceeds dense cap 10"] * 2
    assert "distances" not in vars(oracle)


def test_oracle_of_another_family_is_refused():
    with pytest.raises(ValueError):
        verify_family(Johnson(5, 2), 1e-6, "distance", FamilyOracle(Johnson(6, 3)))


def test_grid_family_builds_one_float_adjacency(monkeypatch):
    dtypes = []
    build = Graph.adjacency_matrix

    def counting(self, dtype=np.int64):
        dtypes.append(np.dtype(dtype))
        return build(self, dtype)

    monkeypatch.setattr(Graph, "adjacency_matrix", counting)
    spec = Hamming(3, 3)
    kinds = ("adjacency-spectrum", "distance-spectrum", "distance-polynomial")
    assert all(report.match for report in run_grid([(spec, kind) for kind in kinds]))
    # the BFS may build its own float32 A for a dense step; the float64 A
    # that the eigensolve and p(A) read is built once
    assert dtypes.count(np.dtype(np.float64)) == 1


@pytest.mark.parametrize("spec", [Hamming(3, 3), Kron(Complete(4), Cycle(5)), Johnson(6, 3)])
def test_spectrum_and_verify_share_the_oracle_values(spec):
    assert oracle_distance_spectrum(spec) == verify_family(spec).oracle
    if not isinstance(spec, Kron):
        adjacency = verify_family(spec, matrix="adjacency").oracle
        assert oracle_adjacency_spectrum(spec) == adjacency


def test_family_oracle_carries_the_translation_shape():
    assert FamilyOracle(Kron(Complete(3), Hamming(2, 4))).shape == (3, 4, 4)
    assert FamilyOracle(Johnson(6, 3)).shape is None
    with pytest.raises(ValueError, match="unknown matrix kind"):
        FamilyOracle(Johnson(6, 3)).eigenvalues("laplacian")
