"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root: ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import SELF_METRICS  # noqa: E402

KS = worker.import_program()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_runners() -> dict:
    return {
        "grid": worker.GridCases(KS, 10),
        "oracle": worker.OracleCases(KS, ["C9", "kron(K3,C5)", "kron(K3,K4)"]),
        "closed": worker.ClosedCases(
            KS, ["C1001", "kron(K3,C101)", "kron(K4,H(3,3))", "kron(K3,J(10,3))"]),
    }


def metrics(runner, trace: bool) -> tuple[dict, dict]:
    result = worker.run(KS, runner, 0, trace)
    result["setup_s"] = 0.1
    return result, bench.metrics_from(result, [0.1, 0.2], trace)


@pytest.mark.parametrize("kind", ["grid", "oracle", "closed"])
def test_every_metric_is_emitted(kind):
    runner = tiny_runners()[kind]
    result, end_to_end = metrics(runner, trace=False)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["failed"] == 0 and not result["problems"]
    result, layers = metrics(runner, trace=True)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(layers[name]["unit"] == units[name] for name in layers)
    assert result["failed"] == 0 and result["attempted"] == 2 * len(runner.cases)


def test_grid_self_times_add_up_to_traced_wall():
    runner = tiny_runners()["grid"]
    result, _ = metrics(runner, trace=True)
    layers = result["layers"][0]
    total = sum(layers[name] for name in set(SELF_METRICS.values()))
    assert math.isclose(total, layers["trace.wall_s"], rel_tol=1e-9)
    assert layers["graphs.build.calls"] == len(runner.cases)
    assert layers["graphs.build.repeat_ratio"] > 0  # J/H families build thrice
    assert layers["polynomials.eval.matmuls"] > 0


def test_wrong_spectrum_and_error_count_as_failures(monkeypatch):
    original = KS.closedform.cycle_distance_spectrum

    def wrong(n, group_tol=1e-6):
        sp = original(n, group_tol)
        if n != 9:
            return sp
        (top, mult), *rest = sp.pairs
        return KS.spectrum.Spectrum(((top + 1.0, mult), *rest), sp.grouping_tol)

    monkeypatch.setattr(KS.closedform, "cycle_distance_spectrum", wrong)
    runner = worker.OracleCases(KS, ["C9", "kron(K2,C5)", "C10"])
    result = worker.run(KS, runner, 0, False)
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert result["problems"][0].startswith("C9: mismatch")
    assert "NoClosedFormError" in result["problems"][1]

    closed = worker.run(KS, worker.ClosedCases(KS, ["C9", "C11"]), 0, False)
    assert (closed["attempted"], closed["failed"]) == (2, 1)


def test_grid_failures_do_not_end_the_run(monkeypatch):
    original = KS.closedform.kron_complete_spectrum

    def wrong(n, m):
        sp = original(n, m)
        if (n, m) != (3, 3):
            return sp
        (top, mult), *rest = sp.pairs
        return KS.spectrum.Spectrum(((top + 1.0, mult), *rest), sp.grouping_tol)

    monkeypatch.setattr(KS.closedform, "kron_complete_spectrum", wrong)
    runner = worker.GridCases(KS, 10)
    result = worker.run(KS, runner, 0, False)
    # K3 (x) K3 is also reached as C3, J(3,1) and H(1,3) products
    problems = result["problems"]
    assert "kron(K3,K3) distance-spectrum: mismatch" in problems
    assert all(p.endswith("distance-spectrum: mismatch") for p in problems)
    assert (result["attempted"], result["failed"]) == (len(runner.cases), len(problems))

    def raising(n, m):
        raise ValueError("injected")

    monkeypatch.setattr(KS.closedform, "kron_complete_spectrum", raising)
    first = [f"{f} {k}: mismatch" for f, k in runner.cases].index(problems[0])
    result = worker.run(KS, runner, 0, False)
    assert result["attempted"] == len(runner.cases)
    assert result["failed"] == len(runner.cases) - first
    assert "exit 1" in result["problems"][-1]


def test_reference_seconds_rescale_by_the_sampled_slowdown():
    meter = speed.SpeedMeter()
    # 1 s stretches between 0.01 s samples, the machine twice as slow from t=5
    meter.samples = [(t, t + 0.01, 1.0 if t < 5 else 2.0) for t in range(11)]
    assert math.isclose(meter.ref_seconds(0, 3), 2.97)  # samples left out
    assert math.isclose(meter.ref_seconds(7.01, 10), 1.485)
    assert math.isclose(meter.ref_seconds(0, 10), 7.095)  # 1.5 where the change splits the window
    with meter:
        time.sleep(0.35)
    assert len(meter.samples) >= 4 and meter.median_slowdown() > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS[1:])
def test_pools_are_seeded_and_in_range(workload):
    first = workloads.draw(workload, 7)
    assert first == workloads.draw(workload, 7)
    assert first != workloads.draw(workload, 8)
    orders = [KS.graphs.family_order(KS.cli.parse_family(text)) for text in first]
    if workload == "deep-sparse":
        assert all(750 <= order <= 1200 for order in orders[:-1])
        assert max(orders) >= workloads.DEEP_ANCHOR_ORDER
        assert first[-1].startswith("C") and 500 <= orders[-1] <= 700
    elif workload == "dense-wide":
        assert all(225 <= order <= 1200 for order in orders)
        assert max(orders) >= workloads.DENSE_ANCHOR_ORDER
    else:
        assert min(orders) > KS.numeric.dense_matrix_cap()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/bench.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
