"""The workload process: set up, run timed passes, check every case.

``bench.py`` starts this script in a fresh interpreter per workload, so the
set-up it times is what a CLI user pays: importing numpy and kronspectra,
parsing the family strings and building the case list.  The result is one
JSON object on standard output; anything the program prints goes to
standard error instead.

A pass runs every case of the workload once and checks it.  Passes repeat
while the next one is expected to end within ``--seconds`` (at least one
runs).  Every pass is timed twice: in wall seconds and in reference
seconds, wall time rescaled by the machine speed that ``speed.SpeedMeter``
samples during the pass.  With ``--trace 1`` the first half of the time
runs untraced passes and the rest traced ones, so the tracing overhead is
the difference of the two means within one process.  A case that raises or
mismatches counts as failed and the pass goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import SpeedMeter
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TOL = 1e-6  # the CLI's default comparison tolerance
MAX_PROBLEMS = 20


def import_program():
    """Import kronspectra from this checkout's ``src``, nowhere else."""
    package = ROOT / "src" / "kronspectra"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no kronspectra package under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import kronspectra

    if Path(kronspectra.__file__).resolve().parent != package.resolve():
        raise ImportError(f"imported kronspectra from {kronspectra.__file__}")
    return kronspectra


class Outcome:
    """Accounting over every pass of a run: each case attempt is checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.headroom = 0.0
        self.problems: list[str] = []

    def check(self, case: str, ok: bool, headroom: float) -> None:
        self.attempted += 1
        if math.isfinite(headroom):
            self.headroom = max(self.headroom, headroom)
        if not ok:
            self.failed += 1
            self.problems.append(f"{case}: mismatch")

    def error(self, case: str, err: object) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{case}: {err!r}")


class _FamilyCases:
    def __init__(self, ks, families: list[str]):
        self.ks = ks
        self.families = families
        self.cases = [(text, ks.cli.parse_family(text)) for text in families]


class OracleCases(_FamilyCases):
    """``verify_family``: closed form against BFS + dense eigensolve."""

    def run(self, outcome: Outcome) -> None:
        for text, spec in self.cases:
            try:
                report = self.ks.verify.verify_family(spec, TOL)
            except Exception as err:  # a failing case must not end the pass
                outcome.error(text, err)
                continue
            outcome.check(text, report.match and report.family == text,
                          report.max_abs_gap / TOL)


class ClosedCases(_FamilyCases):
    """``closed_form_distance_spectrum`` checked by invariants: the order
    equals the family's vertex count and the trace (zero diagonal of D) is
    zero within TOL * max(1, spectral radius)."""

    def run(self, outcome: Outcome) -> None:
        for text, spec in self.cases:
            try:
                ok, headroom = self._check(spec)
            except Exception as err:  # a failing case must not end the pass
                outcome.error(text, err)
                continue
            outcome.check(text, ok, headroom)

    def _check(self, spec) -> tuple[bool, float]:
        # a separate frame, so no spectrum outlives its case: a large one
        # kept alive would slow the garbage collector during the next case
        spectrum, _ = self.ks.verify.closed_form_distance_spectrum(spec, TOL)
        radius = max(abs(spectrum.pairs[0][0]), abs(spectrum.pairs[-1][0]))
        allowed = TOL * max(1.0, radius)
        residual = abs(math.fsum(v * m for v, m in spectrum.pairs))
        ok = spectrum.order == self.ks.graphs.family_order(spec) and residual <= allowed
        return ok, residual / allowed


class GridCases:
    """``kronspectra grid`` through ``cli.main``, output to a temp file;
    every JSON line and the summary are checked against ``default_grid``."""

    def __init__(self, ks, max_order: int):
        self.ks = ks
        self.argv = ["grid", "--max-order", str(max_order), "--tol", repr(TOL)]
        self.cases = [(ks.graphs.family_to_string(spec), kind)
                      for spec, kind in ks.verify.default_grid(max_order)]
        self.families = [f"default_grid({max_order}): {len(self.cases)} cases"]
        self.poly_tol = inspect.signature(ks.verify.poly_report).parameters["tol"].default

    def run(self, outcome: Outcome) -> None:
        OUT.mkdir(exist_ok=True)
        fd, path = tempfile.mkstemp(dir=OUT, prefix="grid-", suffix=".jsonl")
        os.close(fd)
        try:
            try:
                code = self.ks.cli.main(self.argv + ["--output", path])
            except Exception as err:  # unreported cases count as failed below
                code = None
                outcome.problems.append(f"grid: {err!r}")
            with open(path) as stream:
                lines = stream.read().splitlines()
        finally:
            os.unlink(path)
        reports = []
        for line in lines:
            try:
                reports.append(json.loads(line))
            except json.JSONDecodeError as err:
                outcome.problems.append(f"grid: bad line {line[:80]!r}: {err}")
        summary = reports.pop()["summary"] if reports and "summary" in reports[-1] else None
        before = outcome.failed
        for index, (family, kind) in enumerate(self.cases):
            case = f"{family} {kind}"
            if index >= len(reports):
                outcome.error(case, "no report")
                continue
            report = reports[index]
            tol = self.poly_tol if kind == "distance-polynomial" else TOL
            gap = report.get("max_abs_gap")
            ok = (report.get("family") == family and report.get("check") == kind
                  and report.get("match") is True)
            outcome.check(case, ok, gap / tol if gap is not None else math.inf)
        failed = outcome.failed - before
        cases = len(self.cases)
        want = {"cases": cases, "passed": cases - failed, "failed": failed}
        if len(reports) != cases or summary != want or code != (2 if failed else 0):
            outcome.problems.append(
                f"grid: {len(reports)} reports, summary {summary}, exit {code};"
                f" expected {cases} reports, summary {want}")


def make_runner(ks, workload: str, seed: int):
    if workload == "grid":
        return GridCases(ks, workloads.GRID_MAX_ORDER)
    families = workloads.draw(workload, seed)
    if workload == "closed-scale":
        return ClosedCases(ks, families)
    return OracleCases(ks, families)


def measure(runner, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run passes for about ``seconds``, the second half traced when a
    tracer is given; return pass times, per-pass layers and the outcome."""
    start = time.perf_counter()
    outcome = Outcome()
    walls, traced = [], []  # (begin, end) of each pass
    layers = []
    untraced_budget = seconds / 2 if tracer else seconds
    with SpeedMeter() as meter:
        while True:
            begin = time.perf_counter()
            runner.run(outcome)
            walls.append((begin, time.perf_counter()))
            if walls[-1][1] - start + (walls[-1][1] - begin) > untraced_budget:
                break
        if tracer is not None:
            with tracer:
                while True:
                    with tracer.traced_pass():
                        runner.run(outcome)
                    layers.append(tracer.pass_metrics())
                    traced.append(tracer.pass_span())
                    if time.perf_counter() - start + layers[-1]["trace.wall_s"] > seconds:
                        break
    return {
        "wall_s": [end - begin for begin, end in walls],
        "ref_s": [meter.ref_seconds(*span) for span in walls],
        "traced_wall_s": [p["trace.wall_s"] for p in layers],
        "traced_ref_s": [meter.ref_seconds(*span) for span in traced],
        "slowdown": meter.median_slowdown(),
        "layers": layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:MAX_PROBLEMS],
        "max_headroom": outcome.headroom,
    }


def provenance(ks) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dense_cap": ks.numeric.dense_matrix_cap(),
        "tol": TOL,
    }


def run(ks, runner, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Measure a runner and describe the run: the worker's whole result."""
    tracer = Tracer(ks) if trace else None
    result = measure(runner, seconds, tracer)
    if tracer is not None and spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cases=runner.families,
        provenance=provenance(ks),
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stdout = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):
        ks = import_program()
        runner = make_runner(ks, args.workload, args.seed)
        setup_wall_s = time.time() - args.spawned_at
        setup = {"setup_wall_s": setup_wall_s,
                 "setup_s": setup_wall_s / SpeedMeter().probe()}
        if args.setup_only:
            result = setup
        else:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            result = run(ks, runner, args.seconds, bool(args.trace), spans)
            result.update(setup)
    print(json.dumps(result), file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
