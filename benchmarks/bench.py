"""kronspectra benchmark: one workload per call, every output checked.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload grid --seed 1 --seconds 20 --trace 0

Workloads and why each exists are in ``workloads.py``.  The command starts
the workload process (``worker.py``) between ``SETUP_PROBES`` set-up-only
processes, each a fresh interpreter importing kronspectra from this
checkout's ``src``, with BLAS pinned to one thread.

It prints a summary line (provenance, pass times, failures) and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: ``wall_ref_s`` (median pass time to finish and check every
  case, set-up excluded, in reference seconds: wall time rescaled to the
  machine speed ``speed.py`` samples during the pass, because this host's
  speed drifts by up to 1.6x), ``setup_s`` (median over the probes and the
  workload process of fresh process start to first case ready, in
  reference seconds by the speed sampled right after it) and
  ``peak_rss_mb`` (peak resident memory of the workload process).
* ``--trace 1``: the per-layer metrics of ``tracing.py`` (self times in
  wall seconds as means over traced passes, counts per pass),
  ``verify.max_headroom`` (largest gap / tolerance of any check),
  ``trace.wall_s`` and ``trace.overhead_s`` (traced minus untraced mean
  pass time in reference seconds).  Spans go to
  ``benchmarks/out/spans-<workload>-<seed>.jsonl``.

The summary line also holds the raw wall time of every pass and the
median slowdown the speed meter saw.

``failed`` counts cases that mismatched or raised, over all passes;
``failed / attempted`` is the run's fail ratio.  Exit status is 0 when a
result was printed, 1 otherwise (for example without ``src/kronspectra``).

Self-test at tiny sizes: ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up samples are short, so half the probes run before the workload and
# half after it, to sample the machine at two moments.
SETUP_PROBES = 12
DEADLINE_S = 170.0
# One BLAS thread: on a two-CPU machine shared with other processes, two
# threads made the grid's wall time vary by +-6% between runs (14.2-16.1 s)
# against +-1% with one (19.7-20.1 s).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import COUNT_METRICS, SELF_METRICS  # noqa: E402

UNITS = {
    "graphs.build.repeat_ratio": "ratio",
    "graphs.bfs.gflop_computed": "GFLOP",
    "verify.max_headroom": "ratio",
}


def worker_env() -> dict[str, str]:
    """The environment with BLAS pinned to ``BLAS_THREADS`` threads and
    bytecode caching on, so set-up is timed as an installed CLI pays it."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args: argparse.Namespace, env: dict, deadline: float,
               setup_only: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kronspectra").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def metrics_from(result: dict, setups: list[float], trace: bool) -> dict:
    """The metrics object of the result line."""
    if not trace:
        values = {
            "wall_ref_s": (statistics.median(result["ref_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    else:
        layers = result["layers"]
        values = {}
        for name in list(SELF_METRICS.values()) + ["trace.wall_s"]:
            values[name] = (statistics.fmean(p[name] for p in layers), "s")
        for name in list(COUNT_METRICS) + ["graphs.build.repeat_ratio"]:
            values[name] = (layers[-1][name], UNITS.get(name, "count"))
        values["verify.max_headroom"] = (result["max_headroom"], "ratio")
        values["trace.overhead_s"] = (
            statistics.fmean(result["traced_ref_s"]) - statistics.fmean(result["ref_s"]), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kronspectra" / "__init__.py").is_file():
        print(f"error: no kronspectra source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    try:
        probes = [run_worker(args, env, deadline, True) for _ in range(SETUP_PROBES // 2)]
        result = run_worker(args, env, deadline, False)
        probes += [run_worker(args, env, deadline, True)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    probes.append(result)
    setups = [probe["setup_s"] for probe in probes]

    attempted, failed = result["attempted"], result["failed"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": result["cases"],
        "pass_wall_s": result["wall_s"],
        "traced_pass_wall_s": result["traced_wall_s"],
        "pass_ref_s": result["ref_s"],
        "traced_pass_ref_s": result["traced_ref_s"],
        "slowdown": result["slowdown"],
        "setup_s": setups,
        "setup_wall_s": [probe["setup_wall_s"] for probe in probes],
        "fail_ratio": failed / attempted,
        "problems": result["problems"],
        "provenance": dict(result["provenance"], seed=args.seed, **source_identity()),
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_from(result, setups, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
