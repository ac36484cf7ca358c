"""Per-layer spans recorded from outside the package.

The tracer replaces a layer's public functions, in the module namespaces
they are looked up from, with wrappers that record a span (name, start,
end, parent, case) and the layer's counts.  Nothing under ``src/`` changes:
``verify`` and ``polynomials`` import ``build_family`` and
``distance_matrix`` by name, so those names are wrapped in the importing
modules.  ``graphs.build_family`` itself stays unwrapped, which leaves the
recursive factor builds of a product inside their top-level build span.

A span's self time is its duration minus the durations of its direct
children; summed over every span of a pass it equals the pass span, so the
layer self times plus ``verify.self_s`` and the CLI and harness self times
add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

# span name -> metric of its self time; "spectrum.pairs" is the grouping of
# exact (value, multiplicity) pairs by Spectrum.from_pairs
SELF_METRICS = {
    "graphs.build": "graphs.build.s",
    "graphs.bfs": "graphs.bfs.s",
    "numeric.eig": "numeric.eig.s",
    "closedform": "closedform.s",
    "spectrum.group": "spectrum.group.s",
    "spectrum.pairs": "spectrum.group.s",
    "spectrum.match": "spectrum.match.s",
    "polynomials.eval": "polynomials.eval.s",
    "verify": "verify.self_s",
    "cli": "cli.emit.s",
    "bench": "bench.check.s",
}
COUNT_METRICS = (
    "graphs.build.calls",
    "graphs.bfs.calls",
    "graphs.bfs.levels",
    "graphs.bfs.gflop_computed",
    "numeric.eig.calls",
    "closedform.values",
    "spectrum.groups",
    "polynomials.eval.matmuls",
)


def _targets(kronspectra) -> list[tuple[str, object, str]]:
    """(layer, namespace, attribute) for every wrapped entry point."""
    cli, closedform, circulant = kronspectra.cli, kronspectra.closedform, kronspectra.circulant
    numeric, polynomials, verify = kronspectra.numeric, kronspectra.polynomials, kronspectra.verify
    out = [
        ("graphs.build", verify, "build_family"),
        ("graphs.build", polynomials, "build_family"),
        ("graphs.bfs", verify, "distance_matrix"),
        ("graphs.bfs", polynomials, "distance_matrix"),
        ("numeric.eig", verify, "symmetric_eigenvalues"),
        ("spectrum.match", verify, "spectra_match"),
        ("polynomials.eval", polynomials, "matrix_polynomial_eval"),
        ("verify", verify, "verify_family"),
        ("verify", verify, "poly_report"),
        ("verify", verify, "closed_form_distance_spectrum"),
        ("verify", verify, "closed_form_adjacency_spectrum"),
        ("cli", cli, "main"),
    ]
    out += [("closedform", closedform, name)
            for name in dir(closedform) if name.endswith("_spectrum")]
    out += [("spectrum.group", module, "spectrum_from_values")
            for module in (verify, closedform, circulant, numeric)]
    return out


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self, kronspectra):
        self._kronspectra = kronspectra
        self._saved: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [name, start, end, parent, case]
        self._stack: list[int] = []
        self._verify_depth = 0
        self.case = -1
        self.counts: Counter = Counter()
        self._built: set = set()
        self._pass_start = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, namespace, attr in _targets(self._kronspectra):
            original = getattr(namespace, attr)
            self._saved.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(layer, original))
        spectrum_cls = self._kronspectra.spectrum.Spectrum
        original = spectrum_cls.__dict__["from_pairs"]
        self._saved.append((spectrum_cls, "from_pairs", original))
        spectrum_cls.from_pairs = staticmethod(
            self._wrap("spectrum.pairs", original.__func__))
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 else None

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer == "verify":
                if self._verify_depth == 0:
                    self.case += 1
                self._verify_depth += 1
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
                self._count(layer, args, result)
                return result
            finally:
                self._close(index)
                if layer == "verify":
                    self._verify_depth -= 1
        return traced

    def _count(self, layer: str, args: tuple, result) -> None:
        c = self.counts
        parent = self._parent_name()
        if layer == "graphs.build":
            c["graphs.build.calls"] += 1
            if args[0] in self._built:
                c["graphs.build.repeats"] += 1
            self._built.add(args[0])
        elif layer == "graphs.bfs":
            order = result.shape[0]
            levels = int(result.max()) + 1 if result.size else 0
            c["graphs.bfs.calls"] += 1
            c["graphs.bfs.levels"] += levels
            c["graphs.bfs.gflop_computed"] += 2.0 * order ** 3 * levels / 1e9
        elif layer == "numeric.eig":
            c["numeric.eig.calls"] += 1
        elif layer in ("spectrum.group", "spectrum.pairs"):
            if parent not in ("spectrum.group", "spectrum.pairs"):
                c["spectrum.groups"] += len(result.pairs)
            if parent == "closedform":
                # eigenvalues a closed form hands over: every value it
                # computed, or its exact (value, multiplicity) pairs
                grouped = args[0] if layer == "spectrum.group" else result.pairs
                c["closedform.values"] += len(grouped)
        elif layer == "polynomials.eval":
            c["polynomials.eval.matmuls"] += args[0].degree

    @contextlib.contextmanager
    def traced_pass(self):
        """One pass under the root span the harness owns."""
        self.counts = Counter()
        self._built = set()
        self._pass_start = len(self.spans)
        index = self._open("bench")
        try:
            yield
        finally:
            self._close(index)

    def pass_metrics(self) -> dict[str, float]:
        """Self times and counts of the most recent pass."""
        spans = self.spans[self._pass_start:]
        first = self._pass_start
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child_time[parent - first] += end - start
        metrics = {metric: 0.0 for metric in SELF_METRICS.values()}
        for (name, start, end, _, _), children in zip(spans, child_time):
            metrics[SELF_METRICS[name]] += (end - start) - children
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        calls = self.counts["graphs.build.calls"]
        metrics["graphs.build.repeat_ratio"] = (
            self.counts["graphs.build.repeats"] / calls if calls else 0.0)
        metrics["trace.wall_s"] = spans[0][2] - spans[0][1]
        return metrics

    def pass_span(self) -> tuple[float, float]:
        """(start, end) of the most recent pass."""
        _, start, end, _, _ = self.spans[self._pass_start]
        return start, end

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, case."""
        with open(path, "w") as out:
            for name, start, end, parent, case in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "case": case}) + "\n")
