"""The package names the benchmark's worker and self-test read.

``benchmarks/worker.py`` and ``benchmarks/test_harness.py`` reach the
program as ``ks.<module>.<name>`` (or ``self.ks``, ``KS``), and patch some
of those names.  A refactor that moves one would only break the benchmark,
so these tests read every such name out of the two files and resolve it.
"""

import ast
import inspect
from pathlib import Path

import kronspectra

ROOT = Path(__file__).resolve().parent.parent
READERS = [ROOT / "benchmarks" / "worker.py", ROOT / "benchmarks" / "test_harness.py"]


def program_module(node):
    """The module name of ``ks.<module>``, ``self.ks.<module>`` or
    ``KS.<module>``, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    program = node.value
    if isinstance(program, ast.Name) and program.id in ("ks", "KS"):
        return node.attr
    if (isinstance(program, ast.Attribute) and program.attr == "ks"
            and isinstance(program.value, ast.Name) and program.value.id == "self"):
        return node.attr
    return None


def names_read(path):
    """(module, name) for every ``ks.<module>.<name>`` a file reads, and
    every ``setattr``-style call on ``ks.<module>`` with a literal name."""
    found = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Attribute) and program_module(node.value):
            found.add((program_module(node.value), node.attr))
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and program_module(node.args[0])
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            found.add((program_module(node.args[0]), node.args[1].value))
    return found


def test_every_name_the_benchmark_reads_resolves():
    found = set().union(*(names_read(path) for path in READERS))
    # the names the worker's cases and the self-test's planted failures read
    assert {("cli", "parse_family"), ("cli", "main"), ("graphs", "family_order"),
            ("graphs", "family_to_string"), ("verify", "poly_report"),
            ("numeric", "dense_matrix_cap"), ("closedform", "cycle_distance_spectrum"),
            ("closedform", "kron_complete_spectrum")} <= found
    missing = [(module, name) for module, name in sorted(found)
               if not hasattr(getattr(kronspectra, module, None), name)]
    assert missing == []


def test_names_read_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "ks.cli.parse_family('C5')\n"
        "self.ks.graphs.family_order\n"
        "monkeypatch.setattr(KS.closedform, 'planted', None)\n"
        "other.cli.main\n"
        "ks.version\n"
    )
    assert names_read(probe) == {("cli", "parse_family"), ("graphs", "family_order"),
                                 ("closedform", "planted")}


def test_poly_report_keeps_its_tol_default():
    # the worker reads the grid's polynomial tolerance off this default
    default = inspect.signature(kronspectra.verify.poly_report).parameters["tol"].default
    assert isinstance(default, float) and default > 0
