"""Import layering: the oracle stays free of formula code."""

import ast
from pathlib import Path

import kronspectra

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
    for name in ("graphs", "numeric"):
        assert not imported_modules(PACKAGE / f"{name}.py") & formula, name


def test_closedform_does_not_import_polynomials():
    assert "polynomials" not in imported_modules(PACKAGE / "closedform.py")


def test_polynomials_does_not_import_verify():
    # verify runs the p(A) = D check on its oracle; polynomials only gives p
    assert "verify" not in imported_modules(PACKAGE / "polynomials.py")


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
