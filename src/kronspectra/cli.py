"""Command-line interface.

Commands:

* ``gen``      write a family as edge-list text
* ``spectrum`` closed-form and/or oracle spectrum of a family
* ``poly``     distance polynomial of a Johnson/Hamming family, verified
* ``verify``   closed-vs-oracle report for one family
* ``grid``     the full verification grid as JSON lines plus a summary

Exit codes: 0 success/match, 1 usage or construction error, 2 verification
mismatch.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO, Iterator

from .errors import FamilyDomainError, FamilyParseError, KronSpectraError, OrderCapError
from .graphs import (
    Complete,
    Cycle,
    FamilySpec,
    Hamming,
    Johnson,
    Kron,
    build_family,
    family_to_string,
    to_edge_list_text,
)
from .numeric import dense_matrix_cap
from .oracle import FamilyOracle, oracle_adjacency_spectrum, oracle_distance_spectrum
from .polynomials import distance_polynomial
from .spectrum import Spectrum, spectra_match
from .verify import (
    closed_form_adjacency_spectrum,
    closed_form_distance_spectrum,
    default_grid,
    iter_grid,
    poly_report,
    verify_family,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2


# ---------------------------------------------------------------------------
# Family string parsing
# ---------------------------------------------------------------------------

# Deepest ``kron(`` nesting that parses.  64 atoms already give a shaped
# family 64 group axes, numpy's limit on an array's dimensions, which the
# oracle's row has; and a product of atoms of 2 or more vertices passes
# PRODUCT_VERTEX_CAP within 14 levels.  Deeper text would end in a
# RecursionError, not a parse error.
KRON_NESTING_CAP = 63


def parse_family(text: str) -> FamilySpec:
    """Parse 'C5', 'K3', 'J(4,2)', 'H(2,3)' or 'kron(<family>,<family>)',
    with ``kron(`` nested at most KRON_NESTING_CAP deep."""
    parser = _FamilyParser(text)
    spec = parser.parse_family()
    parser.skip_spaces()
    if parser.pos != len(parser.text):
        raise FamilyParseError("trailing characters after family", parser.pos)
    return spec


class _FamilyParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> FamilyParseError:
        return FamilyParseError(message, self.pos)

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_spaces()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_spaces()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_family(self) -> FamilySpec:
        self.skip_spaces()
        if self.pos >= len(self.text):
            raise self.error("expected a family")
        if self.text.startswith("kron(", self.pos):
            if self.depth == KRON_NESTING_CAP:
                raise self.error(f"kron( nested more than {KRON_NESTING_CAP} deep")
            self.pos += len("kron(")
            self.depth += 1
            left = self.parse_family()
            self.expect(",")
            right = self.parse_family()
            self.expect(")")
            self.depth -= 1
            return Kron(left, right)
        head = self.text[self.pos]
        if head == "C":
            self.pos += 1
            return Cycle(self.integer())
        if head == "K":
            self.pos += 1
            return Complete(self.integer())
        if head in ("J", "H"):
            self.pos += 1
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(")")
            return Johnson(a, b) if head == "J" else Hamming(a, b)
        raise self.error(f"unexpected character {head!r}")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The ``--output`` file, closed on exit, or stdout, left open."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as out:
        yield out


def _emit_spectrum(sp: Spectrum, fmt: str, out: IO[str], label: dict) -> None:
    """Write one spectrum a chunk of pairs at a time: CSV rows, or the JSON
    line ``json.dumps({**label, "spectrum": sp.to_dict()})``."""
    if fmt == "csv":
        out.write("value,multiplicity\n")
        for values, mults in sp.pairs.chunks():
            out.write("".join([f"{v:.12g},{m}\n" for v, m in zip(values, mults)]))
    else:
        # the label's JSON with a null spectrum, cut before the null
        out.write(json.dumps({**label, "spectrum": None})[:-len("null}")])
        out.writelines(sp.json_chunks())
        out.write("}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    graph = build_family(spec)
    with _output(args.output) as out:
        out.write(to_edge_list_text(graph))
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    name = family_to_string(spec)
    if args.format == "csv" and args.method == "both":
        print("csv output supports a single method; use --format json", file=sys.stderr)
        return EXIT_ERROR
    closed = oracle = None
    if args.method in ("closed", "both"):
        if args.matrix == "distance":
            closed, notes = closed_form_distance_spectrum(spec, args.tol)
        else:
            closed, notes = closed_form_adjacency_spectrum(spec, args.tol)
    if args.method in ("oracle", "both"):
        if args.matrix == "distance":
            oracle = oracle_distance_spectrum(spec, args.tol)
        else:
            oracle = oracle_adjacency_spectrum(spec, args.tol)
    code = EXIT_OK
    with _output(args.output) as out:
        if args.method == "closed":
            _emit_spectrum(closed, args.format,
                           out, {"family": name, "method": "closed",
                                 "matrix": args.matrix, "notes": notes})
        elif args.method == "oracle":
            _emit_spectrum(oracle, args.format,
                           out, {"family": name, "method": "oracle",
                                 "matrix": args.matrix})
        else:
            report = spectra_match(closed, oracle, args.tol)
            payload = {
                "family": name,
                "matrix": args.matrix,
                "closed_form": closed.to_dict(),
                "oracle": oracle.to_dict(),
                "match": report.to_dict(),
                "notes": notes,
            }
            out.write(json.dumps(payload) + "\n")
            if not report.matches:
                code = EXIT_MISMATCH
    return code


def cmd_poly(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    poly = distance_polynomial(spec)
    payload = {
        "family": family_to_string(spec),
        "coeffs": [f"{float(c):.12g}" for c in poly.coefficients],
        "degree": poly.degree,
    }
    try:
        report = poly_report(spec)
    except OrderCapError as err:
        # the polynomial is exact without any matrix; the p(A) = D check's
        # blocks are refused past the dense cap, a policy
        print(f"error: {err}", file=sys.stderr)
        payload.update({"max_entry_gap": None, "pass": False,
                        "error": f"{type(err).__name__}: {err}"})
        code = EXIT_ERROR
    else:
        payload.update({"max_entry_gap": report.max_abs_gap, "pass": report.match})
        code = EXIT_OK if report.match else EXIT_MISMATCH
    with _output(args.output) as out:
        out.write(json.dumps(payload) + "\n")
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_family(args.family)
    oracle = FamilyOracle(spec)  # one build and one BFS for both checks
    reports = []
    if args.check in ("spectrum", "all"):
        reports.append(verify_family(spec, args.tol, oracle=oracle))
    if args.check in ("poly", "all"):
        try:
            reports.append(poly_report(spec, oracle=oracle))
        except FamilyDomainError:
            pass  # the family has no distance polynomial
    if not reports:
        print("nothing to verify for this family/check combination", file=sys.stderr)
        return EXIT_ERROR
    with _output(args.output) as out:
        for report in reports:
            out.write(json.dumps(report.to_dict()) + "\n")
    return EXIT_OK if all(r.match for r in reports) else EXIT_MISMATCH


def cmd_grid(args: argparse.Namespace) -> int:
    dense_matrix_cap()  # a malformed cap is one error, not one per case
    cases = default_grid(args.max_order)
    passed = failed = 0
    with _output(args.output) as out:
        # JSON lines stream as cases finish, so long sweeps show progress
        for report in iter_grid(cases, tol=args.tol):
            out.write(json.dumps(report.to_dict()) + "\n")
            out.flush()
            if report.match:
                passed += 1
            else:
                failed += 1
        out.write(json.dumps({"summary": {"cases": passed + failed,
                                          "passed": passed,
                                          "failed": failed}}) + "\n")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error, where argparse exits with 2
    (EXIT_MISMATCH here); subcommand parsers take the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kronspectra",
        description="Distance spectra of graph families and their Kronecker"
                    " products: closed forms, brute-force oracle, and"
                    " verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, family: bool = True,
                   tol: bool = True) -> None:
        if family:
            p.add_argument("--family", required=True,
                           help="family string, e.g. 'kron(K3,C4)' or 'J(4,2)'")
        if tol:
            p.add_argument("--tol", type=float, default=1e-6,
                           help="grouping/comparison tolerance (default 1e-6)")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_gen = sub.add_parser("gen", help="write a family as edge-list text")
    add_common(p_gen, tol=False)
    p_gen.set_defaults(func=cmd_gen)

    p_spec = sub.add_parser("spectrum", help="spectrum of one family")
    add_common(p_spec)
    p_spec.add_argument("--method", choices=("closed", "oracle", "both"),
                        default="both")
    p_spec.add_argument("--matrix", choices=("distance", "adjacency"),
                        default="distance")
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.set_defaults(func=cmd_spectrum)

    p_poly = sub.add_parser("poly", help="distance polynomial p with p(A) = D")
    # p(A) = D is checked entrywise at poly_report's own default tolerance, 1e-8
    add_common(p_poly, tol=False)
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="closed-vs-oracle report for one family")
    add_common(p_verify)
    p_verify.add_argument("--check", choices=("spectrum", "poly", "all"),
                          default="spectrum")
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="run the full verification grid")
    add_common(p_grid, family=False)
    p_grid.add_argument("--max-order", type=int, default=1200,
                        help="skip cases with more vertices than this")
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KronSpectraError, ValueError, OSError, MemoryError) as err:
        # an unwritable --output, or a closed form too large to allocate
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
