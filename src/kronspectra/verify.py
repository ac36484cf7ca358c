"""Closed-form vs oracle verification: per-family reports and the full grid.

The two routes are kept strictly separate.  The closed-form side dispatches
a family spec to the applicable formula; the oracle side is the ``oracle``
module's ``FamilyOracle``, which reads the family's D and A from its graph
alone and imports no formula code.  A report records both spectra, the
match verdict, the largest eigenvalue gap and any discrepancy notes
attached to the closed form used.  The Johnson and Hamming certificate
D = p(A) is checked here too (``poly_report``), on the same oracle:
``polynomials`` gives p, and ``FamilyOracle.polynomial_gap`` compares p(A)
with D.

The notes are first-class output: where a published enumeration of these
spectra is ambiguous or wrong, the note states the resolution this package
implements and the oracle check on the same report line is the evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closedform, polynomials
from .errors import FamilyDomainError, KronSpectraError, NoClosedFormError
from .graphs import Complete, Cycle, FamilySpec, Hamming, Johnson, Kron
from .graphs import family_order, family_to_string
from .oracle import FamilyOracle, oracle_adjacency_spectrum, oracle_distance_spectrum
from .spectrum import Spectrum, spectra_match
# not called here (the oracle module reads and solves every family, and
# groups its spectra); they stay importable from this module, where
# benchmarks/tracing.py wraps them
from .graphs import build_family, distance_matrix  # noqa: F401
from .numeric import symmetric_eigenvalues  # noqa: F401
from .spectrum import spectrum_from_values  # noqa: F401

__all__ = [
    "NOTE_EVEN_CYCLE_INDEX_ZERO",
    "NOTE_ODD_CYCLE_INDEX_RANGE",
    "NOTE_HAMMING_FACTOR_N",
    "NOTE_TRIANGLE_IS_COMPLETE",
    "NOTE_H22_IS_CYCLE",
    "NOTE_FACTORS_SWAPPED",
    "closed_form_distance_spectrum",
    "closed_form_adjacency_spectrum",
    "FamilyOracle",
    "oracle_distance_spectrum",
    "oracle_adjacency_spectrum",
    "FamilyReport",
    "verify_family",
    "poly_report",
    "johnson_parameter_grid",
    "hamming_parameter_grid",
    "default_grid",
    "iter_grid",
    "run_grid",
]

# Resolutions of enumeration defects in the published closed forms.  Each
# note rides along on every report that relies on the resolution, so the
# match flag next to it is the oracle evidence.
NOTE_EVEN_CYCLE_INDEX_ZERO = (
    "even-cycle product: repeated-block eigenvalues 4*cos(pi*r/m)-2 are"
    " enumerated from r=0, so the value 2 enters with multiplicity n-1;"
    " starting at r=1 drops n-1 eigenvalues and breaks the zero-trace check"
)
NOTE_ODD_CYCLE_INDEX_RANGE = (
    "odd-cycle product: the secant-family eigenvalues of the distinguished"
    " block run p=1..m, not p=1..m-1; the block is (2m+1)x(2m+1) and needs"
    " 2m+1 eigenvalues"
)
NOTE_HAMMING_FACTOR_N = (
    "complete-by-hamming product: the second distinguished-block eigenvalue"
    " is 2n-2 - n*q^(d-1) + lambda_1, with the factor n on q^(d-1); without"
    " that factor the spectrum fails the zero-trace check and the oracle"
)
NOTE_TRIANGLE_IS_COMPLETE = (
    "cycle factor of length 3 is the complete graph K_3; the odd-cycle form"
    " assumes length >= 5, so the complete-by-complete form is used"
)
NOTE_H22_IS_CYCLE = (
    "hamming factor H(2,2) is the 4-cycle; the bipartite-factor exclusion"
    " applies, so the even-cycle product form is used"
)
NOTE_FACTORS_SWAPPED = (
    "factors swapped before dispatch: the two product orders give isomorphic"
    " graphs, so the distance spectrum is unchanged"
)


def _as_complete(spec: FamilySpec) -> Complete | None:
    """Recognize atoms that are complete graphs under another name."""
    if isinstance(spec, Complete):
        return spec
    if isinstance(spec, Cycle) and spec.n == 3:
        return Complete(3)
    if isinstance(spec, Johnson) and spec.r == 1:
        return Complete(spec.m)
    if isinstance(spec, Hamming) and spec.d == 1:
        return Complete(spec.q)
    return None


def closed_form_distance_spectrum(
    spec: FamilySpec, group_tol: float = 1e-6
) -> tuple[Spectrum, list[str]]:
    """Dispatch a family to its closed-form distance spectrum.

    Returns the spectrum plus the discrepancy notes that apply to the form
    used.  Raises NoClosedFormError where no published form is valid (for
    example any product with a K_2-like or bipartite Hamming factor).
    """
    notes: list[str] = []
    if isinstance(spec, Cycle):
        return closedform.cycle_distance_spectrum(spec.n, group_tol), notes
    if isinstance(spec, Complete):
        return closedform.complete_distance_spectrum(spec.n), notes
    if isinstance(spec, Johnson):
        return closedform.johnson_distance_spectrum(spec.m, spec.r), notes
    if isinstance(spec, Hamming):
        return closedform.hamming_distance_spectrum(spec.d, spec.q), notes
    if isinstance(spec, Kron):
        return _kron_closed_form(spec, group_tol)
    raise TypeError(f"not a family spec: {spec!r}")


def _kron_closed_form(
    spec: Kron, group_tol: float
) -> tuple[Spectrum, list[str]]:
    """Normalise the product and dispatch it to the closedform function
    whose domain check rules on it."""
    left, right = spec.left, spec.right
    family = family_to_string(spec)
    notes: list[str] = []
    if _as_complete(left) is None and _as_complete(right) is not None:
        left, right = right, left
        notes.append(NOTE_FACTORS_SWAPPED)
    complete_left = _as_complete(left)
    if complete_left is None or isinstance(right, Kron):
        raise NoClosedFormError(
            f"no closed form for {family}: products are covered"
            " only with a complete factor against a cycle, complete, Johnson"
            " or Hamming factor"
        )
    n, right_complete = complete_left.n, _as_complete(right)
    try:
        if right_complete is not None:
            if isinstance(right, Cycle):
                notes.append(NOTE_TRIANGLE_IS_COMPLETE)
            return closedform.kron_complete_spectrum(n, right_complete.n), notes
        if isinstance(right, Cycle):
            if right.n % 2 == 0:
                notes.append(NOTE_EVEN_CYCLE_INDEX_ZERO)
                return closedform.kron_cycle_even_spectrum(n, right.n // 2, group_tol), notes
            notes.append(NOTE_ODD_CYCLE_INDEX_RANGE)
            return closedform.kron_cycle_odd_spectrum(n, (right.n - 1) // 2, group_tol), notes
        if isinstance(right, Johnson):
            return closedform.kron_johnson_spectrum(n, right.m, right.r), notes
        if isinstance(right, Hamming):
            if (right.d, right.q) == (2, 2):
                notes.append(NOTE_H22_IS_CYCLE)
                notes.append(NOTE_EVEN_CYCLE_INDEX_ZERO)
                return closedform.kron_cycle_even_spectrum(n, 2, group_tol), notes
            notes.append(NOTE_HAMMING_FACTOR_N)
            return closedform.kron_hamming_spectrum(n, right.d, right.q), notes
    except FamilyDomainError as err:
        raise NoClosedFormError(f"no closed form for {family}: {err}") from err


def closed_form_adjacency_spectrum(
    spec: FamilySpec, group_tol: float = 1e-6
) -> tuple[Spectrum, list[str]]:
    """Closed-form adjacency spectra for the base families."""
    if isinstance(spec, Cycle):
        return closedform.cycle_adjacency_spectrum(spec.n, group_tol), []
    if isinstance(spec, Complete):
        return closedform.complete_adjacency_spectrum(spec.n), []
    if isinstance(spec, Johnson):
        return closedform.johnson_adjacency_spectrum(spec.m, spec.r), []
    if isinstance(spec, Hamming):
        return closedform.hamming_adjacency_spectrum(spec.d, spec.q), []
    raise NoClosedFormError(
        "closed-form adjacency spectra cover the base families only"
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyReport:
    """One closed-vs-oracle comparison, serializable as a JSON line."""

    family: str
    check: str
    closed_form: Spectrum | None
    oracle: Spectrum | None
    match: bool
    max_abs_gap: float
    discrepancy_notes: tuple[str, ...] = field(default_factory=tuple)
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "check": self.check,
            "closed_form": self.closed_form.to_dict() if self.closed_form else None,
            "oracle": self.oracle.to_dict() if self.oracle else None,
            "match": self.match,
            "max_abs_gap": self.max_abs_gap if math.isfinite(self.max_abs_gap) else None,
            "discrepancy_notes": list(self.discrepancy_notes),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _elementwise_gap(closed: Spectrum, oracle_values: np.ndarray) -> float:
    """Largest gap between the closed eigenvalues and the oracle's, both
    ascending, with multiplicity."""
    if closed.order != oracle_values.size:
        return math.inf
    expanded = np.repeat(closed.value_array[::-1], closed.multiplicity_array[::-1])
    return float(np.max(np.abs(expanded - oracle_values)))


def _oracle_for(spec: FamilySpec, oracle: FamilyOracle | None) -> FamilyOracle:
    if oracle is None:
        return FamilyOracle(spec)
    if oracle.spec != spec:
        raise ValueError(f"oracle of {oracle.spec!r} passed for {spec!r}")
    return oracle


def verify_family(
    spec: FamilySpec,
    tol: float = 1e-6,
    matrix: str = "distance",
    oracle: FamilyOracle | None = None,
) -> FamilyReport:
    """Compare the closed-form spectrum of a family against the oracle.

    The match requires groupwise agreement (values within tol, identical
    multiplicities) and the reported gap is the largest elementwise
    difference between the two sorted eigenvalue multisets.  ``oracle``
    supplies the family's A and D when a caller shares them between
    checks; otherwise they are computed here.  A family the oracle refuses
    (``FamilyOracle.refuse``) is refused before its closed form is
    computed.
    """
    name = family_to_string(spec)
    oracle = _oracle_for(spec, oracle)
    oracle.refuse(matrix)
    if matrix == "distance":
        closed, notes = closed_form_distance_spectrum(spec, tol)
    elif matrix == "adjacency":
        closed, notes = closed_form_adjacency_spectrum(spec, tol)
    else:
        raise ValueError(f"unknown matrix kind {matrix!r}")
    oracle_spectrum = oracle.spectrum(matrix, tol)
    report = spectra_match(closed, oracle_spectrum, tol)
    gap = _elementwise_gap(closed, oracle.eigenvalues(matrix))
    matched = report.matches and gap <= tol
    return FamilyReport(
        family=name,
        check=f"{matrix}-spectrum",
        closed_form=closed,
        oracle=oracle_spectrum,
        match=matched,
        max_abs_gap=gap,
        discrepancy_notes=tuple(notes),
    )


def poly_report(spec: FamilySpec, tol: float = 1e-8,
                oracle: FamilyOracle | None = None) -> FamilyReport:
    """Compare p(A) with D entrywise for the distance polynomial p of a
    Johnson or Hamming family (any other raises FamilyDomainError), by
    ``oracle``'s ``polynomial_gap`` once p exists; a family past a cap is
    refused (``FamilyOracle.refuse``) before anything is built."""
    oracle = _oracle_for(spec, oracle)
    poly = polynomials.distance_polynomial(spec)
    gap = oracle.polynomial_gap(poly.as_floats())
    return FamilyReport(family=family_to_string(spec), check="distance-polynomial",
                        closed_form=None, oracle=None, match=gap < tol, max_abs_gap=gap)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def johnson_parameter_grid(max_m: int) -> list[tuple[int, int]]:
    return [(m, r) for m in range(2, max_m + 1) for r in range(1, m // 2 + 1)]


def hamming_parameter_grid(max_order: int, max_q: int = 32) -> list[tuple[int, int]]:
    """All (d, q) with q^d <= max_order, q capped so the d = 1 tail of
    complete graphs stays finite."""
    out = []
    for d in range(1, max_order.bit_length() + 1):
        for q in range(2, max_q + 1):
            if q ** d <= max_order:
                out.append((d, q))
    return out


def default_grid(max_order: int = 1200) -> list[tuple[FamilySpec, str]]:
    """The verification grid: (family, check-kind) pairs, order-capped.

    Covers base-family adjacency/distance spectra, the distance
    polynomials, and every product family with a closed form.
    """
    cases: list[tuple[FamilySpec, str]] = []
    for m, r in johnson_parameter_grid(10):
        cases.append((Johnson(m, r), "adjacency-spectrum"))
        cases.append((Johnson(m, r), "distance-spectrum"))
        cases.append((Johnson(m, r), "distance-polynomial"))
    for d, q in hamming_parameter_grid(1024):
        cases.append((Hamming(d, q), "adjacency-spectrum"))
        cases.append((Hamming(d, q), "distance-spectrum"))
        cases.append((Hamming(d, q), "distance-polynomial"))
    for n in range(3, 7):
        for length in range(3, 13):
            cases.append((Kron(Complete(n), Cycle(length)), "distance-spectrum"))
    for n in range(3, 9):
        for m in range(3, 9):
            cases.append((Kron(Complete(n), Complete(m)), "distance-spectrum"))
    for n in (3, 4, 5):
        for m, r in johnson_parameter_grid(8):
            if (m, r) != (2, 1):
                cases.append((Kron(Complete(n), Johnson(m, r)), "distance-spectrum"))
        for d, q in hamming_parameter_grid(256, max_q=16):
            if q >= 3 or (d, q) == (2, 2):
                cases.append((Kron(Complete(n), Hamming(d, q)), "distance-spectrum"))
    return [(spec, kind) for spec, kind in cases if family_order(spec) <= max_order]


def _run_case(oracle: FamilyOracle, kind: str, tol: float) -> FamilyReport:
    if kind == "distance-polynomial":
        # entrywise p(A) = D carries its own, tighter tolerance
        return poly_report(oracle.spec, oracle=oracle)
    matrix = "adjacency" if kind == "adjacency-spectrum" else "distance"
    return verify_family(oracle.spec, tol, matrix, oracle)


def iter_grid(
    cases: list[tuple[FamilySpec, str]],
    tol: float = 1e-6,
):
    """Yield verification reports one case at a time, in input order.

    Input-order delivery keeps report streams reproducible byte for byte
    while long sweeps still emit partial results as they complete.  A case
    that raises a KronSpectraError (over the order cap, say) yields a failed
    report carrying the error, and the sweep goes on; any other exception is
    a defect and ends it.  Consecutive cases of one family share a
    FamilyOracle, so the family's blocks are read and solved at most once
    for them.
    """
    oracle = None
    for spec, kind in cases:
        if oracle is None or oracle.spec != spec:
            oracle = FamilyOracle(spec)
        try:
            report = _run_case(oracle, kind, tol)
        except KronSpectraError as err:
            report = FamilyReport(family=family_to_string(spec), check=kind,
                                  closed_form=None, oracle=None, match=False,
                                  max_abs_gap=math.nan,
                                  error=f"{type(err).__name__}: {err}")
        yield report


def run_grid(
    cases: list[tuple[FamilySpec, str]],
    tol: float = 1e-6,
) -> list[FamilyReport]:
    return list(iter_grid(cases, tol))
