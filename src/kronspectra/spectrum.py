"""Eigenvalue multisets: grouping, comparison and JSON serialization.

A :class:`Spectrum` is the common currency of the package: every closed-form
constructor and every numeric eigensolve is reduced to one before being
compared.  It holds a float64 array of values in descending order and an
array of multiplicities that sum to the order of the underlying matrix;
``pairs`` is a read-only view of the two as (value, multiplicity) tuples.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Spectrum", "SpectrumPairs", "MatchReport", "spectrum_from_values",
           "spectra_match"]

# Once no more than this many groups are still open, spectrum_from_values
# sums each of them (long runs of close eigenvalues) in one call rather than
# one array step per member.
_FEW_GROUPS = 64


def _render(value: float) -> float:
    """Round a value to 12 significant digits for deterministic JSON output."""
    if value == 0:
        return 0.0
    return float(f"{value:.12g}")


def _multiplicity_array(mults: Sequence[int]) -> np.ndarray:
    """int64, or Python ints as dtype object when one does not fit."""
    exact = [operator.index(m) for m in mults]
    try:
        return np.array(exact, dtype=np.int64)
    except OverflowError:
        return np.array(exact, dtype=object)


def _order(mults: np.ndarray) -> int:
    """Sum of the (validated, positive) multiplicities as a Python int."""
    if mults.dtype == object or mults.size * int(mults.max(initial=0)) > 2**63 - 1:
        return sum(mults.tolist())
    return int(mults.sum())


class SpectrumPairs:
    """Read-only (value, multiplicity) view of a Spectrum's two arrays.

    Items are ``(float, int)`` tuples made when read; the view compares
    equal to the tuple of those tuples.
    """

    __slots__ = ("_values", "_mults")

    def __init__(self, values: np.ndarray, mults: np.ndarray):
        self._values = values
        self._mults = mults

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, index: int) -> tuple[float, int]:
        index = operator.index(index)
        return self._values[index].item(), int(self._mults[index])

    def __iter__(self) -> Iterator[tuple[float, int]]:
        return zip(self._values.tolist(), self._mults.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, SpectrumPairs):
            return (np.array_equal(self._values, other._values)
                    and np.array_equal(self._mults, other._mults))
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Spectrum:
    """Multiset of eigenvalues: distinct values, descending, with
    multiplicities.

    ``value_array`` is float64; ``multiplicity_array`` is int64, or Python
    ints as dtype object when one does not fit in int64.  Both are read-only.
    """

    value_array: np.ndarray
    multiplicity_array: np.ndarray
    grouping_tol: float
    order: int

    def __init__(self, pairs: Iterable[tuple[float, int]], grouping_tol: float = 0.0):
        pairs = tuple(pairs)
        self._fill(np.array([v for v, _ in pairs], dtype=np.float64),
                   _multiplicity_array([m for _, m in pairs]), grouping_tol)

    @classmethod
    def _from_arrays(cls, values: np.ndarray, mults: np.ndarray,
                     grouping_tol: float) -> "Spectrum":
        """Build from a descending value array and an int64 multiplicity
        array (both copied), with the checks ``Spectrum(pairs)`` runs."""
        sp = cls.__new__(cls)
        sp._fill(np.array(values, dtype=np.float64), np.array(mults, dtype=np.int64),
                 grouping_tol)
        return sp

    def _fill(self, values: np.ndarray, mults: np.ndarray, grouping_tol: float) -> None:
        if not 0 <= grouping_tol < math.inf:
            raise ValueError(f"group_tol must be finite and nonnegative, got {grouping_tol}")
        # the first offending pair names the error, multiplicity first
        bad_mult = mults <= 0
        bad = bad_mult | ~np.isfinite(values)
        if bad.any():
            if bad_mult[np.argmax(bad)]:
                raise ValueError("multiplicities must be positive")
            raise ValueError("eigenvalues must be finite")
        if (values[:-1] < values[1:]).any():
            raise ValueError("pairs must be sorted by descending value")
        if (values[:-1] - values[1:] <= grouping_tol).any():
            raise ValueError("consecutive values must differ by more than grouping_tol")
        values.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "value_array", values)
        object.__setattr__(self, "multiplicity_array", mults)
        object.__setattr__(self, "grouping_tol", grouping_tol)
        object.__setattr__(self, "order", _order(mults))

    @property
    def pairs(self) -> SpectrumPairs:
        return SpectrumPairs(self.value_array, self.multiplicity_array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.grouping_tol == other.grouping_tol and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((len(self.value_array), self.order, self.grouping_tol))

    def __repr__(self) -> str:
        return f"Spectrum(pairs={self.pairs!r}, grouping_tol={self.grouping_tol!r})"

    def values(self) -> list[float]:
        return self.value_array.tolist()

    def multiplicities(self) -> list[int]:
        return self.multiplicity_array.tolist()

    def trace(self) -> float:
        """Sum of value * multiplicity (equals the matrix trace), added left
        to right."""
        return sum((self.value_array * self.multiplicity_array).tolist())

    def expanded(self) -> list[float]:
        """All eigenvalues with multiplicity, ascending."""
        return np.repeat(self.value_array[::-1], self.multiplicity_array[::-1]).tolist()

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, int]],
                   grouping_tol: float = 0.0) -> "Spectrum":
        """Build from unordered pairs, merging exactly equal values."""
        merged: dict[float, int] = {}
        for value, mult in pairs:
            key = float(value)
            merged[key] = merged.get(key, 0) + int(mult)
        ordered = tuple(sorted(merged.items(), key=lambda p: -p[0]))
        return Spectrum(ordered, grouping_tol)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "pairs": [{"value": _render(v), "multiplicity": m} for v, m in self.pairs],
            "tol": _render(self.grouping_tol),
        }

    @staticmethod
    def from_json(text: str) -> "Spectrum":
        data = json.loads(text)
        pairs = tuple((float(p["value"]), int(p["multiplicity"])) for p in data["pairs"])
        sp = Spectrum(pairs, float(data.get("tol", 0.0)))
        if sp.order != data["order"]:
            raise ValueError("order field disagrees with multiplicities")
        return sp


def spectrum_from_values(values: Sequence[float], group_tol: float,
                         multiplicities: Sequence[int] | None = None) -> Spectrum:
    """Group eigenvalues, or (value, multiplicity) rows, into a Spectrum.

    Adjacent sorted values within ``group_tol`` are merged into one group;
    the total multiplicity is preserved.  Without ``multiplicities`` every
    value counts once and a group is represented by its mean, summed left
    to right from 0.0, so it is the same float as
    ``sum(group) / len(group)`` with Python's float ``sum`` before 3.12.
    With them, value i stands for ``multiplicities[i]`` equal eigenvalues:
    a group's multiplicity is the sum of its rows' and its value the
    weighted mean sum(m * v) / sum(m), summed the same way, so all-ones
    weights give the unweighted result.
    """
    if not 0 <= group_tol < math.inf:
        raise ValueError(f"group_tol must be finite and nonnegative, got {group_tol}")
    values = np.asarray(values, dtype=float)
    if multiplicities is None:
        ordered = terms = np.sort(values)
    else:
        weights = np.asarray(multiplicities, dtype=np.int64)
        if weights.shape != values.shape:
            raise ValueError(f"{weights.size} multiplicities for {values.size} values")
        if (weights <= 0).any():
            raise ValueError("multiplicities must be positive")
        order = np.argsort(values, kind="stable")
        ordered, weights = values[order], weights[order]
        terms = ordered * weights
    if ordered.size == 0:
        return Spectrum((), group_tol)
    if not np.isfinite(ordered).all():
        raise ValueError("eigenvalues must be finite")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > group_tol) + 1))
    sizes = np.diff(starts, append=ordered.size)
    counts = sizes if multiplicities is None else np.add.reduceat(weights, starts)
    sums = np.zeros(starts.size)
    # Add the k-th member of every group still open, one array step per
    # position; np.add.reduceat would sum pairwise and move the last bits.
    open_groups = np.arange(starts.size)
    k = 0
    while open_groups.size > _FEW_GROUPS:
        sums[open_groups] += terms[starts[open_groups] + k]
        k += 1
        open_groups = open_groups[sizes[open_groups] > k]
    for g in open_groups.tolist():
        tail = terms[starts[g] + k:starts[g] + sizes[g]]
        # accumulate adds strictly left to right
        sums[g] = np.add.accumulate(np.concatenate((sums[g:g + 1], tail)))[-1]
    means = sums / counts
    return Spectrum._from_arrays(means[::-1], counts[::-1], group_tol)


@dataclass(frozen=True)
class MatchReport:
    """Result of comparing two spectra groupwise."""

    matches: bool
    max_gap: float
    mismatches: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "match": self.matches,
            "max_abs_gap": _render(self.max_gap) if math.isfinite(self.max_gap) else None,
            "mismatches": list(self.mismatches),
        }


def spectra_match(a: Spectrum, b: Spectrum, tol: float) -> MatchReport:
    """Align two spectra group by group (both sorted descending).

    Matching requires equal orders, equal group counts, groupwise value gaps
    within ``tol`` and exactly equal multiplicities.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    problems: list[str] = []
    if a.order != b.order:
        problems.append(f"order {a.order} != {b.order}")
    if len(a.pairs) != len(b.pairs):
        problems.append(f"group count {len(a.pairs)} != {len(b.pairs)}")
    if problems:
        return MatchReport(False, math.inf, tuple(problems))
    gaps = np.abs(a.value_array - b.value_array)
    max_gap = float(gaps.max(initial=0.0))
    off_value = gaps > tol
    off_mult = a.multiplicity_array != b.multiplicity_array
    for i in np.flatnonzero(off_value | off_mult).tolist():
        (va, ma), (vb, mb) = a.pairs[i], b.pairs[i]
        if off_value[i]:
            problems.append(f"value gap {abs(va - vb):.3e} at {va:.6g} vs {vb:.6g}")
        if off_mult[i]:
            problems.append(f"multiplicity {ma} != {mb} at value {va:.6g}")
    return MatchReport(not problems, max_gap, tuple(problems))
