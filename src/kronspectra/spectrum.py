"""Eigenvalue multisets: grouping, comparison and JSON serialization.

A :class:`Spectrum` is the common currency of the package: every closed-form
constructor and every numeric eigensolve is reduced to one before being
compared.  Values are stored in descending order; multiplicities always sum
to the order of the underlying matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Spectrum", "MatchReport", "spectrum_from_values", "spectra_match"]

# Once no more than this many groups are still open, spectrum_from_values
# sums each of them (long runs of close eigenvalues) in one call rather than
# one array step per member.
_FEW_GROUPS = 64


def _render(value: float) -> float:
    """Round a value to 12 significant digits for deterministic JSON output."""
    if value == 0:
        return 0.0
    return float(f"{value:.12g}")


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues as (value, multiplicity) pairs, descending."""

    pairs: tuple[tuple[float, int], ...]
    grouping_tol: float = 0.0

    def __post_init__(self):
        values = np.array([v for v, _ in self.pairs], dtype=float)
        mult_list = [m for _, m in self.pairs]
        mults = np.array(mult_list)
        # the first offending pair names the error, multiplicity first
        bad_mult = mults <= 0
        bad = bad_mult | ~np.isfinite(values)
        if bad.any():
            if bad_mult[np.argmax(bad)]:
                raise ValueError("multiplicities must be positive")
            raise ValueError("eigenvalues must be finite")
        if (values[:-1] < values[1:]).any():
            raise ValueError("pairs must be sorted by descending value")
        if (values[:-1] - values[1:] <= self.grouping_tol).any():
            raise ValueError("consecutive values must differ by more than grouping_tol")
        object.__setattr__(self, "_order", sum(mult_list))

    @property
    def order(self) -> int:
        return self._order

    def values(self) -> list[float]:
        return [v for v, _ in self.pairs]

    def multiplicities(self) -> list[int]:
        return [m for _, m in self.pairs]

    def trace(self) -> float:
        """Sum of value * multiplicity (equals the matrix trace)."""
        return sum(v * m for v, m in self.pairs)

    def expanded(self) -> list[float]:
        """All eigenvalues with multiplicity, ascending."""
        out: list[float] = []
        for value, mult in reversed(self.pairs):
            out.extend([value] * mult)
        return out

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


def spectrum_from_values(values: Sequence[float], group_tol: float) -> Spectrum:
    """Group a list of eigenvalues into a Spectrum.

    Adjacent sorted values within ``group_tol`` are merged into one group
    represented by the group mean; the total multiplicity is preserved.
    Each group is summed left to right from 0.0, so a mean is the same
    float as ``sum(group) / len(group)`` with Python's float ``sum`` before
    3.12.
    """
    if not 0 <= group_tol < math.inf:
        raise ValueError(f"group_tol must be finite and nonnegative, got {group_tol}")
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        return Spectrum((), group_tol)
    if not np.isfinite(ordered).all():
        raise ValueError("eigenvalues must be finite")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > group_tol) + 1))
    sizes = np.diff(starts, append=ordered.size)
    sums = np.zeros(starts.size)
    # Add the k-th member of every group still open, one array step per
    # position; np.add.reduceat would sum pairwise and move the last bits.
    open_groups = np.arange(starts.size)
    k = 0
    while open_groups.size > _FEW_GROUPS:
        sums[open_groups] += ordered[starts[open_groups] + k]
        k += 1
        open_groups = open_groups[sizes[open_groups] > k]
    for g in open_groups.tolist():
        tail = ordered[starts[g] + k:starts[g] + sizes[g]]
        # accumulate adds strictly left to right
        sums[g] = np.add.accumulate(np.concatenate((sums[g:g + 1], tail)))[-1]
    means = sums / sizes
    return Spectrum(tuple(zip(means[::-1].tolist(), sizes[::-1].tolist())), group_tol)


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
    max_gap = 0.0
    for (va, ma), (vb, mb) in zip(a.pairs, b.pairs):
        gap = abs(va - vb)
        max_gap = max(max_gap, gap)
        if gap > tol:
            problems.append(f"value gap {gap:.3e} at {va:.6g} vs {vb:.6g}")
        if ma != mb:
            problems.append(f"multiplicity {ma} != {mb} at value {va:.6g}")
    return MatchReport(not problems, max_gap, tuple(problems))
