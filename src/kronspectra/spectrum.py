"""Eigenvalue multisets: grouping, comparison and JSON serialization.

A :class:`Spectrum` is the common currency of the package: every closed-form
constructor and every numeric eigensolve is reduced to one before being
compared.  It holds a float64 array of values in descending order and an
array of multiplicities that sum to the order of the underlying matrix;
``pairs`` is a read-only view of the two as (value, multiplicity) tuples.
Pairs, and a spectrum's JSON text, are made ``PAIR_CHUNK`` pairs at a time,
so walking or writing a large spectrum holds no list as long as it.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Spectrum", "SpectrumPairs", "MatchReport", "spectrum_from_values",
           "sort_rows", "group_sorted", "spectra_match", "PAIR_CHUNK"]

# Pairs are read off the arrays, rendered as JSON and gathered into sorted
# order this many at a time.
PAIR_CHUNK = 4096

# Once no more than this many groups are still open, group_sorted sums
# each of them (long runs of close eigenvalues) in one call rather than one
# array step per member.
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
        return itertools.chain.from_iterable(itertools.starmap(zip, self.chunks()))

    def chunks(self) -> Iterator[tuple[list[float], list[int]]]:
        """(values, multiplicities) as lists of floats and ints, at most
        PAIR_CHUNK pairs each, in order."""
        for start in range(0, self._values.size, PAIR_CHUNK):
            stop = start + PAIR_CHUNK
            yield self._values[start:stop].tolist(), self._mults[start:stop].tolist()

    def __eq__(self, other) -> bool:
        if isinstance(other, SpectrumPairs):
            return (np.array_equal(self._values, other._values)
                    and np.array_equal(self._mults, other._mults))
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
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
        # the values are finite, so a gap is below 0 just where a pair is
        # out of order
        closest = (values[:-1] - values[1:]).min(initial=math.inf)
        if closest < 0:
            raise ValueError("pairs must be sorted by descending value")
        if closest <= grouping_tol:
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
        return "".join(self.json_chunks())

    def json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_dict())`` in pieces, one per
        PAIR_CHUNK pairs: each number as json writes it, ``repr`` of the
        rendered value or of the int, with its default separators."""
        yield f'{{"order": {self.order!r}, "pairs": ['
        separator = ""
        for values, mults in self.pairs.chunks():
            yield separator + ", ".join([
                f'{{"value": {_render(v)!r}, "multiplicity": {m!r}}}'
                for v, m in zip(values, mults)])
            separator = ", "
        yield f'], "tol": {_render(self.grouping_tol)!r}}}'

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
    weights give the unweighted result.  The inputs are only read: the
    grouping works on sorted copies.
    """
    if multiplicities is None:
        return group_sorted(np.sort(np.asarray(values, dtype=float)), None, group_tol)
    return group_sorted(*sort_rows(values, multiplicities), group_tol)


def sort_rows(values: Sequence[float],
              multiplicities: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(value, multiplicity) rows in ascending stable order of value, as a
    new float64 array and a new int64 array; the inputs are only read.

    The sorted multiplicities are gathered into the argsort's index buffer
    PAIR_CHUNK at a time (each chunk's indices are read before its slots
    are written), so sorting holds one index array and the sorted values
    besides the inputs.  A caller that owns its rows can drop them once
    this returns and hand the copies to ``group_sorted``.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(multiplicities, dtype=np.int64)
    if weights.shape != values.shape:
        raise ValueError(f"{weights.size} multiplicities for {values.size} values")
    if weights.min(initial=1) <= 0:
        raise ValueError("multiplicities must be positive")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    for start in range(0, order.size, PAIR_CHUNK):
        chunk = order[start:start + PAIR_CHUNK]
        chunk[...] = weights[chunk]
    return ordered, order


def group_sorted(ordered: np.ndarray, weights: np.ndarray | None,
                 group_tol: float) -> Spectrum:
    """The grouping of ``spectrum_from_values`` on rows already sorted
    ascending: float64 ``ordered`` and int64 ``weights``, or None to count
    every value once.

    The rows are taken over: the weighted terms are computed into
    ``ordered``'s buffer, so pass arrays no one else reads, such as the
    copies ``sort_rows`` or ``np.sort`` return.
    """
    if not 0 <= group_tol < math.inf:
        raise ValueError(f"group_tol must be finite and nonnegative, got {group_tol}")
    if ordered.size == 0:
        return Spectrum((), group_tol)
    # a sort puts -inf first and inf and NaN last
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        raise ValueError("eigenvalues must be finite")
    new_group = np.empty(ordered.size, dtype=bool)
    new_group[0] = True
    np.greater(np.diff(ordered), group_tol, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    del new_group
    sizes = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = ordered.size - starts[-1]
    # the groups of more than one member, by index, first member and size
    open_groups = np.flatnonzero(sizes > 1)
    open_starts, open_sizes = starts[open_groups], sizes[open_groups]
    if weights is None:
        terms, counts = ordered, sizes
    else:
        terms = np.multiply(ordered, weights, out=ordered)
        counts = np.add.reduceat(weights, starts)
    del ordered, weights, sizes
    # Every group's first member, added to 0.0 as a sum from 0.0 adds it
    # (so -0.0 becomes 0.0); then the k-th member of every group still
    # open, one array step per position; np.add.reduceat would sum pairwise
    # and move the last bits.
    sums = terms[starts]
    del starts
    sums += 0.0
    k = 1
    while open_groups.size > _FEW_GROUPS:
        sums[open_groups] += terms[open_starts + k]
        k += 1
        keep = open_sizes > k
        open_groups, open_starts, open_sizes = (
            open_groups[keep], open_starts[keep], open_sizes[keep])
    for g, start, size in zip(open_groups.tolist(), open_starts.tolist(),
                              open_sizes.tolist()):
        # accumulate adds strictly left to right
        sums[g] = np.add.accumulate(
            np.concatenate((sums[g:g + 1], terms[start + k:start + size])))[-1]
    sums /= counts
    # the Spectrum reads only sums and counts, this call's own float64 and
    # int64 arrays, and keeps them as they are, read-only, without a copy
    del terms, open_groups, open_starts, open_sizes
    sp = Spectrum.__new__(Spectrum)
    sp._fill(sums[::-1], counts[::-1], group_tol)
    return sp


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
