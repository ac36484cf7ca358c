"""Family specs: the one graph module that both routes read.

A spec names a cycle C_n, a complete graph K_n, a Johnson graph J(m, r), a
Hamming graph H(d, q) or a Kronecker product of two specs, and nothing is
built here: the closed forms read a spec's parameters, and the oracle
builds its graph (``atoms``).  A fault here fools both routes at once, so
this module holds only the specs, their order, names and caps, and the
parser of their text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import FamilyDomainError, FamilyParseError, OrderCapError

__all__ = [
    "Cycle",
    "Complete",
    "Johnson",
    "Hamming",
    "Kron",
    "FamilySpec",
    "family_order",
    "family_to_string",
    "refuse_past_product_cap",
    "parse_family",
    "PRODUCT_VERTEX_CAP",
    "KRON_NESTING_CAP",
]

PRODUCT_VERTEX_CAP = 20_000


@dataclass(frozen=True)
class Cycle:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise FamilyDomainError(f"cycle needs n >= 3, got {self.n}")


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise FamilyDomainError(f"complete graph needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class Johnson:
    m: int
    r: int

    def __post_init__(self):
        if not (self.m >= 2 * self.r >= 2):
            raise FamilyDomainError(
                f"Johnson needs m >= 2r >= 2, got m={self.m}, r={self.r}"
            )


@dataclass(frozen=True)
class Hamming:
    d: int
    q: int

    def __post_init__(self):
        if self.d < 1 or self.q < 2:
            raise FamilyDomainError(
                f"Hamming needs d >= 1 and q >= 2, got d={self.d}, q={self.q}"
            )


@dataclass(frozen=True)
class Kron:
    left: "FamilySpec"
    right: "FamilySpec"


FamilySpec = Union[Cycle, Complete, Johnson, Hamming, Kron]


def family_order(spec: FamilySpec) -> int:
    """Vertex count of the graph the spec describes, without building it."""
    if isinstance(spec, (Cycle, Complete)):
        return spec.n
    if isinstance(spec, Johnson):
        return math.comb(spec.m, spec.r)
    if isinstance(spec, Hamming):
        return spec.q ** spec.d
    if isinstance(spec, Kron):
        return family_order(spec.left) * family_order(spec.right)
    raise TypeError(f"not a family spec: {spec!r}")


def family_to_string(spec: FamilySpec) -> str:
    """Compact string form, e.g. 'kron(K3,C4)' or 'J(4,2)'."""
    if isinstance(spec, Cycle):
        return f"C{spec.n}"
    if isinstance(spec, Complete):
        return f"K{spec.n}"
    if isinstance(spec, Johnson):
        return f"J({spec.m},{spec.r})"
    if isinstance(spec, Hamming):
        return f"H({spec.d},{spec.q})"
    if isinstance(spec, Kron):
        return f"kron({family_to_string(spec.left)},{family_to_string(spec.right)})"
    raise TypeError(f"not a family spec: {spec!r}")


def refuse_past_product_cap(spec: FamilySpec) -> int:
    """The family's order; raises OrderCapError for one over
    PRODUCT_VERTEX_CAP vertices, before anything is built."""
    n = family_order(spec)
    if n > PRODUCT_VERTEX_CAP:
        raise OrderCapError(
            f"{family_to_string(spec)} has {n} vertices, cap is {PRODUCT_VERTEX_CAP}")
    return n


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
