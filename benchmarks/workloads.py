"""Seeded case pools for the benchmark workloads.

A workload turns a seed into a list of family strings; the program under
test receives only those strings (``grid`` receives only its command line
and ignores the seed).  Why each workload exists:

* ``grid`` -- the real ``kronspectra grid --max-order 1200`` run, the
  command users run and the only workload that mixes every layer.  Each
  Johnson/Hamming family is built three times, once per check, so sharing
  builds shows here and nowhere else.
* ``deep-sparse`` -- ``kron(K_n,C_len)`` products of order 750..1200 plus
  one bare ``C_len``: diameter 100-300 and degree <= 14, so BFS does ~97%
  of the work.  A BFS change shows here and should do nothing on
  ``dense-wide``.
* ``dense-wide`` -- ``kron(K_n,K_m)`` with n, m in 15..40: diameter 2 and
  degree up to ~1100, so the tuple build and its symmetry check do ~96% of
  the work and BFS is only 2-3 levels.  A graph-representation change
  shows here.
* ``closed-scale`` -- closed forms only, on families past the dense cap
  (the ``spectrum --method closed`` route): cycles of 10^5..10^6 vertices,
  cycle products up to 1.5M vertices and integer-spectrum products.  The
  closedform/circulant and grouping layers are under 1% of every oracle
  workload; here they run at scale.  No oracle runs at these orders, so
  cases are checked by invariants only.

Work balancing: a seed changes which shapes a pass checks, not how much
work a pass is, so wall times of different seeds can be compared.  Each
pool draws candidate lists from the ranges above and keeps the first whose
modelled cost is within ``COST_BAND`` of the workload's target.  The oracle
models count the operation that dominates each workload at the seed commit
(dense BFS level products, the pairwise adjacency symmetry scan); the
closed-form model is fitted to measured case times.  Models choose which
lists are drawn and never how a case is checked.
"""

from __future__ import annotations

import random
from math import comb

WORKLOADS = ("grid", "deep-sparse", "dense-wide", "closed-scale")

GRID_MAX_ORDER = 1200
COST_BAND = 0.02
MAX_DRAWS = 1_000_000


def draw(workload: str, seed: int) -> list[str]:
    """Family strings of a seeded workload (all but ``grid``) for one seed."""
    pool = {
        "deep-sparse": _deep_sparse,
        "dense-wide": _dense_wide,
        "closed-scale": _closed_scale,
    }[workload]
    return pool(random.Random(seed))


def _balanced(rng: random.Random, candidate, target: float) -> list[str]:
    """The first candidate list whose summed case costs are near target."""
    for _ in range(MAX_DRAWS):
        families = candidate(rng)
        if abs(sum(cost for _, cost in families) / target - 1.0) <= COST_BAND:
            return [text for text, _ in families]
    raise RuntimeError("no case list within the cost band; widen the ranges")


# --- deep-sparse -----------------------------------------------------------

DEEP_ORDER = (750, 1200)
DEEP_CYCLE = (500, 700)
# The first product is drawn from the top of the order range: the largest
# dense matrices set the workload's peak memory, so every seed has one.
DEEP_ANCHOR_ORDER = 1180
# sum over cases of levels * order^3, the dense level-synchronous BFS work
DEEP_TARGET = 3.6e11


def _bfs_work(order: int, length: int) -> float:
    # a cycle factor of length L puts the diameter at L // 2; the level
    # loop runs one more product to find the frontier empty
    return (length // 2 + 1) * float(order) ** 3


def _deep_sparse_candidate(rng: random.Random) -> list[tuple[str, float]]:
    out = []
    for low in (DEEP_ANCHOR_ORDER, DEEP_ORDER[0]):
        n = rng.randint(3, 8)
        length = rng.randint(-(-low // n), DEEP_ORDER[1] // n)
        out.append((f"kron(K{n},C{length})", _bfs_work(n * length, length)))
    length = rng.randint(*DEEP_CYCLE)
    out.append((f"C{length}", _bfs_work(length, length)))
    return out


def _deep_sparse(rng: random.Random) -> list[str]:
    return _balanced(rng, _deep_sparse_candidate, DEEP_TARGET)


# --- dense-wide ------------------------------------------------------------

DENSE_FACTOR = (15, 40)
DENSE_ORDER = (225, 1200)
# first product from the top of the order range, as for deep-sparse
DENSE_ANCHOR_ORDER = 1180
# sum over cases of order * degree^2, the Graph symmetry scan's comparisons
DENSE_TARGET = 1.65e9


def _dense_wide_candidate(rng: random.Random) -> list[tuple[str, float]]:
    out = []
    for low in (DENSE_ANCHOR_ORDER, DENSE_ORDER[0]):
        while True:
            n, m = rng.randint(*DENSE_FACTOR), rng.randint(*DENSE_FACTOR)
            if low <= n * m <= DENSE_ORDER[1]:
                break
        degree = (n - 1) * (m - 1)
        out.append((f"kron(K{n},K{m})", float(n * m) * degree ** 2))
    return out


def _dense_wide(rng: random.Random) -> list[str]:
    return _balanced(rng, _dense_wide_candidate, DENSE_TARGET)


# --- closed-scale ----------------------------------------------------------

CLOSED_CYCLE = (100_000, 1_000_000)
CLOSED_MAX_ORDER = 1_500_000
# The K_3 product of 1.47M..1.5M vertices holds the most values and the
# most groups of any case, so it sets the workload's peak memory.
CLOSED_ANCHOR = (490_000, 500_000)
DENSE_CAP = 4000
# sum over circulant cases of their modelled seconds, the median of a list
CLOSED_TARGET = 3.5


# Seconds of a closed-form case at the speed meter's nominal speed, fitted by
# least squares to three timings each of 40 circulant cases at the seed
# commit (residuals mostly within 5%).  Sorting the values makes a
# cycle superlinear in its length, and an odd cycle leaves more groups.
def _cycle_seconds(length: int) -> float:
    x = length / 1e6
    return x * (0.80 + 0.34 * (length % 2) + 0.40 * x)


def _kron_cycle_seconds(n: int, length: int) -> float:
    return length / 1e6 * (2.77 + 0.165 * n)


def _closed_scale_candidate(rng: random.Random) -> list[tuple[str, float]]:
    length = rng.randint(*CLOSED_ANCHOR)
    out = [(f"kron(K3,C{length})", _kron_cycle_seconds(3, length))]
    for _ in range(2):
        length = rng.randint(*CLOSED_CYCLE)
        out.append((f"C{length}", _cycle_seconds(length)))
    n = rng.randint(4, 8)
    length = rng.randint(CLOSED_CYCLE[0] // n, CLOSED_MAX_ORDER // n)
    out.append((f"kron(K{n},C{length})", _kron_cycle_seconds(n, length)))
    return out


def _integer_products(rng: random.Random) -> list[str]:
    """One Hamming and one Johnson product past the dense cap."""
    while True:
        n, d, q = rng.randint(3, 9), rng.randint(2, 10), rng.randint(3, 9)
        if n * q ** d > DENSE_CAP:
            hamming = f"kron(K{n},H({d},{q}))"
            break
    while True:
        n, m = rng.randint(3, 9), rng.randint(10, 40)
        r = rng.randint(2, m // 2)
        if n * comb(m, r) > DENSE_CAP:
            return [hamming, f"kron(K{n},J({m},{r}))"]


def _closed_scale(rng: random.Random) -> list[str]:
    return _balanced(rng, _closed_scale_candidate, CLOSED_TARGET) + _integer_products(rng)
