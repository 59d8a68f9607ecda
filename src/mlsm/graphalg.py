"""Undirected-graph matching primitives used by the solvers.

Maximum(-weight) matching on general graphs is delegated to networkx's
blossom implementation; the surfaces here pin deterministic tie-breaking
(lexicographic vertex order) and the exact contracts the solvers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from .blocking import Matching
from .errors import IdOutOfRange

__all__ = [
    "SimpleGraph",
    "maximal_matching",
    "maximum_matching",
    "saturating_matching",
    "has_perfect_matching",
]


@dataclass(frozen=True)
class SimpleGraph:
    """A loop-free undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        canon = set()
        for u, v in edges:
            if u == v:
                raise IdOutOfRange(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise IdOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            canon.add((min(u, v), max(u, v)))
        return cls(n, frozenset(canon))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _to_nx(g: SimpleGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.sorted_edges())
    return G


def maximal_matching(
    g: SimpleGraph, order: Sequence[tuple[int, int]] | None = None
) -> Matching:
    """Greedy matching over edges in the given order (default lexicographic).

    The result is maximal: no remaining edge has both endpoints unmatched.
    """
    if order is None:
        order = g.sorted_edges()
    used: set[int] = set()
    pairs = []
    for u, v in order:
        if u not in used and v not in used:
            pairs.append((u, v))
            used.add(u)
            used.add(v)
    return Matching.from_pairs(pairs)


def maximum_matching(g: SimpleGraph) -> Matching:
    """A maximum-cardinality matching (general graphs, blossom-based)."""
    if not g.edges:
        return Matching(())
    mate = nx.max_weight_matching(_to_nx(g), maxcardinality=True)
    return Matching.from_pairs(mate)


def saturating_matching(g: SimpleGraph, cover: Iterable[int]) -> Matching | None:
    """Some matching covering every vertex of ``cover``, or None.

    Uses weight(e) = |e ∩ cover|, so the optimal total weight equals the
    largest number of cover vertices any matching touches; the cover is
    saturable exactly when that reaches |cover|.
    """
    want = set(cover)
    for v in want:
        if not 0 <= v < g.n:
            raise IdOutOfRange(f"cover vertex {v} outside [0, {g.n})")
    if not want:
        return Matching(())
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v in g.sorted_edges():
        G.add_edge(u, v, weight=int(u in want) + int(v in want))
    mate = nx.max_weight_matching(G, maxcardinality=False)
    covered = {v for e in mate for v in e}
    if want <= covered:
        return Matching.from_pairs(mate)
    return None


def has_perfect_matching(g: SimpleGraph) -> Matching | None:
    """A perfect matching if one exists, else None (exact, via maximum size)."""
    if g.n % 2 != 0:
        return None
    m = maximum_matching(g)
    return m if 2 * len(m) == g.n else None
