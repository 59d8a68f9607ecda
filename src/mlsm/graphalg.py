"""Undirected-graph matching primitives used by the solvers.

Maximum-cardinality matching on general graphs is Edmonds' blossom
algorithm ("Paths, trees, and flowers", 1965) in the breadth-first form
that Gabow (1976) describes, which contracts blossoms through a base array.
Every search starts from the lexicographic greedy matching and scans roots and
neighbours in ascending order, so each result depends on the graph alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .blocking import Matching
from .errors import IdOutOfRange
from .model import _Value

__all__ = [
    "SimpleGraph",
    "maximal_matching",
    "maximum_matching",
    "saturating_matching",
    "has_perfect_matching",
]


class SimpleGraph(_Value):
    """A loop-free undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        self.__dict__.update(n=n, edges=edges)

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

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of each vertex, ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def _greedy(adj, mate: list[int]) -> None:
    """Extend ``mate`` in place: each exposed vertex, in ascending order,
    takes its smallest exposed neighbour.  Starting from an empty ``mate``
    this is the greedy matching over the edges in lexicographic order."""
    for u, nbrs in enumerate(adj):
        if mate[u] < 0:
            for v in nbrs:
                if mate[v] < 0:
                    mate[u] = v
                    mate[v] = u
                    break


def _search(adj, mate: list[int], root: int, cover: set[int] | None = None) -> bool:
    """Grow an alternating tree from the exposed vertex ``root``.

    Returns True after rematching ``mate`` along an augmenting path, which
    covers ``root`` and keeps every covered vertex covered.  With a
    ``cover``, an outer (even) vertex outside it ends the search as well:
    the even alternating path from ``root`` to it is flipped, which covers
    ``root`` and uncovers only that vertex.  Returns False, with ``mate``
    unchanged, when the tree can grow no further.

    Every outer vertex ``v`` reaches the root along the alternating path
    ``v, mate[v], parent[mate[v]], mate[parent[mate[v]]], ...``; contracting
    a blossom gives its outer vertices the parent pointers that route the
    path around the blossom's odd cycle.
    """
    base = list(range(len(adj)))
    parent = [-1] * len(adj)
    even = [False] * len(adj)
    even[root] = True
    queue = [root]
    tree = [root]

    def flip(v: int) -> None:
        # v has a parent: match it there and walk the path up to the root
        while v >= 0:
            p = parent[v]
            nxt = mate[p]
            mate[v] = p
            mate[p] = v
            v = nxt

    def lca(a: int, b: int) -> int:
        # the base of the blossom closed by the edge a-b: the first outer
        # base on b's path to the root that also lies on a's
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while base[b] not in on_path:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            m = mate[v]
            blossom.add(base[v])
            blossom.add(base[m])
            parent[v] = child
            child = m
            v = parent[m]

    for v in queue:  # the queue grows while it is scanned
        if cover is not None and v not in cover:
            m = mate[v]
            mate[v] = -1
            flip(m)
            return True
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if even[to]:
                b = lca(v, to)
                blossom: set[int] = set()
                mark(v, b, to, blossom)
                mark(to, b, v, blossom)
                for i in tree:
                    if base[i] in blossom:
                        base[i] = b
                        if not even[i]:
                            even[i] = True
                            queue.append(i)
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    flip(to)
                    return True
                m = mate[to]
                even[m] = True
                queue.append(m)
                tree.append(to)
                tree.append(m)
    return False


def _blossom(g: SimpleGraph, perfect: bool = False) -> list[int] | None:
    """The mate array of a maximum matching: the greedy start, then one
    search from each exposed vertex in ascending order.  A vertex with no
    augmenting path keeps none after later augmentations, so one pass
    suffices.  With ``perfect``, the first failed search returns None:
    a perfect matching would give that vertex an augmenting path."""
    adj = g._adj
    mate = [-1] * g.n
    _greedy(adj, mate)
    for root in range(g.n):
        if mate[root] < 0 and not _search(adj, mate, root) and perfect:
            return None
    return mate


def _matching(mate: list[int]) -> Matching:
    return Matching(tuple((v, w) for v, w in enumerate(mate) if v < w))


def maximal_matching(g: SimpleGraph) -> Matching:
    """The greedy matching over the edges in lexicographic order.

    The result is maximal: no remaining edge has both endpoints unmatched.
    """
    mate = [-1] * g.n
    _greedy(g._adj, mate)
    return _matching(mate)


def maximum_matching(g: SimpleGraph) -> Matching:
    """A maximum-cardinality matching (general graphs, blossom-based)."""
    return _matching(_blossom(g))


def saturating_matching(g: SimpleGraph, cover: Iterable[int]) -> Matching | None:
    """A maximal matching covering every vertex of ``cover``, or None.

    The vertex sets that some matching covers are the independent sets of
    the matching matroid, so the cover is saturable iff adding its vertices
    one at a time never fails.  Start from the greedy matching M, whose
    covered cover vertices form the set T, and take an exposed cover vertex
    r.  If some matching N covers T + r, the component of M Δ N at r is a
    path that starts with an N-edge.  Either it ends with an N-edge at a
    vertex M leaves exposed, which is an augmenting path, or it ends with
    an M-edge at a vertex w that N leaves exposed, so w lies outside the
    cover and is outer in the alternating tree of r.  The search from r
    therefore stops at an exposed vertex (augment: every covered vertex
    stays covered, r joins them) or at an outer non-cover vertex (flip the
    even path: r is covered and only w is uncovered).  If it finds
    neither, no matching covers T + r and hence none covers the cover.
    A final greedy pass makes the result maximal.
    """
    want = set(cover)
    for v in want:
        if not 0 <= v < g.n:
            raise IdOutOfRange(f"cover vertex {v} outside [0, {g.n})")
    adj = g._adj
    mate = [-1] * g.n
    _greedy(adj, mate)
    for root in sorted(want):
        if mate[root] < 0 and not _search(adj, mate, root, want):
            return None
    _greedy(adj, mate)
    return _matching(mate)


def has_perfect_matching(g: SimpleGraph) -> Matching | None:
    """A perfect matching if one exists, else None (exact)."""
    if g.n % 2 != 0:
        return None
    mate = _blossom(g, perfect=True)
    return None if mate is None else _matching(mate)
