"""Multilayer approval instances and their structural analysis.

An instance has ``n`` agents (indices ``0..n-1``) and ``ell`` layers; in each
layer every agent approves a subset of the other agents.  Instances are
immutable after construction, so they can be shared freely and used as cache
keys.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import IdOutOfRange, SelfApproval

__all__ = [
    "MultilayerInstance",
    "AgentTypePartition",
    "ChangingSet",
    "build_instance",
    "is_symmetric",
    "bipartition",
    "agent_types",
    "changing_agents",
    "same_type",
]


@dataclass(frozen=True)
class MultilayerInstance:
    """n agents with one approval set per agent per layer.

    ``approvals[i][a]`` is the set of agents approved by agent ``a`` in
    layer ``i``.  Display names are carried only for I/O; algorithms work
    on indices.
    """

    n: int
    ell: int
    approvals: tuple[tuple[frozenset[int], ...], ...]
    names: tuple[str, ...] | None = None

    def mutual_edges(self, layer: int) -> list[tuple[int, int]]:
        """Unordered mutually-approving pairs of one layer, lexicographic."""
        lay = self.approvals[layer]
        return [
            (a, b)
            for a in range(self.n)
            for b in lay[a]
            if a < b and a in lay[b]
        ]

    @cached_property
    def approval_masks(self) -> tuple[dict[int, int], ...]:
        """Per agent ``a``, ``{b: mask}`` over the agents ``a`` approves
        somewhere, with bit ``i`` of ``mask`` set iff ``a`` approves ``b`` in
        layer ``i``.  Built once per instance; callers must not mutate it."""
        masks: list[dict[int, int]] = [{} for _ in range(self.n)]
        for i, lay in enumerate(self.approvals):
            bit = 1 << i
            for ma, approved in zip(masks, lay):
                for b in approved:
                    ma[b] = ma.get(b, 0) | bit
        return tuple(masks)

    @cached_property
    def approving_pairs(self) -> tuple[dict[int, tuple[int, int]], ...]:
        """Per agent ``a``, ``{b: (sa, sb)}`` over the ``b > a`` where either
        agent approves the other in some layer, keys ascending; ``sa`` is a's
        approval mask towards b and ``sb`` b's towards a.  Built once per
        instance from ``approval_masks``; callers must not mutate it."""
        masks = self.approval_masks
        rows: list[dict[int, tuple[int, int]]] = [{} for _ in range(self.n)]
        for a, ma in enumerate(masks):
            for b, ab in ma.items():
                if a < b:
                    rows[a][b] = (ab, masks[b].get(a, 0))
                elif a not in masks[b]:
                    rows[b][a] = (0, ab)
        return tuple({b: row[b] for b in sorted(row)} for row in rows)

    @cached_property
    def symmetric(self) -> bool:
        """True iff every approval is mutual in its layer: each pair's
        approval masks agree in both directions."""
        masks = self.approval_masks
        return all(
            masks[b].get(a, 0) == ab for a, ma in enumerate(masks) for b, ab in ma.items()
        )

    def name_of(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)


@dataclass(frozen=True)
class AgentTypePartition:
    blocks: tuple[tuple[int, ...], ...]
    tau: int


@dataclass(frozen=True)
class ChangingSet:
    agents: frozenset[int]
    beta: int


def build_instance(
    n: int,
    ell: int,
    approvals: Sequence[Sequence[Iterable[int]]],
    names: Sequence[str] | None = None,
) -> MultilayerInstance:
    """Validate and freeze an instance.

    ``approvals`` is indexed ``[layer][agent]``; missing trailing agents in a
    layer are treated as approving nobody.  Duplicate ids are normalized to a
    set silently; self-approvals and out-of-range ids are rejected.
    """
    if n < 0:
        raise IdOutOfRange(f"agent count must be nonnegative, got {n}")
    if ell < 1:
        raise IdOutOfRange(f"layer count must be at least 1, got {ell}")
    if len(approvals) != ell:
        raise IdOutOfRange(
            f"expected {ell} layers of approvals, got {len(approvals)}"
        )
    frozen_names = None
    if names is not None:
        if len(names) != n:
            raise IdOutOfRange(f"expected {n} names, got {len(names)}")
        frozen_names = tuple(names)
    layers = []
    for i, layer in enumerate(approvals):
        if len(layer) > n:
            raise IdOutOfRange(f"layer {i} lists {len(layer)} agents, n={n}")
        row = []
        for a in range(n):
            ids = frozenset(layer[a]) if a < len(layer) else frozenset()
            for b in ids:
                if type(b) is not int or not 0 <= b < n:  # bool is no agent id
                    raise IdOutOfRange(f"approval {b!r} of agent {a} in layer {i}")
                if b == a:
                    raise SelfApproval(a, i, None if names is None else names[a])
            row.append(ids)
        layers.append(tuple(row))
    return MultilayerInstance(n, ell, tuple(layers), frozen_names)


def is_symmetric(inst: MultilayerInstance) -> bool:
    """True iff every approval is mutual in its layer (computed once per
    instance, see ``MultilayerInstance.symmetric``)."""
    return inst.symmetric


def bipartition(inst: MultilayerInstance) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-color the union of all layers' symmetrized approval arcs.

    Returns a pair of agent sets with no union-graph edge inside either,
    or None if the union graph has an odd cycle.  Isolated agents land on
    the first side.
    """
    adj: list[set[int]] = [set() for _ in range(inst.n)]
    for lay in inst.approvals:
        for a in range(inst.n):
            for b in lay[a]:
                adj[a].add(b)
                adj[b].add(a)
    color = [-1] * inst.n
    for start in range(inst.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if color[b] == -1:
                    color[b] = 1 - color[a]
                    stack.append(b)
                elif color[b] == color[a]:
                    return None
    side0 = frozenset(a for a in range(inst.n) if color[a] == 0)
    side1 = frozenset(a for a in range(inst.n) if color[a] == 1)
    return side0, side1


def same_type(inst: MultilayerInstance, a: int, b: int) -> bool:
    """Do two agents approve, and get approved by, the same agents everywhere?

    The condition, per layer: the approval sets agree outside {a, b}, the
    relation between a and b is mutual-or-absent, and every third agent
    approves either both or neither.  This is the readable one-pair
    definition; ``agent_types`` computes the same relation for all pairs at
    once.
    """
    if a == b:
        return True
    for lay in inst.approvals:
        ta, tb = lay[a], lay[b]
        if ta - {b} != tb - {a}:
            return False
        if (b in ta) != (a in tb):
            return False
        for c in range(inst.n):
            if c == a or c == b:
                continue
            if (a in lay[c]) != (b in lay[c]):
                return False
    return True


def _twin_labels(n: int, lay: Sequence[frozenset[int]]) -> list[int]:
    """Per agent, the least member of its same-type class in one layer.

    Same-type agents of a layer are twins: either non-adjacent with equal
    (approves, approved-by) sets, or mutually approving with equal sets once
    each agent is added to its own.  No agent has twins of both kinds, so an
    agent with a non-adjacent twin takes that class, any other its
    mutual-twin class (often just itself).
    """
    into: list[list[int]] = [[] for _ in range(n)]
    for a, approved in enumerate(lay):
        for b in approved:
            into[b].append(a)
    approved_by = [frozenset(x) for x in into]
    first: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    label = [first.setdefault((lay[a], approved_by[a]), a) for a in range(n)]
    size = Counter(label)
    closed_first: dict[tuple[frozenset[int], frozenset[int]], int] = {}
    for a in range(n):
        if size[label[a]] == 1:
            own = frozenset((a,))
            label[a] = closed_first.setdefault((lay[a] | own, approved_by[a] | own), a)
    return label


def agent_types(inst: MultilayerInstance) -> AgentTypePartition:
    """Partition the agents into maximal blocks of same-type agents.

    Agents are grouped by their per-layer twin labels; blocks come in order
    of their least member, members ascending.  Runs in
    O(ell * (n + sum of approvals)).
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    labels = zip(*(_twin_labels(inst.n, lay) for lay in inst.approvals))
    for a, key in enumerate(labels):
        groups.setdefault(key, []).append(a)
    return AgentTypePartition(tuple(tuple(b) for b in groups.values()), len(groups))


def changing_agents(inst: MultilayerInstance) -> ChangingSet:
    """Agents whose approval set differs between some pair of layers."""
    changing = frozenset(
        a
        for a in range(inst.n)
        if any(inst.approvals[i][a] != inst.approvals[0][a] for i in range(1, inst.ell))
    )
    return ChangingSet(changing, len(changing))
