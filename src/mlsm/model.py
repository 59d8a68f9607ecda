"""Multilayer approval instances and their structural analysis.

An instance has ``n`` agents (indices ``0..n-1``) and ``ell`` layers; in each
layer every agent approves a subset of the other agents.  The stored form, and
all the checker reads, is one approval mask per ordered pair that approves
somewhere: bit ``i`` of ``approval_masks[a][b]`` says a approves b in layer
``i``.  ``build_instance`` (from ids) and ``cli.instance_from_doc`` (from
names) OR each approval's layer bit into its row in one pass, under the shape
and self-approval rules defined here.  The per-layer sets (``approvals``) are
a view built on first use, for I/O and the readable specifications.
Instances are immutable and compare by value, so they can be shared freely
and used as cache keys.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from .errors import IdOutOfRange, SelfApproval

__all__ = [
    "MultilayerInstance",
    "AgentTypePartition",
    "ChangingSet",
    "build_instance",
    "is_symmetric",
    "mutual_pairs",
    "agent_types",
    "changing_agents",
    "same_type",
]


class _Value:
    """Base of the package's immutable value classes.

    Each class names its fields in ``_fields``; repr, equality (with the
    same class only) and hash read them in that order.  ``__init__`` stores
    the fields straight into ``__dict__``, and ``functools.cached_property``
    writes there too, so neither passes through ``__setattr__``; any other
    assignment or deletion is refused.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class MultilayerInstance(_Value):
    """n agents with one approval mask per approving ordered pair.

    ``approval_masks[a]`` is ``{b: mask}`` over the agents ``a`` approves in
    some layer, with bit ``i`` of ``mask`` set iff a approves b in layer
    ``i``; masks are never 0 and callers must not mutate the rows.  Display
    names are carried only for I/O; algorithms work on indices.  Build
    instances with ``build_instance`` or, from a document,
    ``cli.instance_from_doc``; both validate them.
    """

    n: int
    ell: int
    approval_masks: tuple[dict[int, int], ...]
    names: tuple[str, ...] | None

    _fields = ("n", "ell", "approval_masks", "names")

    def __init__(self, n: int, ell: int, approval_masks: tuple[dict[int, int], ...],
                 names: tuple[str, ...] | None = None):
        self.__dict__.update(n=n, ell=ell, approval_masks=approval_masks, names=names)

    def __eq__(self, other):
        if not isinstance(other, MultilayerInstance):
            return NotImplemented
        return (self.n, self.ell, self.names, self.approval_masks) == (
            other.n, other.ell, other.names, other.approval_masks
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self.approval_masks)
        return hash((self.n, self.ell, self.names, rows))

    @cached_property
    def approvals(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """``approvals[i][a]``: the agents a approves in layer ``i``.  A view
        of the masks, built on first use; no check or solver path reads it."""
        return tuple(
            tuple(frozenset(b for b, mask in row.items() if mask >> i & 1) for row in self.approval_masks)
            for i in range(self.ell)
        )

    def mutual_edges(self, layer: int) -> list[tuple[int, int]]:
        """Unordered mutually-approving pairs of one layer, lexicographic."""
        return mutual_pairs(self, 1 << layer)[layer]

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


class AgentTypePartition(_Value):
    blocks: tuple[tuple[int, ...], ...]
    tau: int

    _fields = ("blocks", "tau")

    def __init__(self, blocks: tuple[tuple[int, ...], ...], tau: int):
        self.__dict__.update(blocks=blocks, tau=tau)


class ChangingSet(_Value):
    agents: frozenset[int]
    beta: int

    _fields = ("agents", "beta")

    def __init__(self, agents: frozenset[int], beta: int):
        self.__dict__.update(agents=agents, beta=beta)


def build_instance(
    n: int,
    ell: int,
    approvals: Sequence[Sequence[Iterable[int]]],
    names: Sequence[str] | None = None,
) -> MultilayerInstance:
    """Validate an instance and build its approval masks in one pass.

    ``approvals`` is indexed ``[layer][agent]``; missing trailing agents in a
    layer are treated as approving nobody.  Duplicate ids are merged
    silently; self-approvals and out-of-range ids are rejected.
    """
    frozen_names = _check_shape(n, ell, len(approvals), names)
    masks: list[dict[int, int]] = [{} for _ in range(n)]
    for i, layer in enumerate(approvals):
        if len(layer) > n:
            raise IdOutOfRange(f"layer {i} lists {len(layer)} agents, n={n}")
        bit = 1 << i
        for a, ids in enumerate(layer):
            row = masks[a]
            for b in ids:
                if type(b) is not int or not 0 <= b < n:  # bool is no agent id
                    raise IdOutOfRange(f"approval {b!r} of agent {a} in layer {i}")
                row[b] = row.get(b, 0) | bit
        _refuse_self_approvals(masks, i, names)
    return MultilayerInstance(n, ell, tuple(masks), frozen_names)


def _check_shape(n: int, ell: int, layers: int, names: Sequence[str] | None) -> tuple[str, ...] | None:
    """The shape rules of every instance builder: ``n >= 0``, ``ell >= 1``,
    ``layers == ell`` and one name per agent.  Returns the names as a tuple."""
    if n < 0:
        raise IdOutOfRange(f"agent count must be nonnegative, got {n}")
    if ell < 1:
        raise IdOutOfRange(f"layer count must be at least 1, got {ell}")
    if layers != ell:
        raise IdOutOfRange(f"expected {ell} layers of approvals, got {layers}")
    if names is not None and len(names) != n:
        raise IdOutOfRange(f"expected {n} names, got {len(names)}")
    return None if names is None else tuple(names)


def _refuse_self_approvals(masks: list[dict[int, int]], layer: int, names: Sequence[str] | None) -> None:
    """The self-approval rule, tested once per agent after layer ``layer``
    is ORed into the mask rows."""
    for a, row in enumerate(masks):
        if a in row:
            raise SelfApproval(a, layer, None if names is None else names[a])


def mutual_pairs(inst: MultilayerInstance, sel: int) -> list[list[tuple[int, int]]]:
    """Per layer, the unordered pairs that approve each other there,
    lexicographic, for every layer of the bit mask ``sel`` (the other
    layers' lists stay empty); one pass over the masks for all of them."""
    masks = inst.approval_masks
    out: list[list[tuple[int, int]]] = [[] for _ in range(inst.ell)]
    for a, row in enumerate(masks):
        for b, mask in row.items():
            if a < b and (both := mask & masks[b].get(a, 0) & sel):
                while both:
                    low = both & -both
                    out[low.bit_length() - 1].append((a, b))
                    both ^= low
    for pairs in out:
        pairs.sort()
    return out


def is_symmetric(inst: MultilayerInstance) -> bool:
    """True iff every approval is mutual in its layer (computed once per
    instance, see ``MultilayerInstance.symmetric``)."""
    return inst.symmetric


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


def _fingerprint(masks: dict[int, int], own: int) -> tuple[int, int, int]:
    return len(masks), sum(masks) + own, sum(masks.values())


def agent_types(inst: MultilayerInstance) -> AgentTypePartition:
    """Partition the agents into maximal blocks of same-type agents.

    Two agents are same-type iff their masks agree towards every third
    agent, from every third agent, and between the two in both directions.
    Twins that approve each other nowhere have equal mask rows and columns;
    twins with a mask m between them have equal rows and columns once each
    lists itself with m.  Either way twins share the row fingerprint
    ``(len(row), sum(row.values()))``, since the masks between adjacent
    twins are mutual-or-absent, so tau is at least the number of distinct
    row fingerprints; the dispatcher's agent-types gate rejects on that
    count without calling this.  Each agent is compared only with the earlier
    classes whose order-free fingerprint of those rows and columns it
    shares.  Blocks come in order of their least member, members
    ascending.  Expected time O(n + sum of row lengths); only agents whose
    fingerprints collide without being twins cost extra comparisons.
    """
    masks = inst.approval_masks
    cols: list[dict[int, int]] = [{} for _ in range(inst.n)]
    for a, row in enumerate(masks):
        for b, m in row.items():
            cols[b][a] = m
    label = list(range(inst.n))
    # class representatives, by the fingerprint their twins share
    apart: dict[tuple, list[int]] = {}
    adjacent: dict[tuple, list[int]] = {}
    for a, (row, col) in enumerate(zip(masks, cols)):
        reps = apart.setdefault((_fingerprint(row, 0), _fingerprint(col, 0)), [])
        twin = next((b for b in reps if row == masks[b] and col == cols[b]), None)
        if twin is None:
            near = adjacent.setdefault((_fingerprint(row, a), _fingerprint(col, a)), [])
            for b in near:
                m = row.get(b)
                if m and {**row, a: m} == {**masks[b], b: m} and {**col, a: m} == {**cols[b], b: m}:
                    twin = b
                    break
            else:
                reps.append(a)
                near.append(a)
        if twin is not None:
            label[a] = twin
    groups: dict[int, list[int]] = {}
    for a, key in enumerate(label):
        groups.setdefault(key, []).append(a)
    return AgentTypePartition(tuple(tuple(b) for b in groups.values()), len(groups))


def changing_agents(inst: MultilayerInstance) -> ChangingSet:
    """Agents whose approval set differs between some pair of layers: those
    with a mask towards some agent that is neither empty nor full."""
    full = (1 << inst.ell) - 1
    changing = frozenset(
        a for a, row in enumerate(inst.approval_masks) if any(m != full for m in row.values())
    )
    return ChangingSet(changing, len(changing))
