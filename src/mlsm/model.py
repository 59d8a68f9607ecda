"""Multilayer approval instances and their structural analysis.

An instance has ``n`` agents (indices ``0..n-1``) and ``ell`` layers; in each
layer every agent approves a subset of the other agents.  The stored form, and
all the checker reads, is one approval mask per ordered pair that approves
somewhere: bit ``i`` of ``approval_masks[a][b]`` says a approves b in layer
``i``.  ``build_instance`` (from ids) and ``cli.instance_from_doc`` (from
names) OR each approval's layer bit into its row in one pass, under the shape
and self-approval rules defined here; the self-approval rule runs once per
build, on the finished rows.  The per-layer sets (``approvals``) are
a view built on first use, for I/O and the readable specifications.
Instances are immutable and compare by value, so they can be shared freely
and used as cache keys.

The structural analysis (``is_symmetric``, ``agent_types``,
``changing_agents``) is cached on the instance: each part is computed on
first use, at most once per instance object, and is never pickled.
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
    "agent_types",
    "changing_agents",
    "same_type",
]


class _Value:
    """Base of the package's immutable value classes.

    A class's fields are its own annotated names that do not start with
    ``_``, in order (a subclass that annotates nothing keeps its parent's);
    repr, equality (with the same class only) and hash read them in that
    order.  A class that writes no ``__init__`` gets one whose parameters
    are the fields, defaulting to their class attributes, and whose body
    stores them straight into ``__dict__``; ``functools.cached_property``
    writes there too, so neither passes through ``__setattr__``; any other
    assignment or deletion is refused.  A pickle rebuilds the value from its
    fields, so cached state (a hash, the structural analysis) never travels.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__")
        if not own:
            return
        cls._fields = fields = tuple(f for f in own if not f.startswith("_"))
        if "__init__" not in cls.__dict__:
            # one def per class, as dataclasses does: a plain signature keeps
            # construction as fast as a hand-written __init__
            params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls.__dict__ else f for f in fields)
            stores = ", ".join(f"{f}={f}" for f in fields)
            space = {"_defaults": cls.__dict__}
            exec(f"def __init__(self, {params}):\n    self.__dict__.update({stores})", space)
            space["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = space["__init__"]

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

    def __reduce__(self):
        return type(self), self._values()


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
    names: tuple[str, ...] | None = None

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
        require_ids(self, (), layer)
        masks, bit = self.approval_masks, 1 << layer
        return sorted(
            (a, b) for a, row in enumerate(masks) for b, s in row.items() if a < b and s & masks[b].get(a, 0) & bit
        )

    @cached_property
    def symmetric(self) -> bool:
        """True iff every approval is mutual in its layer: each pair's
        approval masks agree in both directions."""
        masks = self.approval_masks
        for a, row in enumerate(masks):
            for b, ab in row.items():
                if masks[b].get(a) != ab:  # masks are never 0
                    return False
        return True

    @cached_property
    def agent_types(self) -> AgentTypePartition:
        """Partition the agents into maximal blocks of same-type agents.

        Two agents are same-type iff their masks agree towards every third
        agent, from every third agent, and between the two in both directions.
        Twins that approve each other nowhere have equal mask rows and columns;
        twins with a mask m between them have equal rows and columns once each
        lists itself with m.  Either way twins share the row fingerprint
        ``(len(row), sum(row.values()))``, since the masks between adjacent
        twins are mutual-or-absent, so tau is at least the number of distinct
        row fingerprints; the dispatcher's agent-types gate rejects on that
        count without computing this.  Each agent is compared only with the
        earlier classes whose order-free fingerprint of those rows and
        columns it shares.  Agents with an empty row and column form one
        block with no fingerprint: their twins are exactly the agents with an
        empty row and column, since twins that approve each other have
        non-empty rows.  Blocks come in order of their least member, members
        ascending.  Expected time O(n + sum of row lengths); only agents whose
        fingerprints collide without being twins cost extra comparisons.
        """
        masks = self.approval_masks
        cols: list[dict[int, int]] = [{} for _ in range(self.n)]
        for a, row in enumerate(masks):
            for b, m in row.items():
                cols[b][a] = m
        label = list(range(self.n))
        # class representatives, by the fingerprint their twins share
        apart: dict[tuple, list[int]] = {}
        adjacent: dict[tuple, list[int]] = {}
        alone = None  # the first agent with an empty row and column
        for a, (row, col) in enumerate(zip(masks, cols)):
            if not row and not col:
                if alone is None:
                    alone = a
                label[a] = alone
                continue
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

    @cached_property
    def changing_agents(self) -> ChangingSet:
        """Agents whose approval set differs between some pair of layers: those
        with a mask towards some agent that is neither empty nor full."""
        full = (1 << self.ell) - 1
        changing = frozenset(
            a for a, row in enumerate(self.approval_masks) if any(m != full for m in row.values())
        )
        return ChangingSet(changing, len(changing))

    def name_of(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)


class AgentTypePartition(_Value):
    blocks: tuple[tuple[int, ...], ...]
    tau: int


class ChangingSet(_Value):
    agents: frozenset[int]
    beta: int


def build_instance(
    n: int,
    ell: int,
    approvals: Sequence[Sequence[Iterable[int]]],
    names: Sequence[str] | None = None,
) -> MultilayerInstance:
    """Validate an instance and build its approval masks in one pass.

    ``approvals`` is indexed ``[layer][agent]``; missing trailing agents in a
    layer are treated as approving nobody.  Duplicate ids are merged
    silently; self-approvals and out-of-range ids are rejected, and so are
    names that break ``_check_names``.
    """
    frozen_names = _check_shape(n, ell, len(approvals), names)
    if frozen_names is not None:
        _check_names(frozen_names, IdOutOfRange)
    masks: list[dict[int, int]] = [{} for _ in range(n)]
    done = 0  # layers read in full
    try:
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
            done = i + 1
    except Exception:  # the layers read in full are tested first
        _refuse_self_approvals(masks, names, done)
        raise
    _refuse_self_approvals(masks, names)
    return MultilayerInstance(n, ell, tuple(masks), frozen_names)


def require_ids(inst: MultilayerInstance, agents, layer: int | None = None) -> None:
    """Raise ``IdOutOfRange`` unless every agent is an ``int`` in [0, n) and
    the layer, if given, one in [0, ell); bool is no id."""
    if layer is not None and (type(layer) is not int or not 0 <= layer < inst.ell):
        raise IdOutOfRange(f"layer {layer!r} outside [0, {inst.ell})")
    for a in agents:
        if type(a) is not int or not 0 <= a < inst.n:
            raise IdOutOfRange(f"agent {a!r} outside [0, {inst.n})")


def _check_shape(n: int, ell: int, layers: int, names: Sequence[str] | None) -> tuple[str, ...] | None:
    """The shape rules of every instance builder: ``int`` counts (bool is
    none), ``n >= 0``, ``ell >= 1``, ``layers == ell`` and one name per
    agent.  Returns the names as a tuple."""
    if type(n) is not int or type(ell) is not int:
        raise IdOutOfRange(f"agent and layer counts must be ints, got n={n!r}, ell={ell!r}")
    if n < 0:
        raise IdOutOfRange(f"agent count must be nonnegative, got {n}")
    if ell < 1:
        raise IdOutOfRange(f"layer count must be at least 1, got {ell}")
    if layers != ell:
        raise IdOutOfRange(f"expected {ell} layers of approvals, got {layers}")
    if names is not None and len(names) != n:
        raise IdOutOfRange(f"expected {n} names, got {len(names)}")
    return None if names is None else tuple(names)


def _check_names(names: Sequence, error: type[Exception]) -> None:
    """The name rules of every instance builder: each name a ``str``, no
    name twice, so the document written from an instance reads back as it.
    A broken rule raises ``error``."""
    if not all(isinstance(name, str) for name in names):
        raise error('"agents" must list agent names as strings')
    if len(set(names)) != len(names):
        raise error("agent names must be unique")


def _refuse_self_approvals(
    masks: list[dict[int, int]], names: Sequence[str] | None, below: int | None = None
) -> None:
    """The self-approval rule, tested once per build on the finished mask
    rows (one membership test per agent): raise ``SelfApproval`` for the
    first layer in which some agent approves itself, naming the lowest such
    agent there, which is the error that testing after each layer meets
    first.  With ``below``, only the layers below it count: a builder
    stopped by an error in layer ``below`` tests the layers it read in full
    before it re-raises, so a self-approval in an earlier layer still wins."""
    keep = -1 if below is None else (1 << below) - 1
    # (a's lowest self-approving layer, a) per agent that approves itself
    hits = [((s & -s).bit_length() - 1, a) for a, row in enumerate(masks) if a in row and (s := row[a] & keep)]
    if hits:
        layer, a = min(hits)
        raise SelfApproval(a, layer, None if names is None else names[a])


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
    require_ids(inst, (a, b))
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
    """Partition the agents into maximal blocks of same-type agents
    (computed once per instance, see ``MultilayerInstance.agent_types``)."""
    return inst.agent_types


def changing_agents(inst: MultilayerInstance) -> ChangingSet:
    """Agents whose approval set differs between some pair of layers
    (computed once per instance, see ``MultilayerInstance.changing_agents``)."""
    return inst.changing_agents
