"""Per-layer semantics: happiness, blocking pairs, layer stability.

Approvals induce a two-level preference in each layer: an agent prefers any
approved agent to any disapproved one and to being unmatched, and is
indifferent within each level.  A pair already in the matching never blocks.

The weak/strong/super blocking rule and the individual clause live in
``block_mask`` and ``support_mask``, which take one bit per layer; a single
layer is the one-bit case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IdOutOfRange, InvalidMatching, InvalidQuery, NotSymmetric, PairIsMatched
from .model import MultilayerInstance, is_symmetric

__all__ = [
    "Matching",
    "BASES",
    "require_ids",
    "is_happy",
    "block_mask",
    "support_mask",
    "blocks",
    "pair_masks",
    "layer_set",
    "stable_in_layer",
    "stable_layers",
    "weak_char_check",
    "strong_char_check",
]

BASES = ("weak", "strong", "super")


@dataclass(frozen=True)
class Matching:
    """Disjoint unordered agent pairs with partner lookup."""

    pairs: tuple[tuple[int, int], ...]
    _partner: dict[int, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        partner: dict[int, int] = {}
        for a, b in self.pairs:
            if a == b:
                raise InvalidMatching(f"pair ({a}, {b}) has identical endpoints")
            if a in partner or b in partner:
                raise InvalidMatching(f"agent reused by pair ({a}, {b})")
            partner[a] = b
            partner[b] = a
        object.__setattr__(self, "_partner", partner)

    @classmethod
    def from_pairs(cls, pairs) -> "Matching":
        canon = sorted((min(a, b), max(a, b)) for a, b in pairs)
        return cls(tuple(canon))

    def partner(self, a: int) -> int | None:
        return self._partner.get(a)

    def covers(self, a: int) -> bool:
        return a in self._partner

    def has_pair(self, a: int, b: int) -> bool:
        return self._partner.get(a) == b

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def require_ids(inst: MultilayerInstance, agents, layer: int | None = None) -> None:
    """Raise ``IdOutOfRange`` unless every agent lies in [0, n) and the
    layer, if given, in [0, ell)."""
    if layer is not None and not 0 <= layer < inst.ell:
        raise IdOutOfRange(f"layer {layer} outside [0, {inst.ell})")
    for a in agents:
        if not 0 <= a < inst.n:
            raise IdOutOfRange(f"agent {a} outside [0, {inst.n})")


def is_happy(inst: MultilayerInstance, m: Matching, a: int, layer: int) -> bool:
    p = m.partner(a)
    return p is not None and p in inst.approvals[layer][a]


def block_mask(base: str, sa: int, sb: int, ha: int, hb: int, full: int) -> int:
    """Layers in which an unmatched pair {a, b} blocks, as a bit mask.

    Bit i of ``sa`` says a approves b in layer i and bit i of ``ha`` that a
    approves its own partner there (a is happy); ``sb``/``hb`` likewise for
    b, and ``full`` has one bit per layer.  An agent strictly prefers the
    other where it approves the other and is unhappy, and is at least
    indifferent where it approves the other or is unhappy.  weak: both
    strict; strong: one strict, the other at least indifferent; super: both
    at least indifferent.
    """
    strict_a = sa & ~ha
    strict_b = sb & ~hb
    if base == "weak":
        return strict_a & strict_b
    geq_a = (sa | ~ha) & full
    geq_b = (sb | ~hb) & full
    if base == "strong":
        return (strict_a & geq_b) | (strict_b & geq_a)
    if base == "super":
        return geq_a & geq_b
    raise ValueError(f"unknown stability base {base!r}")


def support_mask(base: str, s: int, h: int, full: int) -> int:
    """Layers in which one agent of an unmatched pair satisfies the
    individual clause, as a bit mask (arguments as in ``block_mask``).

    weak: the agent does not strictly prefer the other (does not approve it,
    or is happy); super: it is not at least indifferent to the other (does
    not approve it, and is happy).  There is no strong individual clause.
    """
    if base == "weak":
        return (~s | h) & full
    if base == "super":
        return ~s & h
    raise InvalidQuery("there is no strong individual stability")


def blocks(
    inst: MultilayerInstance,
    m: Matching,
    pair: tuple[int, int],
    layer: int,
    base: str,
) -> bool:
    """Does the unmatched pair block the matching in this layer?"""
    require_ids(inst, pair, layer)
    a, b = pair
    pa = m.partner(a)
    if pa == b:
        raise PairIsMatched(f"pair ({a}, {b}) is in the matching")
    lay = inst.approvals[layer]
    pb = m.partner(b)
    return bool(
        block_mask(base, b in lay[a], a in lay[b], pa in lay[a], pb in lay[b], 1)
    )


def pair_masks(inst: MultilayerInstance, m: Matching):
    """Yield ``(a, b, sa, sb, ha, hb)`` for every pair a < b not in the
    matching, in lexicographic order, with ell-bit masks as in
    ``block_mask``.  Happy masks are computed when first needed."""
    masks = inst.approval_masks
    partner = m._partner
    happy: dict[int, int] = {}
    for a in range(inst.n):
        ma = masks[a]
        pa = partner.get(a)
        ha = ma.get(pa, 0)
        for b in range(a + 1, inst.n):
            if b == pa:
                continue
            hb = happy.get(b)
            if hb is None:
                hb = happy[b] = masks[b].get(partner.get(b), 0)
            yield a, b, ma.get(b, 0), masks[b].get(a, 0), ha, hb


def layer_set(mask: int) -> frozenset[int]:
    """The layer indices of the set bits of ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def stable_in_layer(
    inst: MultilayerInstance, m: Matching, layer: int, base: str
) -> bool:
    partner = m._partner
    require_ids(inst, partner, layer)
    lay = inst.approvals[layer]
    happy = [partner.get(a) in lay[a] for a in range(inst.n)]
    for a in range(inst.n):
        la = lay[a]
        pa = partner.get(a)
        ha = happy[a]
        for b in range(a + 1, inst.n):
            if b != pa and block_mask(base, b in la, a in lay[b], ha, happy[b], 1):
                return False
    return True


def stable_layers(inst: MultilayerInstance, m: Matching, base: str) -> frozenset[int]:
    """Layers in which no unmatched pair blocks: one scan over all pairs,
    stopping once every layer is blocked."""
    full = (1 << inst.ell) - 1
    blocked = 0
    for _, _, sa, sb, ha, hb in pair_masks(inst, m):
        blocked |= block_mask(base, sa, sb, ha, hb, full)
        if blocked == full:
            break
    return layer_set(full & ~blocked)


def weak_char_check(inst: MultilayerInstance, m: Matching, layer: int) -> bool:
    """Symmetric-instance fast path: weakly stable iff the matching restricted
    to the layer's mutual edges is maximal there, i.e. every mutual edge has a
    happy endpoint."""
    if not is_symmetric(inst):
        raise NotSymmetric("weak characterization requires symmetric approvals")
    for a, b in inst.mutual_edges(layer):
        if not is_happy(inst, m, a, layer) and not is_happy(inst, m, b, layer):
            return False
    return True


def strong_char_check(inst: MultilayerInstance, m: Matching, layer: int) -> bool:
    """Symmetric-instance fast path: strongly stable iff every agent with a
    neighbor in the layer is matched along a mutual edge."""
    if not is_symmetric(inst):
        raise NotSymmetric("strong characterization requires symmetric approvals")
    lay = inst.approvals[layer]
    for a in range(inst.n):
        if lay[a] and not is_happy(inst, m, a, layer):
            return False
    return True
