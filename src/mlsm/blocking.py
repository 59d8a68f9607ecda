"""Per-layer semantics: happiness, blocking pairs, layer stability.

Approvals induce a two-level preference in each layer: an agent prefers any
approved agent to any disapproved one and to being unmatched, and is
indifferent within each level.  A pair already in the matching never blocks.

The weak/strong/super blocking rule and the individual clause live in
``block_mask`` and ``support_mask``, which take one bit per layer; a single
layer is the one-bit case.

``stable_layers``, ``stable_in_layer`` and ``check`` scan only the pairs that
approve somewhere, in at most one pass over ``approval_masks`` and with no
pair table, and decide each distinct ``(sa, sb, ha, hb)`` mask tuple of a
scan once.  A pair or individual check reads no row that cannot hold a
pair below the least violation found so far.  Silent pairs, which approve
nowhere, never weakly or strongly block; under super they are counted per
layer, or searched for by grouping agents by happy mask, and never visited
one by one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache

from .errors import IdOutOfRange, InvalidMatching, InvalidQuery, PairIsMatched
from .model import MultilayerInstance, _Value

__all__ = [
    "Matching",
    "BASES",
    "require_ids",
    "is_happy",
    "block_mask",
    "support_mask",
    "blocks",
    "layer_set",
    "stable_in_layer",
    "stable_layers",
]

BASES = ("weak", "strong", "super")


class Matching(_Value):
    """Disjoint unordered agent pairs with partner lookup.  Equality, hash
    and repr read ``pairs`` only."""

    pairs: tuple[tuple[int, int], ...]
    _partner: dict[int, int]

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        partner: dict[int, int] = {}
        for a, b in pairs:
            if a == b:
                raise InvalidMatching((a, b), reused=False)
            if a in partner or b in partner:
                raise InvalidMatching((a, b), reused=True)
            partner[a] = b
            partner[b] = a
        self.__dict__.update(pairs=pairs, _partner=partner)

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


def _require_base(base: str) -> None:
    if base not in BASES:
        raise InvalidQuery(f"unknown stability base {base!r}")


def is_happy(inst: MultilayerInstance, m: Matching, a: int, layer: int) -> bool:
    return bool(inst.approval_masks[a].get(m.partner(a), 0) >> layer & 1)


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
    _require_base(base)
    require_ids(inst, pair, layer)
    a, b = pair
    pa = m.partner(a)
    if pa == b:
        raise PairIsMatched(f"pair ({a}, {b}) is in the matching")
    ma, mb = inst.approval_masks[a], inst.approval_masks[b]
    sa, ha = ma.get(b, 0) >> layer & 1, ma.get(pa, 0) >> layer & 1
    sb, hb = mb.get(a, 0) >> layer & 1, mb.get(m.partner(b), 0) >> layer & 1
    return bool(block_mask(base, sa, sb, ha, hb, 1))


def _happy_masks(inst: MultilayerInstance, m: Matching) -> list[int]:
    """Per agent, the layers in which it approves its partner."""
    masks = inst.approval_masks
    happy = [0] * inst.n
    for a, p in m._partner.items():
        happy[a] = masks[a].get(p, 0)
    return happy


def _approving(inst: MultilayerInstance, m: Matching, least: list[int] | None = None):
    """Yield ``(a, b, key)``, ``key = (sa, sb, ha, hb)`` (ell-bit masks as in
    ``block_mask``), once for every unmatched pair a < b that approves in
    some layer, from a's mask row, or from b's if only b approves: row by
    row, not in lexicographic order.

    ``least``, if given, is the caller's least pair so far, ``[fa, fb]``,
    which it may lower between yields.  A row a > fa can only add a lesser
    pair (b, a) that only a approves, with b < fa, or b = fa while a < fb:
    such a row is probed for those keys alone, and once fa = 0 and a >= fb
    no later row is read.  Pairs not below ``least`` may still be yielded.
    """
    masks = inst.approval_masks
    partner = m._partner
    happy = _happy_masks(inst, m)
    for a, row in enumerate(masks):
        items = row.items()
        if least is not None and a > least[0]:
            fa, fb = least
            keys = fa + 1 if a < fb else fa  # keys below this can precede
            if not keys:
                return
            if keys < len(row):
                items = [(b, row[b]) for b in range(keys) if b in row]
            else:
                items = [(b, s) for b, s in items if b < keys]
        pa = partner.get(a)
        ha = happy[a]
        for b, s in items:
            if b == pa:
                continue
            if a < b:
                yield a, b, (s, masks[b].get(a, 0), ha, happy[b])
            elif a not in masks[b]:
                yield b, a, (0, s, happy[b], ha)


def _blocked(inst: MultilayerInstance, m: Matching, base: str, want: int) -> int:
    """The layers of ``want`` in which some unmatched pair blocks (other bits
    may be set too).  ``block_mask`` runs once per distinct mask tuple of
    the approving pairs, and the scan stops once all of ``want`` is
    blocked."""
    full = (1 << inst.ell) - 1
    blocked = 0
    seen = set()  # mask tuples already evaluated
    for _, _, key in _approving(inst, m):
        if key in seen:
            continue
        seen.add(key)
        blocked |= block_mask(base, *key, full)
        if blocked & want == want:
            return blocked
    open_layers = want & ~blocked
    if base != "super" or not open_layers:
        return blocked
    # A silent pair (no approval either way) blocks only under super, and
    # there exactly in the layers where both agents are unhappy.  An
    # unmatched approving pair with both agents unhappy in a layer blocks it,
    # so in an open layer every pair of agents unhappy there is silent and
    # unmatched unless it is matched: count instead of visiting.
    happy = _happy_masks(inst, m)
    agents = Counter(happy)
    matched = Counter(happy[a] | happy[b] for a, b in m.pairs)
    for i in range(inst.ell):
        bit = 1 << i
        if open_layers & bit:
            k = sum(c for h, c in agents.items() if not h & bit)
            if k * (k - 1) // 2 > sum(c for h, c in matched.items() if not h & bit):
                blocked |= bit
    return blocked


def _least_silent(inst: MultilayerInstance, m: Matching, violates, stop):
    """The lexicographically least unmatched silent pair before the pair
    ``stop`` (``(a, b, ...)``, or None for no bound) for which
    ``violates(0, 0, ha, hb)``, as ``(a, b, 0, 0, ha, hb)``, or None.

    Agents are grouped by happy mask; a row keeps the groups that violate
    with it and takes the least member of each above it that is neither its
    partner nor in its mask row, nor lists a in its own.
    """
    n = inst.n
    last, bound = (stop[0], stop[1]) if stop is not None else (n - 1, n)
    masks = inst.approval_masks
    partner = m._partner
    happy = groups = None  # built on first need
    fits: dict[int, list[list[int]]] = {}  # happy mask of a -> violating groups
    for a in range(last + 1):
        limit = bound if a == last else n
        row = masks[a]
        pa = partner.get(a)
        # is some b in (a, limit) silent?  Each step that says no passes the
        # partner, an agent a approves or one that approves a, so this costs
        # O(out- plus in-degree of a).
        for b in range(a + 1, limit):
            if b != pa and b not in row and a not in masks[b]:
                break
        else:
            continue
        ha = row.get(pa, 0)
        lists = fits.get(ha)
        if lists is None:
            if groups is None:
                happy = _happy_masks(inst, m)
                groups = {}
                for x, h in enumerate(happy):
                    groups.setdefault(h, []).append(x)
            lists = fits[ha] = [g for h, g in groups.items() if violates(0, 0, ha, h)]
        best = limit
        for g in lists:
            for i in range(bisect_right(g, a), len(g)):
                b = g[i]
                if b >= best:
                    break
                if b != pa and b not in row and a not in masks[b]:
                    best = b
                    break
        if best < limit:
            return a, best, 0, 0, ha, happy[best]
    return None


def _least_violation(inst: MultilayerInstance, m: Matching, base: str, violates):
    """The lexicographically least unmatched pair, as
    ``(a, b, sa, sb, ha, hb)``, for which ``violates(sa, sb, ha, hb)``, or
    None.

    One pass over the approving pairs keeps the least violation so far,
    skips every pair above it and reads no row that cannot hold a lesser
    one (see ``_approving``); ``violates`` runs once per distinct mask
    tuple that complies.  Silent pairs (``sa == sb == 0``) never weakly or
    strongly block and have weak support ell, so they are searched for only
    under super, and only before the least approving violation.
    """
    first = None
    fa = fb = inst.n  # the least violating pair so far; none yet
    least = [fa, fb]  # the same, shared with the scan
    complying = set()  # mask tuples already seen not to violate
    for a, b, key in _approving(inst, m, least):
        if a > fa or a == fa and b >= fb:
            continue
        if key in complying:
            continue
        if violates(*key):
            first = (a, b) + key
            fa, fb = least[:] = a, b
        else:
            complying.add(key)
    if base != "super" or (fa, fb) == (0, 1):
        return first  # no pair precedes (0, 1)
    return _least_silent(inst, m, violates, first) or first


@lru_cache(maxsize=4096)
def layer_set(mask: int) -> frozenset[int]:
    """The layer indices of the set bits of ``mask``."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def stable_in_layer(
    inst: MultilayerInstance, m: Matching, layer: int, base: str
) -> bool:
    """Does no unmatched pair block the matching in this layer?"""
    _require_base(base)
    require_ids(inst, m._partner, layer)
    return not _blocked(inst, m, base, 1 << layer) >> layer & 1


def stable_layers(inst: MultilayerInstance, m: Matching, base: str) -> frozenset[int]:
    """Layers in which no unmatched pair blocks."""
    _require_base(base)
    full = (1 << inst.ell) - 1
    return layer_set(full & ~_blocked(inst, m, base, full))
