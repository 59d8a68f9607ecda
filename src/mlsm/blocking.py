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
scan once.  Which pairs a scan yields depends on the base: a weak or strong
block, and a weak individual violation, needs an agent that strictly
prefers the other, i.e. approves it in a layer where it is unhappy, so
under weak and strong the rows of agents with no such approval are skipped
(see ``_approving``), and a matching under which every agent is happy in
every layer is checked in O(n).  Whatever the base, a pair is yielded only
while both agents are at least indifferent to each other in enough of the
layers that can still matter (``verify._pair_cost``'s reach bound), and
under weak strictly prefers the other there: in more than ell - alpha
layers under a pair or individual query, and in some layer not yet blocked
while ``_blocked`` scans for ``stable_layers``, ``stable_in_layer`` or a
global or all-layers check.  So a pair in which an agent happy in every
layer does not approve the other is never yielded.
The happy masks are computed once per scan.  A pair or individual check
reads no row that cannot hold a pair below the least violation found so
far.  A check whose caller reads only whether the matching is stable
(``check`` with ``explain`` off) ranks nothing: a pair or individual one
returns at the first violation, and a global or all-layers one once more
than ell - alpha layers block.  Silent pairs, which approve nowhere, never
weakly or strongly block; under super they are counted per layer, or
searched for by grouping agents by happy mask, and never visited one by
one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache

from .errors import InvalidMatching, InvalidQuery, PairIsMatched
from .model import MultilayerInstance, _Value, require_ids

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
        return cls(tuple(sorted([(a, b) if a < b else (b, a) for a, b in pairs])))

    @classmethod
    def from_partners(cls, partner) -> "Matching":
        """The matching of a partner array: ``partner[a]`` is a's partner,
        -1 when a is single.  The pairs come out in ascending order."""
        return cls(tuple((a, b) for a, b in enumerate(partner) if b > a))

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


def _require_base(base: str) -> None:
    if base not in BASES:
        raise InvalidQuery(f"unknown stability base {base!r}")


def is_happy(inst: MultilayerInstance, m: Matching, a: int, layer: int) -> bool:
    require_ids(inst, (a,), layer)
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
    raise InvalidQuery(f"unknown stability base {base!r}")


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
    _require_base(base)
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
    if a == b:
        raise InvalidMatching(pair, reused=False)
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


def _approving(
    inst: MultilayerInstance,
    m: Matching,
    base: str,
    least: list[int] | None = None,
    reach: list[int] | None = None,
    happy: list[int] | None = None,
):
    """Yield ``(a, b, key)``, ``key = (sa, sb, ha, hb)`` (ell-bit masks as in
    ``block_mask``), once for each unmatched pair a < b that can block or
    violate under ``base`` within ``reach``: row by row, not in
    lexicographic order.

    An agent is strict if it approves someone in a layer where it is
    unhappy, i.e. its row has a mask outside its happy mask.  By
    ``block_mask``, a weak block lies in ``strict_a & strict_b`` and a
    strong one in ``strict_a | strict_b``; by ``support_mask``, a weak
    individual violation leaves each agent fewer than ell supporting layers,
    so each strictly prefers, hence approves, the other somewhere.  So:

    - super: every pair that approves somewhere, from a's row, or from b's
      if only b approves;
    - strong: every pair in which a strict agent approves the other, from
      a's row if a is strict and approves b, else from b's;
    - weak: every mutually approving pair with a strict, from a's row.

    The row of an agent that is not strict is skipped: in O(1) when it is
    happy in every layer, else after one pass over its masks that stops at
    the first strict one.

    ``reach`` is the caller's ``[open, cut]``, ``[full, 0]`` if not given,
    and the caller may narrow ``open`` between yields; a row takes the
    current value once it is known to be read.  A pair is yielded only if
    each agent's reach mask meets more than ``cut`` layers of ``open``: its
    ``geq`` mask (the layers where it approves the other or is unhappy)
    under strong and super, its strict mask (``s & ~h``) under weak.  By
    ``verify._pair_cost``'s reach bound, no other pair blocks in ``open``,
    nor, with ``open`` full and ``cut = ell - alpha``, violates an
    alpha-pair or alpha-individual query.  At the default this drops
    exactly the pairs in which one agent is happy in every layer and does
    not approve the other, and under weak also those in which an agent is
    not strict towards the other.  Under weak both sides are tested on
    mutual entries alone.  Otherwise the row agent's side is tested per
    entry, except in a row where it cannot fail: the agent is unhappy in
    more than ``cut`` open layers, or ``cut`` is 0 with every layer open
    (every entry approves); the other side is tested before the pair is
    yielded.  ``happy`` is ``_happy_masks(inst, m)``, computed if not
    given.

    ``least``, if given, is the caller's least pair so far, ``[fa, fb]``,
    which it may lower between yields.  A row a > fa can only yield a lesser
    pair as (b, a), with b < fa, or b = fa while a < fb: such a row is
    probed for those keys alone, with no strictness test, and dropped
    before any other work when it holds none; once fa = 0 and a >= fb no
    later row is read.  Under weak no row past fa is read.
    Pairs not below ``least``, and from probed rows pairs that cannot
    block, may still be yielded.
    """
    masks = inst.approval_masks
    partner = m._partner
    if happy is None:
        happy = _happy_masks(inst, m)
    full = (1 << inst.ell) - 1
    if reach is None:
        reach = [full, 0]
    weak = base == "weak"
    strict_rows = base != "super"
    skipped = [False] * inst.n  # agents found not strict
    open_ = None
    for a, row in enumerate(masks):
        ha = happy[a]
        if least is not None and a > least[0]:
            fa, fb = least
            keys = fa + 1 if a < fb else fa  # keys below this can precede
            if not keys or weak:
                return
            if keys < len(row):
                items = [(b, row[b]) for b in range(keys) if b in row]
            else:
                items = [(b, s) for b, s in row.items() if b < keys]
            if not items:
                continue
        else:
            if strict_rows:
                # skip a unless it approves someone outside its happy mask;
                # an agent happy everywhere is skipped without reading its row
                for s in row.values() if ha != full else ():
                    if s & ~ha:
                        break
                else:
                    skipped[a] = True
                    continue
            items = row.items()
        if reach[0] is not open_:  # narrowed by the caller
            open_, cut = reach
            every = not cut and open_ == full  # any approval passes a side
        pa = partner.get(a)
        not_ha = ~ha
        if weak:  # few entries are mutual: test both strict sides on those alone
            for b, s in items:
                if b > a and b != pa and (sb := masks[b].get(a)):
                    hb = happy[b]
                    if (s & not_ha & open_).bit_count() > cut and (sb & ~hb & open_).bit_count() > cut:
                        yield a, b, (s, sb, ha, hb)
            continue
        # a's side of the reach test runs per entry unless it cannot fail
        tested = not every and (not_ha & open_).bit_count() <= cut
        for b, s in items:  # b == pa is tested after the tests most entries fail
            if tested and ((s | not_ha) & open_).bit_count() <= cut:
                continue
            hb = happy[b]
            if a < b:
                sb = masks[b].get(a, 0)
                if (sb or hb != full) and b != pa and (every or ((sb | ~hb) & open_).bit_count() > cut):
                    yield a, b, (s, sb, ha, hb)
            elif a not in masks[b]:
                if hb != full and b != pa and (every or (~hb & open_).bit_count() > cut):
                    yield b, a, (0, s, hb, ha)
            elif skipped[b] and b != pa:
                sb = masks[b][a]
                if every or ((sb | ~hb) & open_).bit_count() > cut:
                    yield b, a, (sb, s, hb, ha)


def _blocked(inst: MultilayerInstance, m: Matching, base: str, want: int, cap: int | None = None) -> int:
    """The layers of ``want`` in which some unmatched pair blocks (other bits
    may be set too).  ``block_mask`` runs once per distinct mask tuple of
    the pairs that ``_approving`` yields under ``base`` with reach
    ``[open, 0]``, where ``open`` is the part of ``want`` not yet blocked,
    and the scan stops once all of ``want`` is blocked.

    With a ``cap``, the scan also stops once more than ``cap`` layers of
    ``want`` are blocked, and then returns only some of them: a caller that
    asks whether at most ``cap`` block reads the answer from the count.
    Whenever at most ``cap`` block, the result is the one without a cap."""
    full = (1 << inst.ell) - 1
    if cap is None or cap >= want.bit_count():
        cap = want.bit_count() - 1  # stop once all of want is blocked
    blocked = 0
    reach = [want, 0]
    happy = _happy_masks(inst, m)
    seen = set()  # mask tuples already evaluated
    for _, _, key in _approving(inst, m, base, None, reach, happy):
        if key in seen:
            continue
        seen.add(key)
        blocked |= block_mask(base, *key, full)
        if (blocked & want).bit_count() > cap:
            return blocked
        reach[0] = want & ~blocked
    open_layers = want & ~blocked
    if base != "super" or not open_layers:
        return blocked
    # A silent pair (no approval either way) blocks only under super, and
    # there exactly in the layers where both agents are unhappy.  An
    # unmatched approving pair with both agents unhappy in a layer blocks it,
    # so in an open layer every pair of agents unhappy there is silent and
    # unmatched unless it is matched: count instead of visiting.
    agents = Counter(happy)
    matched = Counter(happy[a] | happy[b] for a, b in m.pairs)
    for i in range(inst.ell):
        bit = 1 << i
        if open_layers & bit:
            k = sum(c for h, c in agents.items() if not h & bit)
            if k * (k - 1) // 2 > sum(c for h, c in matched.items() if not h & bit):
                blocked |= bit
                if (blocked & want).bit_count() > cap:
                    return blocked
    return blocked


def _happy_groups(happy: list[int]) -> dict[int, list[int]]:
    """Per happy mask (``_happy_masks``), its agents in ascending order."""
    groups: dict[int, list[int]] = {}
    for x, h in enumerate(happy):
        groups.setdefault(h, []).append(x)
    return groups


def _least_silent(inst: MultilayerInstance, m: Matching, cost, stop, happy: list[int]):
    """The lexicographically least unmatched silent pair before the pair
    ``stop`` (``(a, b, ...)``, or None for no bound) with a nonzero
    ``cost(0, 0, ha, hb)`` (as in ``_least_violation``), as
    ``(a, b, 0, 0, ha, hb)``, or None.  ``happy`` is ``_happy_masks(inst,
    m)``.

    Agents are grouped by happy mask; a row keeps the groups that violate
    with it and takes the least member of each above it that is neither its
    partner nor in its mask row, nor lists a in its own.  With no bound the
    groups come first, and no row is read unless two agents' happy masks
    give a nonzero cost.
    """
    n = inst.n
    last, bound = (stop[0], stop[1]) if stop is not None else (n - 1, n)
    masks = inst.approval_masks
    partner = m._partner
    groups = None  # built first with no bound, else on first need
    fits: dict[int, list[list[int]]] = {}  # happy mask of a -> violating groups
    if stop is None:
        groups = _happy_groups(happy)
        if not any(cost(0, 0, h, g) for h in groups for g in groups if h != g or len(groups[h]) > 1):
            return None
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
        ha = happy[a]
        lists = fits.get(ha)
        if lists is None:
            if groups is None:
                groups = _happy_groups(happy)
            lists = fits[ha] = [g for h, g in groups.items() if cost(0, 0, ha, h)]
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


def _least_violation(inst: MultilayerInstance, m: Matching, base: str, cost, reach: list[int], rank: bool = True):
    """The lexicographically least unmatched pair, as
    ``(a, b, sa, sb, ha, hb)``, with a nonzero ``cost(sa, sb, ha, hb)``, or
    None: under a pair or individual query's pair cost
    (``verify._pair_cost``), its least violating pair.  With ``rank`` off,
    the first such pair found instead, or None exactly when there is none.

    One pass over the pairs that ``_approving`` yields under ``base`` and
    ``reach`` (``[full, ell - alpha]``, which keeps every violating pair)
    keeps the least violation so far, skips every pair above it and reads
    no row that cannot hold a lesser one; ``cost`` runs once per distinct
    mask tuple that complies.  Silent pairs (``sa == sb == 0``)
    never weakly or strongly block and have weak support ell, so they are
    searched for only under super, and only before the least approving
    violation.

    With ``rank`` off the scan returns the first violating pair it yields.
    Until then ``least`` is ``[n, n]``, so no row is probed, and a scan that
    yields none goes on to the silent pairs, searched under super with no
    bound.
    """
    first = None
    fa = fb = inst.n  # the least violating pair so far; none yet
    least = [fa, fb]  # the same, shared with the scan
    happy = _happy_masks(inst, m)
    complying = set()  # mask tuples already seen not to violate
    for a, b, key in _approving(inst, m, base, least, reach, happy):
        if a > fa or a == fa and b >= fb:
            continue
        if key in complying:
            continue
        if cost(*key):
            first = (a, b) + key
            if not rank:
                return first
            fa, fb = least[:] = a, b
        else:
            complying.add(key)
    if base != "super" or (fa, fb) == (0, 1):
        return first  # no pair precedes (0, 1)
    return _least_silent(inst, m, cost, first, happy) or first


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
    require_ids(inst, m._partner)
    full = (1 << inst.ell) - 1
    return layer_set(full & ~_blocked(inst, m, base, full))
