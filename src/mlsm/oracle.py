"""Exhaustive ground truth at desk scale.

Enumerates every matching of an instance (the telephone-number count T(n))
and decides arbitrary queries.

``oracle_solve`` is the pruned search: a branch and bound over partial
matchings that returns the first stable matching of the canonical order,
with a per-search memo of pair costs.  One loop charges a newly decided
agent's pairs, those with an undecided agent at their least cost; at an odd
count of free agents, the same loop tests each free agent as the one left
single (the parity bound).  The super threshold routes run it
(``_search``) over their isolated agents, with the forced pairs fixed.
``enumerate_matchings``, ``oracle_all`` and ``existence_table`` visit every
matching and stay plain, so that they are obviously correct: ``oracle_all``
with ``check`` is the specification the tests hold ``oracle_solve`` to.
Solvers and generators are validated against this module.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from typing import Iterator

from .blocking import BASES, Matching, block_mask, support_mask
from .errors import BadParameters, BudgetExceeded, IdOutOfRange
from .model import MultilayerInstance, _Value
from .verify import StabilityQuery, _pair_cost, check

__all__ = [
    "OracleBudget",
    "DEFAULT_BUDGET",
    "enumerate_matchings",
    "oracle_solve",
    "oracle_all",
    "existence_table",
]


class OracleBudget(_Value):
    """Size bounds of the exhaustive searches, as ints (bool excluded);
    exceeding one raises ``BudgetExceeded``.

    ``max_agents`` bounds the agents a search decides: n, or the free agents
    when ``_search`` starts from fixed pairs.  ``max_matchings`` bounds the
    complete matchings that ``enumerate_matchings`` (and so ``oracle_all``)
    yields and ``existence_table`` visits, and the search nodes of
    ``oracle_solve`` and ``_search``: the partial matchings they reach whose
    decided pairs, and whose decided agents' least costs, pass.
    """

    max_agents: int
    max_matchings: int | None

    def __init__(self, max_agents: int = 12, max_matchings: int | None = None):
        self.__dict__.update(max_agents=max_agents, max_matchings=max_matchings)
        if type(max_agents) is not int or not (max_matchings is None or type(max_matchings) is int):
            raise BadParameters(f"oracle budget fields must be ints, got {self}")
        if max_agents < 0 or (max_matchings or 0) < 0:
            raise BadParameters(f"negative oracle budget {self}")


DEFAULT_BUDGET = OracleBudget()


def _check_budget(n: int, budget: OracleBudget) -> None:
    if n > budget.max_agents:
        raise BudgetExceeded(
            f"{n} agents exceed the oracle budget of {budget.max_agents}"
        )


def _iter_partner_arrays(n: int) -> Iterator[list[int]]:
    """Yield every matching as a partner array (-1 = unmatched).

    Canonical recursion: the smallest unmatched agent either stays single or
    pairs with each larger unmatched agent, in ascending order.  The yielded
    list is reused; callers must copy if they keep it.
    """
    partner = [-1] * n

    def rec(start: int) -> Iterator[list[int]]:
        a = start
        while a < n and partner[a] != -1:
            a += 1
        if a >= n:
            yield partner
            return
        # leave a single
        yield from rec(a + 1)
        for b in range(a + 1, n):
            if partner[b] == -1:
                partner[a] = b
                partner[b] = a
                yield from rec(a + 1)
                partner[a] = -1
                partner[b] = -1

    return rec(0)


def _counted_partner_arrays(n: int, budget: OracleBudget) -> Iterator[list[int]]:
    """``_iter_partner_arrays`` within ``budget``: at the first pull,
    ``IdOutOfRange`` unless n is a nonnegative ``int`` (bool is none), and
    ``BudgetExceeded`` past ``max_agents``; then past ``max_matchings``."""
    if type(n) is not int or n < 0:
        raise IdOutOfRange(f"agent count must be a nonnegative int, got {n!r}")
    _check_budget(n, budget)
    for count, partner in enumerate(_iter_partner_arrays(n), 1):
        if budget.max_matchings is not None and count > budget.max_matchings:
            raise BudgetExceeded(
                f"visited more than {budget.max_matchings} matchings"
            )
        yield partner


def enumerate_matchings(
    n: int, budget: OracleBudget = DEFAULT_BUDGET
) -> Iterator[Matching]:
    """Every matching on ``n`` agents exactly once, deterministic order."""
    return map(Matching.from_partners, _counted_partner_arrays(n, budget))


def oracle_solve(
    inst: MultilayerInstance,
    q: StabilityQuery,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Matching | None:
    """First matching satisfying the query in canonical order, or None.

    Branch and bound over partial partner arrays, decided in the order of
    ``_iter_partner_arrays``, on the query's pair costs (``_pair_cost``): a
    matching passes when the OR of its unmatched pairs' costs spans at most
    ell - alpha layers.  Once both agents of an unmatched pair are decided,
    both happy masks are final and so is the pair's cost.  While one of
    them, z, is undecided, the pair costs at least its cost with z happy in
    every layer, since a cost never falls with more approvals or fewer
    happy layers.  Deciding an agent charges its pair with every other
    agent but its partner: a decided one at its happy mask, an undecided
    one at that least cost, unless the cost at approvals ``full`` with the
    other agent unhappy is 0, as under weak.  A branch is cut when the OR
    of its charges exceeds ell - alpha layers, as it then does in every
    completion.  At an odd count of free agents each completion leaves some
    free z single, unhappy in every layer, and z's pairs alone then break
    the query if its charges as a single agent, with the node's, exceed the
    slack; the parity bound cuts the node when that holds for every free z.
    A complete matching that survives is stable by the definition ``check``
    uses, and the first one is the first of ``oracle_all``.
    """
    return _search(inst, q, budget, [])


def _search(inst: MultilayerInstance, q: StabilityQuery, budget: OracleBudget,
            fixed: list[tuple[int, int]]) -> Matching | None:
    """``oracle_solve`` over the matchings that contain the disjoint pairs
    ``fixed``: the fixed agents start out decided, and only the free agents,
    whose number ``budget.max_agents`` bounds, are searched.  A pair of two
    fixed agents is never evaluated, so the caller certifies the result.
    A pair cost (``_pair_cost``) is computed once per mask tuple, and
    ``settle`` is the one loop that reads them.  A node is a partial
    matching whose decided pairs, and whose decided agents' least costs,
    pass: an agent's least costs are charged as it is decided, in its
    parent, and the parity bound's tests are never carried into the
    charges."""
    n, ell = inst.n, inst.ell
    cost = _pair_cost(q, ell)
    _check_budget(n - 2 * len(fixed), budget)
    full = (1 << ell) - 1
    slack = ell - q.effective_alpha(ell)
    masks = inst.approval_masks
    look = cost(full, full, 0, full) != 0
    partner = [-1] * n
    happy = [full] * n  # an undecided agent reads full, its least cost
    free = [True] * n
    decided: list[int] = []
    for a, b in fixed:
        partner[a], partner[b] = b, a
        happy[a], happy[b] = masks[a].get(b, 0), masks[b].get(a, 0)
        free[a] = free[b] = False
        decided += (a, b)
    # the memo: per (sa, sb), the costs by (ha, hb), each packed ha << ell | hb;
    # per searched agent x, the memo row of its pair with each agent
    memo: defaultdict[int, dict[int, int]] = defaultdict(dict)
    rows = {x: [memo[masks[x].get(y, 0) << ell | row.get(x, 0)] for y, row in enumerate(masks)]
            for x in range(n) if free[x]}
    nodes = 0

    def settle(x: int, hx: int, blocked: int) -> int | None:
        """OR in x's costs at happy mask hx with every agent but x and its
        partner, each at its happy mask: ``full``, its least cost, while it
        is undecided; with look off an undecided one costs 0 and is
        skipped.  None past the slack."""
        rx, sx, hk, px = rows[x], masks[x], hx << ell, partner[x]
        for y in range(n) if look else decided:
            if y == x or y == px:
                continue
            hy = happy[y]
            c = rx[y].get(hk | hy)
            if c is None:
                c = rx[y][hk | hy] = cost(sx.get(y, 0), masks[y].get(x, 0), hx, hy)
            if c & ~blocked:
                blocked |= c
                if blocked.bit_count() > slack:
                    return None
        return blocked

    def rec(a: int, blocked: int) -> Matching | None:
        """Decide the least free agent from a on, single or paired, and go
        on.  At an odd count of free agents some free z ends up single, so
        the node is cut when every z breaks the query as a single agent."""
        nonlocal nodes
        while a < n and not free[a]:
            a += 1
        if a == n:
            return Matching.from_partners(partner)
        nodes += 1
        if budget.max_matchings is not None and nodes > budget.max_matchings:
            raise BudgetExceeded(
                f"searched more than max_matchings={budget.max_matchings} partial matchings"
            )
        if (n - len(decided)) & 1 and all(
            settle(z, 0, blocked) is None for z in range(a, n) if free[z]
        ):
            return None
        free[a] = False
        depth = len(decided)
        found = None
        for b in range(a, n):  # b == a leaves a single
            if b != a:
                if not free[b]:
                    continue
                free[b] = False
                partner[a], partner[b] = b, a
            happy[a], happy[b] = masks[a].get(b, 0), masks[b].get(a, 0)  # 0 if single
            grown = settle(a, happy[a], blocked)
            if grown is not None and b != a:
                grown = settle(b, happy[b], grown)
            if grown is not None:
                decided.extend((a,) if b == a else (a, b))
                found = rec(a + 1, grown)
                del decided[depth:]
            if b != a:
                free[b] = True
                partner[a] = partner[b] = -1
                happy[b] = full
            if found is not None:
                return found
        free[a] = True
        happy[a] = full
        return None

    return rec(0, 0)


def oracle_all(
    inst: MultilayerInstance,
    q: StabilityQuery,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> list[Matching]:
    """All matchings satisfying the query, canonical order."""
    q.effective_alpha(inst.ell)
    return [
        m for m in enumerate_matchings(inst.n, budget) if check(inst, m, q).stable
    ]


def existence_table(
    inst: MultilayerInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> dict[str, tuple[int, int, int]]:
    """Per base, the best degrees any matching achieves.

    Returns ``base -> (max global count, max pair minimum, max individual
    minimum)``; a query (base, agg, alpha) has a stable matching iff the
    component for its aggregation reaches alpha.  The individual component
    for "strong" is -1 (notion undefined).

    One pass over all matchings, with per-pair layer sets packed into ell-bit
    integers for ``block_mask`` and ``support_mask``.  The randomized
    comparison suites use it, and its agreement with ``oracle_solve`` is
    itself under test.
    """
    n, ell = inst.n, inst.ell
    partners = _counted_partner_arrays(n, budget)
    full = (1 << ell) - 1
    masks = inst.approval_masks
    # per-pair approval layer sets are matching-independent
    pairs = [
        (a, b, masks[a].get(b, 0), masks[b].get(a, 0))
        for a in range(n)
        for b in range(a + 1, n)
    ]

    @cache
    def degrees(sa: int, sb: int, ha: int, hb: int) -> list[tuple[int, int, int]]:
        """Per base: blocked mask, non-blocking layers, individual support."""
        out = []
        for base in BASES:
            blocked = block_mask(base, sa, sb, ha, hb, full)
            support = ell if base == "strong" else max(
                support_mask(base, sa, ha, full).bit_count(),
                support_mask(base, sb, hb, full).bit_count(),
            )
            out.append((blocked, ell - blocked.bit_count(), support))
        return out

    best = [[0, 0, 0] for _ in BASES]
    for partner in partners:
        happy = [masks[a].get(p, 0) for a, p in enumerate(partner)]  # single: p=-1
        # per base: OR of blocked masks, least non-blocking count and support
        worst = [[0, ell, ell] for _ in BASES]
        for a, b, sa, sb in pairs:
            if partner[a] == b:
                continue
            for w, (blocked, nonblocking, support) in zip(
                worst, degrees(sa, sb, happy[a], happy[b])
            ):
                w[0] |= blocked
                if nonblocking < w[1]:
                    w[1] = nonblocking
                if support < w[2]:
                    w[2] = support
        for rec, (blocked, pair_min, ind_min) in zip(best, worst):
            rec[0] = max(rec[0], ell - blocked.bit_count())
            rec[1] = max(rec[1], pair_min)
            rec[2] = max(rec[2], ind_min)
    return {
        base: (rec[0], rec[1], rec[2] if base != "strong" else -1)
        for base, rec in zip(BASES, best)
    }
