"""Exhaustive ground truth at desk scale.

Enumerates every matching of an instance (the telephone-number count T(n))
and decides arbitrary queries.

``oracle_solve`` is the pruned search: a branch and bound over partial
matchings that returns the first stable matching of the canonical order.
The super threshold routes run it (``_search``) over their isolated agents,
with the forced pairs fixed.  ``enumerate_matchings``, ``oracle_all`` and
``existence_table`` visit every matching and stay plain, so that they are
obviously correct: ``oracle_all`` with ``check`` is the specification the
tests hold ``oracle_solve`` to.  Solvers and generators are validated
against this module.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .blocking import BASES, Matching, block_mask, support_mask
from .errors import BadParameters, BudgetExceeded
from .model import MultilayerInstance, _Value
from .verify import StabilityQuery, _violation, check

__all__ = [
    "OracleBudget",
    "DEFAULT_BUDGET",
    "enumerate_matchings",
    "oracle_solve",
    "oracle_all",
    "existence_table",
]


class OracleBudget(_Value):
    """Size bounds of the exhaustive searches; exceeding one raises
    ``BudgetExceeded``.

    ``max_agents`` bounds the agents a search decides: n, or the free agents
    when ``_search`` starts from fixed pairs.  ``max_matchings`` bounds the
    complete matchings that ``enumerate_matchings`` (and so ``oracle_all``)
    yields, and the search nodes of ``oracle_solve`` and ``_search``: the
    partial matchings they extend.
    """

    max_agents: int
    max_matchings: int | None

    _fields = ("max_agents", "max_matchings")

    def __init__(self, max_agents: int = 12, max_matchings: int | None = None):
        self.__dict__.update(max_agents=max_agents, max_matchings=max_matchings)
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


def _to_matching(partner: list[int]) -> Matching:
    return Matching(
        tuple((a, b) for a, b in enumerate(partner) if b > a)
    )


def enumerate_matchings(
    n: int, budget: OracleBudget = DEFAULT_BUDGET
) -> Iterator[Matching]:
    """Every matching on ``n`` agents exactly once, deterministic order."""
    _check_budget(n, budget)
    count = 0
    for partner in _iter_partner_arrays(n):
        count += 1
        if budget.max_matchings is not None and count > budget.max_matchings:
            raise BudgetExceeded(
                f"visited more than {budget.max_matchings} matchings"
            )
        yield _to_matching(partner)


def oracle_solve(
    inst: MultilayerInstance,
    q: StabilityQuery,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Matching | None:
    """First matching satisfying the query in canonical order, or None.

    Branch and bound over partial partner arrays, decided in the order of
    ``_iter_partner_arrays``.  Once both agents of an unmatched pair are
    decided, both happy masks are final and so is what the pair costs the
    query: its blocked layers under global and all-layers, and every layer
    when it violates a pair or individual query.  A branch is cut when the
    OR of its pairs' costs exceeds ell - alpha layers; every completion
    keeps those pairs, so none of its matchings is stable.  A complete
    matching that survives is stable by the definition ``check`` uses, and
    the first one is the first of ``oracle_all``.
    """
    return _search(inst, q, budget, [])


def _search(inst: MultilayerInstance, q: StabilityQuery, budget: OracleBudget,
            fixed: list[tuple[int, int]]) -> Matching | None:
    """``oracle_solve`` over the matchings that contain the disjoint pairs
    ``fixed``: the fixed agents start out decided, and only the free agents,
    whose number ``budget.max_agents`` bounds, are searched.  A pair of two
    fixed agents is never evaluated, so the caller certifies the result."""
    alpha = q.effective_alpha(inst.ell)
    _check_budget(inst.n - 2 * len(fixed), budget)
    n, ell, base = inst.n, inst.ell, q.base
    full = (1 << ell) - 1
    slack = ell - alpha
    masks = inst.approval_masks
    partner = [-1] * n
    happy = [0] * n
    free = [True] * n
    decided: list[int] = []
    for a, b in fixed:
        partner[a], partner[b] = b, a
        happy[a], happy[b] = masks[a].get(b, 0), masks[b].get(a, 0)
        free[a] = free[b] = False
        decided += (a, b)
    nodes = 0

    if q.agg in ("all", "global"):
        def settle(x: int, blocked: int) -> int | None:
            """Decide x: OR in the blocked layers of its pairs with the
            decided agents other than its partner, or None once they exceed
            the slack."""
            row, hx, px = masks[x], happy[x], partner[x]
            for y in decided:
                if y != px:
                    c = block_mask(base, row.get(y, 0), masks[y].get(x, 0), hx, happy[y], full)
                    if c & ~blocked:
                        blocked |= c
                        if blocked.bit_count() > slack:
                            return None
            decided.append(x)
            return blocked
    else:
        violates = _violation(q, ell)

        def settle(x: int, blocked: int) -> int | None:
            """Decide x, or None at its first pair with a decided agent
            other than its partner that violates the query (a violating
            pair costs every layer, more than the slack since alpha >= 1)."""
            row, hx, px = masks[x], happy[x], partner[x]
            for y in decided:
                if y != px and violates(row.get(y, 0), masks[y].get(x, 0), hx, happy[y]):
                    return None
            decided.append(x)
            return blocked

    def branch(a: int, b: int, blocked: int) -> Matching | None:
        """Decide a, single (b == -1) or paired with b, and search on."""
        depth = len(decided)
        grown = settle(a, blocked)
        if grown is not None and b != -1:
            grown = settle(b, grown)
        found = None if grown is None else rec(a + 1, grown)
        del decided[depth:]
        return found

    def rec(a: int, blocked: int) -> Matching | None:
        nonlocal nodes
        while a < n and not free[a]:
            a += 1
        if a == n:
            return _to_matching(partner)
        nodes += 1
        if budget.max_matchings is not None and nodes > budget.max_matchings:
            raise BudgetExceeded(
                f"searched more than max_matchings={budget.max_matchings} partial matchings"
            )
        free[a] = False
        found = branch(a, -1, blocked)  # leave a single
        for b in range(a + 1, n):
            if found is not None:
                break
            if free[b]:
                free[b] = False
                partner[a], partner[b] = b, a
                happy[a], happy[b] = masks[a].get(b, 0), masks[b].get(a, 0)
                found = branch(a, b, blocked)
                free[b] = True
                partner[a] = partner[b] = -1
                happy[a] = happy[b] = 0
        free[a] = True
        return found

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
    _check_budget(inst.n, budget)
    n, ell = inst.n, inst.ell
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
    for partner in _iter_partner_arrays(n):
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
