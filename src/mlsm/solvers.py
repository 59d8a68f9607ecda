"""Every positive algorithm for the eleven stability notions, plus a dispatcher.

Complete solvers return a definitive exists / not-exists.  ``SOLVERS`` is the
one table of routes and their gates: the dispatcher sends each query to the
first route that applies and falls back to the exhaustive oracle at small
scale, reporting unknown rather than guessing.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Callable, Iterator

from .blocking import Matching, layer_set, stable_in_layer
from .errors import AlphaTooHigh, AlphaTooLow, BadParameters, BudgetExceeded, NotSymmetric, UncertifiedWitness
from .graphalg import SimpleGraph, has_perfect_matching, maximal_matching, maximum_matching, saturating_matching
from .model import MultilayerInstance, _Value, agent_types, changing_agents, is_symmetric, require_ids
from .oracle import DEFAULT_BUDGET, OracleBudget, _iter_partner_arrays, _search, oracle_solve
from .verify import StabilityQuery, Verdict, _require_alpha, check

__all__ = [
    "SolveResult",
    "threshold_graph",
    "solve_weak_lowalpha",
    "solve_strong_alllayers_symmetric",
    "solve_strong_global_symmetric",
    "layer_superstable_set",
    "solve_super_global",
    "solve_super_individual_highalpha",
    "solve_super_pair_veryhighalpha",
    "solve_super_pair_fpt",
    "solve_by_types",
    "solve_by_changing",
    "Solver",
    "SOLVERS",
    "dispatch",
]

# dispatcher gates for the parameterized algorithms
TAU_DISPATCH_MAX = 3
BETA_DISPATCH_MAX = 5
STRONG_GLOBAL_SUBSETS_MAX = 10_000


class SolveResult(_Value):
    """exists(M) / not-exists / unknown, tagged with the deciding algorithm.

    ``found`` reports a route's matching, or not-exists for None.
    ``verdict`` is the ``check`` verdict that certified the matching: set by
    ``_first_stable`` for the routes that certify their own candidates, and
    by ``dispatch`` on every ``exists`` it returns.
    """

    status: str
    algorithm: str
    matching: Matching | None = None
    witness_layers: frozenset[int] | None = None
    detail: str | None = None
    verdict: Verdict | None = None

    @classmethod
    def found(cls, alg, m, layers=None) -> "SolveResult":
        """exists(m) with witness layers ``layers``; not-exists when m is None."""
        return cls("not-exists", alg) if m is None else cls("exists", alg, m, layers)

    @property
    def exists(self) -> bool:
        return self.status == "exists"


def _first_stable(tag: str, inst: MultilayerInstance, q: StabilityQuery, candidates) -> SolveResult:
    """The first of ``candidates`` that passes ``check`` against q, as an
    exists carrying that verdict, else not-exists.  Candidates are pulled
    one at a time, so a lazy family builds only those up to the witness,
    and each is checked once.  Only ``.stable`` is read, so the checks run
    with ``explain`` off: a rejected candidate costs its first violation,
    and the accepted verdict is the one ``check`` gives by default."""
    for m in candidates:
        verdict = check(inst, m, q, explain=False)
        if verdict.stable:
            return SolveResult("exists", tag, m, verdict.witness_layers, verdict=verdict)
    return SolveResult.found(tag, None)


def _require_symmetric(inst: MultilayerInstance, what: str) -> None:
    if not is_symmetric(inst):
        raise NotSymmetric(f"{what} requires symmetric approvals")


def threshold_graph(inst: MultilayerInstance, k: int) -> SimpleGraph:
    """Graph with an edge {a, b} where a approves b in at least ``k`` layers
    and b approves a in at least ``k`` layers.

    On symmetric instances this is the graph of pairs that approve each
    other in at least ``k`` layers.  The edges come from mask keys, so they
    are canonical (a < b), in range and loop-free, and the graph is built
    without ``SimpleGraph.from_edges``'s validation.
    """
    if type(k) is not int or k < 1:  # bool is no int
        raise BadParameters(f"threshold k={k!r} must be an int of at least 1")
    masks = inst.approval_masks
    edges = [
        (a, b)
        for a, ma in enumerate(masks)
        for b, ab in ma.items()
        if a < b and ab.bit_count() >= k and masks[b].get(a, 0).bit_count() >= k
    ]
    return SimpleGraph(inst.n, frozenset(edges))


# ---------------------------------------------------------------------------
# weak stability, low degree (always solvable)


def solve_weak_lowalpha(inst: MultilayerInstance, alpha: int) -> Matching:
    """A matching that is alpha-individually (hence alpha-pair) weakly stable.

    Exists for every instance when alpha <= ceil(ell/2): take a maximal
    matching of the graph whose edges are the pairs approving each other in
    at least ell - alpha + 1 layers (per direction).
    """
    _require_alpha(alpha, inst.ell)
    if alpha > (inst.ell + 1) // 2:
        raise AlphaTooHigh(
            f"alpha={alpha} exceeds ceil(ell/2)={(inst.ell + 1) // 2}"
        )
    g = threshold_graph(inst, inst.ell - alpha + 1)
    return maximal_matching(g)


# ---------------------------------------------------------------------------
# strong stability, symmetric approvals


def _busy(inst: MultilayerInstance) -> list[int]:
    """Per agent, the bit mask of the layers where it approves somebody."""
    return [reduce(or_, ma.values(), 0) for ma in inst.approval_masks]


def _strong_matching(inst: MultilayerInstance, sel: int, busy: list[int]) -> Matching | None:
    """A matching strongly stable in every layer of the bit mask ``sel``, or
    None; approvals must be symmetric and ``busy`` is ``_busy(inst)``.

    Even n: such matchings are exactly the perfect matchings of the graph
    whose edges are the pairs that, in each selected layer, approve each
    other or both approve nobody.  Odd n: some agent must approve nobody in
    any selected layer; delete one such agent and solve the even case.

    Call an agent silent if it approves nobody in any selected layer.  By
    symmetry nobody approves it there either, so its neighbours in the graph
    are exactly the other silent agents: the graph is a clique on the silent
    agents plus a graph on the rest, with no edge between the two.  So find a
    perfect matching of the rest alone, and pair the silent agents in
    ascending order, leaving the first single when their number is odd,
    which with a perfect matching of the rest means n is odd.  The graph
    has at most one edge per approving pair, none between silent agents.

    The scan tests the row agent's own selected busy layers first, which
    reject almost every entry, then a < b, then b's side and b's index.  Its
    edges are canonical (``index`` keeps the order of ``rest``), in range
    and loop-free, so the graph is built without ``from_edges``.
    """
    masks = inst.approval_masks
    silent = [a for a in range(inst.n) if not busy[a] & sel]
    rest = [a for a in range(inst.n) if busy[a] & sel]
    index = {a: i for i, a in enumerate(rest)}
    # approvals are symmetric, so a's mask towards b is the pair's mutual
    # mask; a selected layer without it needs both a and b to approve nobody
    edges = []
    for a in rest:
        need = sel & busy[a]
        i = index[a]
        for b, ab in masks[a].items():
            if ab & need == need and a < b and not sel & ~ab & busy[b] and b in index:
                edges.append((i, index[b]))
    m = has_perfect_matching(SimpleGraph(len(rest), frozenset(edges)))
    if m is None:
        return None
    odd = len(silent) % 2
    pairs = [(rest[u], rest[v]) for u, v in m.pairs]
    return Matching.from_pairs(pairs + list(zip(silent[odd::2], silent[odd + 1::2])))


def solve_strong_alllayers_symmetric(inst: MultilayerInstance) -> Matching | None:
    """Decide all-layers strong stability for symmetric approvals: a
    perfect matching of the mutual-or-both-silent graph over every layer
    (see ``_strong_matching``), or None."""
    _require_symmetric(inst, "solve_strong_alllayers_symmetric")
    return _strong_matching(inst, (1 << inst.ell) - 1, _busy(inst))


def solve_strong_global_symmetric(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """Try every size-alpha layer subset through the all-layers algorithm,
    with the per-agent busy layers built once."""
    _require_symmetric(inst, "solve_strong_global_symmetric")
    _require_alpha(alpha, inst.ell)
    tag = "strong-global-symmetric"
    busy = _busy(inst)
    for subset in itertools.combinations(range(inst.ell), alpha):
        m = _strong_matching(inst, sum(1 << i for i in subset), busy)
        if m is not None:
            return SolveResult.found(tag, m, frozenset(subset))
    return SolveResult.found(tag, None)


# ---------------------------------------------------------------------------
# super stability
#
# Every route rests on one lemma: a super stable matching contains every
# forced pair (a layer's mutual pairs, or the edges of the ell - alpha + 1
# threshold graph), so the forced pairs must be disjoint and only a small
# kernel of other agents is left to pair (``_kernel``): two or 2^(ell+1)
# isolated agents for the threshold routes, and at most two in a layer, so
# a layer has at most one super stable matching.  Three left in a layer can
# never pass: a completion pairs two of them, not mutually, so one of that
# pair is unhappy and blocks with the third, who is single and so unhappy.
# ``_layer_candidates`` applies the layer rule row by row, so a layer
# drops out at its first agent on two mutual pairs or its third agent on
# none, and the pass stops once too few layers are left.


def _kernel(n: int, forced: list[tuple[int, int]], most: int) -> list[int] | None:
    """The agents the forced pairs leave uncovered, ascending; None when an
    agent lies on two of them or more than ``most`` are left to pair."""
    covered: set[int] = set()
    for a, b in forced:
        if a in covered or b in covered:
            return None
        covered.add(a)
        covered.add(b)
    if n - len(covered) > most:
        return None
    return [a for a in range(n) if a not in covered]


def _layer_candidates(inst: MultilayerInstance, live: int, need: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Per layer of the bit mask ``live`` that keeps one, the one matching,
    as sorted pairs, that can be super stable there: the layer's mutual
    pairs, plus the pair of the two agents they leave when two are left.
    Empty as soon as fewer than ``need`` layers keep one.

    One pass over the mask rows, in agent order, applies ``_kernel``'s rule
    (cap 2) to every layer at once.  Once row a is read, all of a's mutual
    partners are known, since each smaller one found the pair in its own
    row; so a layer drops at once when a pair meets an agent already on a
    mutual pair there, or when a third agent ends its row on none.
    """
    masks = inst.approval_masks
    on = [0] * inst.n  # per agent, the layers where it is on a mutual pair
    forced: list[list[tuple[int, int]]] = [[] for _ in range(inst.ell)]
    left: list[list[int]] = [[] for _ in range(inst.ell)]  # agents on none
    for a, row in enumerate(masks):
        dead = 0
        for b, s in row.items():
            if b > a and (both := s & live) and (both := both & masks[b].get(a, 0)):
                dead |= both & (on[a] | on[b])
                on[a] |= both
                on[b] |= both
                for i in layer_set(both):
                    forced[i].append((a, b))
        for i in layer_set(live & ~on[a] & ~dead):
            left[i].append(a)
            if len(left[i]) > 2:
                dead |= 1 << i
        if dead & live:
            live &= ~dead
            if live.bit_count() < need:
                return {}
    return {
        i: tuple(sorted(forced[i] + [tuple(left[i])] if len(left[i]) == 2 else forced[i]))
        for i in layer_set(live)
    }


def layer_superstable_set(inst: MultilayerInstance, layer: int) -> list[Matching]:
    """The super stable matchings of a single layer, at most one: the
    layer's candidate (``_layer_candidates``) if ``stable_in_layer``
    accepts it."""
    require_ids(inst, (), layer)
    found = [Matching(pairs) for pairs in _layer_candidates(inst, 1 << layer, 1).values()]
    return [m for m in found if stable_in_layer(inst, m, layer, "super")]


def solve_super_global(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """Decide alpha-global super stability from the per-layer candidates.

    A matching super stable in a layer is that layer's one candidate
    (``_layer_candidates``), so one super stable in at least alpha layers
    is listed by at least alpha layers.  One pass over the masks builds
    every layer's candidate, and returns not-exists as soon as fewer than
    alpha layers keep one; the distinct candidates listed often enough go
    to ``_first_stable`` in candidate order, so each gets at most one
    global ``check``.  Complete for arbitrary (also asymmetric) approvals.
    """
    _require_alpha(alpha, inst.ell)
    listed = Counter(_layer_candidates(inst, (1 << inst.ell) - 1, alpha).values())
    q = StabilityQuery("super", "global", alpha)
    candidates = sorted(pairs for pairs, k in listed.items() if k >= alpha)
    return _first_stable("super-global", inst, q, map(Matching, candidates))


def _solve_super_threshold(inst: MultilayerInstance, alpha: int, agg: str, tag: str, floor: tuple[int, int],
                           most: int, budget: OracleBudget = DEFAULT_BUDGET) -> SolveResult:
    """The super threshold route ``tag``: a pair or individual query (``agg``)
    on symmetric approvals with alpha > p*ell/d for ``floor`` = (p, d),
    completed from the forced edges of the (ell - alpha + 1) threshold graph.

    Every stable matching contains those edges, so ``_kernel`` with cap
    ``most`` rules one out.  One pruned search (``oracle._search``) with the
    forced pairs fixed returns the first completion, in canonical order over
    the isolated agents, on which no pair with an isolated agent breaks the
    query; with no isolated agent that is the forced matching itself, which
    is then the one candidate, and ``_search`` does not run.  The search
    never evaluates a pair of two forced agents; ``_first_stable`` checks
    that one candidate, if any, and that covers them.  A failure there
    means no completion passes: such a pair has the same happy masks, so
    the same pair or individual verdict, in every completion.  The isolated
    agents count against ``budget.max_agents``.
    """
    _require_symmetric(inst, "solve_" + tag.replace("-", "_"))
    _require_alpha(alpha, inst.ell)
    p, d = floor
    if d * alpha <= p * inst.ell:
        bound = f"{p}*ell/{d}".removeprefix("1*")
        raise AlphaTooLow(f"alpha={alpha} is not above {bound}={p * inst.ell / d}")
    q = StabilityQuery("super", agg, alpha)
    forced = threshold_graph(inst, inst.ell - alpha + 1).sorted_edges()
    kernel = _kernel(inst.n, forced, most)
    if kernel is None:
        return SolveResult.found(tag, None)
    m = _search(inst, q, budget, forced) if kernel else Matching(tuple(forced))
    return _first_stable(tag, inst, q, () if m is None else (m,))


def solve_super_individual_highalpha(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """alpha-individual super stability for symmetric approvals, alpha > ell/2:
    at most two isolated agents beyond the forced threshold edges."""
    return _solve_super_threshold(inst, alpha, "individual", "super-individual-highalpha", (1, 2), 2)


def solve_super_pair_veryhighalpha(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """alpha-pair super stability for symmetric approvals, alpha > 2*ell/3:
    at most two isolated agents beyond the forced threshold edges."""
    return _solve_super_threshold(inst, alpha, "pair", "super-pair-veryhighalpha", (2, 3), 2)


def solve_super_pair_fpt(
    inst: MultilayerInstance, alpha: int, budget: OracleBudget = DEFAULT_BUDGET
) -> SolveResult:
    """alpha-pair super stability for symmetric approvals, alpha > ell/2.

    Beyond the forced threshold edges, more than 2^(ell+1) isolated agents
    rule out a solution; otherwise the pruned search matches the isolated
    kernel among itself (see ``_solve_super_threshold``).  A kernel of more
    than ``budget.max_agents`` agents, or a search past
    ``budget.max_matchings`` nodes, raises ``BudgetExceeded`` instead.
    """
    return _solve_super_threshold(inst, alpha, "pair", "super-pair-fpt", (1, 2), 2 ** (inst.ell + 1), budget)


# ---------------------------------------------------------------------------
# the parameterized routes' candidate tables


class _Lazy:
    """A memoized, lazily extended sequence of the items ``make()`` yields.

    Every iterator replays the stored items, then pulls new ones from one
    shared generator and stores them, so iterators, interleaved or not, see
    the same items in the same order and each item is built once.  A pull
    cut short by an exception drops the generator, and the next pull starts
    ``make()`` afresh past the stored items: an interruption never reads as
    the end.
    """

    def __init__(self, make: Callable[[], Iterator]):
        self._make = make
        self._items: list = []
        self._source: Iterator | None = None  # set between pulls only
        self._done = False

    def __iter__(self):
        items = self._items
        i = 0
        while i < len(items) or self._pull():
            yield items[i]
            i += 1

    def _pull(self) -> bool:
        """Store one more item; False once ``make()`` is exhausted."""
        if self._done:
            return False
        source, self._source = self._source, None
        if source is None:
            source = itertools.islice(self._make(), len(self._items), None)
        for item in source:
            self._items.append(item)
            self._source = source
            return True
        self._done = True
        return False


# ---------------------------------------------------------------------------
# few agent types


def _usage_vectors(sizes, edges):
    """All exact per-edge pair counts matching every type's block size.

    ``edges`` are unordered type pairs (loops included, counting double).
    """
    remaining = list(sizes)
    counts = [0] * len(edges)
    last_touch = {}
    for idx, (t, u) in enumerate(edges):
        last_touch[t] = idx
        last_touch[u] = idx
    out = []

    def rec(idx: int):
        if idx == len(edges):
            if all(r == 0 for r in remaining):
                out.append(tuple(counts))
            return
        t, u = edges[idx]
        if t == u:
            top = remaining[t] // 2
        else:
            top = min(remaining[t], remaining[u])
        for c in range(top + 1):
            counts[idx] = c
            # a loop (t == u) takes c agents twice from the same block
            remaining[t] -= c
            remaining[u] -= c
            dead = (last_touch[t] == idx and remaining[t] != 0) or (
                last_touch[u] == idx and remaining[u] != 0
            )
            if not dead:
                rec(idx + 1)
            remaining[t] += c
            remaining[u] += c
        counts[idx] = 0

    rec(0)
    return out


@lru_cache(maxsize=64)
def _types_tables(inst: MultilayerInstance):
    """Per usage pattern: a reduced instance with its matching, and a
    witness matching of the instance (odd n padded with a dummy agent ``n``
    whose pair the witness drops).

    A pattern records, per type pair, whether it is matched zero times, once,
    or at least twice; stability of a compatible perfect matching depends
    only on that signature, so one reduced check per pattern decides all of
    them.  The reduced instance is the padded instance induced on the
    witness's first min(count, 2) pairs of each type pair, and those pairs
    are its matching.  Returns the entries, in signature order, as a
    ``_Lazy`` sequence: the patterns are found on the first pull from the
    ``agent_types`` of the instance (of its padded copy when n is odd), and
    each entry is built when first reached.  The reduced masks are looked up
    pair by pair among the kept agents, at most four per type pair, so no
    mask row is walked.
    """

    def entries():
        n = inst.n
        padded = inst
        if n % 2:
            padded = MultilayerInstance(n + 1, inst.ell, inst.approval_masks + ({},))
        masks = padded.approval_masks
        blocks = agent_types(padded).blocks
        edges = [
            (t, u) for t in range(len(blocks)) for u in range(t, len(blocks))
        ]
        by_signature: dict[tuple[int, ...], tuple[int, ...]] = {}
        for usage in _usage_vectors([len(b) for b in blocks], edges):
            sig = tuple(min(c, 2) for c in usage)
            by_signature.setdefault(sig, usage)
        for sig in sorted(by_signature):
            agents = [iter(b) for b in blocks]
            pairs = []
            kept = []  # the agents of the reduced instance, pair by pair
            for (t, u), count, keep in zip(edges, by_signature[sig], sig):
                for k in range(count):
                    pairs.append((next(agents[t]), next(agents[u])))
                    if k < keep:
                        kept += pairs[-1]
            j_masks = tuple(
                {y: mask for y, b in enumerate(kept) if (mask := masks[a].get(b))}
                for a in kept
            )
            j_inst = MultilayerInstance(len(kept), inst.ell, j_masks)
            j_match = Matching.from_pairs((x, x + 1) for x in range(0, len(kept), 2))
            witness = Matching.from_pairs(pair for pair in pairs if n not in pair)
            yield j_inst, j_match, witness

    return _Lazy(entries)


def solve_by_types(inst: MultilayerInstance, q: StabilityQuery) -> SolveResult:
    """Complete decision for any query, exponential only in the number of
    agent types.

    Iterates usage patterns of type pairs (odd n padded with a dummy agent
    approving and approved by nobody); a pattern is accepted when its reduced
    instance, the one induced on at most two of its witness's pairs per type
    pair, passes the checker, which it does exactly when its witness does.
    The witnesses of the accepted patterns, in ``_types_tables`` order, are
    the candidates of ``_first_stable``, so the walk stops at the first
    stable one and only the entries up to it are built; a later query on
    the same instance reuses them.  The reduced checks only decide, so they
    run with ``explain`` off.
    """
    q.effective_alpha(inst.ell)
    accepted = (witness for j_inst, j_match, witness in _types_tables(inst)
                if check(j_inst, j_match, q, explain=False).stable)
    return _first_stable("agent-types", inst, q, accepted)


# ---------------------------------------------------------------------------
# few changing agents


@lru_cache(maxsize=64)
def _changing_candidates(inst: MultilayerInstance):
    """Candidate matchings for the few-changing-agents search, by base family.

    All guesses of the search are query-independent: which changing agents
    pair up inside B, and (weak only) which agents must stay happy in every
    layer.  The final stability check is the only query-dependent step.
    Returns the weak and the mcm (maximum matching plus completion)
    families as ``_Lazy`` sequences, so a query builds only the candidates
    it reaches; both share one lazy list of the guessed pairings of B.
    """
    changing = sorted(changing_agents(inst).agents)
    b_set = set(changing)
    n = inst.n
    static = [a for a in range(n) if a not in b_set]
    # approvals of non-changing agents are identical in all layers, so
    # the keys of their mask rows are their approvals in every layer
    masks = inst.approval_masks

    def guesses():
        # per pairing of B: its pairs, the agents it matches, the free
        # agents of B and the static graph without the matched ones
        for partner in _iter_partner_arrays(len(changing)):
            b_pairs = [
                (changing[i], changing[j]) for i, j in enumerate(partner) if j > i
            ]
            matched_b = {a for pair in b_pairs for a in pair}
            edges = [
                (a, c)
                for a in static
                for c in masks[a]
                if c not in matched_b and (c in b_set or a < c)
            ]
            free_b = [b for b in changing if b not in matched_b]
            yield b_pairs, matched_b, free_b, SimpleGraph.from_edges(n, edges)

    by_guess = _Lazy(guesses)

    def mcm_family():
        # strong/super: maximum matching plus arbitrary completion
        seen: set[tuple] = set()
        for b_pairs, matched_b, _, g in by_guess:
            mcm = maximum_matching(g)
            leftover = [
                v
                for v in range(n)
                if v not in matched_b and not mcm.covers(v)
            ]
            completion = list(zip(leftover[0::2], leftover[1::2]))
            cand = Matching.from_pairs(b_pairs + list(mcm.pairs) + completion)
            if cand.pairs not in seen:
                seen.add(cand.pairs)
                yield cand

    def weak_family():
        # weak: a maximal matching that saturates a guessed must-be-happy set
        # the unions of the static agents approving each subset of B, by doubling
        unions = [frozenset()]
        for b in changing:
            approvers = frozenset(a for a in static if b in masks[a])
            unions += [u | approvers for u in unions]
        unions = set(unions)
        seen: set[tuple] = set()
        for b_pairs, _, free_b, g in by_guess:
            kept_sets = [frozenset()]
            for b in free_b:
                kept_sets += [k | {b} for k in kept_sets]
            happy_sets = {k | u for k in kept_sets for u in unions}
            for happy in sorted(happy_sets, key=sorted):
                sat = saturating_matching(g, happy)
                if sat is None:
                    continue
                cand = Matching.from_pairs(b_pairs + list(sat.pairs))
                if cand.pairs not in seen:
                    seen.add(cand.pairs)
                    yield cand

    return _Lazy(weak_family), _Lazy(mcm_family)


def solve_by_changing(inst: MultilayerInstance, q: StabilityQuery) -> SolveResult:
    """Complete decision for symmetric approvals, exponential only in the
    number of agents whose approvals differ between layers.

    The query's lazy candidate family of ``_changing_candidates`` goes to
    ``_first_stable``, so an ``exists`` builds only the candidates up to its
    witness; a later query on the same instance resumes from the stored
    ones.
    """
    _require_symmetric(inst, "solve_by_changing")
    q.effective_alpha(inst.ell)
    weak_cands, mcm_cands = _changing_candidates(inst)
    return _first_stable("changing-agents", inst, q, weak_cands if q.base == "weak" else mcm_cands)


# ---------------------------------------------------------------------------
# dispatcher


def _tau_at_most(inst: MultilayerInstance, k: int) -> bool:
    """tau <= k.  Same-type agents share ``(len(row), sum(row.values()))``
    (see ``MultilayerInstance.agent_types``), so more than k distinct ones
    mean tau > k: the scan stops at the (k+1)-th, and only a scan that
    cannot reject computes tau."""
    seen = set()
    for row in inst.approval_masks:
        seen.add((len(row), sum(row.values())))
        if len(seen) > k:
            return False
    return agent_types(inst).tau <= k


class Solver(_Value):
    """One dispatcher route, named by the ``SolveResult.algorithm`` it emits.

    ``applies(inst, q, alpha)`` is the route's query shape, structural
    precondition and cost gate; it tests the query, then alpha, and only
    then the instance's structure (``is_symmetric``, ``agent_types``,
    ``changing_agents``, each computed at most once per instance).
    ``run(inst, q, alpha, budget)`` decides the query; a route with an
    exhaustive step raises ``BudgetExceeded`` past the budget.
    """

    name: str
    applies: Callable[[MultilayerInstance, StabilityQuery, int], bool]
    run: Callable[[MultilayerInstance, StabilityQuery, int, OracleBudget], SolveResult]


# Every route, in order of precedence.  Each ``run`` looks its solver up by
# module-level name at call time, so rebinding a solver reaches dispatch too.
SOLVERS = (
    Solver("weak-lowalpha",
           lambda inst, q, a: q.base == "weak" and q.agg in ("pair", "individual") and 2 * a <= inst.ell + 1,
           lambda inst, q, a, b: SolveResult.found("weak-lowalpha", solve_weak_lowalpha(inst, a))),
    Solver("super-global",
           lambda inst, q, a: q.base == "super" and q.agg in ("all", "global"),
           lambda inst, q, a, b: solve_super_global(inst, a)),
    Solver("strong-alllayers-symmetric",
           lambda inst, q, a: q.base == "strong" and q.agg in ("all", "global") and a == inst.ell and is_symmetric(inst),
           lambda inst, q, a, b: SolveResult.found("strong-alllayers-symmetric", solve_strong_alllayers_symmetric(inst),
                                                   frozenset(range(inst.ell)))),
    Solver("strong-global-symmetric",
           lambda inst, q, a: q.base == "strong" and q.agg in ("all", "global")
           and comb(inst.ell, a) <= STRONG_GLOBAL_SUBSETS_MAX and is_symmetric(inst),
           lambda inst, q, a, b: solve_strong_global_symmetric(inst, a)),
    Solver("super-individual-highalpha",
           lambda inst, q, a: q.base == "super" and q.agg == "individual" and 2 * a > inst.ell and is_symmetric(inst),
           lambda inst, q, a, b: solve_super_individual_highalpha(inst, a)),
    Solver("super-pair-veryhighalpha",
           lambda inst, q, a: q.base == "super" and q.agg == "pair" and 3 * a > 2 * inst.ell and is_symmetric(inst),
           lambda inst, q, a, b: solve_super_pair_veryhighalpha(inst, a)),
    Solver("super-pair-fpt",
           lambda inst, q, a: q.base == "super" and q.agg == "pair" and 2 * a > inst.ell and is_symmetric(inst),
           lambda inst, q, a, b: solve_super_pair_fpt(inst, a, b)),
    Solver("agent-types",
           lambda inst, q, a: _tau_at_most(inst, TAU_DISPATCH_MAX),
           lambda inst, q, a, b: solve_by_types(inst, q)),
    Solver("changing-agents",
           lambda inst, q, a: is_symmetric(inst) and changing_agents(inst).beta <= BETA_DISPATCH_MAX,
           lambda inst, q, a, b: solve_by_changing(inst, q)),
)


def dispatch(
    inst: MultilayerInstance,
    q: StabilityQuery,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> SolveResult:
    """Route a query to the first ``SOLVERS`` entry that applies, else to the
    oracle within budget.  Anything else is unknown, never a guessed
    not-exists, and its detail names the gates that blocked it.  A route
    or oracle search stopped by the budget is unknown too, tagged with the
    route's name.

    The gates and an unknown's detail read the instance's own structural
    analysis, so the queries on one instance object compute each part of
    it at most once.  Every ``exists`` witness passes ``check`` before it
    is returned, else ``UncertifiedWitness`` is raised; a route's own
    verdict for the same notion is reused, not repeated, and returned with
    ``query`` set to q.  All-layers is the same notion as global(ell), as
    ``check`` reads it.
    """
    alpha = q.effective_alpha(inst.ell)
    for solver in SOLVERS:
        if solver.applies(inst, q, alpha):
            name, run = solver.name, solver.run
            break
    else:
        if inst.n > budget.max_agents:
            changing = f"beta={changing_agents(inst).beta} > {BETA_DISPATCH_MAX}" if is_symmetric(inst) else "asymmetric"
            detail = (f"no complete algorithm applies: tau > {TAU_DISPATCH_MAX}, "
                      f"{changing}, n={inst.n} > oracle budget {budget.max_agents}")
            return SolveResult("unknown", "none", detail=detail)
        name, run = "oracle", lambda inst, q, a, b: SolveResult.found("oracle", oracle_solve(inst, q, b))
    try:
        res = run(inst, q, alpha, budget)
    except BudgetExceeded as exc:
        return SolveResult("unknown", name, detail=f"{name} budget exceeded: {exc}")
    if not res.exists:
        return res
    verdict = res.verdict
    if verdict is None or _as_global(verdict.query, inst.ell) != _as_global(q, inst.ell):
        verdict = check(inst, res.matching, q)
    elif verdict.query != q:
        verdict = Verdict(verdict.stable, q, witness_layers=verdict.witness_layers)
    if not verdict.stable:
        raise UncertifiedWitness(
            f"{res.algorithm} returned a matching that is not {q.describe()} stable"
        )
    # only the oracle leaves global witness layers unset; pair and
    # individual verdicts name none, so other routes keep their own
    layers = verdict.witness_layers if res.witness_layers is None else res.witness_layers
    return SolveResult(res.status, res.algorithm, res.matching, layers, res.detail, verdict)


def _as_global(q: StabilityQuery, ell: int) -> StabilityQuery:
    """An all-layers query read as global(ell); any other query as it is."""
    return StabilityQuery(q.base, "global", ell) if q.agg == "all" else q
