"""Every positive algorithm for the eleven stability notions, plus a dispatcher.

Complete solvers return a definitive exists / not-exists.  ``SOLVERS`` is the
one table of routes and their gates: the dispatcher sends each query to the
first route that applies and falls back to the exhaustive oracle at small
scale, reporting unknown rather than guessing.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import or_
from typing import Callable, Iterator

from .blocking import Matching, stable_in_layer
from .errors import AlphaOutOfRange, AlphaTooHigh, AlphaTooLow, BadParameters, BudgetExceeded, NotSymmetric, UncertifiedWitness
from .graphalg import SimpleGraph, has_perfect_matching, maximal_matching, maximum_matching, saturating_matching
from .model import MultilayerInstance, _Value, agent_types, changing_agents, is_symmetric, mutual_pairs
from .oracle import DEFAULT_BUDGET, OracleBudget, _iter_partner_arrays, _search, oracle_solve
from .verify import StabilityQuery, Verdict, check

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
    "InstanceFacts",
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

    ``verdict`` is the ``check`` verdict that certified the matching: set by
    the routes that check their own candidate, and by ``dispatch`` on every
    ``exists`` it returns.
    """

    status: str
    algorithm: str
    matching: Matching | None
    witness_layers: frozenset[int] | None
    detail: str | None
    verdict: Verdict | None

    _fields = ("status", "algorithm", "matching", "witness_layers", "detail", "verdict")

    def __init__(
        self,
        status: str,
        algorithm: str,
        matching: Matching | None = None,
        witness_layers: frozenset[int] | None = None,
        detail: str | None = None,
        verdict: Verdict | None = None,
    ):
        self.__dict__.update(status=status, algorithm=algorithm, matching=matching,
                             witness_layers=witness_layers, detail=detail, verdict=verdict)

    @classmethod
    def found(cls, alg, m, layers=None) -> "SolveResult":
        return cls("exists", alg, m, layers)

    @classmethod
    def certified(cls, alg, m, verdict: Verdict) -> "SolveResult":
        return cls("exists", alg, m, verdict.witness_layers, verdict=verdict)

    @classmethod
    def none(cls, alg) -> "SolveResult":
        return cls("not-exists", alg)

    @classmethod
    def undecided(cls, alg, detail) -> "SolveResult":
        return cls("unknown", alg, detail=detail)

    @property
    def exists(self) -> bool:
        return self.status == "exists"


def _require_symmetric(inst: MultilayerInstance, what: str) -> None:
    if not is_symmetric(inst):
        raise NotSymmetric(f"{what} requires symmetric approvals")


def _check_alpha(alpha: int, ell: int) -> None:
    if not 1 <= alpha <= ell:
        raise AlphaOutOfRange(f"alpha={alpha} outside [1, {ell}]")


def threshold_graph(inst: MultilayerInstance, k: int) -> SimpleGraph:
    """Graph with an edge {a, b} where a approves b in at least ``k`` layers
    and b approves a in at least ``k`` layers.

    On symmetric instances this is the graph of pairs that approve each
    other in at least ``k`` layers.
    """
    if k < 1:
        raise BadParameters(f"threshold k={k} must be at least 1")
    masks = inst.approval_masks
    edges = [
        (a, b)
        for a, ma in enumerate(masks)
        for b, ab in ma.items()
        if a < b and ab.bit_count() >= k and masks[b].get(a, 0).bit_count() >= k
    ]
    return SimpleGraph.from_edges(inst.n, edges)


# ---------------------------------------------------------------------------
# weak stability, low degree (always solvable)


def solve_weak_lowalpha(inst: MultilayerInstance, alpha: int) -> Matching:
    """A matching that is alpha-individually (hence alpha-pair) weakly stable.

    Exists for every instance when alpha <= ceil(ell/2): take a maximal
    matching of the graph whose edges are the pairs approving each other in
    at least ell - alpha + 1 layers (per direction).
    """
    _check_alpha(alpha, inst.ell)
    if alpha > (inst.ell + 1) // 2:
        raise AlphaTooHigh(
            f"alpha={alpha} exceeds ceil(ell/2)={(inst.ell + 1) // 2}"
        )
    g = threshold_graph(inst, inst.ell - alpha + 1)
    return maximal_matching(g)


# ---------------------------------------------------------------------------
# strong stability, symmetric approvals


def _strong_matching(inst: MultilayerInstance, sel: int) -> Matching | None:
    """A matching strongly stable in every layer of the bit mask ``sel``, or
    None; approvals must be symmetric.

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
    """
    masks = inst.approval_masks
    # per agent, the layers where it approves somebody
    busy = [reduce(or_, ma.values(), 0) for ma in masks]
    silent = [a for a in range(inst.n) if not busy[a] & sel]
    rest = [a for a in range(inst.n) if busy[a] & sel]
    index = {a: i for i, a in enumerate(rest)}
    # approvals are symmetric, so a's mask towards b is the pair's mutual
    # mask; a selected layer without it needs both a and b to approve nobody
    edges = [
        (index[a], index[b])
        for a in rest
        for b, ab in masks[a].items()
        if a < b and b in index and not sel & ~ab & (busy[a] | busy[b])
    ]
    m = has_perfect_matching(SimpleGraph.from_edges(len(rest), edges))
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
    return _strong_matching(inst, (1 << inst.ell) - 1)


def solve_strong_global_symmetric(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """Try every size-alpha layer subset through the all-layers algorithm."""
    _require_symmetric(inst, "solve_strong_global_symmetric")
    _check_alpha(alpha, inst.ell)
    tag = "strong-global-symmetric"
    for subset in itertools.combinations(range(inst.ell), alpha):
        m = _strong_matching(inst, sum(1 << i for i in subset))
        if m is not None:
            return SolveResult.found(tag, m, frozenset(subset))
    return SolveResult.none(tag)


# ---------------------------------------------------------------------------
# super stability


def _layer_candidates(n: int, forced: list[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """The (at most three) matchings, as sorted pair tuples, that can be
    super stable in a layer with the lexicographic mutual pairs ``forced``.

    Mutual pairs are forced; an agent on two mutual pairs kills the layer;
    after removing forced agents, more than three leftovers kill it too,
    otherwise each way to pair up the leftovers is one candidate.
    """
    seen: set[int] = set()
    for a, b in forced:
        if a in seen or b in seen:
            return []
        seen.add(a)
        seen.add(b)
    if n - len(seen) >= 4:
        return []
    rest = [a for a in range(n) if a not in seen]
    if len(rest) <= 1:
        return [tuple(forced)]
    return [tuple(sorted(forced + [pair])) for pair in itertools.combinations(rest, 2)]


def layer_superstable_set(inst: MultilayerInstance, layer: int) -> list[Matching]:
    """All (at most three) super stable matchings of a single layer: the
    candidates of ``_layer_candidates`` that ``stable_in_layer`` accepts."""
    return [
        m
        for m in map(Matching, _layer_candidates(inst.n, inst.mutual_edges(layer)))
        if stable_in_layer(inst, m, layer, "super")
    ]


def solve_super_global(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """Decide alpha-global super stability from the per-layer candidates.

    A matching super stable in a layer is one of that layer's at most three
    candidates (``_layer_candidates``), so one super stable in at least
    alpha layers is listed by at least alpha layers.  One pass over the
    masks finds every layer's mutual pairs; each distinct candidate listed
    often enough gets one global ``check``, in candidate order, and the
    first that passes is returned with its verdict.  Complete for arbitrary
    (also asymmetric) approvals.
    """
    _check_alpha(alpha, inst.ell)
    tag = "super-global"
    listed: dict[tuple[tuple[int, int], ...], int] = {}  # candidate -> layers listing it
    for forced in mutual_pairs(inst, (1 << inst.ell) - 1):
        for pairs in _layer_candidates(inst.n, forced):
            listed[pairs] = listed.get(pairs, 0) + 1
    q = StabilityQuery("super", "global", alpha)
    for pairs in sorted(pairs for pairs, k in listed.items() if k >= alpha):
        m = Matching(pairs)
        verdict = check(inst, m, q)
        if verdict.stable:
            return SolveResult.certified(tag, m, verdict)
    return SolveResult.none(tag)


def _solve_super_threshold(inst: MultilayerInstance, q: StabilityQuery, tag: str, most: int,
                           budget: OracleBudget = DEFAULT_BUDGET) -> SolveResult:
    """Super stability for a pair or individual query with alpha > ell/2,
    completed from the forced edges of the (ell - alpha + 1) threshold graph.

    Every stable matching contains those edges, so an agent with threshold
    degree two rules one out, and so do more than ``most`` isolated agents.
    One pruned search (``oracle._search``) with the forced pairs fixed
    returns the first completion, in canonical order over the isolated
    agents, on which no pair with an isolated agent breaks the query.  It
    never evaluates a pair of two forced agents; one ``check`` of its
    result covers them.  A failure there means no completion passes: such
    a pair has the same happy masks, so the same pair or individual
    verdict, in every completion.  The isolated agents count against
    ``budget.max_agents``.
    """
    forced = threshold_graph(inst, inst.ell - q.alpha + 1).sorted_edges()
    covered = {v for pair in forced for v in pair}
    if len(covered) < 2 * len(forced) or inst.n - len(covered) > most:
        return SolveResult.none(tag)
    m = _search(inst, q, budget, forced)
    if m is not None and (verdict := check(inst, m, q)).stable:
        return SolveResult.certified(tag, m, verdict)
    return SolveResult.none(tag)


def solve_super_individual_highalpha(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """alpha-individual super stability for symmetric approvals, alpha > ell/2:
    at most two isolated agents beyond the forced threshold edges."""
    _require_symmetric(inst, "solve_super_individual_highalpha")
    _check_alpha(alpha, inst.ell)
    if 2 * alpha <= inst.ell:
        raise AlphaTooLow(f"alpha={alpha} is not above ell/2={inst.ell / 2}")
    q = StabilityQuery("super", "individual", alpha)
    return _solve_super_threshold(inst, q, "super-individual-highalpha", 2)


def solve_super_pair_veryhighalpha(inst: MultilayerInstance, alpha: int) -> SolveResult:
    """alpha-pair super stability for symmetric approvals, alpha > 2*ell/3:
    at most two isolated agents beyond the forced threshold edges."""
    _require_symmetric(inst, "solve_super_pair_veryhighalpha")
    _check_alpha(alpha, inst.ell)
    if 3 * alpha <= 2 * inst.ell:
        raise AlphaTooLow(f"alpha={alpha} is not above 2*ell/3={2 * inst.ell / 3}")
    q = StabilityQuery("super", "pair", alpha)
    return _solve_super_threshold(inst, q, "super-pair-veryhighalpha", 2)


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
    _require_symmetric(inst, "solve_super_pair_fpt")
    _check_alpha(alpha, inst.ell)
    if 2 * alpha <= inst.ell:
        raise AlphaTooLow(f"alpha={alpha} is not above ell/2={inst.ell / 2}")
    q = StabilityQuery("super", "pair", alpha)
    return _solve_super_threshold(inst, q, "super-pair-fpt", 2 ** (inst.ell + 1), budget)


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


def _type_approval_table(inst: MultilayerInstance, blocks):
    """type-level approval: the layers in which (an agent of) type t
    approves type u, as a mask.

    Within a singleton type the relation has no witness pair; those entries
    stay None and are never consulted for feasible usage patterns.
    """
    masks = inst.approval_masks
    table = {}
    for t, bt in enumerate(blocks):
        for u, bu in enumerate(blocks):
            if t == u and len(bt) < 2:
                table[(t, u)] = None
                continue
            b = bu[0] if u != t else bt[1]
            table[(t, u)] = masks[bt[0]].get(b, 0)
    return table


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
            if t == u:
                remaining[t] -= 2 * c
            else:
                remaining[t] -= c
                remaining[u] -= c
            dead = (last_touch[t] == idx and remaining[t] != 0) or (
                last_touch[u] == idx and remaining[u] != 0
            )
            if not dead:
                rec(idx + 1)
            if t == u:
                remaining[t] += 2 * c
            else:
                remaining[t] += c
                remaining[u] += c
        counts[idx] = 0

    rec(0)
    return out


@lru_cache(maxsize=64)
def _types_tables(inst: MultilayerInstance):
    """Per usage pattern: the reduced two-agents-per-profile instance and a
    witness matching of the (dummy-padded) instance.

    A pattern records, per type pair, whether it is matched zero times, once,
    or at least twice; stability of a compatible perfect matching depends
    only on that signature, so one reduced check per pattern decides all of
    them.  Returns the entries, in signature order, as a ``_Lazy`` sequence
    (the types and patterns are found on the first pull, each entry is
    built when first reached), and whether a dummy agent pads odd n.
    """
    return _Lazy(lambda: _types_entries(inst)), inst.n % 2 == 1


def _types_entries(inst: MultilayerInstance):
    """The entries of ``_types_tables``, one pattern at a time."""
    padded = inst
    dummy = inst.n % 2 == 1
    if dummy:
        padded = MultilayerInstance(inst.n + 1, inst.ell, inst.approval_masks + ({},))
    blocks = agent_types(padded).blocks
    table = _type_approval_table(padded, blocks)
    sizes = [len(b) for b in blocks]
    edges = [
        (t, u) for t in range(len(blocks)) for u in range(t, len(blocks))
    ]
    by_signature: dict[tuple[int, ...], tuple[int, ...]] = {}
    for usage in _usage_vectors(sizes, edges):
        sig = tuple(min(c, 2) for c in usage)
        by_signature.setdefault(sig, usage)
    for sig in sorted(by_signature):
        usage = by_signature[sig]
        # reduced instance: one matched agent pair per profile copy
        profiles = []  # first-component type per reduced agent
        j_pairs = []
        for idx, (t, u) in enumerate(edges):
            for _ in range(sig[idx]):
                j_pairs.append((len(profiles), len(profiles) + 1))
                profiles.append(t)
                profiles.append(u)
        j_masks = tuple(
            {
                y: mask
                for y, py in enumerate(profiles)
                if y != x and (mask := table[(px, py)])
            }
            for x, px in enumerate(profiles)
        )
        j_inst = MultilayerInstance(len(profiles), inst.ell, j_masks)
        j_match = Matching.from_pairs(j_pairs)
        # witness: hand out concrete agents per block, edge by edge
        queues = [list(b) for b in blocks]
        pairs = []
        for idx, (t, u) in enumerate(edges):
            for _ in range(usage[idx]):
                if t == u:
                    pairs.append((queues[t].pop(0), queues[t].pop(0)))
                else:
                    pairs.append((queues[t].pop(0), queues[u].pop(0)))
        witness = Matching.from_pairs(pairs)
        yield j_inst, j_match, witness


def solve_by_types(inst: MultilayerInstance, q: StabilityQuery) -> SolveResult:
    """Complete decision for any query, exponential only in the number of
    agent types.

    Iterates usage patterns of type pairs (odd n padded with a dummy agent
    approving and approved by nobody); a pattern is accepted when its reduced
    instance passes the checker, and any accepted pattern yields a concrete
    stable matching.  The patterns are taken in ``_types_tables`` order and
    the walk stops at the first stable witness, so only the entries up to it
    are built; a later query on the same instance reuses them.
    """
    q.effective_alpha(inst.ell)
    tag = "agent-types"
    entries, dummy = _types_tables(inst)
    for j_inst, j_match, witness in entries:
        if not check(j_inst, j_match, q).stable:
            continue
        m = witness
        if dummy:
            m = Matching.from_pairs(
                (a, b) for a, b in witness.pairs if b != inst.n
            )
        verdict = check(inst, m, q)
        if verdict.stable:
            return SolveResult.certified(tag, m, verdict)
    return SolveResult.none(tag)


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

    Checks the query's candidate family of ``_changing_candidates`` in order
    and stops at the first stable one, so an ``exists`` builds only the
    candidates up to its witness; a later query on the same instance
    resumes from the stored ones.
    """
    _require_symmetric(inst, "solve_by_changing")
    q.effective_alpha(inst.ell)
    tag = "changing-agents"
    weak_cands, mcm_cands = _changing_candidates(inst)
    for cand in weak_cands if q.base == "weak" else mcm_cands:
        verdict = check(inst, cand, q)
        if verdict.stable:
            return SolveResult.certified(tag, cand, verdict)
    return SolveResult.none(tag)


# ---------------------------------------------------------------------------
# dispatcher


class InstanceFacts:
    """The structural analysis the dispatcher gates read, each part computed
    on first use and at most once per instance.

    The agent-types gate asks ``tau_at_most``, which rejects most instances
    from the mask rows alone; the exact ``tau`` (``agent_types``) is
    computed only when that scan cannot reject, or for the detail of an
    ``unknown``.
    """

    def __init__(self, inst: MultilayerInstance):
        self.inst = inst
        self.ell = inst.ell

    @cached_property
    def symmetric(self) -> bool:
        return is_symmetric(self.inst)

    @cached_property
    def tau(self) -> int:
        return agent_types(self.inst).tau

    def tau_at_most(self, k: int) -> bool:
        """tau <= k.  Same-type agents share ``(len(row), sum(row.values()))``
        (see ``agent_types``), so more than k distinct ones mean tau > k: the
        scan stops at the (k+1)-th, and only a scan that cannot reject
        computes tau."""
        seen = set()
        for row in self.inst.approval_masks:
            seen.add((len(row), sum(row.values())))
            if len(seen) > k:
                return False
        return self.tau <= k

    @cached_property
    def beta(self) -> int:
        return changing_agents(self.inst).beta


class Solver(_Value):
    """One dispatcher route, named by the ``SolveResult.algorithm`` it emits.

    ``applies(facts, q, alpha)`` is the route's query shape, structural
    precondition and cost gate; it tests the query, then alpha, and only then
    ``facts``.  ``run(inst, q, alpha, budget)`` decides the query; a route
    with an exhaustive step raises ``BudgetExceeded`` past the budget.
    """

    name: str
    applies: Callable[[InstanceFacts, StabilityQuery, int], bool]
    run: Callable[[MultilayerInstance, StabilityQuery, int, OracleBudget], SolveResult]

    _fields = ("name", "applies", "run")

    def __init__(
        self,
        name: str,
        applies: Callable[[InstanceFacts, StabilityQuery, int], bool],
        run: Callable[[MultilayerInstance, StabilityQuery, int, OracleBudget], SolveResult],
    ):
        self.__dict__.update(name=name, applies=applies, run=run)


def _run_strong_alllayers(inst: MultilayerInstance, q, alpha, budget) -> SolveResult:
    m = solve_strong_alllayers_symmetric(inst)
    if m is None:
        return SolveResult.none("strong-alllayers-symmetric")
    return SolveResult.found("strong-alllayers-symmetric", m, frozenset(range(inst.ell)))


def _run_oracle(inst: MultilayerInstance, q, alpha, budget) -> SolveResult:
    m = oracle_solve(inst, q, budget)
    return SolveResult.none("oracle") if m is None else SolveResult.found("oracle", m)


# Every route, in order of precedence.  Each ``run`` looks its solver up by
# module-level name at call time, so rebinding a solver reaches dispatch too.
SOLVERS = (
    Solver("weak-lowalpha",
           lambda f, q, a: q.base == "weak" and q.agg in ("pair", "individual") and 2 * a <= f.ell + 1,
           lambda inst, q, a, b: SolveResult.found("weak-lowalpha", solve_weak_lowalpha(inst, a))),
    Solver("super-global",
           lambda f, q, a: q.base == "super" and q.agg in ("all", "global"),
           lambda inst, q, a, b: solve_super_global(inst, a)),
    Solver("strong-alllayers-symmetric",
           lambda f, q, a: q.base == "strong" and q.agg in ("all", "global") and a == f.ell and f.symmetric,
           _run_strong_alllayers),
    Solver("strong-global-symmetric",
           lambda f, q, a: q.base == "strong" and q.agg in ("all", "global")
           and comb(f.ell, a) <= STRONG_GLOBAL_SUBSETS_MAX and f.symmetric,
           lambda inst, q, a, b: solve_strong_global_symmetric(inst, a)),
    Solver("super-individual-highalpha",
           lambda f, q, a: q.base == "super" and q.agg == "individual" and 2 * a > f.ell and f.symmetric,
           lambda inst, q, a, b: solve_super_individual_highalpha(inst, a)),
    Solver("super-pair-veryhighalpha",
           lambda f, q, a: q.base == "super" and q.agg == "pair" and 3 * a > 2 * f.ell and f.symmetric,
           lambda inst, q, a, b: solve_super_pair_veryhighalpha(inst, a)),
    Solver("super-pair-fpt",
           lambda f, q, a: q.base == "super" and q.agg == "pair" and 2 * a > f.ell and f.symmetric,
           lambda inst, q, a, b: solve_super_pair_fpt(inst, a, b)),
    Solver("agent-types",
           lambda f, q, a: f.tau_at_most(TAU_DISPATCH_MAX),
           lambda inst, q, a, b: solve_by_types(inst, q)),
    Solver("changing-agents",
           lambda f, q, a: f.symmetric and f.beta <= BETA_DISPATCH_MAX,
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

    Every ``exists`` witness passes ``check`` before it is returned, else
    ``UncertifiedWitness`` is raised; a route's own verdict for the same
    notion is reused, not repeated, and returned with ``query`` set to q.
    All-layers is the same notion as global(ell), as ``check`` reads it.
    """
    alpha = q.effective_alpha(inst.ell)
    facts = InstanceFacts(inst)
    for solver in SOLVERS:
        if solver.applies(facts, q, alpha):
            name, run = solver.name, solver.run
            break
    else:
        if inst.n > budget.max_agents:
            changing = f"beta={facts.beta} > {BETA_DISPATCH_MAX}" if facts.symmetric else "asymmetric"
            return SolveResult.undecided(
                "none",
                f"no complete algorithm applies: tau={facts.tau} > {TAU_DISPATCH_MAX}, "
                f"{changing}, n={inst.n} > oracle budget {budget.max_agents}",
            )
        name, run = "oracle", _run_oracle
    try:
        res = run(inst, q, alpha, budget)
    except BudgetExceeded as exc:
        return SolveResult.undecided(name, f"{name} budget exceeded: {exc}")
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
