"""Seeded corpora and reference implementations the tests share.

Random instance and matching generators, the oracle's reading of an
``existence_table``, brute-force references (maximum matching, layer
super-stability, the symmetric per-layer characterizations, the super
threshold routes' enumerate-and-check completion, SAT and degree
partition), and the source-against-target equivalence checks of the three
reductions.  None of
it ships in ``mlsm``: the package's own routes are tested against these.
"""

from __future__ import annotations

import itertools
import random

from mlsm.blocking import Matching, is_happy, stable_in_layer
from mlsm.errors import NotSymmetric
from mlsm.graphalg import SimpleGraph
from mlsm.model import MultilayerInstance, build_instance, is_symmetric
from mlsm.oracle import _iter_partner_arrays, enumerate_matchings, oracle_solve
from mlsm.reductions import (
    CnfFormula,
    gen_random,
    independent_set_brute_force,
    reduce_degreepartition_to_pair_super,
    reduce_is_to_global_strong,
    reduce_sat_to_alllayers_weak,
)
from mlsm.solvers import solve_strong_global_symmetric
from mlsm.verify import StabilityQuery, check

# ---------------------------------------------------------------------------
# generators


def random_instance(
    rng: random.Random, n_max: int = 8, ell_max: int = 4
) -> MultilayerInstance:
    """Mixed corpus: symmetric / asymmetric / bipartite, varied density."""
    n = rng.randint(2, n_max)
    ell = rng.randint(1, ell_max)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    symmetric = rng.random() < 0.5
    bipartite = rng.random() < 0.3
    return gen_random(n, ell, p, symmetric, bipartite, seed=rng.getrandbits(32))


def random_matching(rng: random.Random, n: int) -> Matching:
    agents = list(range(n))
    rng.shuffle(agents)
    pairs = []
    while len(agents) >= 2:
        if rng.random() < 0.75:
            pairs.append((agents.pop(), agents.pop()))
        else:
            agents.pop()
    return Matching.from_pairs(pairs)


def symmetric_lowbeta_instance(
    rng: random.Random, n: int, ell: int, beta: int
) -> MultilayerInstance:
    """Symmetric instance whose layers differ only inside a set of at most
    ``beta`` agents (so at most ``beta`` agents change across layers)."""
    first: list[set[int]] = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                first[a].add(b)
                first[b].add(a)
    drift = sorted(rng.sample(range(n), min(beta, n)))
    layers = [first]
    for _ in range(ell - 1):
        nxt = [set(s) for s in first]
        for a, b in itertools.combinations(drift, 2):
            if rng.random() < 0.4:
                nxt[a].add(b)
                nxt[b].add(a)
            else:
                nxt[a].discard(b)
                nxt[b].discard(a)
        layers.append(nxt)
    return build_instance(n, ell, layers)


def lowtau_instance(
    rng: random.Random, n: int, ell: int, tau: int
) -> MultilayerInstance:
    """Instance whose agents fall into at most ``tau`` behavior classes."""
    kinds = [rng.randrange(min(tau, n)) for _ in range(n)]
    approve = {
        (t, u): [rng.random() < 0.45 for _ in range(ell)]
        for t in range(tau)
        for u in range(tau)
    }
    layers = []
    for i in range(ell):
        layers.append(
            [
                {b for b in range(n) if b != a and approve[(kinds[a], kinds[b])][i]}
                for a in range(n)
            ]
        )
    return build_instance(n, ell, layers)


# ---------------------------------------------------------------------------
# references


def exists_by_oracle(table, q: StabilityQuery, ell: int) -> bool:
    """Does ``existence_table``'s row for q's base admit a stable matching?"""
    glob, pair_min, ind_min = table[q.base]
    alpha = q.effective_alpha(ell)
    if q.agg in ("all", "global"):
        return glob >= alpha
    if q.agg == "pair":
        return pair_min >= alpha
    return ind_min >= alpha


def super_threshold_reference(inst: MultilayerInstance, q: StabilityQuery, most: int) -> Matching | None:
    """The super threshold routes as first written: the first stable
    completion of the forced pairs, or None.

    Every stable matching contains each pair that approves each other in at
    least ell - alpha + 1 layers.  With no agent on two such pairs and at
    most ``most`` agents on none, every matching of those isolated agents,
    in canonical order, completes the forced pairs and is checked.
    """
    k = inst.ell - q.alpha + 1
    lay = inst.approvals

    def approves(a: int, b: int) -> int:
        return sum(b in layer[a] for layer in lay)

    forced = [
        (a, b)
        for a in range(inst.n)
        for b in range(a + 1, inst.n)
        if approves(a, b) >= k and approves(b, a) >= k
    ]
    covered = [v for pair in forced for v in pair]
    isolated = [v for v in range(inst.n) if v not in covered]
    if len(covered) != len(set(covered)) or len(isolated) > most:
        return None
    for partner in _iter_partner_arrays(len(isolated)):
        extra = [(isolated[i], isolated[j]) for i, j in enumerate(partner) if j > i]
        m = Matching.from_pairs(forced + extra)
        if check(inst, m, q).stable:
            return m
    return None


def brute_force_max_matching(g: SimpleGraph) -> int:
    edges = g.sorted_edges()

    def best(idx: int, used: set[int]) -> int:
        if idx == len(edges):
            return 0
        u, v = edges[idx]
        result = best(idx + 1, used)
        if u not in used and v not in used:
            used |= {u, v}
            result = max(result, 1 + best(idx + 1, used))
            used -= {u, v}
        return result

    return best(0, set())


def oracle_layer_superstable(inst: MultilayerInstance, layer: int) -> list[Matching]:
    """All matchings that are super stable in one layer."""
    return [
        m
        for m in enumerate_matchings(inst.n)
        if stable_in_layer(inst, m, layer, "super")
    ]


def weak_char_check(inst: MultilayerInstance, m: Matching, layer: int) -> bool:
    """Symmetric-instance characterization: weakly stable iff the matching
    restricted to the layer's mutual edges is maximal there, i.e. every
    mutual edge has a happy endpoint."""
    if not is_symmetric(inst):
        raise NotSymmetric("weak characterization requires symmetric approvals")
    for a, b in inst.mutual_edges(layer):
        if not is_happy(inst, m, a, layer) and not is_happy(inst, m, b, layer):
            return False
    return True


def strong_char_check(inst: MultilayerInstance, m: Matching, layer: int) -> bool:
    """Symmetric-instance characterization: strongly stable iff every agent
    with a neighbor in the layer is matched along a mutual edge."""
    if not is_symmetric(inst):
        raise NotSymmetric("strong characterization requires symmetric approvals")
    bit = 1 << layer
    for a, row in enumerate(inst.approval_masks):
        if any(mask & bit for mask in row.values()) and not is_happy(inst, m, a, layer):
            return False
    return True


# ---------------------------------------------------------------------------
# reduction equivalence


def sat_brute_force(formula: CnfFormula) -> set[int] | None:
    """A satisfying assignment as the set of true variables, or None."""
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        true_vars = {v + 1 for v, bit in enumerate(bits) if bit}
        if all(
            any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
            for clause in formula.clauses
        ):
            return true_vars
    return None


def degree_partition_brute_force(
    g: SimpleGraph,
) -> tuple[set[int], set[int]] | None:
    """A bipartition (possibly with an empty side) such that both induced
    subgraphs are 1-regular, or None."""

    def degrees_ok(part: set[int]) -> bool:
        return all(
            sum(1 for u, v in g.edges if u in part and v in part and w in (u, v)) == 1
            for w in part
        )

    for mask in range(1 << g.n):
        first = {v for v in range(g.n) if mask >> v & 1}
        second = set(range(g.n)) - first
        if degrees_ok(first) and degrees_ok(second):
            return first, second
    return None


def sat_corpus() -> list[CnfFormula]:
    """Every formula over three variables whose clauses use each variable
    exactly once, within the occurrence bounds, plus a repeated-literal
    family that reaches unsatisfiable sources."""
    pool = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    out = []
    for size in range(0, 5):
        for combo in itertools.combinations(pool, size):
            formula = CnfFormula(3, tuple(combo))
            if all(max(formula.occurrences(v)) <= 2 for v in (1, 2, 3)):
                out.append(formula)
    contradiction = ((1, 2, 2), (1, -2, -2), (-1, 3, 3), (-1, -3, -3))
    for size in range(1, 5):
        for combo in itertools.combinations(contradiction, size):
            out.append(CnfFormula(3, tuple(combo)))
    return out


def sat_equivalent(formula: CnfFormula) -> bool:
    """Source answer vs target verdict.

    Within the oracle budget the target is decided exhaustively.  Beyond it,
    every assignment is pushed through the certificate: satisfying ones must
    produce a stable matching, falsifying ones an unstable one, so the
    certificate route reproduces the brute-force answer exactly.
    """
    gen = reduce_sat_to_alllayers_weak(formula)
    assignment = sat_brute_force(formula)
    if gen.instance.n <= 12:
        found = oracle_solve(gen.instance, gen.query)
        if (found is not None) != (assignment is not None):
            return False
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        true_vars = {v + 1 for v, bit in enumerate(bits) if bit}
        satisfied = all(
            any((lit > 0) == (abs(lit) in true_vars) for lit in clause)
            for clause in formula.clauses
        )
        m = gen.forward(true_vars)
        if check(gen.instance, m, gen.query).stable != satisfied:
            return False
        if satisfied and gen.backward(m) != true_vars:
            return False
    return True


def all_graphs(max_n: int):
    """Every labelled graph on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        all_edges = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            yield SimpleGraph.from_edges(n, edges)


def is_equivalent(g: SimpleGraph, k: int) -> bool:
    """Independent-set source vs the (complete) symmetric global-strong
    solver on the target, plus certificate round-trips."""
    gen = reduce_is_to_global_strong(g, k)
    chosen = independent_set_brute_force(g, k)
    result = solve_strong_global_symmetric(gen.instance, k)
    if (chosen is not None) != result.exists:
        return False
    if chosen is not None:
        m = gen.forward(chosen)
        if not check(gen.instance, m, gen.query).stable:
            return False
        if gen.backward(frozenset(chosen)) != chosen:
            return False
    return True


def _degpart_target_exists(gen, g: SimpleGraph) -> bool:
    """Decide the padded target exactly.

    Within the oracle budget, exhaustively.  Beyond it, along the forced
    structure of any stable matching: the isolated pair sticks together,
    every hub is matched to one of its two copies, and the leftover copies
    must pair along same-index base edges to be happy anywhere; the remaining
    candidates are checked directly.
    """
    inst = gen.instance
    if inst.n <= 12:
        return oracle_solve(inst, gen.query) is not None
    nv = g.n
    neighbors = {
        v: sorted(u for e in g.edges for u in e if v in e and u != v)
        for v in range(nv)
    }
    iso_pair = (inst.n - 2, inst.n - 1)
    for hub_mask in range(1 << nv):
        pairs = [iso_pair]
        free: list[int] = []
        for v in range(nv):
            if hub_mask >> v & 1:
                pairs.append((2 * v, 2 * nv + v))  # v1 with the hub
                free.append(2 * v + 1)
            else:
                pairs.append((2 * v + 1, 2 * nv + v))
                free.append(2 * v)
        allowed = {
            (i, j)
            for i, x in enumerate(free)
            for j, y in enumerate(free)
            if i < j and x % 2 == y % 2 and (y // 2) in neighbors[x // 2]
        }
        for partner in _iter_partner_arrays(len(free)):
            extra = []
            complete = True
            for i, j in enumerate(partner):
                if j == -1:
                    complete = False
                    break
                if j > i:
                    if (i, j) not in allowed:
                        complete = False
                        break
                    extra.append((free[i], free[j]))
            if not complete:
                continue
            m = Matching.from_pairs(pairs + extra)
            if check(inst, m, gen.query).stable:
                return True
    return False


def degpart_equivalent(g: SimpleGraph, ell: int, alpha: int) -> bool:
    gen = reduce_degreepartition_to_pair_super(g, ell, alpha)
    partition = degree_partition_brute_force(g)
    exists = _degpart_target_exists(gen, g)
    if (partition is not None) != exists:
        return False
    if partition is not None:
        m = gen.forward(partition)
        if not check(gen.instance, m, gen.query).stable:
            return False
        back_first, _ = gen.backward(m)
        if back_first != partition[0]:
            return False
    return True
