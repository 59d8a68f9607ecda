"""Instance generators: random instances and hardness constructions.

Each hardness construction ships a certificate mapping source-problem
solutions to stable matchings (and back where the construction supports it),
so desk-scale equivalence can be tested: the source answer must equal the
stable-matching verdict.  ``independent_set_brute_force`` is the one
source-problem brute-forcer kept here, because the benchmark workloads use
it too; the others live with the tests.

The gadgets for the remaining hardness proofs (Monotone 3-SAT to all-layers
strong, 3-SAT to pair strong, Minimum Maximal Matching to all-layers weak)
are intentionally not generated; one construction per stability family keeps
the corpus representative.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from .blocking import Matching
from .errors import (
    AlphaTooHigh,
    BadParameters,
    MalformedFormula,
    OddVertexCount,
)
from .graphalg import SimpleGraph
from .model import MultilayerInstance, build_instance
from .verify import StabilityQuery

__all__ = [
    "CnfFormula",
    "GeneratedInstance",
    "gen_random",
    "reduce_sat_to_alllayers_weak",
    "pad_global_weak",
    "copy_layers",
    "reduce_is_to_global_strong",
    "reduce_degreepartition_to_pair_super",
    "parse_dimacs",
    "parse_edge_list",
    "independent_set_brute_force",
]


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as DIMACS-style literal tuples (positive/negative var index + 1)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise MalformedFormula(f"literal {lit} out of range")

    def occurrences(self, var: int) -> tuple[int, int]:
        """(positive, negative) occurrence counts of a 1-based variable."""
        pos = sum(clause.count(var) for clause in self.clauses)
        neg = sum(clause.count(-var) for clause in self.clauses)
        return pos, neg


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated instance, the query it targets, and its certificate maps."""

    instance: MultilayerInstance
    query: StabilityQuery
    kind: str
    forward: Callable = field(compare=False)
    backward: Callable | None = field(compare=False, default=None)


def gen_random(
    n: int,
    ell: int,
    p: float,
    symmetric: bool = False,
    bipartite: bool = False,
    seed: int = 0,
) -> MultilayerInstance:
    """Reproducible random instance; the flags symmetrize approvals and
    restrict them to run between two equal halves of the agents."""
    if not 0.0 <= p <= 1.0:
        raise BadParameters(f"approval probability {p} outside [0, 1]")
    rng = random.Random(seed)
    side = [a < n // 2 for a in range(n)]
    layers = []
    for _ in range(ell):
        sets: list[set[int]] = [set() for _ in range(n)]
        for a in range(n):
            start = a + 1 if symmetric else 0
            for b in range(start, n):
                if a == b:
                    continue
                if bipartite and side[a] == side[b]:
                    continue
                if rng.random() < p:
                    sets[a].add(b)
                    if symmetric:
                        sets[b].add(a)
        layers.append(sets)
    return build_instance(n, ell, layers)


# ---------------------------------------------------------------------------
# SAT -> all-layers weak stability (two layers, symmetric, bipartite)


def _symmetrize(sets: list[set[int]]) -> None:
    for a, approved in enumerate(sets):
        for b in list(approved):
            sets[b].add(a)


def reduce_sat_to_alllayers_weak(formula: CnfFormula) -> GeneratedInstance:
    """Variable gadgets of four agents, clause gadgets of five; satisfiable
    exactly when an all-layers weakly stable matching exists.

    Requires exactly three literals per clause and at most two positive and
    two negative occurrences per variable.
    """
    for clause in formula.clauses:
        if len(clause) != 3:
            raise MalformedFormula(f"clause {clause} does not have three literals")
    for var in range(1, formula.num_vars + 1):
        pos, neg = formula.occurrences(var)
        if pos > 2 or neg > 2:
            raise MalformedFormula(
                f"variable {var} occurs {pos} times positively / {neg} negatively"
            )
    nv, clauses = formula.num_vars, formula.clauses
    names: list[str] = []
    for v in range(1, nv + 1):
        names += [f"a_x{v}", f"a_nx{v}", f"b+_x{v}", f"b-_x{v}"]
    for j in range(len(clauses)):
        names += [f"al1_c{j}", f"al2_c{j}", f"be1_c{j}", f"be2_c{j}", f"be3_c{j}"]
    index = {name: k for k, name in enumerate(names)}

    def a_of(lit: int) -> int:
        v = abs(lit)
        return index[f"a_x{v}"] if lit > 0 else index[f"a_nx{v}"]

    n = len(names)
    layer1: list[set[int]] = [set() for _ in range(n)]
    layer2: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, nv + 1):
        ax, anx = index[f"a_x{v}"], index[f"a_nx{v}"]
        bp, bn = index[f"b+_x{v}"], index[f"b-_x{v}"]
        layer1[ax].update((bp, bn))
        layer1[anx].update((bp, bn))
        layer2[ax].add(bp)
        layer2[anx].add(bp)
    for j, clause in enumerate(clauses):
        al1, al2 = index[f"al1_c{j}"], index[f"al2_c{j}"]
        betas = [index[f"be{i}_c{j}"] for i in (1, 2, 3)]
        for lay in (layer1, layer2):
            lay[al1].update((betas[0], betas[1]))
            lay[al2].update((betas[1], betas[2]))
        for i, lit in enumerate(clause):
            layer2[betas[i]].add(a_of(lit))
    _symmetrize(layer1)
    _symmetrize(layer2)
    inst = build_instance(n, 2, [layer1, layer2], names)

    def forward(true_vars: set[int]) -> Matching:
        pairs = []
        for v in range(1, nv + 1):
            ax, anx = index[f"a_x{v}"], index[f"a_nx{v}"]
            bp, bn = index[f"b+_x{v}"], index[f"b-_x{v}"]
            if v in true_vars:
                pairs += [(ax, bp), (anx, bn)]
            else:
                pairs += [(anx, bp), (ax, bn)]
        for j, clause in enumerate(clauses):
            # leave the beta of a satisfied literal unmatched; under a
            # falsifying assignment (no such literal) the arbitrary pick
            # yields a matching that is provably unstable
            sat_at = next(
                (
                    i
                    for i, lit in enumerate(clause)
                    if (lit > 0) == (abs(lit) in true_vars)
                ),
                0,
            )
            al1, al2 = index[f"al1_c{j}"], index[f"al2_c{j}"]
            betas = [index[f"be{i}_c{j}"] for i in (1, 2, 3)]
            if sat_at == 0:
                pairs += [(al1, betas[1]), (al2, betas[2])]
            elif sat_at == 1:
                pairs += [(al1, betas[0]), (al2, betas[2])]
            else:
                pairs += [(al1, betas[0]), (al2, betas[1])]
        return Matching.from_pairs(pairs)

    def backward(m: Matching) -> set[int]:
        return {
            v
            for v in range(1, nv + 1)
            if m.partner(index[f"a_x{v}"]) == index[f"b+_x{v}"]
        }

    return GeneratedInstance(
        inst, StabilityQuery("weak", "all"), "sat", forward, backward
    )


# ---------------------------------------------------------------------------
# all-layers weak -> alpha-global weak padding


def pad_global_weak(
    inst2: MultilayerInstance, ell: int, alpha: int
) -> GeneratedInstance:
    """Pad a two-layer symmetric instance so that its all-layers verdict
    becomes an alpha-global verdict of the output.

    Adds a star pair approving each other in the first two layers and one
    conflict agent per layer in the (possibly empty) conflict range; the
    remaining tail layers hold no approvals.
    """
    if inst2.ell != 2:
        raise BadParameters("padding starts from a two-layer instance")
    if not 2 <= alpha <= ell:
        raise BadParameters(f"need 2 <= alpha <= ell, got alpha={alpha}, ell={ell}")
    n0 = inst2.n
    conflict_layers = list(range(2, ell - alpha + 2))  # 0-based layers 3..ell-alpha+2
    a_star, b_star = n0, n0 + 1
    n = n0 + 2 + len(conflict_layers)
    names = [inst2.name_of(a) for a in range(n0)] + ["a*", "b*"] + [
        f"c{i + 1}" for i in conflict_layers
    ]
    layers: list[list[set[int]]] = []
    for i in range(ell):
        sets: list[set[int]] = [set() for _ in range(n)]
        if i < 2:
            for a in range(n0):
                sets[a] = set(inst2.approvals[i][a])
            sets[a_star].add(b_star)
            sets[b_star].add(a_star)
        elif i in conflict_layers:
            c = n0 + 2 + conflict_layers.index(i)
            sets[a_star].add(c)
            sets[c].add(a_star)
        layers.append(sets)
    inst = build_instance(n, ell, layers, names)

    def forward(m2: Matching) -> Matching:
        return Matching.from_pairs(list(m2.pairs) + [(a_star, b_star)])

    def backward(m: Matching) -> Matching:
        return Matching.from_pairs(
            (a, b) for a, b in m.pairs if a < n0 and b < n0
        )

    return GeneratedInstance(
        inst, StabilityQuery("weak", "global", alpha), "pad-global-weak",
        forward, backward,
    )


def copy_layers(
    inst: MultilayerInstance, multiplicities: list[int]
) -> MultilayerInstance:
    """Repeat layer i multiplicities[i] times, order preserved."""
    if len(multiplicities) != inst.ell:
        raise BadParameters(
            f"expected {inst.ell} multiplicities, got {len(multiplicities)}"
        )
    if any(m < 0 for m in multiplicities) or sum(multiplicities) < 1:
        raise BadParameters("multiplicities must be nonnegative with positive sum")
    rows = []
    for i, mult in enumerate(multiplicities):
        rows.extend([inst.approvals[i]] * mult)
    return build_instance(inst.n, len(rows), rows, inst.names)


# ---------------------------------------------------------------------------
# Independent Set -> alpha-global strong stability


def reduce_is_to_global_strong(g: SimpleGraph, k: int) -> GeneratedInstance:
    """Four agents per edge, one layer per vertex; an independent set of size
    k corresponds to a matching strongly stable in the k picked layers."""
    if not 1 <= k <= g.n:
        raise BadParameters(f"need 1 <= k <= {g.n}, got {k}")
    edges = g.sorted_edges()
    names = [f"e{u}-{v}.{r}" for u, v in edges for r in (1, 2, 3, 4)]
    n = 4 * len(edges)
    layers: list[list[set[int]]] = [
        [set() for _ in range(n)] for _ in range(g.n)
    ]
    for ei, (u, v) in enumerate(edges):
        base = 4 * ei
        e1, e2, e3, e4 = base, base + 1, base + 2, base + 3
        for x, y in ((e1, e2), (e3, e4)):
            layers[u][x].add(y)
            layers[u][y].add(x)
        for x, y in ((e1, e3), (e2, e4)):
            layers[v][x].add(y)
            layers[v][y].add(x)
    inst = build_instance(n, g.n, layers, names)

    def forward(vertices: set[int]) -> Matching:
        pairs = []
        for ei, (u, v) in enumerate(edges):
            base = 4 * ei
            if u in vertices:
                pairs += [(base, base + 1), (base + 2, base + 3)]
            elif v in vertices:
                pairs += [(base, base + 2), (base + 1, base + 3)]
        return Matching.from_pairs(pairs)

    def backward(stable_vertex_layers: frozenset[int]) -> set[int]:
        return set(stable_vertex_layers)

    return GeneratedInstance(
        inst, StabilityQuery("strong", "global", k), "independent-set",
        forward, backward,
    )


# ---------------------------------------------------------------------------
# degree-one partition -> alpha-pair super stability


def reduce_degreepartition_to_pair_super(
    g: SimpleGraph, ell: int, alpha: int
) -> GeneratedInstance:
    """Three agents per vertex plus one isolated pair; a partition with all
    induced degrees one corresponds to an alpha-pair super stable matching.

    The two base layers are copied alpha times each and padded with empty
    layers up to ell.
    """
    if g.n % 2 != 0:
        raise OddVertexCount(f"need an even vertex count, got {g.n}")
    if alpha < 1 or 2 * alpha > ell:
        raise AlphaTooHigh(f"need 1 <= alpha <= ell/2, got alpha={alpha}, ell={ell}")
    names = [f"v{v}.{r}" for v in range(g.n) for r in (1, 2)] + [
        f"v{v}.star" for v in range(g.n)
    ] + ["a", "a'"]
    def v1(v): return 2 * v
    def v2(v): return 2 * v + 1
    def vstar(v): return 2 * g.n + v
    n = 3 * g.n + 2
    layer1: list[set[int]] = [set() for _ in range(n)]
    layer2: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.sorted_edges():
        for pick in (v1, v2):
            layer1[pick(u)].add(pick(v))
            layer1[pick(v)].add(pick(u))
    for v in range(g.n):
        for pick in (v1, v2):
            layer2[pick(v)].add(vstar(v))
            layer2[vstar(v)].add(pick(v))
    empty: list[set[int]] = [set() for _ in range(n)]
    base = build_instance(n, 3, [layer1, layer2, empty], names)
    inst = copy_layers(base, [alpha, alpha, ell - 2 * alpha])

    neighbors = {v: sorted(u for e in g.edges for u in e if v in e and u != v) for v in range(g.n)}

    def forward(partition: tuple[set[int], set[int]]) -> Matching:
        first, _ = partition
        pairs = [(n - 2, n - 1)]
        for v in range(g.n):
            mates = [u for u in neighbors[v] if (u in first) == (v in first)]
            beta = mates[0]
            if v in first:
                if v < beta:
                    pairs.append((v1(v), v1(beta)))
                pairs.append((v2(v), vstar(v)))
            else:
                if v < beta:
                    pairs.append((v2(v), v2(beta)))
                pairs.append((v1(v), vstar(v)))
        return Matching.from_pairs(pairs)

    def backward(m: Matching) -> tuple[set[int], set[int]]:
        first = {v for v in range(g.n) if m.partner(vstar(v)) == v2(v)}
        return first, set(range(g.n)) - first

    return GeneratedInstance(
        inst, StabilityQuery("super", "pair", alpha), "degree-partition",
        forward, backward,
    )


# ---------------------------------------------------------------------------
# external formats


def _ints(tokens: list[str], error: type, lineno: int, line: str) -> list[int]:
    """The tokens as integers, else ``error`` naming the line."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise error(f"line {lineno}: expected integers, got {line!r}") from None


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF: comment lines, a "p cnf VARS CLAUSES" header, and clauses
    terminated by 0 (possibly spanning lines)."""
    num_vars = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise MalformedFormula(f"line {lineno}: bad problem line {line!r}")
            num_vars = _ints(parts[2:], MalformedFormula, lineno, line)[0]
            continue
        for lit in _ints(line.split(), MalformedFormula, lineno, line):
            if lit == 0:
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(lit)
    if literals:
        clauses.append(tuple(literals))
    if num_vars is None:
        raise MalformedFormula("missing 'p cnf' header")
    return CnfFormula(num_vars, tuple(clauses))


def parse_edge_list(text: str) -> SimpleGraph:
    """Plain graph text: an "n m" header, then one "u v" line per edge,
    1-indexed vertices."""
    lines = [
        (lineno, ln)
        for lineno, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise BadParameters("empty graph text")

    def pair(lineno: int, ln: str) -> list[int]:
        row = _ints(ln.split()[:2], BadParameters, lineno, ln)
        if len(row) != 2:
            raise BadParameters(f"line {lineno}: expected two integers, got {ln!r}")
        return row

    n, m = pair(*lines[0])
    edges = [(u - 1, v - 1) for u, v in (pair(*x) for x in lines[1 : m + 1])]
    if len(edges) != m:
        raise BadParameters(f"expected {m} edges, found {len(edges)}")
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# source-problem brute force (a test oracle, desk scale only)


def independent_set_brute_force(g: SimpleGraph, k: int) -> set[int] | None:
    """An independent set of exactly size k, or None."""
    for combo in itertools.combinations(range(g.n), k):
        chosen = set(combo)
        if all(u not in chosen or v not in chosen for u, v in g.edges):
            return chosen
    return None
