"""Instance generators: random instances and hardness constructions.

Each hardness construction ships a certificate mapping source-problem
solutions to stable matchings (and back where the construction supports it),
so desk-scale equivalence can be tested: the source answer must equal the
stable-matching verdict.  ``independent_set_brute_force`` is the one
source-problem brute-forcer kept here, because the benchmark workloads use
it too; the others live with the tests.

Every construction is a list of links ``(bits, a, b)``: a and b approve
each other in every layer whose bit is set (``_from_links``).  Agent ids
follow by arithmetic, in the order of the names:

- SAT: variable v (1-based) owns ``a_x``, ``a_nx``, ``b+_x``, ``b-_x`` at
  4(v-1) .. 4(v-1)+3; clause j (0-based) owns ``al1``, ``al2``, ``be1``,
  ``be2``, ``be3`` from 4*num_vars + 5j on.
- Independent set: edge e of the sorted edge list owns 4e .. 4e+3.
- Degree partition: vertex v owns 2v and 2v+1, and its star 2*g.n + v; the
  isolated pair is 3*g.n and 3*g.n + 1.
- Padding: the base's agents keep their ids, then come the star pair and one
  conflict agent per conflict layer.

The gadgets for the remaining hardness proofs (Monotone 3-SAT to all-layers
strong, 3-SAT to pair strong, Minimum Maximal Matching to all-layers weak)
are intentionally not generated; one construction per stability family keeps
the corpus representative.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Sequence

from .blocking import Matching
from .errors import (
    AlphaTooHigh,
    BadParameters,
    MalformedFormula,
    OddVertexCount,
)
from .graphalg import SimpleGraph
from .model import MultilayerInstance, _Value, _check_shape, build_instance
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


class CnfFormula(_Value):
    """Clauses as DIMACS-style literal tuples (positive/negative var index + 1)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        for clause in clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise MalformedFormula(f"literal {lit} out of range")
        self.__dict__.update(num_vars=num_vars, clauses=clauses)

    def occurrences(self, var: int) -> tuple[int, int]:
        """(positive, negative) occurrence counts of a 1-based variable."""
        pos = sum(clause.count(var) for clause in self.clauses)
        neg = sum(clause.count(-var) for clause in self.clauses)
        return pos, neg


class GeneratedInstance(_Value):
    """A generated instance, the query it targets, and its certificate maps
    ``forward`` and ``backward``, which equality, hash and repr ignore."""

    instance: MultilayerInstance
    query: StabilityQuery
    kind: str

    def __init__(self, instance: MultilayerInstance, query: StabilityQuery, kind: str,
                 forward: Callable, backward: Callable | None = None):
        self.__dict__.update(instance=instance, query=query, kind=kind, forward=forward, backward=backward)


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
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise BadParameters(f"approval probability must be an int or float, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise BadParameters(f"approval probability {p} outside [0, 1]")
    _check_shape(n, ell, ell, None)
    rng = random.Random(seed)
    side = [a < n // 2 for a in range(n)]
    layers = []
    for _ in range(ell):
        approved: list[list[int]] = [[] for _ in range(n)]
        for a in range(n):
            start = a + 1 if symmetric else 0
            for b in range(start, n):
                if a == b:
                    continue
                if bipartite and side[a] == side[b]:
                    continue
                if rng.random() < p:
                    approved[a].append(b)
                    if symmetric:
                        approved[b].append(a)
        layers.append(approved)
    return _from_links(n, ell, (), base=layers)


def _require_ints(**counts: object) -> None:
    """Refuse a count that is not an ``int`` (bool is none); run before the
    range tests, which would raise a bare ``TypeError`` on it."""
    if any(type(c) is not int for c in counts.values()):
        raise BadParameters("counts must be ints, got " + ", ".join(f"{k}={c!r}" for k, c in counts.items()))


def _from_links(n: int, ell: int, links: Iterable[tuple[int, int, int]], names: Sequence[str] | None = None,
                base: Sequence[Sequence[Iterable[int]]] = ()) -> MultilayerInstance:
    """The instance in which layer i starts from ``base[i]`` (one-way
    approvals indexed by agent; missing layers and agents approve nobody)
    and each link ``(bits, a, b)`` makes a and b approve each other in every
    layer whose bit is set; ``build_instance`` validates it."""
    layers: list[list[set[int]]] = [[set() for _ in range(n)] for _ in range(ell)]
    for sets, approved in zip(layers, base):
        for a, ids in enumerate(approved):
            sets[a].update(ids)
    for bits, a, b in links:
        for i, sets in enumerate(layers):
            if bits >> i & 1:
                sets[a].add(b)
                sets[b].add(a)
    return build_instance(n, ell, layers, names)


# ---------------------------------------------------------------------------
# SAT -> all-layers weak stability (two layers, symmetric, bipartite)


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
    names = [f"{r}{v}" for v in range(1, nv + 1) for r in ("a_x", "a_nx", "b+_x", "b-_x")]
    names += [f"{r}_c{j}" for j in range(len(clauses)) for r in ("al1", "al2", "be1", "be2", "be3")]
    links = []
    for x in range(0, 4 * nv, 4):  # a_x, a_nx, b+_x, b-_x
        links += [(0b11, x, x + 2), (0b01, x, x + 3), (0b11, x + 1, x + 2), (0b01, x + 1, x + 3)]
    for j, clause in enumerate(clauses):
        al1, al2, *betas = range(4 * nv + 5 * j, 4 * nv + 5 * j + 5)
        links += [(0b10, beta, 4 * (abs(lit) - 1) + (lit < 0)) for beta, lit in zip(betas, clause)]
        links += [(0b11, al1, betas[0]), (0b11, al1, betas[1]), (0b11, al2, betas[1]), (0b11, al2, betas[2])]
    inst = _from_links(len(names), 2, links, names)

    def forward(true_vars: set[int]) -> Matching:
        pairs = []
        for v, x in enumerate(range(0, 4 * nv, 4), 1):
            if v in true_vars:
                pairs += [(x, x + 2), (x + 1, x + 3)]
            else:
                pairs += [(x + 1, x + 2), (x, x + 3)]
        for j, clause in enumerate(clauses):
            # leave the beta of a satisfied literal unmatched; under a
            # falsifying assignment (no such literal) the arbitrary pick
            # yields a matching that is provably unstable
            sat_at = next((i for i, lit in enumerate(clause) if (lit > 0) == (abs(lit) in true_vars)), 0)
            al1, al2, *betas = range(4 * nv + 5 * j, 4 * nv + 5 * j + 5)
            del betas[sat_at]
            pairs += [(al1, betas[0]), (al2, betas[1])]
        return Matching.from_pairs(pairs)

    def backward(m: Matching) -> set[int]:
        return {x // 4 + 1 for x in range(0, 4 * nv, 4) if m.partner(x) == x + 2}

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
    _require_ints(ell=ell, alpha=alpha)
    if inst2.ell != 2:
        raise BadParameters("padding starts from a two-layer instance")
    if not 2 <= alpha <= ell:
        raise BadParameters(f"need 2 <= alpha <= ell, got alpha={alpha}, ell={ell}")
    n0 = inst2.n
    conflict_layers = range(2, ell - alpha + 2)  # 0-based layers 3..ell-alpha+2
    a_star, b_star = n0, n0 + 1
    names = [inst2.name_of(a) for a in range(n0)] + ["a*", "b*"] + [
        f"c{i + 1}" for i in conflict_layers
    ]
    links = [(0b11, a_star, b_star)] + [(1 << i, a_star, c) for c, i in enumerate(conflict_layers, n0 + 2)]
    inst = _from_links(len(names), ell, links, names, base=inst2.approvals)

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
    """Repeat layer i multiplicities[i] times (ints, bool excluded), order preserved."""
    if len(multiplicities) != inst.ell:
        raise BadParameters(
            f"expected {inst.ell} multiplicities, got {len(multiplicities)}"
        )
    if any(type(m) is not int or m < 0 for m in multiplicities) or sum(multiplicities) < 1:
        raise BadParameters(f"multiplicities must be nonnegative ints with positive sum, got {multiplicities!r}")
    rows = []
    for i, mult in enumerate(multiplicities):
        rows.extend([inst.approvals[i]] * mult)
    return build_instance(inst.n, len(rows), rows, inst.names)


# ---------------------------------------------------------------------------
# Independent Set -> alpha-global strong stability


def reduce_is_to_global_strong(g: SimpleGraph, k: int) -> GeneratedInstance:
    """Four agents per edge, one layer per vertex; an independent set of size
    k corresponds to a matching strongly stable in the k picked layers."""
    _require_ints(k=k)
    if not 1 <= k <= g.n:
        raise BadParameters(f"need 1 <= k <= {g.n}, got {k}")
    edges = g.sorted_edges()
    names = [f"e{u}-{v}.{r}" for u, v in edges for r in (1, 2, 3, 4)]
    links = []
    for e, (u, v) in zip(range(0, 4 * len(edges), 4), edges):
        links += [(1 << u, e, e + 1), (1 << u, e + 2, e + 3), (1 << v, e, e + 2), (1 << v, e + 1, e + 3)]
    inst = _from_links(len(names), g.n, links, names)

    def forward(vertices: set[int]) -> Matching:
        pairs = []
        for e, (u, v) in zip(range(0, 4 * len(edges), 4), edges):
            if u in vertices:
                pairs += [(e, e + 1), (e + 2, e + 3)]
            elif v in vertices:
                pairs += [(e, e + 2), (e + 1, e + 3)]
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
    _require_ints(ell=ell, alpha=alpha)
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
    copies = (1 << alpha) - 1  # the edge layer's copies; the star layer's follow
    links = [(copies, pick(u), pick(v)) for u, v in g.sorted_edges() for pick in (v1, v2)]
    links += [(copies << alpha, pick(v), vstar(v)) for v in range(g.n) for pick in (v1, v2)]
    inst = _from_links(n, ell, links, names)

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
    """DIMACS CNF: comment lines, one "p cnf VARS CLAUSES" header with
    nonnegative counts, then clauses terminated by 0 (possibly spanning
    lines).  A line starting with "%" ends the clause list, as in the SATLIB
    files.  A second header, a clause before the header, a negative count
    or a clause count other than the header's raises ``MalformedFormula``."""
    header = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise MalformedFormula(f"line {lineno}: bad problem line {line!r}")
            if header is not None:
                raise MalformedFormula(f"line {lineno}: second problem line {line!r}")
            header = _ints(parts[2:], MalformedFormula, lineno, line)
            if min(header) < 0:
                raise MalformedFormula(f"line {lineno}: negative count in {line!r}")
            continue
        if header is None:
            raise MalformedFormula(f"line {lineno}: clause before the 'p cnf' header")
        for lit in _ints(line.split(), MalformedFormula, lineno, line):
            if lit == 0:
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(lit)
    if literals:
        clauses.append(tuple(literals))
    if header is None:
        raise MalformedFormula("missing 'p cnf' header")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise MalformedFormula(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_edge_list(text: str) -> SimpleGraph:
    """Plain graph text: an "n m" header, then exactly m "u v" lines, one per
    edge, 1-indexed vertices; lines starting with "#" are comments.  A line
    with other than two integers, a negative n, or an edge line too many or
    too few raises ``BadParameters``."""
    lines = [
        (lineno, ln)
        for lineno, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise BadParameters("empty graph text")

    def pair(lineno: int, ln: str) -> list[int]:
        row = _ints(ln.split(), BadParameters, lineno, ln)
        if len(row) != 2:
            raise BadParameters(f"line {lineno}: expected two integers, got {ln!r}")
        return row

    n, m = pair(*lines[0])
    if n < 0:
        raise BadParameters(f"line {lines[0][0]}: vertex count must be nonnegative, got {n}")
    edges = [(u - 1, v - 1) for u, v in (pair(*x) for x in lines[1:])]
    if len(edges) != m:
        raise BadParameters(f"expected {m} edges, found {len(edges)}")
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# source-problem brute force (a test oracle, desk scale only)


def independent_set_brute_force(g: SimpleGraph, k: int) -> set[int] | None:
    """An independent set of exactly size k (a nonnegative int), or None."""
    _require_ints(k=k)
    if k < 0:
        raise BadParameters(f"independent set size must be nonnegative, got {k}")
    for combo in itertools.combinations(range(g.n), k):
        chosen = set(combo)
        if all(u not in chosen or v not in chosen for u, v in g.edges):
            return chosen
    return None
