"""Seeded inputs and reference answers for the verdict benchmark.

A workload is a list of *passes*.  Each pass draws fresh instances from its
own sub-seed (``seed * 1000 + pass index``) and then issues every query of
the pass against them.  The solvers keep value-keyed ``lru_cache`` tables
(agent types, changing-agent candidates); fresh instances per pass mean a
pass never hits a table built by an earlier pass, which is what a one-shot
CLI call sees.  Queries on one instance inside a pass do share the tables,
as a library sweep over queries would.

Every query carries a reference answer that is derived here without calling
``dispatch``:

* planted instances hold a perfect matching approved by both partners in
  every layer, so its stability degrees follow from the approval lists
  alone (``planted_degrees``);
* "not-exists" answers on large instances come from obstruction
  certificates that this module proves from the approval lists
  (``Facts.refute``), including one planted violating pair;
* exact-small instances use ``existence_table`` (exhaustive, n <= 12) and the
  independent-set reductions keep their source graph, whose answer comes
  from ``independent_set_brute_force``.

Sizes (ell = 5, about five approvals per agent per layer on large
instances) are chosen so that one pass of each workload takes a few
seconds in pure Python, which keeps ten-run spreads small within the run
budget; see README.md for the reasons per workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from mlsm import Matching, StabilityQuery, build_instance, check
from mlsm.graphalg import SimpleGraph
from mlsm.model import MultilayerInstance
from mlsm.oracle import existence_table
from mlsm.reductions import independent_set_brute_force, reduce_is_to_global_strong
from mlsm.verify import all_queries

WORKLOADS = ("solve-large", "check-large", "exact-small")

ELL = 5  # layers of the large instances
DEG = 5  # mean approvals per agent per layer on large instances

# n rungs (even, for perfect planted matchings), about sqrt(2) apart and
# spanning 4x: with five rungs the call times of a pass spread evenly on a
# log scale, so the median and the tail fall among many close values rather
# than in a gap between two rungs.  ``tiny`` is the smoke-test scale.
SOLVE_RUNGS = {"full": (80, 114, 160, 226, 320), "tiny": (14, 20, 28)}
CHECK_RUNGS = {"full": (56, 80, 112, 160, 224), "tiny": (14, 20, 28)}
# exact-small: (n, copies per pass) of the asymmetric oracle ladder
ORACLE_LADDER = {"full": ((7, 4), (8, 3), (9, 3)), "tiny": ((5, 1), (6, 1), (7, 1))}
CHANGING_N = {"full": 10, "tiny": 7}
IS_GRAPH = {"full": (7, 10), "tiny": (4, 4)}  # (vertices, edges)


def Q(base: str, agg: str, alpha: int | None = None) -> StabilityQuery:
    return StabilityQuery(base, agg, alpha)


# ---------------------------------------------------------------------------
# instances


@dataclass
class Instance:
    """One generated instance: the document the program parses, a reference
    copy for verification, and what is known about it by construction."""

    family: str
    layers: list[list[set[int]]]
    rung: int | None = None  # n rung of the time-vs-size ladder, if any
    planted: Matching | None = None  # perfect, approved in every layer
    violating_pair: tuple[int, int] | None = None  # planted obstruction
    exact: Callable[[StabilityQuery], bool] | None = None  # exhaustive answer
    text: str = ""
    size: int = 0  # sum of |approvals| over agents and layers
    inst: MultilayerInstance | None = None
    facts: "Facts | None" = None

    def __post_init__(self):
        n = len(self.layers[0])
        names = [f"a{a}" for a in range(n)]
        doc = {
            "agents": names,
            "layers": [
                {names[a]: [names[b] for b in sorted(out)] for a, out in enumerate(layer) if out}
                for layer in self.layers
            ],
        }
        self.text = json.dumps(doc)
        self.size = sum(len(out) for layer in self.layers for out in layer)
        self.inst = build_instance(n, len(self.layers), self.layers, names)
        self.facts = Facts(n, self.layers)

    def reference(self, q: StabilityQuery) -> tuple[str | None, str]:
        """("exists" | "not-exists" | None, why)."""
        if self.exact is not None:
            return ("exists" if self.exact(q) else "not-exists"), "exhaustive"
        if self.planted is not None and planted_degrees(self.facts, self.planted).satisfied(q):
            return "exists", "planted matching"
        why = self.facts.refute(q, self.violating_pair)
        if why is not None:
            return "not-exists", why
        return None, "no independent answer"


def _fresh_pairs(rng: random.Random, n: int, count: int, taken: set) -> list[tuple[int, int]]:
    """``count`` random unordered pairs not in ``taken`` (which absorbs
    them).  Expected cost O(count) while the pairs stay sparse."""
    count = min(count, (n * (n - 1) // 2 - len(taken)) // 2)
    out = []
    while len(out) < count:
        a, b = rng.randrange(n), rng.randrange(n)
        key = (a, b) if a < b else (b, a)
        if a != b and key not in taken:
            taken.add(key)
            out.append(key)
    return out


def _empty(n: int, ell: int) -> list[list[set[int]]]:
    return [[set() for _ in range(n)] for _ in range(ell)]


def _link(layer: list[set[int]], a: int, b: int) -> None:
    layer[a].add(b)
    layer[b].add(a)


def _planted_layers(rng: random.Random, n: int, symmetric: bool, clean: int, partner0: int | None = None):
    perm = list(range(n))
    rng.shuffle(perm)
    if partner0 is not None:  # pair agent 0 with agent partner0
        i, j = perm.index(0) ^ 1, perm.index(partner0)
        perm[i], perm[j] = perm[j], perm[i]
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
    taken = {(min(p), max(p)) for p in pairs}
    layers = _empty(n, ELL)
    for i, layer in enumerate(layers):
        for a, b in pairs:
            _link(layer, a, b)
        if i < clean:
            continue
        per_agent = DEG - 1 if symmetric else 2 * (DEG - 1)
        for a, b in _fresh_pairs(rng, n, n * per_agent // 2, taken):
            if symmetric:
                _link(layer, a, b)
            elif rng.random() < 0.5:
                layer[a].add(b)
            else:
                layer[b].add(a)
    return layers, pairs


def planted(rng: random.Random, n: int, symmetric: bool, clean: int, partner0: int | None = None) -> Instance:
    """A perfect matching M in every layer plus sparse noise.

    Layers ``clean..ELL-1`` get about DEG-1 noise approvals per agent (mutual
    when ``symmetric``, one direction otherwise); no noise pair is used
    twice, so no noise pair is mutual in two layers.  M is then weakly and
    strongly stable to every degree, super stable in the ``clean`` layers,
    and super pair/individual stable up to alpha = ELL - 1.  ``partner0``
    fixes agent 0's partner in M (otherwise it is uniform).
    """
    layers, pairs = _planted_layers(rng, n, symmetric, clean, partner0)
    family = "planted-sym" if symmetric else "planted-asym"
    return Instance(family, layers, rung=n, planted=Matching.from_pairs(pairs))


def obstructed(rng: random.Random, n: int) -> Instance:
    """Symmetric planted instance (all layers noisy) with the matched pairs
    (x, x'), (y, y') of x = n/2 and y = x+1 (or x+2) removed from layers 3
    and 4 and a noise edge x-y in layer 0.

    The pairs mutual in >= 3 layers are exactly M, so every 3-individual
    super stable matching must equal M, and M fails at (x, y): each of x, y
    is happy and disapproves the other in only two layers.  x keeps an
    approval in every layer while approving no one in more than three, so
    no matching is all-layers strongly stable either.
    """
    layers, pairs = _planted_layers(rng, n, symmetric=True, clean=0)
    partner = {a: b for p in pairs for a, b in (p, p[::-1])}
    # x, y in the middle of the agent order: check rejects halfway through
    x = n // 2
    y = x + 1 if partner[x] != x + 1 else x + 2
    x2, y2 = partner[x], partner[y]
    for i in (3, 4):
        for a, b in ((x, x2), (y, y2)):
            layers[i][a].discard(b)
            layers[i][b].discard(a)
        for a in (x, y):
            if not layers[i][a]:
                z = next(c for c in range(n) if c not in (x, x2, y, y2) and not layers[i][c] & {x, y})
                _link(layers[i], a, z)
    for layer in layers:
        layer[x].discard(y)
        layer[y].discard(x)
    _link(layers[0], x, y)
    return Instance("obstructed", layers, rung=n, violating_pair=(min(x, y), max(x, y)))


def random_asym(rng: random.Random, n: int) -> Instance:
    """Sparse asymmetric noise: out-degree uniform in 0..2*DEG per layer,
    and three agents per layer that approve nobody."""
    layers = _empty(n, ELL)
    for layer in layers:
        silent = set(rng.sample(range(n), 3))
        for a in range(n):
            if a in silent:
                continue
            for _ in range(rng.randrange(2 * DEG + 1)):
                b = rng.randrange(n)
                if b != a:
                    layer[a].add(b)
    return Instance("random-asym", layers, rung=n)


def low_tau(rng: random.Random, n: int) -> Instance:
    """Two agent types: a clique of four agents mutual in every layer and
    n - 4 agents that approve nobody and nobody approves."""
    clique = rng.sample(range(n), 4)
    layers = _empty(n, ELL)
    for layer in layers:
        for a, b in combinations(clique, 2):
            _link(layer, a, b)
    return Instance("low-tau", layers, rung=n)


def dense(rng: random.Random, n: int, ell: int, p: float, family: str, rung=None) -> Instance:
    """Asymmetric approvals, each arc independently with probability p;
    the exhaustive table is its reference."""
    layers = _empty(n, ell)
    for layer in layers:
        for a in range(n):
            layer[a].update(b for b in range(n) if b != a and rng.random() < p)
    return _with_table(Instance(family, layers, rung=rung))


def low_beta(rng: random.Random, n: int, ell: int, beta: int) -> Instance:
    """Symmetric layers that differ only among ``beta`` drifting agents."""
    first = [set() for _ in range(n)]
    for a, b in combinations(range(n), 2):
        if rng.random() < 0.4:
            _link(first, a, b)
    drift = sorted(rng.sample(range(n), beta))
    layers = [first]
    for _ in range(ell - 1):
        nxt = [set(s) for s in first]
        for a, b in combinations(drift, 2):
            if rng.random() < 0.4:
                _link(nxt, a, b)
            else:
                nxt[a].discard(b)
                nxt[b].discard(a)
        layers.append(nxt)
    return _with_table(Instance("low-beta", layers))


def _with_table(instance: Instance) -> Instance:
    table = existence_table(instance.inst)
    ell = instance.inst.ell

    def exact(q: StabilityQuery) -> bool:
        glob, pair_min, ind_min = table[q.base]
        alpha = q.effective_alpha(ell)
        if q.agg in ("all", "global"):
            return glob >= alpha
        return (pair_min if q.agg == "pair" else ind_min) >= alpha

    instance.exact = exact
    return instance


def independent_set(rng: random.Random, vertices: int, edges: int) -> tuple[Instance, list[int]]:
    """The Independent Set -> global strong reduction of a random graph; a
    size-k independent set exists iff a k-global strongly stable matching
    does, so the source graph answers every k."""
    taken: set = set()
    graph = SimpleGraph.from_edges(vertices, _fresh_pairs(rng, vertices, edges, taken))
    gen = reduce_is_to_global_strong(graph, 1)
    inst = gen.instance
    layers = [[set(out) for out in layer] for layer in inst.approvals]
    answers = {k: independent_set_brute_force(graph, k) is not None for k in range(1, vertices + 1)}
    instance = Instance("independent-set", layers)
    instance.exact = lambda q: answers[q.effective_alpha(inst.ell)]
    return instance, list(answers)


# ---------------------------------------------------------------------------
# reference logic


FULL = (1 << ELL) - 1


def pair_degrees(sa: int, sb: int, ha: int, hb: int, full: int) -> dict[str, tuple[int, int | None]]:
    """Per base, the blocked-layer mask and the better individual support
    count of one unmatched pair, from ell-bit approval masks (sa: a approves
    b) and happiness masks (ha: a approves its partner)."""
    strict_a, strict_b = sa & ~ha, sb & ~hb
    geq_a, geq_b = (sa | ~ha) & full, (sb | ~hb) & full
    return {
        "weak": (
            strict_a & strict_b,
            max(((~sa | ha) & full).bit_count(), ((~sb | hb) & full).bit_count()),
        ),
        "strong": ((strict_a & geq_b) | (strict_b & geq_a), None),
        "super": (geq_a & geq_b, max((~sa & ha & full).bit_count(), (~sb & hb & full).bit_count())),
    }


@dataclass
class Degrees:
    """Best degrees of one matching per base: global count, pair minimum,
    individual minimum (None for strong)."""

    ell: int
    by_base: dict[str, tuple[int, int, int | None]] = field(default_factory=dict)

    def satisfied(self, q: StabilityQuery) -> bool:
        glob, pair_min, ind_min = self.by_base[q.base]
        alpha = q.effective_alpha(self.ell)
        if q.agg in ("all", "global"):
            return glob >= alpha
        return (pair_min if q.agg == "pair" else ind_min) >= alpha


def planted_degrees(facts: "Facts", m: Matching) -> Degrees:
    """Degrees of a perfect matching whose partners approve each other in
    every layer.  Every agent is happy everywhere, so only unmatched pairs
    with an approval between them can block or lower a support count; all
    other pairs leave every degree at ell."""
    cached = facts.planted_cache.get(m.pairs)
    if cached is not None:
        return cached
    ell, full = facts.ell, facts.full
    blocked = {base: 0 for base in ("weak", "strong", "super")}
    pair_min = {base: ell for base in blocked}
    ind_min = {"weak": ell, "super": ell}
    for (a, b), sa in facts.masks.items():
        sb = facts.masks.get((b, a), 0)
        if (sb and b < a) or m.has_pair(a, b):
            continue  # each approving pair once; matched pairs never block
        for base, (mask, support) in pair_degrees(sa, sb, full, full, full).items():
            blocked[base] |= mask
            pair_min[base] = min(pair_min[base], ell - mask.bit_count())
            if support is not None:
                ind_min[base] = min(ind_min[base], support)
    degrees = Degrees(ell)
    for base in blocked:
        degrees.by_base[base] = (ell - blocked[base].bit_count(), pair_min[base], ind_min.get(base))
    facts.planted_cache[m.pairs] = degrees
    return degrees


class Facts:
    """Sparse structure of the approval lists, O(sum of |approvals|)."""

    def __init__(self, n: int, layers: list[list[set[int]]]):
        self.n, self.ell = n, len(layers)
        self.full = (1 << self.ell) - 1
        self.masks: dict[tuple[int, int], int] = {}  # (a, b) -> layers where a approves b
        for i, layer in enumerate(layers):
            for a, out in enumerate(layer):
                for b in out:
                    self.masks[(a, b)] = self.masks.get((a, b), 0) | 1 << i
        self.symmetric = all(self.masks.get((b, a)) == m for (a, b), m in self.masks.items())
        self.mutual = {
            (a, b): m & self.masks.get((b, a), 0)
            for (a, b), m in self.masks.items()
            if a < b and m & self.masks.get((b, a), 0)
        }
        # a layer is super stable for no matching when an agent has two
        # mutual neighbours (one of them stays unmatched and blocks) or three
        # agents approve nobody (two of them stay unmatched to each other)
        self.dead_super_layers = set()
        for i, layer in enumerate(layers):
            silent = sum(1 for out in layer if not out)
            mutual_degree = [0] * n
            for (a, b), m in self.mutual.items():
                if m >> i & 1:
                    mutual_degree[a] += 1
                    mutual_degree[b] += 1
            if silent >= 3 or max(mutual_degree, default=0) >= 2:
                self.dead_super_layers.add(i)
        self.active_layers = [0] * n  # layers in which the agent approves someone
        self.max_multiplicity = [0] * n  # most layers it approves one agent in
        for (a, _), m in self.masks.items():
            self.max_multiplicity[a] = max(self.max_multiplicity[a], m.bit_count())
        for layer in layers:
            for a, out in enumerate(layer):
                self.active_layers[a] += bool(out)
        self.planted_cache: dict = {}

    def forced(self, k: int) -> list[tuple[int, int]]:
        """Pairs mutual in at least k layers.  For super pair/individual
        stability of degree alpha = ell - k + 1 every such pair must be
        matched: left unmatched it blocks in each of its mutual layers."""
        return [pair for pair, m in self.mutual.items() if m.bit_count() >= k]

    def refute(self, q: StabilityQuery, violating_pair=None) -> str | None:
        """A proof that no matching satisfies ``q``, or None."""
        alpha = q.effective_alpha(self.ell)
        if q.base == "super" and q.agg in ("all", "global"):
            if self.ell - len(self.dead_super_layers) < alpha:
                return f"{len(self.dead_super_layers)} layers admit no super stable matching"
            return None
        if q.base == "super":
            forced = self.forced(self.ell - alpha + 1)
            degree = [0] * self.n
            for a, b in forced:
                degree[a] += 1
                degree[b] += 1
            if max(degree, default=0) >= 2:
                return "an agent has two forced partners"
            if violating_pair is not None and min(degree, default=0) == 1:
                if self.violates(Matching.from_pairs(forced), violating_pair, q):
                    return f"the forced perfect matching fails at {violating_pair}"
            return None
        if q.base == "strong" and q.agg in ("all", "global") and self.symmetric:
            # an agent approving someone in a layer must be happy there, else
            # that approval blocks strongly (symmetric approvals)
            for a in range(self.n):
                if self.ell - self.active_layers[a] + self.max_multiplicity[a] < alpha:
                    return f"agent {a} can be happy in too few layers"
        return None

    def violates(self, m: Matching, pair, q: StabilityQuery) -> bool:
        """Does the pair, unmatched in m, violate the pair/individual query?"""
        a, b = pair
        if m.has_pair(a, b):
            return False
        ha = self.masks.get((a, m.partner(a)), 0) if m.covers(a) else 0
        hb = self.masks.get((b, m.partner(b)), 0) if m.covers(b) else 0
        mask, support = pair_degrees(
            self.masks.get((a, b), 0), self.masks.get((b, a), 0), ha, hb, self.full
        )[q.base]
        alpha = q.effective_alpha(self.ell)
        if q.agg == "pair":
            return self.ell - mask.bit_count() < alpha
        return support < alpha


# ---------------------------------------------------------------------------
# passes


@dataclass
class Item:
    """One CLI-equivalent call: ``solve`` (instance, query) or ``check``
    (instance, matching, query), with its expected answer."""

    kind: str
    instance: Instance
    query: StabilityQuery
    matching: Matching | None = None
    matching_text: str = ""
    expected: object = None  # check: expected stable flag

    def __post_init__(self):
        if self.matching is not None:
            name = self.instance.inst.name_of
            self.matching_text = json.dumps({"pairs": [[name(a), name(b)] for a, b in self.matching.pairs]})


# solve-large query mix: one query per polynomial route on the instance
# kind that reaches its exists or its not-exists branch, plus fall-throughs
SOLVE_MIX = {
    "planted-sym": [
        Q("weak", "individual", 2),  # weak-lowalpha
        Q("super", "global", 2),  # super-global, exists
        Q("strong", "all"),  # strong-alllayers-symmetric, exists
        Q("strong", "global", 4),  # strong-global-symmetric
        Q("super", "individual", 3),  # super-individual-highalpha, exists
        Q("super", "pair", 4),  # super-pair-veryhighalpha
        Q("super", "pair", 3),  # super-pair-fpt
        Q("weak", "all"),  # falls through: unknown
    ],
    "obstructed": [
        Q("super", "individual", 3),  # highalpha, rejected by check
        Q("super", "pair", 3),  # super-pair-fpt, accepted by check
        Q("strong", "all"),  # strong-alllayers-symmetric, not-exists
        Q("super", "global", 3),  # super-global, not-exists
    ],
    "random-asym": [
        Q("weak", "pair", 3),  # weak-lowalpha
        Q("super", "global", 1),  # super-global, not-exists
        Q("super", "individual", 3),  # asymmetric: unknown
    ],
    "low-tau": [
        Q("weak", "all"),  # agent-types, exists
        Q("super", "individual", 2),  # agent-types, not-exists
    ],
}

CHECK_NOTIONS = [
    ("weak", "all"), ("weak", "global"), ("weak", "pair"), ("weak", "individual"),
    ("strong", "all"), ("strong", "global"), ("strong", "pair"),
    ("super", "all"), ("super", "global"), ("super", "pair"), ("super", "individual"),
]


def _broken(rng: random.Random, m: Matching, scramble: bool, n: int) -> Matching:
    """Leave agent 0 and its planted partner single: that pair then blocks
    in every layer under every base, so every query rejects, and the scan
    stops in its first row, at that pair or before it.  ``scramble`` also
    re-pairs everyone else at random."""
    a = 0
    b = m.partner(a)
    pairs = [p for p in m.pairs if a not in p]
    if scramble:
        rest = [c for c in range(n) if c not in (a, b)]
        rng.shuffle(rest)
        pairs = list(zip(rest[0::2], rest[1::2]))
    return Matching.from_pairs(pairs)


def build_pass(workload: str, seed: int, index: int, scale: str = "full") -> list[Item]:
    rng = random.Random(seed * 1000 + index)
    items: list[Item] = []
    if workload == "solve-large":
        for n in SOLVE_RUNGS[scale]:
            for inst in (
                planted(rng, n, symmetric=True, clean=2),
                obstructed(rng, n),
                random_asym(rng, n),
                low_tau(rng, n),
            ):
                items += [Item("solve", inst, q) for q in SOLVE_MIX[inst.family]]
    elif workload == "check-large":
        for r, n in enumerate(CHECK_RUNGS[scale]):
            for s, symmetric in enumerate((True, False)):
                # agent 0's partner is fixed at the middle of row 0 (the
                # mean of a uniform draw), so where a broken matching's scan
                # stops varies with the approvals only, not with a single
                # draw shared by all 22 broken checks of the instance
                inst = planted(rng, n, symmetric=symmetric, clean=2, partner0=n // 2)
                m = inst.planted
                for j, matching in enumerate((m, _broken(rng, m, False, n), _broken(rng, m, True, n))):
                    for k, (base, agg) in enumerate(CHECK_NOTIONS):
                        # the instances of a pass give each notion every alpha
                        alpha = None if agg == "all" else 1 + (2 * r + s + j + k) % ELL
                        q = Q(base, agg, alpha)
                        expected = j == 0 and planted_degrees(inst.facts, m).satisfied(q)
                        items.append(Item("check", inst, q, matching, expected=expected))
    elif workload == "exact-small":
        for n, copies in ORACLE_LADDER[scale]:
            for _ in range(copies):
                inst = dense(rng, n, 3, 0.8, "oracle-asym", rung=n)
                items += [Item("solve", inst, q) for q in all_queries(3)]
        inst = low_beta(rng, CHANGING_N[scale], 3, 5)
        items += [Item("solve", inst, q) for q in all_queries(3)]
        inst, ks = independent_set(rng, *IS_GRAPH[scale])
        items += [Item("solve", inst, Q("strong", "global", k)) for k in ks]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


# ---------------------------------------------------------------------------
# verification (outside the timed region)


def verify(item: Item, output) -> tuple[bool, str, str]:
    """(ok, outcome, algorithm) for one emitted verdict document, or for the
    exception the call raised."""
    if isinstance(output, BaseException):
        return False, "error", type(output).__name__
    try:
        return _verify(item, json.loads(output))
    except (KeyError, TypeError, ValueError) as exc:
        return False, "malformed", type(exc).__name__


def _verify(item: Item, doc: dict) -> tuple[bool, str, str]:
    inst = item.instance
    if item.kind == "check":
        outcome = "stable" if doc["stable"] else "unstable"
        if doc["stable"] != item.expected:
            return False, outcome, "check"
        pair = doc["violating_pair"]
        if not doc["stable"] and item.query.agg in ("pair", "individual"):
            index = {inst.inst.name_of(a): a for a in range(inst.inst.n)}
            if not inst.facts.violates(item.matching, (index[pair[0]], index[pair[1]]), item.query):
                return False, outcome, "check"
        return True, outcome, "check"
    status, algorithm = doc["status"], doc["algorithm"]
    ref, _ = inst.reference(item.query)
    if status == "exists":
        index = {inst.inst.name_of(a): a for a in range(inst.inst.n)}
        witness = Matching.from_pairs((index[a], index[b]) for a, b in doc["matching"])
        ok = ref != "not-exists" and check(inst.inst, witness, item.query).stable
    elif status == "not-exists":
        ok = ref == "not-exists"
    else:
        ok = status == "unknown"
    return ok, status, algorithm
