"""Randomized verification suites.

Each suite draws reproducible random instances, checks a family of claims
(implication lattice, solver-vs-oracle agreement, existence guarantees,
per-layer bounds, characterization agreement, reduction equivalence), and
reports a failure count.  The CLI bench command and the acceptance tests run
the same code.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .blocking import Matching, stable_in_layer, strong_char_check, weak_char_check
from .errors import BadParameters
from .graphalg import SimpleGraph, maximum_matching
from .model import MultilayerInstance, build_instance, is_symmetric
from .oracle import (
    _iter_partner_arrays,
    enumerate_matchings,
    existence_table,
    oracle_layer_superstable,
    oracle_solve,
)
from .reductions import (
    CnfFormula,
    degree_partition_brute_force,
    gen_random,
    independent_set_brute_force,
    reduce_degreepartition_to_pair_super,
    reduce_is_to_global_strong,
    reduce_sat_to_alllayers_weak,
    sat_brute_force,
)
from .solvers import (
    SOLVERS,
    InstanceFacts,
    dispatch,
    layer_superstable_set,
    solve_by_changing,
    solve_by_types,
    solve_strong_global_symmetric,
    solve_weak_lowalpha,
)
from .verify import StabilityQuery, all_queries, check

__all__ = ["BenchReport", "SUITES", "run_suite", "random_instance"]


@dataclass
class BenchReport:
    suite: str
    trials: int
    failures: int
    elapsed: float
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} suite={self.suite} trials={self.trials} "
            f"failures={self.failures} elapsed={self.elapsed:.2f}s"
        )

    def note(self, text: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(text)


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


def _exists_by_oracle(table, q: StabilityQuery, ell: int) -> bool:
    glob, pair_min, ind_min = table[q.base]
    alpha = q.effective_alpha(ell)
    if q.agg in ("all", "global"):
        return glob >= alpha
    if q.agg == "pair":
        return pair_min >= alpha
    return ind_min >= alpha


def _score(report: BenchReport, name: str, res, truth: bool, inst, q) -> None:
    """Count a failure unless the solver's status is the oracle's answer and
    its witness, if any, passes ``check``."""
    if res.status != ("exists" if truth else "not-exists"):
        report.failures += 1
        report.note(
            f"{name} said {res.status}, oracle {truth} on "
            f"{q.describe()} n={inst.n} ell={inst.ell}"
        )
    elif truth and not check(inst, res.matching, q).stable:
        report.failures += 1
        report.note(f"{name} witness fails {q.describe()}")


# ---------------------------------------------------------------------------


def run_lattice(trials: int = 1000, seed: int = 2024) -> BenchReport:
    """Implication lattice over random (instance, matching, base, alpha)."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("lattice", trials, 0, 0.0)
    for _ in range(trials):
        inst = random_instance(rng)
        m = random_matching(rng, inst.n)
        base = rng.choice(("weak", "strong", "super"))
        alpha = rng.randint(1, inst.ell)
        ell = inst.ell

        def stable(agg, a=None):
            return check(inst, m, StabilityQuery(base, agg, a)).stable

        bad = []
        allv = stable("all")
        glob = stable("global", alpha)
        pair = stable("pair", alpha)
        glob1 = stable("global", 1)
        pair1 = stable("pair", 1)
        if allv and not glob:
            bad.append("all=>global")
        if allv and not pair:
            bad.append("all=>pair")
        if glob and not pair:
            bad.append("global=>pair")
        if glob and not glob1:
            bad.append("global=>1-global")
        if pair and not pair1:
            bad.append("pair=>1-pair")
        if glob1 and not pair1:
            bad.append("1-global=>1-pair")
        if base != "strong":
            ind_ell = stable("individual", ell)
            ind = stable("individual", alpha)
            ind1 = stable("individual", 1)
            if ind_ell and not allv:
                bad.append("ell-individual=>all")
            if ind_ell and not ind:
                bad.append("ell-individual=>individual")
            if ind and not pair:
                bad.append("individual=>pair")
            if ind and not ind1:
                bad.append("individual=>1-individual")
            if pair1 != ind1:
                bad.append("1-pair<=>1-individual")
        if bad:
            report.failures += 1
            report.note(f"{bad} base={base} alpha={alpha} m={m.pairs}")
    report.elapsed = time.perf_counter() - start
    return report


def run_solver_vs_oracle(trials: int = 500, seed: int = 77) -> BenchReport:
    """Every ``SOLVERS`` route agrees with the oracle on each query its gate
    admits and every witness it returns passes ``check``; the dispatcher
    agrees on a per-instance query sample."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("solver-vs-oracle", trials, 0, 0.0)
    for _ in range(trials):
        inst = random_instance(rng)
        facts = InstanceFacts(inst)
        table = existence_table(inst)
        queries = all_queries(inst.ell)
        for q in queries:
            truth = _exists_by_oracle(table, q, inst.ell)
            alpha = q.effective_alpha(inst.ell)
            for solver in SOLVERS:
                if solver.applies(facts, q, alpha):
                    _score(report, solver.name, solver.run(inst, q, alpha), truth, inst, q)
        for q in rng.sample(queries, min(6, len(queries))):
            truth = _exists_by_oracle(table, q, inst.ell)
            res = dispatch(inst, q)
            _score(report, f"dispatch[{res.algorithm}]", res, truth, inst, q)
    report.elapsed = time.perf_counter() - start
    return report


def run_weak_lowalpha(trials: int = 500, seed: int = 4096) -> BenchReport:
    """The low-degree weak construction always returns a verifying matching."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("weak-lowalpha", trials, 0, 0.0)
    for _ in range(trials):
        inst = random_instance(rng, n_max=10)
        for alpha in range(1, (inst.ell + 1) // 2 + 1):
            m = solve_weak_lowalpha(inst, alpha)
            ok = check(inst, m, StabilityQuery("weak", "individual", alpha)).stable
            ok = ok and check(inst, m, StabilityQuery("weak", "pair", alpha)).stable
            if not ok:
                report.failures += 1
                report.note(f"alpha={alpha} n={inst.n} ell={inst.ell}")
    report.elapsed = time.perf_counter() - start
    return report


def run_superstable_count(trials: int = 500, seed: int = 31337) -> BenchReport:
    """Per layer: at most three super stable matchings, matching the oracle."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("superstable-count", trials, 0, 0.0)
    for _ in range(trials):
        inst = random_instance(rng)
        layer = rng.randrange(inst.ell)
        fast = layer_superstable_set(inst, layer)
        slow = oracle_layer_superstable(inst, layer)
        if len(fast) > 3 or sorted(m.pairs for m in fast) != sorted(
            m.pairs for m in slow
        ):
            report.failures += 1
            report.note(f"layer={layer} fast={len(fast)} oracle={len(slow)}")
    report.elapsed = time.perf_counter() - start
    return report


def run_characterizations(trials: int = 200, seed: int = 9) -> BenchReport:
    """Symmetric fast paths agree with the blocking-pair definition on every
    matching of small instances."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("characterizations", trials, 0, 0.0)
    for _ in range(trials):
        n = rng.randint(2, 6)
        ell = rng.randint(1, 3)
        inst = gen_random(
            n, ell, rng.choice([0.3, 0.6]), symmetric=True, seed=rng.getrandbits(32)
        )
        for m in enumerate_matchings(n):
            for i in range(ell):
                if weak_char_check(inst, m, i) != stable_in_layer(inst, m, i, "weak"):
                    report.failures += 1
                    report.note(f"weak mismatch layer={i} m={m.pairs}")
                if strong_char_check(inst, m, i) != stable_in_layer(
                    inst, m, i, "strong"
                ):
                    report.failures += 1
                    report.note(f"strong mismatch layer={i} m={m.pairs}")
    report.elapsed = time.perf_counter() - start
    return report


def run_fpt(trials: int = 400, seed: int = 555) -> BenchReport:
    """Few-changing-agents and few-types searches agree with the oracle on
    every applicable query (the trials alternate between the two shapes)."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("fpt", trials, 0, 0.0)
    for t in range(trials):
        if t % 2 == 0:
            inst = symmetric_lowbeta_instance(
                rng, rng.randint(2, 8), rng.randint(1, 4), beta=3
            )
        else:
            inst = lowtau_instance(rng, rng.randint(2, 8), rng.randint(1, 4), tau=3)
        symmetric = is_symmetric(inst)
        table = existence_table(inst)
        for q in all_queries(inst.ell):
            truth = _exists_by_oracle(table, q, inst.ell)
            results = [("types", solve_by_types(inst, q))]
            if symmetric:
                results.append(("changing", solve_by_changing(inst, q)))
            for name, res in results:
                _score(report, name, res, truth, inst, q)
    report.elapsed = time.perf_counter() - start
    return report


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


def run_graphalg(trials: int = 300, seed: int = 12) -> BenchReport:
    """Blossom-backed maximum matching equals brute force on small graphs."""
    rng = random.Random(seed)
    start = time.perf_counter()
    report = BenchReport("graphalg", trials, 0, 0.0)
    for _ in range(trials):
        n = rng.randint(1, 10)
        p = rng.choice([0.2, 0.4, 0.7])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = SimpleGraph.from_edges(n, edges)
        got = len(maximum_matching(g))
        want = brute_force_max_matching(g)
        if got != want:
            report.failures += 1
            report.note(f"n={n} edges={sorted(edges)} got={got} want={want}")
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# reduction equivalence corpus


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


def _sat_equivalent(formula: CnfFormula) -> bool:
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


def _all_graphs(max_n: int):
    for n in range(1, max_n + 1):
        all_edges = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            yield SimpleGraph.from_edges(n, edges)


def _is_equivalent(g: SimpleGraph, k: int) -> bool:
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


def _degpart_equivalent(g: SimpleGraph, ell: int, alpha: int) -> bool:
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


def run_reductions(seed: int = 0) -> BenchReport:
    """Desk-scale reduction equivalence: source brute force vs target verdict."""
    start = time.perf_counter()
    report = BenchReport("reductions", 0, 0, 0.0)
    for formula in sat_corpus():
        report.trials += 1
        if not _sat_equivalent(formula):
            report.failures += 1
            report.note(f"sat {formula.clauses}")
    for g in _all_graphs(4):
        for k in (1, 2):
            if k > g.n:
                continue
            report.trials += 1
            if not _is_equivalent(g, k):
                report.failures += 1
                report.note(f"is n={g.n} edges={g.sorted_edges()} k={k}")
    for g in _all_graphs(4):
        if g.n % 2 != 0:
            continue
        for ell, alpha in ((2, 1), (4, 2), (5, 2)):
            report.trials += 1
            if not _degpart_equivalent(g, ell, alpha):
                report.failures += 1
                report.note(
                    f"degpart n={g.n} edges={g.sorted_edges()} ell={ell} alpha={alpha}"
                )
    report.elapsed = time.perf_counter() - start
    return report


SUITES = {
    "lattice": run_lattice,
    "solver-vs-oracle": run_solver_vs_oracle,
    "weak-lowalpha": run_weak_lowalpha,
    "superstable-count": run_superstable_count,
    "characterizations": run_characterizations,
    "fpt": run_fpt,
    "graphalg": run_graphalg,
    "reductions": run_reductions,
}


def run_suite(
    name: str, trials: int | None = None, seed: int | None = None
) -> BenchReport:
    fn = SUITES[name]
    if trials is not None and trials < 0:
        raise BadParameters(f"negative trial count {trials}")
    kwargs = {}
    if trials is not None and name != "reductions":
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = seed
    return fn(**kwargs)
