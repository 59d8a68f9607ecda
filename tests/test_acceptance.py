"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3-10 are seeded randomized suites: each draws its corpus, collects
the cases that fail, and asserts that none did and that the whole suite ran
within its time bound.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines.
"""

import random
import time

from corpus import (
    all_graphs,
    brute_force_max_matching,
    degpart_equivalent,
    exists_by_oracle,
    is_equivalent,
    lowtau_instance,
    oracle_layer_superstable,
    random_instance,
    random_matching,
    sat_corpus,
    sat_equivalent,
    strong_char_check,
    symmetric_lowbeta_instance,
    weak_char_check,
)
from mlsm.blocking import stable_in_layer
from mlsm.graphalg import SimpleGraph, maximum_matching
from mlsm.model import is_symmetric
from mlsm.oracle import DEFAULT_BUDGET, enumerate_matchings, existence_table
from mlsm.reductions import gen_random
from mlsm.solvers import (
    SOLVERS,
    dispatch,
    layer_superstable_set,
    solve_by_changing,
    solve_by_types,
    solve_weak_lowalpha,
)
from mlsm.verify import StabilityQuery, all_queries, check


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _report_suite(
    number: int, name: str, trials: int, failures: list[str], start: float, bound: float
) -> None:
    """The suite passes with no failing case and within ``bound`` seconds."""
    elapsed = time.perf_counter() - start
    detail = f"trials={trials} failures={len(failures)} elapsed={elapsed:.2f}s"
    if failures:
        detail += f"; first: {failures[:5]}"
    _report(number, name, not failures and elapsed < bound, detail)


def _score(failures: list[str], name: str, res, truth: bool, inst, q) -> None:
    """A failing case unless the solver's status is the oracle's answer and
    its witness, if any, passes ``check``."""
    if res.status != ("exists" if truth else "not-exists"):
        failures.append(
            f"{name} said {res.status}, oracle {truth} on "
            f"{q.describe()} n={inst.n} ell={inst.ell}"
        )
    elif truth and not check(inst, res.matching, q).stable:
        failures.append(f"{name} witness fails {q.describe()}")


def _timed_checks(inst, cases, repeats: int = 50) -> tuple[bool, float]:
    """Run the (matching, query, expected) cases; return correctness and the
    mean wall time of one full pass in milliseconds."""
    ok = all(
        check(inst, m, q).stable is expected for m, q, expected in cases
    )
    t0 = time.perf_counter()
    for _ in range(repeats):
        for m, q, _ in cases:
            check(inst, m, q)
    per_pass_ms = (time.perf_counter() - t0) * 1000 / repeats
    return ok, per_pass_ms


def test_criterion_1_example_matrix(ex1, m1, m2):
    q = StabilityQuery
    cases = [
        (m1, q("weak", "all"), True),
        (m1, q("strong", "global", 2), True),
        (m1, q("super", "global", 1), True),
        (m1, q("super", "global", 2), False),
        (m1, q("super", "pair", 2), True),
        (m1, q("super", "individual", 2), True),
        (m2, q("weak", "global", 2), True),
        (m2, q("weak", "pair", 2), True),
        (m2, q("weak", "individual", 2), False),
        (m2, q("weak", "individual", 1), True),
        (m2, q("strong", "pair", 1), False),
        (m2, q("super", "pair", 1), False),
    ]
    witness = check(ex1, m1, q("strong", "global", 2)).witness_layers
    ok, per_pass_ms = _timed_checks(ex1, cases)
    ok = ok and witness == frozenset({0, 2})
    per_check_ms = per_pass_ms / len(cases)
    ok = ok and per_check_ms < 1.0
    _report(1, "example-matrix", ok, f"12 checks, {per_check_ms:.4f} ms/check")


def test_criterion_2_footnote_separation(ex2, ex2_modified, m1):
    q = StabilityQuery
    cases = [
        (m1, q("super", "all"), True),
        (m1, q("super", "individual", 2), False),
    ]
    ok1, ms1 = _timed_checks(ex2, cases)
    cases_mod = [
        (m1, q("weak", "all"), True),
        (m1, q("weak", "individual", 2), False),
    ]
    ok2, ms2 = _timed_checks(ex2_modified, cases_mod)
    per_check_ms = (ms1 + ms2) / 4
    ok = ok1 and ok2 and per_check_ms < 1.0
    _report(2, "footnote-separation", ok, f"4 checks, {per_check_ms:.4f} ms/check")


def test_criterion_3_implication_lattice():
    """Implication lattice over random (instance, matching, base, alpha)."""
    trials, rng = 1000, random.Random(2024)
    start = time.perf_counter()
    failures = []
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
            failures.append(f"{bad} base={base} alpha={alpha} m={m.pairs}")
    _report_suite(3, "lattice", trials, failures, start, 10)


def test_criterion_4_solver_vs_oracle():
    """Every ``SOLVERS`` route agrees with the oracle on each query its gate
    admits and every witness it returns passes ``check``; the dispatcher
    agrees on a per-instance query sample."""
    trials, rng = 500, random.Random(77)
    start = time.perf_counter()
    failures = []
    for _ in range(trials):
        inst = random_instance(rng)
        table = existence_table(inst)
        queries = all_queries(inst.ell)
        for q in queries:
            truth = exists_by_oracle(table, q, inst.ell)
            alpha = q.effective_alpha(inst.ell)
            for solver in SOLVERS:
                if solver.applies(inst, q, alpha):
                    res = solver.run(inst, q, alpha, DEFAULT_BUDGET)
                    _score(failures, solver.name, res, truth, inst, q)
        for q in rng.sample(queries, min(6, len(queries))):
            truth = exists_by_oracle(table, q, inst.ell)
            res = dispatch(inst, q)
            _score(failures, f"dispatch[{res.algorithm}]", res, truth, inst, q)
    _report_suite(4, "solver-vs-oracle", trials, failures, start, 60)


def test_criterion_5_weak_lowalpha_existence():
    """The low-degree weak construction always returns a verifying matching."""
    trials, rng = 500, random.Random(4096)
    start = time.perf_counter()
    failures = []
    for _ in range(trials):
        inst = random_instance(rng, n_max=10)
        for alpha in range(1, (inst.ell + 1) // 2 + 1):
            m = solve_weak_lowalpha(inst, alpha)
            ok = check(inst, m, StabilityQuery("weak", "individual", alpha)).stable
            ok = ok and check(inst, m, StabilityQuery("weak", "pair", alpha)).stable
            if not ok:
                failures.append(f"alpha={alpha} n={inst.n} ell={inst.ell}")
    _report_suite(5, "weak-lowalpha", trials, failures, start, 10)


def test_criterion_6_superstable_bound():
    """Per layer: at most one super stable matching, matching the oracle."""
    trials, rng = 500, random.Random(31337)
    start = time.perf_counter()
    failures = []
    for _ in range(trials):
        inst = random_instance(rng)
        layer = rng.randrange(inst.ell)
        fast = layer_superstable_set(inst, layer)
        slow = oracle_layer_superstable(inst, layer)
        if len(fast) > 1 or sorted(m.pairs for m in fast) != sorted(
            m.pairs for m in slow
        ):
            failures.append(f"layer={layer} fast={len(fast)} oracle={len(slow)}")
    _report_suite(6, "superstable-count", trials, failures, start, 30)


def test_criterion_7_characterizations():
    """The symmetric characterizations agree with the blocking-pair
    definition on every matching of small instances."""
    trials, rng = 200, random.Random(9)
    start = time.perf_counter()
    failures = []
    for _ in range(trials):
        n = rng.randint(2, 6)
        ell = rng.randint(1, 3)
        inst = gen_random(
            n, ell, rng.choice([0.3, 0.6]), symmetric=True, seed=rng.getrandbits(32)
        )
        for m in enumerate_matchings(n):
            for i in range(ell):
                if weak_char_check(inst, m, i) != stable_in_layer(inst, m, i, "weak"):
                    failures.append(f"weak mismatch layer={i} m={m.pairs}")
                if strong_char_check(inst, m, i) != stable_in_layer(
                    inst, m, i, "strong"
                ):
                    failures.append(f"strong mismatch layer={i} m={m.pairs}")
    _report_suite(7, "characterizations", trials, failures, start, 30)


def test_criterion_8_reduction_equivalence():
    """Desk-scale reduction equivalence: source brute force vs target verdict."""
    start = time.perf_counter()
    trials, failures = 0, []
    for formula in sat_corpus():
        trials += 1
        if not sat_equivalent(formula):
            failures.append(f"sat {formula.clauses}")
    for g in all_graphs(4):
        for k in (1, 2):
            if k > g.n:
                continue
            trials += 1
            if not is_equivalent(g, k):
                failures.append(f"is n={g.n} edges={g.sorted_edges()} k={k}")
    for g in all_graphs(4):
        if g.n % 2 != 0:
            continue
        for ell, alpha in ((2, 1), (4, 2), (5, 2)):
            trials += 1
            if not degpart_equivalent(g, ell, alpha):
                failures.append(
                    f"degpart n={g.n} edges={g.sorted_edges()} ell={ell} alpha={alpha}"
                )
    _report_suite(8, "reductions", trials, failures, start, 120)


def test_criterion_9_fpt_algorithms():
    """Few-changing-agents and few-types searches agree with the oracle on
    every applicable query (the trials alternate between the two shapes)."""
    trials, rng = 400, random.Random(555)
    start = time.perf_counter()
    failures = []
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
            truth = exists_by_oracle(table, q, inst.ell)
            results = [("types", solve_by_types(inst, q))]
            if symmetric:
                results.append(("changing", solve_by_changing(inst, q)))
            for name, res in results:
                _score(failures, name, res, truth, inst, q)
    _report_suite(9, "fpt", trials, failures, start, 120)


def test_criterion_10_graphalg():
    """Blossom-backed maximum matching equals brute force on small graphs."""
    trials, rng = 300, random.Random(12)
    start = time.perf_counter()
    failures = []
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
            failures.append(f"n={n} edges={sorted(edges)} got={got} want={want}")
    _report_suite(10, "graphalg", trials, failures, start, 10)
