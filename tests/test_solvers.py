import ast
import importlib
import inspect
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    exists_by_oracle,
    lowtau_instance,
    oracle_layer_superstable,
    super_threshold_reference,
    symmetric_lowbeta_instance,
)
import mlsm.solvers as solvers
from mlsm.errors import AlphaTooHigh, AlphaTooLow, BadParameters, BudgetExceeded, MlsmError, NotSymmetric, UncertifiedWitness
from mlsm.model import agent_types, build_instance, changing_agents
from mlsm.oracle import OracleBudget, _iter_partner_arrays, existence_table
from mlsm.reductions import gen_random, reduce_is_to_global_strong
from mlsm.blocking import Matching
from mlsm.graphalg import SimpleGraph, has_perfect_matching, saturating_matching
from mlsm.solvers import (
    SOLVERS,
    _strong_matching,
    dispatch,
    layer_superstable_set,
    solve_by_changing,
    solve_by_types,
    solve_strong_alllayers_symmetric,
    solve_strong_global_symmetric,
    solve_super_global,
    solve_super_individual_highalpha,
    solve_super_pair_fpt,
    solve_super_pair_veryhighalpha,
    solve_weak_lowalpha,
    threshold_graph,
)
from mlsm.verify import StabilityQuery, all_queries, check


# ---------------------------------------------------------------------------
# weak, low alpha


def test_weak_lowalpha_threshold_graph(ex1):
    g = threshold_graph(ex1, 2)
    assert g.edges == frozenset({(0, 1)})
    m = solve_weak_lowalpha(ex1, 2)
    assert m.pairs == ((0, 1),)
    assert check(ex1, m, StabilityQuery("weak", "individual", 2)).stable


def test_threshold_graph_matches_definition():
    rng = random.Random(71)
    for trial in range(60):
        inst = gen_random(
            rng.randint(2, 9),
            rng.randint(1, 5),
            rng.choice([0.2, 0.5, 0.8]),
            symmetric=trial % 2 == 0,
            seed=rng.getrandbits(30),
        )
        lay = inst.approvals
        for k in range(1, inst.ell + 1):
            want = {
                (a, b)
                for a in range(inst.n)
                for b in range(a + 1, inst.n)
                if sum(b in lay[i][a] for i in range(inst.ell)) >= k
                and sum(a in lay[i][b] for i in range(inst.ell)) >= k
            }
            assert threshold_graph(inst, k).edges == want
            if trial % 2 == 0:  # symmetric: layers with both directions at once
                assert want == {
                    (a, b)
                    for a in range(inst.n)
                    for b in range(a + 1, inst.n)
                    if sum(b in lay[i][a] and a in lay[i][b] for i in range(inst.ell)) >= k
                }
    with pytest.raises(BadParameters):
        threshold_graph(inst, 0)


def test_weak_lowalpha_no_approvals():
    inst = build_instance(4, 2, [[set()] * 4] * 2)
    m = solve_weak_lowalpha(inst, 1)
    assert m.pairs == ()
    assert check(inst, m, StabilityQuery("weak", "pair", 1)).stable


def test_weak_lowalpha_rejects_high_alpha(ex1):
    with pytest.raises(AlphaTooHigh):
        solve_weak_lowalpha(ex1, 3)


def test_weak_lowalpha_always_verifies():
    rng = random.Random(17)
    for _ in range(60):
        inst = gen_random(
            rng.randint(2, 9),
            rng.randint(1, 4),
            rng.choice([0.2, 0.6]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        for alpha in range(1, (inst.ell + 1) // 2 + 1):
            m = solve_weak_lowalpha(inst, alpha)
            assert check(inst, m, StabilityQuery("weak", "individual", alpha)).stable


# ---------------------------------------------------------------------------
# strong, symmetric


def test_strong_alllayers_fixture(ex2):
    m = solve_strong_alllayers_symmetric(ex2)
    assert m.pairs == ((0, 1), (2, 3))
    assert check(ex2, m, StabilityQuery("strong", "all")).stable


def test_strong_alllayers_triangle(triangle):
    assert solve_strong_alllayers_symmetric(triangle) is None


def test_strong_alllayers_odd_without_silent_agent():
    # odd n and every agent approves somebody somewhere: no stable matching
    inst = build_instance(5, 1, [[{1, 4}, {0}, {3}, {2}, {0}]])
    assert solve_strong_alllayers_symmetric(inst) is None


def test_strong_alllayers_odd_with_silent_agent():
    inst = build_instance(3, 2, [[{1}, {0}, set()]] * 2)
    m = solve_strong_alllayers_symmetric(inst)
    assert m.pairs == ((0, 1),)


def test_strong_alllayers_requires_symmetry(ex1):
    with pytest.raises(NotSymmetric):
        solve_strong_alllayers_symmetric(ex1)


def test_strong_global_fixture(ex2):
    assert solve_strong_global_symmetric(ex2, 1).exists
    full = solve_strong_global_symmetric(ex2, 2)
    assert full.exists and full.matching.pairs == ((0, 1), (2, 3))


def test_strong_global_triangle_reduction():
    triangle_graph = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    gen = reduce_is_to_global_strong(triangle_graph, 1)
    assert solve_strong_global_symmetric(gen.instance, 1).exists
    assert not solve_strong_global_symmetric(gen.instance, 2).exists


def _symmetric_with_silent_agents(rng):
    """Symmetric, sparse instance in which some agents approve nobody in
    some layers and a few approve nobody at all."""
    n = rng.randint(1, 9)
    ell = rng.randint(1, 3)
    quiet = {a for a in range(n) if rng.random() < 0.3}
    layers = []
    for _ in range(ell):
        talk = [a for a in range(n) if a not in quiet and rng.random() < 0.7]
        layer = [set() for _ in range(n)]
        for i, a in enumerate(talk):
            for b in talk[i + 1:]:
                if rng.random() < 0.4:
                    layer[a].add(b)
                    layer[b].add(a)
        layers.append(layer)
    return build_instance(n, ell, layers)


def _strong_by_definition(inst, layers):
    """All-layers strong stability over ``layers`` by its n^2*ell graph: an
    edge wherever, in every selected layer, the pair approves each other or
    both approve nobody; odd n drops the first agent silent in all of them
    and numbers the rest consecutively."""
    silent = lambda a, i: not inst.approvals[i][a]
    agents = list(range(inst.n))
    if inst.n % 2 == 1:
        victims = [a for a in agents if all(silent(a, i) for i in layers)]
        if not victims:
            return None
        agents.remove(victims[0])
    edges = [
        (x, y)
        for x, a in enumerate(agents)
        for y, b in enumerate(agents)
        if x < y
        and all(b in inst.approvals[i][a] or (silent(a, i) and silent(b, i)) for i in layers)
    ]
    m = has_perfect_matching(SimpleGraph.from_edges(len(agents), edges))
    return None if m is None else Matching.from_pairs((agents[x], agents[y]) for x, y in m.pairs)


def test_strong_solvers_match_definition():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        inst = _symmetric_with_silent_agents(rng)
        expected = _strong_by_definition(inst, range(inst.ell))
        assert solve_strong_alllayers_symmetric(inst) == expected
        outcomes.add((inst.n % 2, expected is not None))
        for alpha in range(1, inst.ell + 1):
            for sub in itertools.combinations(range(inst.ell), alpha):
                sel = sum(1 << i for i in sub)
                assert _strong_matching(inst, sel) == _strong_by_definition(inst, sub)
            subsets = itertools.combinations(range(inst.ell), alpha)
            found = [(m, set(sub)) for sub in subsets if (m := _strong_by_definition(inst, sub)) is not None]
            result = solve_strong_global_symmetric(inst, alpha)
            if not found:
                assert result.status == "not-exists"
                continue
            m, layers = found[0]
            assert result.exists and result.matching == m and result.witness_layers == layers
            assert check(inst, m, StabilityQuery("strong", "global", alpha)).stable
    assert outcomes == {(0, False), (0, True), (1, False), (1, True)}


@pytest.mark.parametrize("n", [2000, 2001])
def test_strong_graph_skips_silent_agents(n, monkeypatch):
    # agents 0-3 approve each other in all five layers, the rest nobody
    ell, talkers = 5, range(4)
    layer = [{b for b in talkers if b != a} if a in talkers else set() for a in range(n)]
    inst = build_instance(n, ell, [layer] * ell)
    graphs = []

    def recording(g):
        graphs.append(g)
        return has_perfect_matching(g)

    monkeypatch.setattr(solvers, "has_perfect_matching", recording)
    results = [(solve_strong_alllayers_symmetric(inst), StabilityQuery("strong", "all"))]
    for alpha in range(1, ell + 1):
        res = solve_strong_global_symmetric(inst, alpha)
        assert res.witness_layers == frozenset(range(alpha))
        results.append((res.matching, StabilityQuery("strong", "global", alpha)))
    assert len(graphs) == ell + 1
    for g in graphs:
        assert g.n == len(talkers)  # only the non-silent agents are vertices
        assert len(g.edges) <= 6  # at most one edge per approving pair
    for m, q in results:
        single = [a for a in range(n) if not m.covers(a)]
        assert single == ([4] if n % 2 else [])
        assert m.has_pair(0, 1) and m.has_pair(2, 3)
        assert check(inst, m, q).stable


# ---------------------------------------------------------------------------
# super stability


def test_layer_superstable_fixture(ex2):
    assert [m.pairs for m in layer_superstable_set(ex2, 0)] == [((0, 1), (2, 3))]


def test_layer_superstable_double_mutual_arc():
    inst = build_instance(3, 1, [[{1, 2}, {0}, {0}]])
    assert layer_superstable_set(inst, 0) == []


def test_layer_superstable_empty_layer_n4():
    inst = build_instance(4, 1, [[set()] * 4])
    assert layer_superstable_set(inst, 0) == []


def test_layer_superstable_matches_oracle():
    rng = random.Random(3)
    for _ in range(60):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 3),
            rng.choice([0.15, 0.4, 0.8]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        for i in range(inst.ell):
            fast = sorted(m.pairs for m in layer_superstable_set(inst, i))
            slow = sorted(m.pairs for m in oracle_layer_superstable(inst, i))
            assert fast == slow and len(fast) <= 3


def test_super_global_fixtures(ex1, ex2):
    r = solve_super_global(ex2, 2)
    assert r.exists and r.matching.pairs == ((0, 1), (2, 3))
    assert r.witness_layers == frozenset({0, 1})
    assert solve_super_global(ex1, 1).exists
    assert not solve_super_global(ex1, 2).exists


def _listed_candidates(inst):
    """Per candidate matching (sorted pairs), the number of layers listing
    it, written out: a layer's mutual pairs are forced, and when they are
    disjoint and leave at most three agents, each way to pair up those
    agents is one candidate."""
    n = inst.n
    listed = {}
    for lay in inst.approvals:
        forced = [(a, b) for a in range(n) for b in range(a + 1, n) if b in lay[a] and a in lay[b]]
        covered = [x for pair in forced for x in pair]
        rest = [x for x in range(n) if x not in covered]
        if len(set(covered)) < len(covered) or len(rest) > 3:
            continue
        for extra in [[]] if len(rest) <= 1 else [[pair] for pair in itertools.combinations(rest, 2)]:
            pairs = tuple(sorted(forced + extra))
            listed[pairs] = listed.get(pairs, 0) + 1
    return listed


def test_super_global_checks_each_listed_candidate_once(monkeypatch):
    # one global check per distinct candidate listed by >= alpha layers, in
    # candidate order up to the first that passes; dispatch reuses its verdict
    calls = []
    real_check = solvers.check

    def counting_check(inst, m, q):
        calls.append((m.pairs, q))
        return real_check(inst, m, q)

    monkeypatch.setattr(solvers, "check", counting_check)
    rng = random.Random(29)
    skipped = 0  # checks saved by the >= alpha listing filter
    for _ in range(80):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 4),
            rng.choice([0.3, 0.6, 0.9]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        listed = _listed_candidates(inst)
        for alpha in range(1, inst.ell + 1):
            q = StabilityQuery("super", "global", alpha)
            want = sorted(pairs for pairs, k in listed.items() if k >= alpha)
            calls.clear()
            r = solve_super_global(inst, alpha)
            if r.exists:
                want = want[: want.index(r.matching.pairs) + 1]
            assert calls == [(pairs, q) for pairs in want]
            skipped += any(
                k < alpha and (not r.exists or pairs < r.matching.pairs)
                for pairs, k in listed.items()
            )
            calls.clear()
            assert dispatch(inst, q) == r
            assert calls == [(pairs, q) for pairs in want]
    assert skipped


def test_super_alllayers_reuses_the_global_verdict(monkeypatch):
    # all-layers super is global(ell): dispatch certifies the route's witness
    # with the calls it makes for global(ell), and returns that verdict under q
    calls = []
    real_check = solvers.check

    def counting_check(inst, m, q):
        calls.append((m.pairs, q))
        return real_check(inst, m, q)

    monkeypatch.setattr(solvers, "check", counting_check)
    rng = random.Random(31)
    q = StabilityQuery("super", "all")
    found = 0
    for _ in range(60):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 4),
            rng.choice([0.3, 0.6, 0.9]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        calls.clear()
        want = dispatch(inst, StabilityQuery("super", "global", inst.ell))
        global_calls = list(calls)
        calls.clear()
        got = dispatch(inst, q)
        assert calls == global_calls
        assert (got.status, got.algorithm, got.matching, got.witness_layers) == (
            want.status, want.algorithm, want.matching, want.witness_layers
        )
        if got.exists:
            found += 1
            assert got.verdict.query == q
            assert got.verdict == real_check(inst, got.matching, q)
    assert found


def test_super_individual_highalpha_footnote(ex2):
    assert not solve_super_individual_highalpha(ex2, 2).exists


def test_super_threshold_forced_matching():
    # threshold graph is a perfect matching: forced pairs are the answer
    inst = build_instance(4, 2, [[{1}, {0}, {3}, {2}]] * 2)
    for solver, alpha in (
        (solve_super_individual_highalpha, 2),
        (solve_super_pair_veryhighalpha, 2),
        (solve_super_pair_fpt, 2),
    ):
        r = solver(inst, alpha)
        assert r.exists and r.matching.pairs == ((0, 1), (2, 3))


def test_super_threshold_degree_two_vertex():
    inst = build_instance(3, 2, [[{1, 2}, {0}, {0}]] * 2)
    assert not solve_super_individual_highalpha(inst, 2).exists
    assert not solve_super_pair_veryhighalpha(inst, 2).exists
    assert not solve_super_pair_fpt(inst, 2).exists


def test_super_alpha_guards(ex2):
    with pytest.raises(AlphaTooLow):
        solve_super_individual_highalpha(ex2, 1)
    with pytest.raises(AlphaTooLow):
        solve_super_pair_veryhighalpha(ex2, 1)
    with pytest.raises(AlphaTooLow):
        solve_super_pair_fpt(ex2, 1)
    with pytest.raises(NotSymmetric):
        solve_super_pair_fpt(
            build_instance(2, 2, [[{1}, set()]] * 2), 2
        )


def test_super_pair_single_layer_equals_layer_set():
    rng = random.Random(23)
    for _ in range(40):
        inst = gen_random(rng.randint(2, 7), 1, 0.5, symmetric=True,
                          seed=rng.getrandbits(30))
        r = solve_super_pair_veryhighalpha(inst, 1)
        assert r.exists == bool(layer_superstable_set(inst, 0))


def test_super_pair_fpt_agrees_with_veryhighalpha():
    rng = random.Random(29)
    for _ in range(60):
        inst = gen_random(
            rng.randint(2, 8),
            rng.randint(1, 4),
            rng.choice([0.2, 0.5]),
            symmetric=True,
            seed=rng.getrandbits(30),
        )
        for alpha in range(1, inst.ell + 1):
            if 3 * alpha > 2 * inst.ell:
                assert (
                    solve_super_pair_fpt(inst, alpha).exists
                    == solve_super_pair_veryhighalpha(inst, alpha).exists
                )


def test_super_pair_fpt_kernel_rejection():
    # ell=1, alpha=1: threshold graph empty on 5 agents > 2^2 isolated; the
    # rejection comes before the budget, so even a zero budget says so
    inst = build_instance(5, 1, [[set()] * 5])
    assert not solve_super_pair_fpt(inst, 1).exists
    assert solve_super_pair_fpt(inst, 1, OracleBudget(max_agents=0)).status == "not-exists"
    # a threshold-degree-two vertex: no skeleton
    fork = build_instance(3, 2, [[{1, 2}, {0}, {0}]] * 2)
    assert solve_super_pair_fpt(fork, 2, OracleBudget(max_agents=0)).status == "not-exists"


def test_super_pair_fpt_kernel_over_budget_is_unknown():
    # no approvals in 5 layers: every agent is isolated in the threshold graph
    q = StabilityQuery("super", "pair", 3)
    empty = build_instance(14, 5, [[set()] * 14] * 5)
    t0 = time.perf_counter()
    r = dispatch(empty, q)
    assert time.perf_counter() - t0 < 1.0
    assert (r.status, r.algorithm) == ("unknown", "super-pair-fpt")
    assert r.detail == "super-pair-fpt budget exceeded: 14 agents exceed the oracle budget of 12"
    with pytest.raises(BudgetExceeded):
        solve_super_pair_fpt(empty, 3)
    small = dispatch(build_instance(8, 5, [[set()] * 8] * 5), q)
    assert (small.status, small.algorithm) == ("not-exists", "super-pair-fpt")


def test_super_pair_fpt_empty_kernel_is_one_search(monkeypatch):
    # 12 isolated agents: T(12) = 140 152 completions, none stable; the
    # pruned search rules them out with at most one check
    calls = []

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(solvers, "check", counting_check)
    empty = build_instance(12, 5, [[set()] * 12] * 5)
    t0 = time.perf_counter()
    r = dispatch(empty, StabilityQuery("super", "pair", 3))
    assert time.perf_counter() - t0 < 0.5
    assert (r.status, r.algorithm) == ("not-exists", "super-pair-fpt")
    assert len(calls) <= 1


@given(
    st.tuples(
        st.integers(1, 11),
        st.integers(1, 5),
        st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6]),
        st.integers(0, 10_000),
    )
)
@example((8, 5, 0.0, 0))
@example((9, 3, 0.15, 7))
@settings(max_examples=150, deadline=None)
def test_super_threshold_routes_match_the_enumerating_reference(params):
    # each route returns the first stable completion of the old
    # enumerate-and-check loop, with the same status and witness
    n, ell, p, seed = params
    inst = gen_random(n, ell, p, symmetric=True, seed=seed)
    for alpha in range(ell // 2 + 1, ell + 1):
        routes = [
            (solve_super_individual_highalpha(inst, alpha), "individual", 2),
            (solve_super_pair_fpt(inst, alpha), "pair", 2 ** (ell + 1)),
        ]
        if 3 * alpha > 2 * ell:
            routes.append((solve_super_pair_veryhighalpha(inst, alpha), "pair", 2))
        for r, agg, most in routes:
            want = super_threshold_reference(inst, StabilityQuery("super", agg, alpha), most)
            assert r.status == ("not-exists" if want is None else "exists")
            assert r.matching == want


# ---------------------------------------------------------------------------
# parameterized solvers


def test_types_footnote(ex2):
    r = solve_by_types(ex2, StabilityQuery("super", "all"))
    assert r.exists and r.matching.pairs == ((0, 1), (2, 3))


def test_types_complete_mutual_even():
    inst = build_instance(4, 2, [[{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]] * 2)
    r = solve_by_types(inst, StabilityQuery("weak", "all"))
    assert r.exists and len(r.matching) == 2


def test_types_uniform_approvals_vs_oracle():
    # every agent approved by all others or by none, per layer
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 6)
        ell = rng.randint(1, 2)
        layers = []
        for _ in range(ell):
            popular = {a for a in range(n) if rng.random() < 0.5}
            layers.append(
                [popular - {a} for a in range(n)]
            )
        inst = build_instance(n, ell, layers)
        table = existence_table(inst)
        for q in all_queries(inst.ell):
            assert solve_by_types(inst, q).exists == exists_by_oracle(
                table, q, inst.ell
            )


def test_types_super_rejects_complete_graph():
    inst = build_instance(4, 1, [[{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]])
    assert not solve_by_types(inst, StabilityQuery("super", "all")).exists


def test_changing_no_changers_weak_always_exists():
    rng = random.Random(37)
    for _ in range(20):
        layer = gen_random(6, 1, 0.5, symmetric=True, seed=rng.getrandbits(30))
        inst = build_instance(6, 3, [list(layer.approvals[0])] * 3)
        r = solve_by_changing(inst, StabilityQuery("weak", "all"))
        assert r.exists


def test_changing_footnote_all_queries(ex2):
    table = existence_table(ex2)
    for q in all_queries(ex2.ell):
        assert solve_by_changing(ex2, q).exists == exists_by_oracle(table, q, 2)


def test_changing_requires_symmetry(ex1):
    with pytest.raises(NotSymmetric):
        solve_by_changing(ex1, StabilityQuery("weak", "all"))


def test_changing_lowbeta_vs_oracle():
    rng = random.Random(41)
    for _ in range(20):
        inst = symmetric_lowbeta_instance(rng, rng.randint(2, 8), rng.randint(1, 4), 3)
        table = existence_table(inst)
        for q in all_queries(inst.ell):
            assert solve_by_changing(inst, q).exists == exists_by_oracle(
                table, q, inst.ell
            )


def _weak_candidates_by_definition(inst):
    """The weak candidates of the changing-agents search, spelled out: per
    pairing of the changing agents B, the static graph without the matched
    ones; per kept subset of the free ones and per subset C of B, the happy
    set is the kept agents plus every static agent approving someone in C."""
    changing = sorted(changing_agents(inst).agents)
    static = [a for a in range(inst.n) if a not in changing]
    approvals = inst.approvals[0]  # static rows agree in every layer
    out = []
    for partner in _iter_partner_arrays(len(changing)):
        b_pairs = [(changing[i], changing[j]) for i, j in enumerate(partner) if j > i]
        matched = {a for pair in b_pairs for a in pair}
        free = [b for b in changing if b not in matched]
        g = SimpleGraph.from_edges(inst.n, [
            (a, c) for a in static for c in approvals[a] if c not in matched
        ])
        happy_sets = set()
        for keep in range(1 << len(free)):
            kept = {b for k, b in enumerate(free) if keep >> k & 1}
            for pick in range(1 << len(changing)):
                chosen = [b for k, b in enumerate(changing) if pick >> k & 1]
                happy_sets.add(frozenset(kept.union(
                    *({a for a in static if b in approvals[a]} for b in chosen)
                )))
        for happy in sorted(happy_sets, key=sorted):
            sat = saturating_matching(g, happy)
            if sat is not None:
                cand = Matching.from_pairs(b_pairs + list(sat.pairs))
                if cand not in out:
                    out.append(cand)
    return tuple(out)


def test_changing_weak_candidates_match_definition():
    rng = random.Random(43)
    for _ in range(40):
        inst = symmetric_lowbeta_instance(rng, rng.randint(2, 8), rng.randint(1, 4), 3)
        weak, _ = solvers._changing_candidates(inst)
        assert tuple(weak) == _weak_candidates_by_definition(inst)


def _counting(monkeypatch, name):
    """Count the calls ``solvers`` makes to its module-level ``name``."""
    calls = []
    real = getattr(solvers, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, name, counted)
    return calls


def test_changing_weak_exists_builds_a_prefix(monkeypatch):
    # an exists stops at its witness; materializing the family pays for all
    calls = _counting(monkeypatch, "saturating_matching")
    rng = random.Random(43)
    q = StabilityQuery("weak", "all")
    prefix, whole = [], []
    for _ in range(10):
        inst = symmetric_lowbeta_instance(rng, rng.randint(5, 9), rng.randint(2, 4), 4)
        solvers._changing_candidates.cache_clear()
        calls.clear()
        assert solve_by_changing(inst, q).exists
        prefix.append(len(calls))
        tuple(solvers._changing_candidates(inst)[0])
        whole.append(len(calls))
    assert all(p <= w for p, w in zip(prefix, whole))
    assert prefix[1] < whole[1] and 2 * sum(prefix) < sum(whole)


def test_changing_candidates_replay_and_interleave(monkeypatch):
    rng = random.Random(47)
    for _ in range(10):
        inst = symmetric_lowbeta_instance(rng, rng.randint(2, 8), rng.randint(1, 4), 3)
        expected = _weak_candidates_by_definition(inst)
        solvers._changing_candidates.cache_clear()
        weak, mcm = solvers._changing_candidates(inst)
        # two iterators in lockstep, then a replay of the stored items
        pairs = list(itertools.zip_longest(weak, weak))
        assert tuple(a for a, _ in pairs) == tuple(b for _, b in pairs) == expected
        assert tuple(weak) == expected
        # one iterator stopped after its first item, another run to the end
        first = iter(mcm)
        head = next(first)
        everything = tuple(mcm)
        assert everything[0] == head and tuple(first) == everything[1:]
        assert len(set(everything)) == len(everything)
    # a cleared cache starts over: new tables, and the work is done again
    calls = _counting(monkeypatch, "saturating_matching")
    assert tuple(solvers._changing_candidates(inst)[0]) == expected and not calls
    solvers._changing_candidates.cache_clear()
    weak_again, _ = solvers._changing_candidates(inst)
    assert weak_again is not weak
    assert tuple(weak_again) == expected and calls


def test_lazy_sequence_survives_an_interrupted_pull():
    # an exception inside a pull is no end of the sequence
    state = {"fail": True}

    def make():
        yield 1
        if state.pop("fail", False):
            raise KeyboardInterrupt
        yield 2

    seq = solvers._Lazy(make)
    with pytest.raises(KeyboardInterrupt):
        tuple(seq)
    assert tuple(seq) == (1, 2) and tuple(seq) == (1, 2)


# ---------------------------------------------------------------------------
# dispatcher


def test_dispatch_routes_weak_lowalpha(ex1):
    r = dispatch(ex1, StabilityQuery("weak", "pair", 2))
    assert r.algorithm == "weak-lowalpha" and r.exists


def test_dispatch_routes_super_global(ex1):
    r = dispatch(ex1, StabilityQuery("super", "global", 1))
    assert r.algorithm == "super-global" and r.exists


def test_dispatch_routes_strong_symmetric(ex2):
    r = dispatch(ex2, StabilityQuery("strong", "all"))
    assert r.algorithm == "strong-alllayers-symmetric" and r.exists


_PATH6 = [{1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4}]  # six types, no changing agent
ROUTE_CASES = [
    ("weak-lowalpha", "ex1", StabilityQuery("weak", "pair", 2)),
    ("super-global", "ex1", StabilityQuery("super", "global", 1)),
    ("strong-alllayers-symmetric", "ex2", StabilityQuery("strong", "all")),
    ("strong-global-symmetric", "ex2", StabilityQuery("strong", "global", 1)),
    ("super-individual-highalpha", "ex2", StabilityQuery("super", "individual", 2)),
    ("super-pair-veryhighalpha", "ex2", StabilityQuery("super", "pair", 2)),
    ("super-pair-fpt", build_instance(4, 5, [[{1}, {0}, {3}, {2}]] * 5),
     StabilityQuery("super", "pair", 3)),
    ("agent-types", "ex2", StabilityQuery("weak", "all")),
    ("changing-agents", build_instance(6, 2, [_PATH6] * 2), StabilityQuery("weak", "all")),
    ("oracle", "ex1", StabilityQuery("weak", "all")),
    ("none", gen_random(30, 2, 0.3, seed=13), StabilityQuery("weak", "all")),
]


def test_route_cases_cover_the_table():
    names = [name for name, _, _ in ROUTE_CASES]
    assert names == [s.name for s in SOLVERS] + ["oracle", "none"]


@pytest.mark.parametrize("name, inst, q", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_dispatch_route(name, inst, q, request):
    if isinstance(inst, str):
        inst = request.getfixturevalue(inst)
    r = dispatch(inst, q, OracleBudget(max_agents=8))
    assert r.algorithm == name
    assert (r.status == "unknown") == (name == "none")
    if r.exists:
        assert check(inst, r.matching, q).stable


def test_dispatch_unknown_when_out_of_reach():
    # large, many types, many changing agents, tiny oracle budget
    q = StabilityQuery("weak", "all")
    inst = gen_random(30, 2, 0.3, seed=13)
    tau = agent_types(inst).tau
    r = dispatch(inst, q, OracleBudget(max_agents=8))
    assert r.status == "unknown"
    assert f"tau={tau} > 3, asymmetric, n=30 > oracle budget 8" in r.detail
    sym = gen_random(30, 2, 0.3, symmetric=True, seed=13)
    tau, beta = agent_types(sym).tau, changing_agents(sym).beta
    r = dispatch(sym, q, OracleBudget(max_agents=8))
    assert r.status == "unknown"
    assert f"tau={tau} > 3, beta={beta} > 5, n=30 > oracle budget 8" in r.detail


def test_dispatch_unknown_when_oracle_budget_runs_out():
    # dense and asymmetric, so only the oracle applies; it stops at once
    q = StabilityQuery("weak", "all")
    inst = gen_random(9, 3, 0.8, seed=4)
    assert agent_types(inst).tau > 3
    r = dispatch(inst, q, OracleBudget(max_matchings=1))
    assert (r.status, r.algorithm, r.matching) == ("unknown", "oracle", None)
    assert "oracle budget exceeded" in r.detail and "max_matchings=1" in r.detail
    assert dispatch(inst, q).status != "unknown"


def test_row_fingerprints_bound_tau():
    # twins share (len(row), sum(row.values())), adjacent twins included
    rng = random.Random(71)
    corpus = [lowtau_instance(rng, rng.randint(2, 12), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60)]
    corpus += [
        gen_random(rng.randint(2, 12), rng.randint(1, 4), rng.choice([0.2, 0.6, 1.0]),
                   symmetric=rng.random() < 0.5, seed=rng.getrandbits(30))
        for _ in range(60)
    ]
    adjacent = 0
    for inst in corpus:
        tau = agent_types(inst).tau
        rows = inst.approval_masks
        assert len({(len(row), sum(row.values())) for row in rows}) <= tau
        adjacent += any(a in rows[b] for block in agent_types(inst).blocks for a in block for b in block)
        facts = solvers.InstanceFacts(inst)
        assert [facts.tau_at_most(k) for k in range(6)] == [tau <= k for k in range(6)]
    assert adjacent >= 10


def test_agent_types_gate_rejects_dense_instances_from_fingerprints(monkeypatch):
    # dense and asymmetric, so the query goes to the oracle; the gate's
    # row scan rejects tau <= 3 without computing the types
    inst = gen_random(9, 3, 0.8, seed=4)
    calls = _counting(monkeypatch, "agent_types")
    r = dispatch(inst, StabilityQuery("weak", "all"))
    assert r.algorithm == "oracle" and not calls


@pytest.mark.parametrize(
    "route, solver, q",
    [
        ("weak-lowalpha", "solve_weak_lowalpha", StabilityQuery("weak", "pair", 2)),
        ("oracle", "oracle_solve", StabilityQuery("weak", "all")),
    ],
)
def test_dispatch_rejects_uncertified_witness(ex1, monkeypatch, route, solver, q):
    # the empty matching leaves ex1's pair a-b weakly blocking in every layer
    assert not check(ex1, Matching(()), q).stable
    monkeypatch.setattr(solvers, solver, lambda *args: Matching(()))
    with pytest.raises(UncertifiedWitness, match=f"{route} .* {q.describe()}"):
        dispatch(ex1, q)
    assert not issubclass(UncertifiedWitness, MlsmError)


@pytest.mark.parametrize(
    "name", ["super-pair-veryhighalpha", "super-pair-fpt", "agent-types", "changing-agents"]
)
def test_dispatch_certifies_each_witness_once(name, monkeypatch, request):
    # these routes check their own candidate; dispatch reuses that verdict
    _, inst, q = next(case for case in ROUTE_CASES if case[0] == name)
    if isinstance(inst, str):
        inst = request.getfixturevalue(inst)
    calls = []

    def counting_check(i, m, query):
        calls.append((i, m, query))
        return check(i, m, query)

    monkeypatch.setattr(solvers, "check", counting_check)
    r = dispatch(inst, q)
    assert r.algorithm == name and r.exists
    assert sum(1 for i, m, query in calls if i is inst and m == r.matching and query == q) == 1
    assert r.verdict == check(inst, r.matching, q) and r.verdict.stable


def test_traced_names_are_module_functions():
    # the traced benchmark run wraps these names; a rename must fail here
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED"
    )
    for module, names in traced.items():
        mod = importlib.import_module(module)
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module, f"{module}.{name}"


def test_parameterized_solvers_at_high_layer_counts():
    rng = random.Random(60606)
    from mlsm.model import is_symmetric

    for _ in range(10):
        inst = gen_random(
            rng.randint(2, 6),
            rng.choice([5, 6]),
            rng.choice([0.2, 0.5, 0.8]),
            symmetric=rng.random() < 0.6,
            seed=rng.getrandbits(30),
        )
        table = existence_table(inst)
        sym = is_symmetric(inst)
        for q in all_queries(inst.ell):
            truth = exists_by_oracle(table, q, inst.ell)
            assert solve_by_types(inst, q).exists == truth
            if sym:
                assert solve_by_changing(inst, q).exists == truth


def test_solvers_are_deterministic():
    from mlsm.solvers import _changing_candidates, _types_tables

    inst = gen_random(7, 3, 0.4, symmetric=True, seed=5150)
    _changing_candidates.cache_clear()
    first = tuple(map(tuple, _changing_candidates(inst)))
    _changing_candidates.cache_clear()
    assert tuple(map(tuple, _changing_candidates(inst))) == first
    _types_tables.cache_clear()
    q = StabilityQuery("weak", "all")
    assert dispatch(inst, q) == dispatch(inst, q)


def test_named_solver_witnesses_verify():
    rng = random.Random(53)
    for _ in range(40):
        inst = gen_random(
            rng.randint(2, 8),
            rng.randint(1, 4),
            rng.choice([0.25, 0.55]),
            symmetric=True,
            seed=rng.getrandbits(30),
        )
        ell = inst.ell
        for alpha in range(1, ell + 1):
            r = solve_super_global(inst, alpha)
            if r.exists:
                v = check(inst, r.matching, StabilityQuery("super", "global", alpha))
                assert v.stable and r.witness_layers <= v.witness_layers
            r = solve_strong_global_symmetric(inst, alpha)
            if r.exists:
                assert check(
                    inst, r.matching, StabilityQuery("strong", "global", alpha)
                ).stable
            if 2 * alpha > ell:
                r = solve_super_individual_highalpha(inst, alpha)
                if r.exists:
                    assert check(
                        inst, r.matching, StabilityQuery("super", "individual", alpha)
                    ).stable
                r = solve_super_pair_fpt(inst, alpha)
                if r.exists:
                    assert check(
                        inst, r.matching, StabilityQuery("super", "pair", alpha)
                    ).stable
        m = solve_strong_alllayers_symmetric(inst)
        if m is not None:
            assert check(inst, m, StabilityQuery("strong", "all")).stable


def test_dispatch_soundness_random():
    rng = random.Random(47)
    for _ in range(40):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 4),
            0.4,
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        table = existence_table(inst)
        for q in rng.sample(all_queries(inst.ell), 5):
            r = dispatch(inst, q)
            assert r.status != "unknown"
            assert r.exists == exists_by_oracle(table, q, inst.ell)
            if r.exists:
                assert check(inst, r.matching, q).stable
