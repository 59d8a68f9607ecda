import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import exists_by_oracle, oracle_layer_superstable, weak_char_check
from mlsm.errors import BadParameters, BudgetExceeded, IdOutOfRange
from mlsm.model import build_instance
from mlsm.oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    _search,
    enumerate_matchings,
    existence_table,
    oracle_all,
    oracle_solve,
)
from mlsm.reductions import gen_random
from mlsm.solvers import _kernel, threshold_graph
from mlsm.verify import StabilityQuery, _pair_cost, all_queries, check


def _telephone(n: int) -> int:
    # T(n) = T(n-1) + (n-1) T(n-2), the involution count
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n > 0 else 1


def test_enumeration_count_matches_involution_numbers():
    for n in range(0, 11):
        assert sum(1 for _ in enumerate_matchings(n)) == _telephone(n)
    assert _telephone(4) == 10 and _telephone(8) == 764


def test_enumeration_unique_and_valid():
    seen = set()
    for m in enumerate_matchings(6):
        assert m.pairs not in seen
        seen.add(m.pairs)
        covered = [a for pair in m.pairs for a in pair]
        assert len(covered) == len(set(covered))


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(20))
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(6, OracleBudget(max_matchings=10)))


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_enumeration_refuses_a_count_that_is_not_a_nonnegative_int(n):
    # -1 used to yield one empty matching, True to read as one agent and
    # 2.0 to raise a bare TypeError; the error comes at the first pull
    matchings = enumerate_matchings(n)
    with pytest.raises(IdOutOfRange, match="nonnegative int"):
        next(matchings)


def test_existence_table_stops_at_the_matching_budget():
    # 8 agents have 764 matchings; the table walks the counted enumeration,
    # so it stops where enumerate_matchings and oracle_all stop
    inst = gen_random(8, 2, 0.3, seed=1)
    small = OracleBudget(max_matchings=3)
    for run in (lambda: existence_table(inst, small),
                lambda: oracle_all(inst, StabilityQuery("weak", "all"), small)):
        with pytest.raises(BudgetExceeded, match=r"^visited more than 3 matchings$"):
            run()
    assert existence_table(inst, OracleBudget(max_matchings=764)) == existence_table(inst)
    with pytest.raises(BudgetExceeded, match="9 agents exceed"):
        existence_table(gen_random(9, 2, 0.3, seed=1), OracleBudget(max_agents=8))


@pytest.mark.parametrize(
    "fields",
    [{"max_agents": True}, {"max_agents": 2.5}, {"max_matchings": 10.0}, {"max_matchings": False}],
    ids=["agents-bool", "agents-float", "matchings-float", "matchings-bool"],
)
def test_budget_fields_must_be_ints(fields):
    with pytest.raises(BadParameters, match="must be ints"):
        OracleBudget(**fields)
    assert OracleBudget(max_agents=3, max_matchings=None).max_matchings is None


def test_oracle_solve_budget_counts_search_nodes():
    # a pruned search reaches few complete matchings, so the budget bounds
    # the partial matchings it extends: T(12) = 140 152 matchings here.
    # Under super every agent, single or paired, breaks the query at its
    # least costs, so the root is the one node
    inst = gen_random(12, 3, 0.8, seed=1)
    budget = OracleBudget(max_matchings=1000)
    for q in all_queries(inst.ell):
        found = oracle_solve(inst, q, budget)
        assert found is None or check(inst, found, q).stable
        if q.base == "super":
            assert oracle_solve(inst, q, OracleBudget(max_matchings=1)) is None
        else:
            with pytest.raises(BudgetExceeded, match="max_matchings=1 "):
                oracle_solve(inst, q, OracleBudget(max_matchings=1))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_pair_costs_grow_with_approvals_and_shrink_with_happiness(ell):
    # the fact the pruned search's look-ahead rests on: one more approval
    # bit or one fewer happy bit never lowers what a pair costs, so the
    # cost with the undecided agent happy in every layer is a lower bound
    full = (1 << ell) - 1
    states = list(itertools.product(range(full + 1), repeat=4))
    for q in all_queries(ell):
        cost = _pair_cost(q, ell)
        name = q.describe()
        value = {state: cost(*state) for state in states}
        for (sa, sb, ha, hb), v in value.items():
            for bit in (1 << i for i in range(ell)):
                for up in ((sa | bit, sb, ha, hb), (sa, sb | bit, ha, hb), (sa, sb, ha & ~bit, hb), (sa, sb, ha, hb & ~bit)):
                    assert not v & ~value[up], (name, (sa, sb, ha, hb), up)


def test_look_ahead_decides_within_fewer_nodes():
    # ten agents, an even count, so the parity bound cannot cut the root: a
    # strong exists and a super not-exists, where without the look-ahead
    # the search reaches 114 and 113 nodes.  The super root is the one
    # node: each branch breaks the query at its least costs
    for seed, q, nodes in [(23, StabilityQuery("strong", "pair", 1), 6), (1, StabilityQuery("super", "pair", 1), 1)]:
        inst = gen_random(10, 3, 0.6, seed=seed)
        assert oracle_solve(inst, q, OracleBudget(max_matchings=nodes)) == next(iter(oracle_all(inst, q)), None)


@pytest.mark.parametrize(
    "ell, p, seed, q, nodes",
    [
        (3, 0.8, 0, StabilityQuery("strong", "global", 1), 1),
        (3, 0.8, 5, StabilityQuery("strong", "pair", 1), 1),
        (4, 0.5, 15, StabilityQuery("strong", "global", 2), 1),
        (3, 0.8, 11, StabilityQuery("strong", "pair", 1), 7),
        (3, 0.8, 18, StabilityQuery("weak", "pair", 2), 7),
    ],
    ids=["root-strong-global", "root-strong-pair", "root-each-agent", "decided-strong", "decided-weak"],
)
def test_parity_bound_decides_within_fewer_nodes(ell, p, seed, q, nodes):
    # nine agents leave one single.  root: every agent blocks as a single
    # agent, so the root is cut (without the bound, 217 and 421 nodes).
    # each-agent: each agent blocks three or four of the four layers, but
    # only two layers are blocked by all, within the slack: the AND over
    # the agents of their costs cuts nothing, and the search reaches 7
    # nodes.  decided: the bound reads decided agents at their happy masks;
    # read at full it lets the search reach 59 and 53 nodes.  Under weak
    # only the decided agents count, as one happy in every layer never
    # weakly blocks
    inst = gen_random(9, ell, p, seed=seed)
    assert oracle_solve(inst, q, OracleBudget(max_matchings=nodes)) == next(iter(oracle_all(inst, q)), None)


def test_search_with_fixed_pairs_is_first_stable_completion():
    # _search never evaluates a pair of two fixed agents, so its result
    # needs check.  Under pair and individual queries such a pair has the
    # same happy masks, so the same verdict, in every completion: a result
    # that check rejects means that no completion is stable
    rng = random.Random(24)
    for _ in range(200):
        n = rng.randint(2, 9)
        inst = gen_random(n, rng.randint(1, 3), rng.choice([0.2, 0.5, 0.8]), rng.random() < 0.3, False, rng.randrange(10**6))
        agents = rng.sample(range(n), n)
        pairs = min(rng.randint(1, 2), n // 2)
        fixed = [tuple(sorted(agents[2 * i:2 * i + 2])) for i in range(pairs)]
        completions = [m for m in enumerate_matchings(n) if all(m.partner(a) == b for a, b in fixed)]
        for q in all_queries(inst.ell):
            if q.agg in ("pair", "individual"):
                first = next((m for m in completions if check(inst, m, q).stable), None)
                found = _search(inst, q, DEFAULT_BUDGET, fixed)
                if found is not None and check(inst, found, q).stable:
                    assert found == first, (n, fixed, q)
                else:
                    assert first is None, (n, fixed, q)


def _least_budget(run) -> int:
    """The least ``max_matchings`` at which ``run(budget)`` returns: the
    search's node count, found by doubling and bisection."""
    hi = 1
    while True:
        try:
            run(OracleBudget(max_matchings=hi))
            break
        except BudgetExceeded:
            hi *= 2
    lo = hi // 2  # raises at lo, or lo is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(OracleBudget(max_matchings=mid))
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


def _planted_threshold_instance(rng: random.Random, n: int, ell: int, p: float):
    """Symmetric approvals in which forced pairs approve each other in
    every layer and the 2-6 other agents, the kernel, are left isolated:
    any other pair approves mutually in one random layer, with
    probability ``p``."""
    agents = rng.sample(range(n), n)
    kernel = rng.choice([k for k in range(2, 7) if (n - k) % 2 == 0])
    layers = [[set() for _ in range(n)] for _ in range(ell)]
    for j in range(0, n - kernel, 2):
        a, b = agents[j], agents[j + 1]
        for layer in layers:
            layer[a].add(b)
            layer[b].add(a)
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p:
            layer = rng.choice(layers)
            layer[a].add(b)
            layer[b].add(a)
    return build_instance(n, ell, layers)


def test_search_node_counts_are_pinned():
    # the pruning as it stands, pinned: every query on seeded dense
    # asymmetric instances, and the super threshold routes' searches with
    # the forced pairs fixed.  A change to the search's bookkeeping that
    # keeps its cuts keeps every count; a lost or a new cut moves one
    counts = []
    for seed in range(60):
        n, ell, p = 7 + seed % 4, 1 + seed % 3, (0.5, 0.8)[seed // 3 % 2]
        inst = gen_random(n, ell, p, seed=seed)
        for q in all_queries(ell):
            counts.append(_least_budget(lambda budget: _search(inst, q, budget, [])))
    rng = random.Random(35)
    for _ in range(40):
        n, ell = rng.randint(7, 10), rng.choice([3, 4])
        inst = _planted_threshold_instance(rng, n, ell, rng.choice([0.5, 0.8]))
        for agg in ("pair", "individual"):
            for alpha in range(ell // 2 + 1, ell + 1):
                forced = threshold_graph(inst, ell - alpha + 1).sorted_edges()
                if _kernel(n, forced, 2 ** (ell + 1)):
                    q = StabilityQuery("super", agg, alpha)
                    counts.append(_least_budget(lambda budget: _search(inst, q, budget, forced)))
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    assert digest == "d8f2a3602ad2b8691982f67a16b479de9cef442269b85f9369624d74b430b041", (len(counts), sum(counts), digest)


@given(
    st.tuples(
        st.integers(1, 8),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.15, 0.4, 0.8, 1.0]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 10_000),
    )
)
@example((8, 4, 0.0, False, False, 0))
@example((8, 4, 1.0, False, False, 0))
@example((8, 3, 0.8, True, False, 1))
@example((9, 3, 0.8, False, False, 0))
@example((9, 2, 0.4, True, False, 3))
@settings(max_examples=60, deadline=None)
def test_oracle_solve_is_first_of_oracle_all(params):
    n, ell, p, symmetric, bipartite, seed = params
    inst = gen_random(n, ell, p, symmetric, bipartite, seed)
    for q in all_queries(ell):
        assert oracle_solve(inst, q) == next(iter(oracle_all(inst, q)), None)


def test_oracle_solve_fixture(ex1, m1):
    q = StabilityQuery("weak", "all")
    assert oracle_solve(ex1, q) is not None
    assert m1.pairs in {m.pairs for m in oracle_all(ex1, q)}


def test_oracle_solve_two_agents():
    inst = build_instance(2, 1, [[{1}, {0}]])
    found = oracle_solve(inst, StabilityQuery("super", "all"))
    assert found.pairs == ((0, 1),)


def test_oracle_strong_triangle_has_none(triangle):
    assert oracle_solve(triangle, StabilityQuery("strong", "all")) is None


def test_layer_superstable_fixture(ex2):
    found = oracle_layer_superstable(ex2, 0)
    assert [m.pairs for m in found] == [((0, 1), (2, 3))]


def test_layer_superstable_empty_layers():
    two = build_instance(2, 1, [[set(), set()]])
    assert [m.pairs for m in oracle_layer_superstable(two, 0)] == [((0, 1),)]
    four = build_instance(4, 1, [[set()] * 4])
    assert oracle_layer_superstable(four, 0) == []


def test_layer_superstable_at_most_one():
    # a layer's one candidate: its mutual pairs plus at most one kernel pair
    rng = random.Random(0)
    for _ in range(40):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 3),
            rng.choice([0.2, 0.5, 0.9]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        for i in range(inst.ell):
            assert len(oracle_layer_superstable(inst, i)) <= 1


def test_weak_alllayers_equals_per_layer_maximality_when_symmetric():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(2, 6)
        inst = gen_random(n, 2, 0.5, symmetric=True, seed=rng.getrandbits(30))
        stable = {m.pairs for m in oracle_all(inst, StabilityQuery("weak", "all"))}
        maximal = {
            m.pairs
            for m in enumerate_matchings(n)
            if all(weak_char_check(inst, m, i) for i in range(inst.ell))
        }
        assert stable == maximal


def test_existence_table_matches_per_query_oracle():
    rng = random.Random(21)
    for _ in range(25):
        inst = gen_random(
            rng.randint(2, 6),
            rng.randint(1, 4),
            0.45,
            symmetric=rng.random() < 0.5,
            bipartite=rng.random() < 0.3,
            seed=rng.getrandbits(30),
        )
        table = existence_table(inst)
        for q in all_queries(inst.ell):
            assert exists_by_oracle(table, q, inst.ell) == (
                oracle_solve(inst, q) is not None
            )
