import pytest

from corpus import degree_partition_brute_force, sat_brute_force
from mlsm.blocking import Matching
from mlsm.errors import AlphaTooHigh, BadParameters, MalformedFormula, OddVertexCount
from mlsm.graphalg import SimpleGraph
from mlsm.model import build_instance, is_symmetric
from mlsm.oracle import existence_table, oracle_all, oracle_solve
from mlsm.reductions import (
    CnfFormula,
    copy_layers,
    gen_random,
    independent_set_brute_force,
    parse_dimacs,
    parse_edge_list,
    pad_global_weak,
    reduce_degreepartition_to_pair_super,
    reduce_is_to_global_strong,
    reduce_sat_to_alllayers_weak,
)
from mlsm.solvers import solve_strong_global_symmetric
from mlsm.verify import StabilityQuery, check


# ---------------------------------------------------------------------------
# random generator


def test_gen_random_extremes():
    none = gen_random(5, 2, 0.0, seed=1)
    assert all(not s for lay in none.approvals for s in lay)
    full = gen_random(5, 2, 1.0, symmetric=True, seed=1)
    assert all(len(s) == 4 for lay in full.approvals for s in lay)


def test_gen_random_deterministic():
    a = gen_random(7, 3, 0.4, symmetric=True, bipartite=True, seed=99)
    b = gen_random(7, 3, 0.4, symmetric=True, bipartite=True, seed=99)
    assert a == b


def test_gen_random_flags():
    inst = gen_random(8, 2, 0.7, symmetric=True, bipartite=True, seed=5)
    assert is_symmetric(inst)
    for lay in inst.approvals:
        for a in range(8):
            for b in lay[a]:
                assert (a < 4) != (b < 4)


# ---------------------------------------------------------------------------
# SAT reduction


def _one_clause():
    return CnfFormula(3, ((1, 2, 3),))


def test_sat_reduction_shape():
    gen = reduce_sat_to_alllayers_weak(_one_clause())
    inst = gen.instance
    assert inst.n == 17 and inst.ell == 2
    assert is_symmetric(inst)
    # bipartite: every approval runs between an a_*/al* and a b*/be* agent
    alpha_side = [inst.name_of(a).startswith(("a_", "al")) for a in range(inst.n)]
    beta_side = [inst.name_of(a).startswith(("b+", "b-", "be")) for a in range(inst.n)]
    assert all(x != y for x, y in zip(alpha_side, beta_side))
    for lay in inst.approvals:
        assert all(len(s) <= 3 for s in lay)
        for a, approved in enumerate(lay):
            assert all(alpha_side[a] != alpha_side[b] for b in approved)


def test_sat_reduction_certificate_roundtrip():
    gen = reduce_sat_to_alllayers_weak(_one_clause())
    assignment = sat_brute_force(_one_clause())
    m = gen.forward(assignment)
    assert check(gen.instance, m, gen.query).stable
    assert gen.backward(m) == assignment
    # variable gadgets pair their a-agents with their b-agents
    for v in range(3):
        base = 4 * v
        assert m.partner(base) in (base + 2, base + 3)
        assert m.partner(base + 1) in (base + 2, base + 3)


def test_sat_reduction_falsifying_assignment_is_unstable():
    formula = _one_clause()
    gen = reduce_sat_to_alllayers_weak(formula)
    m = gen.forward(set())  # x1=x2=x3=false falsifies (x1 v x2 v x3)
    assert not check(gen.instance, m, gen.query).stable


def test_sat_reduction_validates_formula():
    with pytest.raises(MalformedFormula):
        reduce_sat_to_alllayers_weak(CnfFormula(2, ((1, 2),)))
    with pytest.raises(MalformedFormula):
        reduce_sat_to_alllayers_weak(
            CnfFormula(2, ((1, 1, 2), (1, 1, 2)))  # x1 occurs four times positively
        )
    with pytest.raises(MalformedFormula):
        CnfFormula(1, ((2, 1, 1),))


# ---------------------------------------------------------------------------
# global-weak padding


def test_pad_minimal_adds_only_star_pair(ex2):
    gen = pad_global_weak(ex2, 2, 2)
    assert gen.instance.n == ex2.n + 2
    assert gen.instance.approvals[0][4] == frozenset({5})


def test_pad_equivalence_small(ex2):
    gen = pad_global_weak(ex2, 4, 3)
    inst = gen.instance
    assert inst.n == 7  # one conflict agent
    target = oracle_solve(inst, gen.query)
    source = oracle_solve(ex2, StabilityQuery("weak", "all"))
    assert (target is not None) == (source is not None)
    lifted = gen.forward(source)
    verdict = check(inst, lifted, gen.query)
    assert verdict.stable
    assert {0, 1} <= set(verdict.witness_layers)  # both original layers stay stable


def test_pad_preserves_a_no_instance():
    # two conflicting layers on three agents: the only candidate pairs are
    # a-b (layer one) and a-c (layer two), so no matching is stable in both
    src = build_instance(3, 2, [[{1}, {0}, set()], [{2}, set(), {0}]])
    assert oracle_solve(src, StabilityQuery("weak", "all")) is None
    for ell, alpha in ((5, 3), (4, 2), (3, 3)):
        gen = pad_global_weak(src, ell, alpha)
        assert oracle_solve(gen.instance, gen.query) is None


def test_pad_validates_parameters(ex2, ex1):
    with pytest.raises(BadParameters):
        pad_global_weak(ex1, 4, 2)  # three layers in, not two
    with pytest.raises(BadParameters):
        pad_global_weak(ex2, 4, 1)


def test_copy_layers_identity(ex1):
    assert copy_layers(ex1, [1, 1, 1]) == ex1


def test_copy_layers_validates(ex1):
    with pytest.raises(BadParameters):
        copy_layers(ex1, [1, 1])
    with pytest.raises(BadParameters):
        copy_layers(ex1, [0, 0, 0])


def test_copy_layers_weak_verdicts_survive_empty_layer(ex2):
    # appending an all-empty layer cannot create or destroy weak blocking
    padded = copy_layers(
        build_instance(
            4,
            3,
            [
                [set(p) for p in ex2.approvals[0]],
                [set(p) for p in ex2.approvals[1]],
                [set(), set(), set(), set()],
            ],
        ),
        [1, 1, 1],
    )
    before = existence_table(ex2)["weak"]
    after = existence_table(padded)["weak"]
    assert before[0] == after[0] - 1  # the empty layer is stable for free
    assert (
        oracle_solve(padded, StabilityQuery("weak", "all")) is not None
    ) == (oracle_solve(ex2, StabilityQuery("weak", "all")) is not None)


def test_copy_layers_blocking_multiplies(ex2):
    doubled = copy_layers(ex2, [2, 2])
    assert doubled.ell == 4
    assert doubled.approvals[0] == doubled.approvals[1]
    assert doubled.approvals[2] == doubled.approvals[3]


def test_copy_layers_blocking_floors_at_copy_count():
    # a pair blocking any layer of a (ceil, floor) copy blocks at least
    # floor(ell/2) layers in total
    import random

    from mlsm.blocking import blocks
    from corpus import random_matching

    rng = random.Random(63)
    for _ in range(20):
        base = gen_random(6, 2, 0.5, symmetric=True, seed=rng.getrandbits(30))
        ell = rng.choice([3, 4, 5])
        inst = copy_layers(base, [(ell + 1) // 2, ell // 2])
        m = random_matching(rng, 6)
        for a in range(6):
            for b in range(a + 1, 6):
                if m.partner(a) == b:
                    continue
                for kind in ("weak", "strong", "super"):
                    hits = sum(
                        blocks(inst, m, (a, b), i, kind) for i in range(inst.ell)
                    )
                    assert hits == 0 or hits >= ell // 2


# ---------------------------------------------------------------------------
# independent set reduction


def test_is_reduction_triangle():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    gen = reduce_is_to_global_strong(g, 1)
    assert gen.instance.n == 12 and gen.instance.ell == 3
    assert is_symmetric(gen.instance)
    for lay in gen.instance.approvals:
        assert all(len(s) <= 2 for s in lay)
    assert solve_strong_global_symmetric(gen.instance, 1).exists
    assert not solve_strong_global_symmetric(gen.instance, 2).exists


def test_is_reduction_path_two_endpoints():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    gen = reduce_is_to_global_strong(g, 2)
    assert gen.instance.n == 8
    chosen = independent_set_brute_force(g, 2)
    assert chosen == {0, 2}
    m = gen.forward(chosen)
    verdict = check(gen.instance, m, gen.query)
    assert verdict.stable
    assert oracle_solve(gen.instance, gen.query) is not None


def test_is_reduction_edgeless():
    g = SimpleGraph.from_edges(3, [])
    gen = reduce_is_to_global_strong(g, 2)
    assert gen.instance.n == 0
    assert check(gen.instance, Matching(()), gen.query).stable


def test_is_reduction_validates():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    with pytest.raises(BadParameters):
        reduce_is_to_global_strong(g, 3)


# ---------------------------------------------------------------------------
# degree-one partition reduction


def test_degpart_c4_certificate():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    gen = reduce_degreepartition_to_pair_super(g, 2, 1)
    assert gen.instance.n == 14
    assert is_symmetric(gen.instance)
    for lay in gen.instance.approvals:
        assert all(len(s) <= 4 for s in lay)
    partition = degree_partition_brute_force(g)
    assert partition is not None
    m = gen.forward(partition)
    assert check(gen.instance, m, gen.query).stable
    assert gen.backward(m)[0] == partition[0]


def test_degpart_single_edge_is_yes():
    # K2 admits the one-sided partition (both vertices together), and the
    # 8-agent target indeed has a 1-pair super stable matching
    g = SimpleGraph.from_edges(2, [(0, 1)])
    assert degree_partition_brute_force(g) is not None
    gen = reduce_degreepartition_to_pair_super(g, 2, 1)
    assert gen.instance.n == 8
    assert oracle_solve(gen.instance, gen.query) is not None


def test_degpart_isolated_pair_always_matched():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    gen = reduce_degreepartition_to_pair_super(g, 2, 1)
    iso = (gen.instance.n - 2, gen.instance.n - 1)
    for m in oracle_all(gen.instance, gen.query):
        assert iso in m.pairs


def test_degpart_empty_layer_padding():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    gen = reduce_degreepartition_to_pair_super(g, 5, 2)
    inst = gen.instance
    assert inst.ell == 5
    assert inst.approvals[0] == inst.approvals[1]
    assert inst.approvals[2] == inst.approvals[3]
    assert all(not s for s in inst.approvals[4])


def test_degpart_validates():
    odd = SimpleGraph.from_edges(3, [(0, 1)])
    with pytest.raises(OddVertexCount):
        reduce_degreepartition_to_pair_super(odd, 2, 1)
    even = SimpleGraph.from_edges(2, [(0, 1)])
    with pytest.raises(AlphaTooHigh):
        reduce_degreepartition_to_pair_super(even, 2, 2)


# ---------------------------------------------------------------------------
# text formats


def test_parse_dimacs():
    formula = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert formula.num_vars == 3
    assert formula.clauses == ((1, -2, 3), (-1, 2, -3))
    with pytest.raises(MalformedFormula):
        parse_dimacs("1 2 0\n")


def test_parse_edge_list():
    g = parse_edge_list("3 2\n1 2\n2 3\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(BadParameters):
        parse_edge_list("")


# ---------------------------------------------------------------------------
# source brute-forcers sanity


def test_sat_brute_force():
    assert sat_brute_force(CnfFormula(1, ((1, 1, 1),))) == {1}
    assert sat_brute_force(CnfFormula(2, ((1, 2, 2), (1, -2, -2), (-1, 2, 2), (-1, -2, -2)))) is None


def test_independent_set_brute_force():
    k3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert independent_set_brute_force(k3, 1) is not None
    assert independent_set_brute_force(k3, 2) is None


def test_degree_partition_brute_force():
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    partition = degree_partition_brute_force(c4)
    assert partition is not None
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_partition_brute_force(star) is None
