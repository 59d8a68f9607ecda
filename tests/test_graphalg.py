import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import brute_force_max_matching, greedy_matching, sorted_adjacency
from mlsm.errors import IdOutOfRange
from mlsm.graphalg import (
    SimpleGraph,
    has_perfect_matching,
    maximal_matching,
    maximum_matching,
    saturating_matching,
)
from mlsm.reductions import gen_random
from mlsm.solvers import threshold_graph


def _brute_saturates(g: SimpleGraph, cover: set[int]) -> bool:
    adj = {v: {u for e in g.edges for u in e if v in e and u != v} for v in range(g.n)}

    def rec(todo: list[int], used: set[int]) -> bool:
        if not todo:
            return True
        v, rest = todo[0], todo[1:]
        if v in used:
            return rec(rest, used)
        for u in sorted(adj[v] - used):
            if rec(rest, used | {v, u}):
                return True
        return False

    return rec(sorted(cover), set())


def _assert_edges(g: SimpleGraph, m) -> None:
    for pair in m.pairs:
        assert pair in g.edges, pair


def test_maximal_path_takes_first_edge():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert maximal_matching(g).pairs == ((0, 1),)


def test_maximal_empty_graph():
    assert maximal_matching(SimpleGraph.from_edges(0, [])).pairs == ()


def test_maximal_on_k4_is_perfect():
    g = SimpleGraph.from_edges(4, itertools.combinations(range(4), 2))
    assert len(maximal_matching(g)) == 2


def test_maximal_admits_no_extra_edge():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = SimpleGraph.from_edges(n, edges)
        m = maximal_matching(g)
        for u, v in g.edges:
            assert m.covers(u) or m.covers(v)


def test_adjacency_and_maximal_matching_equal_the_references():
    # _adj and maximal_matching each read one sort of the edges; the
    # references sort per vertex and walk the adjacency
    rng = random.Random(35)
    graphs = [SimpleGraph.from_edges(n, []) for n in (0, 1, 5)]
    for _ in range(150):
        n = rng.randint(2, 30)
        p = rng.choice([0.05, 0.2, 0.5, 0.9])
        graphs.append(SimpleGraph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    for seed in range(20):
        inst = gen_random(rng.randint(2, 12), rng.randint(1, 4), rng.choice([0.15, 0.5, 0.8]), True, seed=seed)
        graphs += [threshold_graph(inst, k) for k in range(1, inst.ell + 1)]
    assert any(not g._adj[v] for g in graphs[3:] for v in range(g.n))  # isolated vertices
    for g in graphs:
        assert g._adj == sorted_adjacency(g)
        assert maximal_matching(g) == greedy_matching(g)


def test_maximum_odd_cycle():
    g = SimpleGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert len(maximum_matching(g)) == 2


def test_maximum_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    g = SimpleGraph.from_edges(10, outer + inner + spokes)
    assert len(maximum_matching(g)) == brute_force_max_matching(g) == 5


def test_maximum_empty():
    assert len(maximum_matching(SimpleGraph.from_edges(4, []))) == 0


def test_maximum_matches_brute_force_on_random_graphs():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        g = SimpleGraph.from_edges(n, edges)
        m = maximum_matching(g)
        _assert_edges(g, m)
        assert len(m) == brute_force_max_matching(g)
        perfect = has_perfect_matching(g)
        assert (perfect is not None) == (2 * len(m) == n)
        if perfect is not None:
            _assert_edges(g, perfect)


def test_saturating_star_leaves_impossible():
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert saturating_matching(g, {1, 2, 3}) is None


def test_saturating_all_vertices_of_matchable_graph():
    g = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    m = saturating_matching(g, set(range(6)))
    assert m is not None and len(m) == 3
    assert has_perfect_matching(g) is not None


def test_saturating_empty_cover():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    m = saturating_matching(g, set())
    assert m is not None


def test_saturating_matches_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = SimpleGraph.from_edges(n, edges)
        cover = {v for v in range(n) if rng.random() < 0.4}
        m = saturating_matching(g, cover)
        if m is None:
            assert not _brute_saturates(g, cover)
        else:
            _assert_edges(g, m)
            assert cover <= {v for pair in m.pairs for v in pair}
            assert _brute_saturates(g, cover)


@pytest.mark.parametrize("edge", [(True, 2), (0.0, 2), (2, 1.0), (0, 3), (-1, 2), (1, 1)])
def test_from_edges_rejects_vertices_that_are_not_ints_in_range(edge):
    # bool is no vertex: True would read as vertex 1
    with pytest.raises(IdOutOfRange):
        SimpleGraph.from_edges(3, [edge])


def test_from_edges_rejects_a_negative_vertex_count():
    with pytest.raises(IdOutOfRange, match="nonnegative, got -2"):
        SimpleGraph.from_edges(-2, [])


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_from_edges_rejects_vertex_counts_that_are_not_ints(n):
    # True would store n=True, 2.0 breaks maximum_matching, "3" a comparison
    with pytest.raises(IdOutOfRange, match="must be an int"):
        SimpleGraph.from_edges(n, [])


@pytest.mark.parametrize("cover", [[True], [1.0], [3], [-1]])
def test_saturating_rejects_cover_vertices_that_are_not_ints_in_range(cover):
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(IdOutOfRange):
        saturating_matching(g, cover)


def test_perfect_single_edge():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    assert has_perfect_matching(g).pairs == ((0, 1),)


def test_perfect_even_cycle():
    g = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert has_perfect_matching(g) is not None


def test_perfect_odd_vertex_count():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert has_perfect_matching(g) is None


def test_maximum_augments_through_blossom_with_stem():
    # stem 4-1=0, triangle 0-2=3-0, exposed 5 hanging off 2: the greedy
    # start leaves 4 and 5 exposed, and the only augmenting path
    # 4-1=0-3=2-5 runs around the triangle the other way
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 4), (0, 2), (0, 3), (2, 3), (2, 5)])
    assert maximal_matching(g).pairs == ((0, 1), (2, 3))
    assert maximum_matching(g).pairs == ((0, 3), (1, 4), (2, 5))
    assert has_perfect_matching(g).pairs == ((0, 3), (1, 4), (2, 5))


def test_saturating_uncovers_a_vertex_inside_a_blossom():
    # the same stem and triangle without 5: covering 4 must push 2 out,
    # and 2 is reached as an outer vertex only once the triangle 0-2=3-0
    # is contracted (3, its mate, is in the cover)
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 4), (0, 2), (0, 3), (2, 3)])
    assert maximal_matching(g).pairs == ((0, 1), (2, 3))
    assert saturating_matching(g, {0, 1, 3, 4}).pairs == ((0, 3), (1, 4))
    assert _brute_saturates(g, {0, 1, 3, 4})
    assert saturating_matching(g, {0, 1, 2, 3, 4}) is None


def test_planted_perfect_matching_at_scale():
    rng = random.Random(2000)
    n = 2000
    order = list(range(n))
    rng.shuffle(order)
    edges = list(zip(order[0::2], order[1::2]))
    while len(edges) < 4 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    g = SimpleGraph.from_edges(n, edges)
    assert len(maximal_matching(g)) < n // 2
    m = maximum_matching(g)
    assert len(m) == n // 2
    _assert_edges(g, m)
    perfect = has_perfect_matching(g)
    assert perfect == m
    again = SimpleGraph.from_edges(n, reversed(edges))
    assert maximum_matching(again) == m and has_perfect_matching(again) == m


@st.composite
def _graphs_and_covers(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24)) if pairs else []
    cover = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return SimpleGraph.from_edges(n, edges), cover


@given(_graphs_and_covers())
@settings(max_examples=200, deadline=None)
def test_matchings_agree_with_brute_force(case):
    g, cover = case
    m = maximum_matching(g)
    _assert_edges(g, m)
    assert len(m) == brute_force_max_matching(g)
    sat = saturating_matching(g, cover)
    assert (sat is not None) == _brute_saturates(g, cover)
    if sat is not None:
        _assert_edges(g, sat)
        assert all(sat.covers(v) for v in cover)
        assert all(sat.covers(u) or sat.covers(v) for u, v in g.edges)
