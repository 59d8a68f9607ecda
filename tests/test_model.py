import os
import pickle
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import mlsm
from corpus import build_instance_reference, instance_from_doc_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsm.cli import instance_from_doc, instance_to_doc
from mlsm.blocking import Matching
from mlsm.errors import BadParameters, IdOutOfRange, SelfApproval
from mlsm.graphalg import SimpleGraph
from mlsm.model import (
    AgentTypePartition,
    ChangingSet,
    MultilayerInstance,
    agent_types,
    build_instance,
    changing_agents,
    is_symmetric,
    same_type,
)
from mlsm.reductions import gen_random
from mlsm.oracle import OracleBudget
from mlsm.solvers import SolveResult, Solver, _types_tables, dispatch
from mlsm.verify import StabilityQuery, Verdict, all_queries, check


def test_build_valid_fixture(ex1):
    assert ex1.n == 4 and ex1.ell == 3
    assert ex1.approvals[1][0] == frozenset({1, 3})
    assert ex1.name_of(2) == "c"


def test_build_empty_instance():
    inst = build_instance(0, 1, [[]])
    assert inst.n == 0 and inst.ell == 1


def test_build_rejects_self_approval():
    with pytest.raises(SelfApproval) as plain:
        build_instance(2, 2, [[set(), set()], [{0}, set()]])
    assert (plain.value.agent, plain.value.layer) == (0, 1)
    assert str(plain.value) == "agent 0 approves itself in layer 2"
    with pytest.raises(SelfApproval) as named:
        build_instance(2, 1, [[set(), {1}]], names=["x", "y"])
    assert (named.value.agent, named.value.layer) == (1, 0)
    assert str(named.value) == "agent 'y' approves itself in layer 1"
    for err in (plain.value, named.value):
        back = pickle.loads(pickle.dumps(err))
        assert (back.agent, back.layer, str(back)) == (err.agent, err.layer, str(err))


def test_build_rejects_out_of_range():
    with pytest.raises(IdOutOfRange):
        build_instance(2, 1, [[{5}, set()]])
    with pytest.raises(IdOutOfRange):
        build_instance(2, 0, [])


@pytest.mark.parametrize(
    "n, ell, approvals, names, message",
    [
        (-1, 1, [[]], None, "agent count must be nonnegative, got -1"),
        (2, 2, [[]], None, "expected 2 layers of approvals, got 1"),
        (2, 1, [[]], ["a"], "expected 2 names, got 1"),
        (2, 1, [[set(), set(), set()]], None, "layer 0 lists 3 agents, n=2"),
        (True, 1, [[]], None, "counts must be ints, got n=True, ell=1"),
        (2, True, [[]], None, "counts must be ints, got n=2, ell=True"),
        ("2", 1, [[]], None, "counts must be ints, got n='2', ell=1"),
    ],
    ids=["negative-n", "layer-count", "name-count", "long-layer", "bool-n", "bool-ell", "str-n"],
)
def test_build_rejects_bad_shapes(n, ell, approvals, names, message):
    # a bool count was stored as the count and a str one raised TypeError
    with pytest.raises(IdOutOfRange, match=message):
        build_instance(n, ell, approvals, names)


def _random_build_args(rng):
    """``build_instance`` arguments, most valid, some with a self-approval,
    a long layer, an id out of range, a bool or float id, ids that are no
    iterable or a layer that is no sequence, in any layer."""
    n, ell = rng.randint(0, 5), rng.randint(1, 4)
    approvals = []
    for _ in range(ell):
        layer = [rng.sample(range(n), rng.randint(0, n)) for _ in range(n)]
        for a, ids in enumerate(layer):
            if rng.random() < 0.04:
                ids.insert(rng.randint(0, len(ids)), a)
            if rng.random() < 0.02:
                ids.insert(rng.randint(0, len(ids)), rng.choice([n, -1, True, 1.0]))
            if rng.random() < 0.01:
                layer[a] = 5
        if rng.random() < 0.03:
            layer.append([])
        approvals.append(7 if rng.random() < 0.02 else layer)
    names = [f"a{x}" for x in range(n)] if rng.random() < 0.5 else None
    return n, ell, approvals, names


def _random_doc(rng):
    """Instance documents, most valid, some with a self-approval, an
    unknown or unhashable name, approvals that are no array or a layer
    that is no object, in any layer."""
    names = [f"a{x}" for x in range(rng.randint(0, 5))]
    layers = []
    for _ in range(rng.randint(1, 4)):
        layer = {}
        for name in names:
            if rng.random() < 0.4:
                continue
            approved = rng.sample(names, rng.randint(0, len(names)))
            if name in approved and rng.random() < 0.7:
                approved.remove(name)
            if rng.random() < 0.03:
                approved.insert(rng.randint(0, len(approved)), rng.choice(["zz", ["a0"]]))
            layer[name] = "a0" if rng.random() < 0.02 else approved
        if rng.random() < 0.03:
            layer["zz"] = []
        layers.append(rng.choice([[], "a0", None]) if rng.random() < 0.03 else layer)
    return {"agents": names, "layers": layers}


def _outcome(build, *args):
    try:
        inst = build(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "agent", None), getattr(exc, "layer", None)
    return type(inst), inst


def test_builders_match_the_per_layer_reference():
    # each builder tests self-approvals once, on the finished rows; the
    # reference tests after every layer, so the first broken layer decides
    rng = random.Random(33)
    seen = set()
    for _ in range(20000):
        args = _random_build_args(rng)
        want = _outcome(build_instance_reference, *args)
        assert _outcome(build_instance, *args) == want
        seen.add(want[0].__name__)
        doc = _random_doc(rng)
        want = _outcome(instance_from_doc_reference, doc)
        assert _outcome(instance_from_doc, doc) == want
        seen.add(want[0].__name__)
    assert {"SelfApproval", "IdOutOfRange", "TypeError", "MalformedDocument", "MultilayerInstance"} <= seen


def test_build_rejects_bool_ids():
    with pytest.raises(IdOutOfRange):
        build_instance(2, 1, [[{True}, set()]])
    with pytest.raises(IdOutOfRange):
        build_instance(2, 1, [[set(), {False}]])


@pytest.mark.parametrize(
    "names, message",
    [
        (["a", "a", "b"], "agent names must be unique"),
        ([1, 2, 3], '"agents" must list agent names as strings'),
        (["a", None, "b"], '"agents" must list agent names as strings'),
    ],
    ids=["repeated", "ints", "none"],
)
def test_build_rejects_names_a_document_cannot_carry(names, message):
    # the document reader's name rules: a repeated name would read back as
    # a self-approval, and non-string names are refused by the reader
    with pytest.raises(IdOutOfRange, match=message):
        build_instance(3, 1, [[{1}, {0}, set()]], names=names)


def test_build_normalizes_duplicates():
    inst = build_instance(3, 1, [[[1, 1, 2], [], []]])
    assert inst.approvals[0][0] == frozenset({1, 2})


def test_symmetry(ex1, ex2):
    assert not is_symmetric(ex1)  # layer 2 has c->b without b->c
    assert is_symmetric(ex2)
    assert is_symmetric(build_instance(3, 2, [[set()] * 3, [set()] * 3]))


def test_symmetry_matches_per_layer_definition():
    rng = random.Random(3)
    for seed in range(40):
        inst = gen_random(2 + seed % 8, 1 + seed % 3, 0.4, symmetric=True, seed=seed)
        layers = [[set(row) for row in lay] for lay in inst.approvals]
        arcs = [(i, a, b) for i, lay in enumerate(layers) for a, row in enumerate(lay) for b in row]
        if seed % 2 and arcs:  # drop one arc, or one layer bit of a mask
            i, a, b = rng.choice(arcs)
            layers[i][a].discard(b)
        variant = build_instance(inst.n, inst.ell, layers)
        want = all(a in lay[b] for lay in layers for a, row in enumerate(lay) for b in row)
        assert is_symmetric(variant) == want
        assert is_symmetric(inst)


def test_agent_types_fixture(ex2):
    partition = agent_types(ex2)
    assert partition.tau == 2
    assert partition.blocks == ((0, 1), (2, 3))


def test_agent_types_complete_mutual():
    inst = build_instance(
        4, 2, [[{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]] * 2
    )
    assert agent_types(inst).tau == 1


def test_agent_types_all_distinct(ex1):
    assert agent_types(ex1).tau == 4


def test_agent_types_matches_pairwise_brute_force():
    for seed in range(30):
        inst = gen_random(6, 3, 0.4, symmetric=seed % 2 == 0, seed=seed)
        blocks = {a: i for i, block in enumerate(agent_types(inst).blocks) for a in block}
        for a in range(inst.n):
            for b in range(a + 1, inst.n):
                assert (blocks[a] == blocks[b]) == same_type(inst, a, b)


def _greedy_types(inst):
    """The partition by its definition: each agent joins the first block
    whose least member is same-type with it."""
    blocks = []
    for a in range(inst.n):
        for block in blocks:
            if same_type(inst, a, block[0]):
                block.append(a)
                break
        else:
            blocks.append([a])
    return tuple(tuple(b) for b in blocks)


def _twin_rich(rng):
    """A few prototype types with a random type-level relation per layer, so
    that many agents are twins: true twins where a type approves itself,
    false twins where it does not, silent types, and a few approvals
    toggled afterwards to split some classes."""
    n = rng.randint(0, 10)
    ell = rng.randint(1, 3)
    k = rng.randint(1, 4)
    symmetric = rng.random() < 0.5
    proto = [rng.randrange(k) for _ in range(n)]
    layers = []
    for _ in range(ell):
        silent = {t for t in range(k) if rng.random() < 0.25}
        rel = [[t not in silent and u not in silent and rng.random() < 0.5 for u in range(k)] for t in range(k)]
        if symmetric:
            rel = [[rel[min(t, u)][max(t, u)] for u in range(k)] for t in range(k)]
        layer = [{b for b in range(n) if b != a and rel[proto[a]][proto[b]]} for a in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            if n >= 2:
                a, b = rng.sample(range(n), 2)
                layer[a] ^= {b}
                if symmetric:
                    layer[b] ^= {a}
        layers.append(layer)
    return build_instance(n, ell, layers)


def test_agent_types_matches_greedy_definition():
    rng = random.Random(4)
    instances = [_twin_rich(rng) for _ in range(3000)]
    instances += [
        gen_random(seed % 11, 1 + seed % 3, (0.2, 0.5, 0.8)[seed // 3 % 3], symmetric=seed % 2 == 0, seed=seed)
        for seed in range(90)
    ]
    sizes = []
    for inst in instances:
        partition = agent_types(inst)
        assert partition.blocks == _greedy_types(inst)
        assert partition.tau == len(partition.blocks)
        sizes.append((inst.n, partition.tau))
    # the corpus has twin-rich instances of every size, and all-distinct ones
    assert {n for n, _ in sizes} == set(range(11))
    assert any(tau <= n // 3 for n, tau in sizes if n >= 6)
    assert any(tau == n for n, tau in sizes if n >= 6)


def _same_type_two_conditions(inst, a, b):
    # drop the received-approvals condition; must not matter when symmetric
    for lay in inst.approvals:
        if lay[a] - {b} != lay[b] - {a}:
            return False
        if (b in lay[a]) != (a in lay[b]):
            return False
    return True


@given(st.integers(0, 10_000), st.integers(2, 7), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_symmetric_makes_received_condition_redundant(seed, n, ell):
    inst = gen_random(n, ell, 0.5, symmetric=True, seed=seed)
    for a in range(n):
        for b in range(a + 1, n):
            assert same_type(inst, a, b) == _same_type_two_conditions(inst, a, b)


def test_changing_agents(ex2):
    changing = changing_agents(ex2)
    assert changing.agents == frozenset({0, 1, 2, 3})
    assert changing.beta == 4


def test_changing_agents_single_layer():
    inst = gen_random(5, 1, 0.5, seed=3)
    assert changing_agents(inst).beta == 0


def test_changing_agents_identical_layers():
    layer = [{1}, {0}, set()]
    inst = build_instance(3, 3, [layer, layer, layer])
    assert changing_agents(inst).beta == 0


def test_instances_hashable_and_immutable(ex1):
    names = ["a", "b", "c", "d"]
    layers = [
        [{1}, {0}, {3}, {2}],
        [{1, 3}, {0}, {1}, {0}],
        [{1}, {0, 2}, {1, 3}, {0}],
    ]
    assert hash(ex1) == hash(build_instance(4, 3, layers, names=names))
    # same approvals in another order, with duplicates: equal, same hash
    shuffled = build_instance(
        4,
        3,
        [
            [[1, 1], [0], [3], [2, 2]],
            [[3, 1, 3], [0], [1], [0, 0]],
            [[1], [2, 0, 2], [3, 1], [0]],
        ],
        names=names,
    )
    assert shuffled == ex1 and hash(shuffled) == hash(ex1)
    x, y = build_instance(3, 1, [[[1, 2], [], []]]), build_instance(3, 1, [[[2, 1, 2], [], []]])
    assert list(x.approval_masks[0]) != list(y.approval_masks[0])
    assert x == y and hash(x) == hash(y)
    # one layer bit flipped (d no longer approves a in layer 3), or a name
    flipped = build_instance(4, 3, layers[:2] + [[{1}, {0, 2}, {1, 3}, set()]], names=names)
    assert flipped != ex1
    assert build_instance(4, 3, layers, names=["a", "b", "c", "e"]) != ex1
    assert build_instance(4, 3, layers) != ex1
    back = instance_from_doc(instance_to_doc(ex1))
    assert back == ex1 and hash(back) == hash(ex1)
    with pytest.raises(AttributeError):
        ex1.n = 5
    assert ex1.n == 4


_Q1 = StabilityQuery("weak", "pair", 1)

# per value class: an instance with its defaults left out, an equal one with
# every argument written out, an unequal one, the first's repr and a field
_VALUES = [
    (lambda: Matching(((0, 1), (2, 3))), lambda: Matching.from_pairs([(3, 2), (1, 0)]),
     lambda: Matching(((0, 1),)), "Matching(pairs=((0, 1), (2, 3)))", "pairs"),
    (lambda: MultilayerInstance(2, 1, ({1: 1}, {})), lambda: build_instance(2, 1, [[[1], []]]),
     lambda: MultilayerInstance(2, 1, ({1: 1}, {}), ("a", "b")),
     "MultilayerInstance(n=2, ell=1, approval_masks=({1: 1}, {}), names=None)", "n"),
    (lambda: AgentTypePartition(((0, 1), (2,)), 2), lambda: AgentTypePartition(((0, 1), (2,)), 2),
     lambda: AgentTypePartition(((0,), (1, 2)), 2), "AgentTypePartition(blocks=((0, 1), (2,)), tau=2)", "tau"),
    (lambda: ChangingSet(frozenset({1}), 1), lambda: ChangingSet(frozenset({1}), 1),
     lambda: ChangingSet(frozenset(), 0), "ChangingSet(agents=frozenset({1}), beta=1)", "beta"),
    (lambda: StabilityQuery("weak", "all"), lambda: StabilityQuery("weak", "all", None),
     lambda: StabilityQuery("weak", "global", 1), "StabilityQuery(base='weak', agg='all', alpha=None)", "alpha"),
    (lambda: Verdict(False, _Q1), lambda: Verdict(False, _Q1, None, None, None, None),
     lambda: Verdict(False, _Q1, violating_pair=(0, 1)),
     "Verdict(stable=False, query=StabilityQuery(base='weak', agg='pair', alpha=1), witness_layers=None, "
     "violating_pair=None, blocking_layers=None, supports=None)", "stable"),
    (lambda: OracleBudget(), lambda: OracleBudget(12, None), lambda: OracleBudget(max_matchings=5),
     "OracleBudget(max_agents=12, max_matchings=None)", "max_agents"),
    (lambda: SolveResult("not-exists", "oracle"), lambda: SolveResult("not-exists", "oracle", None, None, None, None),
     lambda: SolveResult("unknown", "oracle"),
     "SolveResult(status='not-exists', algorithm='oracle', matching=None, witness_layers=None, detail=None, "
     "verdict=None)", "status"),
    (lambda: Solver("s", len, repr), lambda: Solver("s", len, repr), lambda: Solver("s", len, str),
     "Solver(name='s', applies=<built-in function len>, run=<built-in function repr>)", "run"),
    (lambda: SimpleGraph(3, frozenset({(0, 1)})), lambda: SimpleGraph.from_edges(3, [(1, 0)]),
     lambda: SimpleGraph(4, frozenset({(0, 1)})), "SimpleGraph(n=3, edges=frozenset({(0, 1)}))", "n"),
]


@pytest.mark.parametrize("make, make_equal, make_other, text, field", _VALUES,
                         ids=[case[3].split("(")[0] for case in _VALUES])
def test_value_classes(make, make_equal, make_other, text, field):
    a, b, c = make(), make_equal(), make_other()
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and c != a and a != text
    assert repr(a) == text
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before and a == b
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("make", [case[0] for case in _VALUES], ids=[case[3].split("(")[0] for case in _VALUES])
def test_pickle_carries_the_fields_only(make):
    # cached state (a hash, the structural analysis, a graph's adjacency)
    # built before pickling is rebuilt on demand after loading, not carried
    value = make()
    hash(value)
    for klass in type(value).__mro__:
        for name, attr in vars(klass).items():
            if isinstance(attr, cached_property):
                getattr(value, name)
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded == value and vars(loaded) == vars(make())
    assert set(vars(loaded)) - {"_partner"} == set(type(value)._fields)


_PICKLE_HASH = """
import pickle, sys
from mlsm.model import build_instance
names = None if sys.argv[2] == "-" else ["a", "b", "c"]
inst = build_instance(3, 2, [[{1}, {0}, set()], [{2}, set(), {0}]], names=names)
if sys.argv[1] == "dump":
    hash(inst)
    sys.stdout.write(pickle.dumps(inst).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    assert loaded == inst and hash(loaded) == hash(inst) and {inst: 1}.get(loaded) == 1
"""


@pytest.mark.parametrize("names", ["abc", "-"])
def test_pickled_instance_hashes_like_a_fresh_one_in_another_process(names):
    # the hash of names depends on PYTHONHASHSEED, and on Python 3.11 that of
    # None on its address, so a hash cached before pickling is stale elsewhere
    src = str(Path(mlsm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    text = ""
    for step, seed in (("dump", "1"), ("load", "2")):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _PICKLE_HASH, step, names], env=env, input=text,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout


def test_value_class_validation_text():
    # the budget error embeds the budget's repr
    with pytest.raises(BadParameters, match=r"^negative oracle budget OracleBudget\(max_agents=-1, max_matchings=None\)$"):
        OracleBudget(max_agents=-1)


def test_equal_instances_share_solver_tables():
    q = StabilityQuery("weak", "all")
    layers = [[{1}, {0}, set(), set()], [set(), set(), {3}, {2}]]
    _types_tables.cache_clear()
    assert dispatch(build_instance(4, 2, layers), q).algorithm == "agent-types"
    hits = _types_tables.cache_info().hits
    assert dispatch(build_instance(4, 2, [[[1], [0], [], []], [[], [], [3], [2]]]), q).exists
    assert _types_tables.cache_info().hits > hits


_FIELDS = {"n", "ell", "approval_masks", "names"}


def test_check_never_builds_the_approval_sets():
    # on a freshly parsed instance, check builds nothing but the masks and
    # dispatch at most the structural analysis: no pair table, no approvals
    # view
    rng = random.Random(8)
    algorithms = set()
    for seed in range(6):
        doc = instance_to_doc(gen_random(12, 3, 0.3, symmetric=seed % 2 == 0, seed=seed))
        for q in all_queries(3):
            inst = instance_from_doc(doc)
            m = Matching.from_pairs([(a, a + 1) for a in range(0, 12, 2) if rng.random() < 0.7])
            check(inst, m, q)
            assert set(vars(inst)) == _FIELDS
            inst = instance_from_doc(doc)
            res = dispatch(inst, q)
            algorithms.add(res.algorithm)
            assert set(vars(inst)) <= _FIELDS | {"symmetric", "agent_types", "changing_agents"}, res.algorithm
    assert {"oracle", "super-global", "weak-lowalpha", "strong-alllayers-symmetric"} <= algorithms
    assert inst.approvals and "approvals" in inst.__dict__  # the view is lazy, not gone


def test_mutual_edges_lexicographic():
    # agent 0 approves 9 before 2 in the set's iteration order
    layer = [set() for _ in range(12)]
    layer[0], layer[2], layer[9] = {9, 2}, {0}, {0}
    layer[5] = {0}  # one-sided, not mutual
    inst = build_instance(12, 2, [layer, [set()] * 12])
    assert list(inst.approval_masks[0]) == [9, 2]
    assert inst.mutual_edges(0) == [(0, 2), (0, 9)]
    assert inst.mutual_edges(1) == []


@pytest.mark.parametrize("layer", [2, -1, True])
def test_mutual_edges_rejects_out_of_range_layers(ex2, layer):
    # layer 2 raised IndexError and -1 "negative shift count"
    with pytest.raises(IdOutOfRange):
        ex2.mutual_edges(layer)


@pytest.mark.parametrize("a, b", [(0, 9), (-1, 3), (True, 1)])
def test_same_type_rejects_out_of_range_ids(ex2, a, b):
    # 9 raised IndexError, and -1 was read as agent 3
    with pytest.raises(IdOutOfRange):
        same_type(ex2, a, b)
