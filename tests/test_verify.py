import random

import pytest

from corpus import random_instance, random_matching
from mlsm.blocking import (
    BASES,
    Matching,
    block_mask,
    blocks,
    layer_set,
    stable_in_layer,
    stable_layers,
    support_mask,
)
from mlsm.errors import AlphaOutOfRange, IdOutOfRange, InvalidQuery
from mlsm.model import build_instance
from mlsm.oracle import enumerate_matchings
from mlsm.reductions import gen_random
from mlsm.verify import StabilityQuery, Verdict, _pair_cost, all_queries, check


def test_query_validation():
    with pytest.raises(InvalidQuery):
        StabilityQuery("strong", "individual", 1)
    with pytest.raises(InvalidQuery):
        StabilityQuery("weak", "pair")  # missing alpha
    with pytest.raises(InvalidQuery):
        StabilityQuery("weak", "all", 2)
    with pytest.raises(InvalidQuery):
        StabilityQuery("mild", "all")
    with pytest.raises(InvalidQuery, match="unknown aggregation 'most'"):
        StabilityQuery("weak", "most", 1)


def test_alpha_range_checked_against_instance(ex1, m1):
    with pytest.raises(AlphaOutOfRange):
        check(ex1, m1, StabilityQuery("weak", "pair", 4))
    with pytest.raises(AlphaOutOfRange):
        check(ex1, m1, StabilityQuery("weak", "pair", 0))


@pytest.mark.parametrize("alpha", [1.5, True, "2"])
def test_alpha_must_be_an_int(alpha):
    # 1.5 was accepted and True described itself as "True-pair weak"
    for agg in ("global", "pair", "individual"):
        with pytest.raises(InvalidQuery, match=r"^alpha must be an int, got "):
            StabilityQuery("weak", agg, alpha)


def test_all_layers_equals_full_global(ex1, m1):
    for base in ("weak", "strong", "super"):
        assert (
            check(ex1, m1, StabilityQuery(base, "all")).stable
            == check(ex1, m1, StabilityQuery(base, "global", 3)).stable
        )


def test_example_matrix_m1(ex1, m1):
    assert check(ex1, m1, StabilityQuery("weak", "all")).stable
    verdict = check(ex1, m1, StabilityQuery("strong", "global", 2))
    assert verdict.stable and verdict.witness_layers == frozenset({0, 2})
    assert check(ex1, m1, StabilityQuery("super", "global", 1)).stable
    assert not check(ex1, m1, StabilityQuery("super", "global", 2)).stable
    assert check(ex1, m1, StabilityQuery("super", "pair", 2)).stable
    assert check(ex1, m1, StabilityQuery("super", "individual", 2)).stable


def test_example_matrix_m2(ex1, m2):
    assert check(ex1, m2, StabilityQuery("weak", "global", 2)).stable
    assert check(ex1, m2, StabilityQuery("weak", "pair", 2)).stable
    verdict = check(ex1, m2, StabilityQuery("weak", "individual", 2))
    assert not verdict.stable and verdict.violating_pair == (0, 1)
    assert check(ex1, m2, StabilityQuery("weak", "individual", 1)).stable
    verdict = check(ex1, m2, StabilityQuery("strong", "pair", 1))
    assert not verdict.stable and verdict.violating_pair == (0, 1)
    assert not check(ex1, m2, StabilityQuery("super", "pair", 1)).stable


def test_footnote_separation(ex2, ex2_modified, m1):
    assert check(ex2, m1, StabilityQuery("super", "all")).stable
    assert not check(ex2, m1, StabilityQuery("super", "individual", 2)).stable
    assert check(ex2_modified, m1, StabilityQuery("weak", "all")).stable
    assert not check(ex2_modified, m1, StabilityQuery("weak", "individual", 2)).stable


def test_pair_nonblocking_count(ex1, ex2, m1):
    assert sum(not blocks(ex1, m1, (0, 3), i, "super") for i in range(3)) == 2
    verdict = check(ex2, m1, StabilityQuery("super", "individual", 2))
    assert verdict.violating_pair == (0, 2) and verdict.supports == (1, 1)
    empty = build_instance(3, 4, [[set()] * 3] * 4)
    um = Matching(())
    assert sum(not blocks(empty, um, (0, 1), i, "weak") for i in range(4)) == 4
    assert check(empty, um, StabilityQuery("weak", "pair", 4)).stable
    with pytest.raises(InvalidQuery):
        support_mask("strong", 0b1, 0b0, 0b1)


def test_check_rejects_out_of_range_matching(triangle):
    with pytest.raises(IdOutOfRange):
        check(triangle, Matching.from_pairs([(0, 7)]), StabilityQuery("weak", "all"))
    with pytest.raises(IdOutOfRange):
        check(triangle, Matching.from_pairs([(-1, 2)]), StabilityQuery("weak", "pair", 1))


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5])
def test_check_rejects_agent_ids_that_are_not_ints(triangle, bad):
    # True read as agent 1, and a float failed with a bare TypeError
    for q in (StabilityQuery("weak", "all"), StabilityQuery("super", "pair", 1)):
        with pytest.raises(IdOutOfRange, match=rf"^agent {bad!r} outside \[0, 3\)$"):
            check(triangle, Matching.from_pairs([(bad, 2)]), q)
    with pytest.raises(IdOutOfRange):
        blocks(triangle, Matching(()), (0, bad), 0, "weak")
    with pytest.raises(IdOutOfRange, match=rf"^layer {bad!r} outside"):
        stable_in_layer(triangle, Matching(()), bad, "weak")


def test_unstable_witnesses_reverify(ex1, m2):
    verdict = check(ex1, m2, StabilityQuery("super", "pair", 1))
    pair = verdict.violating_pair
    assert pair is not None
    for layer in verdict.blocking_layers:
        assert blocks(ex1, m2, pair, layer, "super")
    assert len(verdict.blocking_layers) > ex1.ell - 1


def test_global_witness_is_exact_stable_layer_set(ex1, m1, m2):
    for m in (m1, m2):
        for base in ("weak", "strong", "super"):
            verdict = check(ex1, m, StabilityQuery(base, "global", 1))
            assert verdict.witness_layers == stable_layers(ex1, m, base)


def _compare_with_definitions(inst, m, seen):
    """Compare ``block_mask``, ``support_mask``, ``blocks``,
    ``stable_in_layer`` and every ``check`` query with the paper's per-layer
    definitions, written out, over all n^2 pairs; add the cases met to
    ``seen``."""
    # an agent strictly prefers the other where it approves the other and is
    # unhappy, and is at least indifferent where it approves the other or is
    # unhappy
    n, ell = inst.n, inst.ell
    full = (1 << ell) - 1

    def happy(x, i):
        return m.partner(x) in inst.approvals[i][x]

    def strict(x, y, i):
        return y in inst.approvals[i][x] and not happy(x, i)

    def geq(x, y, i):
        return y in inst.approvals[i][x] or not happy(x, i)

    rules = {
        "weak": lambda a, b, i: strict(a, b, i) and strict(b, a, i),
        "strong": lambda a, b, i: (strict(a, b, i) and geq(b, a, i))
        or (strict(b, a, i) and geq(a, b, i)),
        "super": lambda a, b, i: geq(a, b, i) and geq(b, a, i),
    }
    clauses = {
        "weak": lambda x, y, i: not strict(x, y, i),
        "super": lambda x, y, i: not geq(x, y, i),
    }

    def bits(pred):
        return sum(1 << i for i in range(ell) if pred(i))

    silent = set()  # unmatched pairs that approve in no layer
    for base in BASES:
        stable = set(range(ell))
        blocked_by = {True: set(), False: set()}  # silent? -> layers blocked
        degree = {"pair": ell, "individual": ell}
        least = {"pair": {}, "individual": {}}  # alpha -> first violation
        approving = {"pair": {}, "individual": {}}  # alpha -> first approving one
        # alpha -> approving violations, lexicographic, with the mask row
        # the scan reads each from (a's, or b's when only b approves)
        read = {"pair": {}, "individual": {}}
        for a in range(n):
            for b in range(a + 1, n):
                if m.has_pair(a, b):
                    continue
                seen.add((m.covers(a), m.covers(b)))
                sa = bits(lambda i: b in inst.approvals[i][a])
                sb = bits(lambda i: a in inst.approvals[i][b])
                ha = bits(lambda i: happy(a, i))
                hb = bits(lambda i: happy(b, i))
                if not sa | sb:
                    silent.add((a, b))
                blocked = {i for i in range(ell) if rules[base](a, b, i)}
                assert layer_set(block_mask(base, sa, sb, ha, hb, full)) == blocked
                for i in range(ell):
                    assert blocks(inst, m, (a, b), i, base) == (i in blocked)
                stable -= blocked
                blocked_by[(a, b) in silent] |= blocked
                pair_degree = ell - len(blocked)
                degree["pair"] = min(degree["pair"], pair_degree)
                for alpha in range(pair_degree + 1, ell + 1):
                    least["pair"].setdefault(alpha, ((a, b), blocked, None))
                    if (a, b) not in silent:
                        approving["pair"].setdefault(alpha, (a, b))
                        read["pair"].setdefault(alpha, []).append(((a, b), a if sa else b))
                if base == "strong":
                    continue
                sup = tuple(
                    sum(clauses[base](x, y, i) for i in range(ell))
                    for x, y in ((a, b), (b, a))
                )
                assert support_mask(base, sa, ha, full).bit_count() == sup[0]
                assert support_mask(base, sb, hb, full).bit_count() == sup[1]
                degree["individual"] = min(degree["individual"], max(sup))
                for alpha in range(max(sup) + 1, ell + 1):
                    least["individual"].setdefault(alpha, ((a, b), blocked, sup))
                    if (a, b) not in silent:
                        approving["individual"].setdefault(alpha, (a, b))
                        read["individual"].setdefault(alpha, []).append(((a, b), a if sa else b))
        if blocked_by[True] - blocked_by[False]:
            seen.add(f"{base}-global layer blocked only by silent pairs")
        for i in range(ell):
            assert stable_in_layer(inst, m, i, base) == (i in stable)
        for q in all_queries(ell):
            if q.base != base:
                continue
            alpha = q.effective_alpha(ell)
            verdict = check(inst, m, q)
            if q.agg in ("all", "global"):
                assert verdict.witness_layers == stable
                assert verdict.stable == (len(stable) >= alpha)
                continue
            assert verdict.stable == (degree[q.agg] >= alpha)
            _note_cutoffs(read[q.agg].get(alpha, []), n, seen)
            if not verdict.stable:
                pair, blocked, sup = least[q.agg][alpha]
                assert verdict.violating_pair == pair
                assert verdict.blocking_layers == blocked
                assert verdict.supports == sup
                if pair in silent:
                    seen.add(f"{base}-{q.agg} least violation silent")
                    later = approving[q.agg].get(alpha)
                    if later is not None and later[0] == pair[0]:
                        seen.add("silent violation before an approving one in its row")


def _note_cutoffs(violations, n, seen):
    """Add to ``seen`` the row cut-offs that the scan of
    ``_least_violation`` meets on its way to the least approving violation.

    ``violations`` are the approving violations of one query, lexicographic,
    each with the mask row the scan reads it from (a's, or b's when only b
    approves).  Rows are read in order; a row past the least violation
    (fa, fb) so far is probed only for keys below fa, and for fa itself
    while the row is below fb, so with fa = 0 no row from fb on is read.
    """
    if not violations:
        return
    (x, y), row = violations[0]
    before = [pair for pair, r in violations if r < row]  # lexicographic
    if x == 0 and y < n - 1:
        seen.add("scan stops at fb with fa = 0")
        if row == y and before and before[0] == (0, y + 1):
            seen.add("fa = 0: lesser pair read from the row before fb")
    if before and 0 < before[0][0] < row:
        # the least so far has fa > 0, and row y > fa holds (x, y), x <= fa
        seen.add(f"lesser pair read from a row after fa > 0, b {'=' if x == before[0][0] else '<'} fa")


def test_check_matches_inline_definitions():
    rng = random.Random(11)
    seen = set()
    for _ in range(60):
        inst = random_instance(rng, n_max=7)
        _compare_with_definitions(inst, random_matching(rng, inst.n), seen)
    # single and matched agents on both sides of a pair
    assert {(False, False), (False, True), (True, False), (True, True)} <= seen


def test_pair_cost_states_when_check_accepts():
    # the rule check and the pruned search share: a matching satisfies q
    # exactly when the OR of its unmatched pairs' costs, silent pairs
    # included, spans at most ell - alpha layers
    rng = random.Random(30)
    for _ in range(100):
        n, ell = rng.randint(2, 6), rng.randint(1, 3)
        inst = gen_random(n, ell, rng.choice([0.2, 0.5, 0.8]), symmetric=rng.random() < 0.4, seed=rng.getrandbits(30))
        masks = inst.approval_masks
        costs = [(q, _pair_cost(q, ell), ell - q.effective_alpha(ell)) for q in all_queries(ell)]
        for m in enumerate_matchings(n):
            happy = [masks[a].get(m.partner(a), 0) for a in range(n)]
            pairs = [(masks[a].get(b, 0), masks[b].get(a, 0), happy[a], happy[b])
                     for a in range(n) for b in range(a + 1, n) if m.partner(a) != b]
            for q, cost, slack in costs:
                spanned = 0
                for key in pairs:
                    spanned |= cost(*key)
                assert check(inst, m, q).stable == (spanned.bit_count() <= slack), (m, q)


def test_least_violation_approved_only_by_larger_agent():
    # agent 2 approves 0 in both layers and 0 never approves 2, so the scan
    # reaches (0, 2) from row 2, after (0, 3) from row 0, which also violates
    # the 2-pair strong, 2-pair super and 2-individual super queries.  Agent
    # 0 is happy in layer 1 only (layers from 0); 1-4 are unhappy everywhere.
    layers = [
        [{3}, set(), {0, 4}, {4}, {3}],
        [{1}, set(), {0}, set(), set()],
    ]
    inst = build_instance(5, 2, layers)
    m = Matching.from_pairs([(0, 1), (2, 3)])
    expected = {
        # weak needs mutual approval: only (3, 4), in layer 0
        ("weak", "pair", 1): None,
        ("weak", "pair", 2): ((3, 4), {0}, None),
        ("weak", "individual", 1): None,
        ("weak", "individual", 2): ((3, 4), {0}, (1, 1)),
        ("strong", "pair", 1): None,
        ("strong", "pair", 2): ((0, 2), {0}, None),
        # the silent pair (1, 2) blocks both layers under super
        ("super", "pair", 1): ((1, 2), {0, 1}, None),
        ("super", "pair", 2): ((0, 2), {0}, None),
        ("super", "individual", 1): ((1, 2), {0, 1}, (0, 0)),
        ("super", "individual", 2): ((0, 2), {0}, (1, 0)),
    }
    for (base, agg, alpha), want in expected.items():
        verdict = check(inst, m, StabilityQuery(base, agg, alpha))
        if want is None:
            assert verdict.stable
            continue
        pair, blocked, supports = want
        assert not verdict.stable
        assert verdict.violating_pair == pair
        assert verdict.blocking_layers == frozenset(blocked)
        assert verdict.supports == supports


def _sparse_case(rng):
    """An instance with n <= 40, ell <= 6, approval density 0.03-0.15 and
    some silent agents (approving and approved by nobody), with a matching
    that mixes approving pairs, pairs of silent agents and singles.  Half the
    instances are built around a planted pairing that most layers approve,
    so that the matching makes most agents happy."""
    n, ell = rng.randint(0, 40), rng.randint(1, 6)
    p = rng.uniform(0.03, 0.15) * rng.choice([0, 1, 1])
    quiet = set(rng.sample(range(n), rng.randint(0, n // 3)))
    loud = [a for a in range(n) if a not in quiet]
    rng.shuffle(loud)
    planted = list(zip(loud[::2], loud[1::2])) if rng.random() < 0.5 else []
    symmetric = rng.random() < 0.5
    layers = [[set() for _ in range(n)] for _ in range(ell)]
    for lay in layers:
        for a, b in planted:
            if rng.random() < 0.8:
                lay[a].add(b)
                lay[b].add(a)
        for a in loud:
            for b in loud:
                if a != b and rng.random() < p:
                    lay[a].add(b)
                    if symmetric:
                        lay[b].add(a)
    inst = build_instance(n, ell, layers)
    pairs = [pair for pair in planted if rng.random() < 0.9]
    used = {a for pair in pairs for a in pair}
    approving = sorted({(min(a, b), max(a, b)) for a, ma in enumerate(inst.approval_masks) for b in ma})
    rng.shuffle(approving)
    for a, b in approving:
        if a not in used and b not in used and rng.random() < 0.7:
            pairs.append((a, b))
            used |= {a, b}
    rest = [a for a in range(n) if a not in used]
    rng.shuffle(rest)
    while len(rest) >= 2:
        if rng.random() < 0.5:
            pairs.append((rest.pop(), rest.pop()))
        else:
            rest.pop()
    return inst, Matching.from_pairs(pairs)


def test_sparse_scan_matches_inline_definitions():
    # check, stable_layers and stable_in_layer visit only approving pairs and
    # count or search the silent ones; the definitions visit every pair
    rng = random.Random(23)
    seen = set()
    for _ in range(120):
        _compare_with_definitions(*_sparse_case(rng), seen)
    assert {
        "super-pair least violation silent",
        "super-individual least violation silent",
        "super-global layer blocked only by silent pairs",
        "silent violation before an approving one in its row",
        "scan stops at fb with fa = 0",
        "fa = 0: lesser pair read from the row before fb",
        "lesser pair read from a row after fa > 0, b = fa",
        "lesser pair read from a row after fa > 0, b < fa",
    } <= seen


def test_base_monotonicity_lifts_to_every_aggregation():
    # super stability implies strong implies weak, per aggregation
    rng = random.Random(71)
    for _ in range(40):
        inst = gen_random(
            rng.randint(2, 7),
            rng.randint(1, 4),
            0.5,
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        m = random_matching(rng, inst.n)
        for agg in ("all", "global", "pair", "individual"):
            for alpha in [None] if agg == "all" else range(1, inst.ell + 1):
                sup = check(inst, m, StabilityQuery("super", agg, alpha)).stable
                weak = check(inst, m, StabilityQuery("weak", agg, alpha)).stable
                if agg == "individual":
                    assert not sup or weak
                    continue
                strong = check(inst, m, StabilityQuery("strong", agg, alpha)).stable
                assert (not sup or strong) and (not strong or weak)


def test_matched_pairs_never_violate_pair_aggregation():
    # two agents, no approvals: the lone pair is matched, hence satisfied
    inst = build_instance(2, 2, [[set()] * 2] * 2)
    m = Matching.from_pairs([(0, 1)])
    assert check(inst, m, StabilityQuery("super", "pair", 2)).stable
    assert check(inst, m, StabilityQuery("super", "individual", 2)).stable


def _greedy_matching(inst):
    """Each agent in turn takes the least later agent, free and approving it
    back in some layer, that it approves: many agents end up happy."""
    masks = inst.approval_masks
    pairs, used = [], set()
    for a, row in enumerate(masks):
        if a not in used:
            b = min((b for b in row if b > a and b not in used and a in masks[b]), default=None)
            if b is not None:
                pairs.append((a, b))
                used |= {a, b}
    return Matching.from_pairs(pairs)


def test_check_without_explain_only_decides():
    # explain=False stops at the first violation (pair, individual) or once
    # more than ell - alpha layers block (global): the same .stable, the same
    # stable verdict, witness layers included, and a bare unstable one
    rng = random.Random(34)
    triples = 0
    unstable = stable = 0
    while triples < 50_000:
        n, ell = rng.randint(0, 24), rng.randint(1, 5)
        p = rng.choice([0.03, 0.08, 0.15, 0.3, 0.6])
        inst = gen_random(n, ell, p, symmetric=rng.random() < 0.5, seed=rng.getrandbits(30))
        for m in (Matching(()), random_matching(rng, n), _greedy_matching(inst)):
            for q in all_queries(ell):
                full = check(inst, m, q)
                fast = check(inst, m, q, explain=False)
                assert fast.stable == full.stable, (inst, m, q)
                if full.stable:
                    assert fast == full, (inst, m, q)
                    stable += 1
                else:
                    assert fast == Verdict(False, q), (inst, m, q)
                    unstable += 1
                triples += 1
    assert stable > 5_000 and unstable > 5_000
