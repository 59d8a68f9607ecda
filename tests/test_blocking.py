import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import strong_char_check, weak_char_check
from mlsm.blocking import (
    BASES,
    Matching,
    _approving,
    block_mask,
    blocks,
    is_happy,
    stable_in_layer,
    stable_layers,
    support_mask,
)
from mlsm.errors import (
    IdOutOfRange,
    InvalidMatching,
    InvalidQuery,
    MlsmError,
    NotSymmetric,
    PairIsMatched,
)
from mlsm.model import MultilayerInstance, build_instance
from mlsm.oracle import enumerate_matchings
from mlsm.reductions import gen_random
from mlsm.verify import _pair_cost, all_queries


def test_matching_partner_lookup(m1):
    assert m1.partner(0) == 1 and m1.partner(3) == 2
    assert m1.partner(7) is None
    assert m1.has_pair(1, 0)


def test_matching_rejects_reuse():
    with pytest.raises(ValueError) as reused:
        Matching.from_pairs([(0, 1), (1, 2)])
    with pytest.raises(ValueError) as loop:
        Matching.from_pairs([(2, 2)])
    for exc in (reused.value, loop.value):
        assert isinstance(exc, InvalidMatching) and isinstance(exc, MlsmError)
        assert str(pickle.loads(pickle.dumps(exc))) == str(exc)
    assert str(reused.value) == "agent reused by pair (1, 2)"
    assert str(loop.value) == "pair (2, 2) has identical endpoints"


def _matching_outcome(make):
    try:
        return make().pairs
    except InvalidMatching as exc:
        return str(exc), exc.pair, exc.reused


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=5))
@settings(max_examples=300, deadline=None)
def test_from_pairs_matches_the_min_max_form(pairs):
    # reversed, equal and reused agents alike
    want = _matching_outcome(lambda: Matching(tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))))
    assert _matching_outcome(lambda: Matching.from_pairs(pairs)) == want
    assert _matching_outcome(lambda: Matching.from_pairs(iter(pairs))) == want


@pytest.mark.parametrize(
    "pair, layer", [((0, 7), 0), ((-1, 1), 0), ((0, 1), -1), ((0, 1), 3)]
)
def test_blocks_rejects_out_of_range_ids(ex1, pair, layer):
    with pytest.raises(IdOutOfRange):
        blocks(ex1, Matching(()), pair, layer, "weak")


def test_blocks_rejects_identical_endpoints(ex1):
    # (2, 2) was answered as a pair blocking under super
    with pytest.raises(InvalidMatching, match=r"^pair \(2, 2\) has identical endpoints$"):
        blocks(ex1, Matching(()), (2, 2), 1, "super")


def test_mask_rules_refuse_an_unknown_base():
    # block_mask raised a plain ValueError, and support_mask reported the
    # unknown base as a missing strong individual notion
    with pytest.raises(InvalidQuery, match=r"^unknown stability base 'bogus'$"):
        block_mask("bogus", 1, 1, 0, 0, 1)
    with pytest.raises(InvalidQuery, match=r"^unknown stability base 'bogus'$"):
        support_mask("bogus", 1, 0, 1)
    with pytest.raises(InvalidQuery, match=r"^there is no strong individual stability$"):
        support_mask("strong", 1, 0, 1)


_FOUR = [[{1}, {0}, {3}, {2}], [{1}, {0}, set(), set()]]


@pytest.mark.parametrize("pairs", [((-1, 0),), ((0, 99),), ((True, 2),)], ids=["negative", "too-large", "bool"])
@pytest.mark.parametrize("base", BASES)
def test_stable_layers_rejects_out_of_range_ids(pairs, base):
    # -1 was read as agent 3 and True as agent 1; 99 raised IndexError
    with pytest.raises(IdOutOfRange):
        stable_layers(build_instance(4, 2, _FOUR), Matching(pairs), base)


def test_stable_in_layer_rejects_out_of_range_ids(ex1, m1):
    for layer in (-1, 3):
        with pytest.raises(IdOutOfRange):
            stable_in_layer(ex1, m1, layer, "weak")
    with pytest.raises(IdOutOfRange):
        stable_in_layer(ex1, Matching.from_pairs([(0, 7)]), 0, "weak")


@pytest.mark.parametrize(
    "inst, m",
    [
        (build_instance(0, 1, [[]]), Matching(())),
        (build_instance(1, 2, [[set()], [set()]]), Matching(())),
        (build_instance(4, 1, [[{1}, {0}, {3}, {2}]]), Matching.from_pairs([(0, 1), (2, 3)])),
        (build_instance(3, 2, [[set()] * 3] * 2), Matching(())),
    ],
    ids=["n0", "n1", "all-matched", "no-approval"],
)
def test_unknown_base_is_rejected(inst, m):
    # raised before any scan, also where no pair is scanned at all
    with pytest.raises(InvalidQuery):
        stable_layers(inst, m, "bogus")
    with pytest.raises(InvalidQuery):
        stable_in_layer(inst, m, 0, "bogus")
    with pytest.raises(InvalidQuery):
        blocks(inst, m, (0, 1), 0, "bogus")


def _blocking_pairs(inst, m, layer, base):
    """All unmatched pairs blocking the matching in the layer, lexicographic."""
    return [
        (a, b)
        for a in range(inst.n)
        for b in range(a + 1, inst.n)
        if not m.has_pair(a, b) and blocks(inst, m, (a, b), layer, base)
    ]


def test_approval_masks(ex1):
    assert ex1.approval_masks[0][1] == 0b111  # a approves b in every layer
    assert ex1.approval_masks[0][3] == 0b010  # a approves d in layer two only
    assert 0 not in ex1.approval_masks[2]     # no arc c->a
    # unmatched ranks with disapproved: a single and a matched to c (whom a
    # disapproves in layer three) block alike
    with_c = Matching.from_pairs([(0, 2)])
    for base in BASES:
        assert blocks(ex1, Matching(()), (0, 1), 2, base) == blocks(
            ex1, with_c, (0, 1), 2, base
        )


def _scan_cases():
    """40 random instances and matchings, each with every unmatched pair
    that approves somewhere and its key, from the per-layer sets."""
    rng = random.Random(5)
    for _ in range(40):
        inst = gen_random(
            rng.randint(0, 12),
            rng.randint(1, 4),
            rng.choice([0.1, 0.3]),
            symmetric=rng.random() < 0.5,
            seed=rng.getrandbits(30),
        )
        n = inst.n
        order = list(range(n))
        rng.shuffle(order)
        k = rng.randint(0, n // 2)
        m = Matching.from_pairs(zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2]))

        def mask(x, y):
            return sum(1 << i for i, lay in enumerate(inst.approvals) if y in lay[x])

        def happy(x):
            p = m.partner(x)
            return 0 if p is None else mask(x, p)

        want = {
            (a, b): (mask(a, b), mask(b, a), happy(a), happy(b))
            for a in range(n)
            for b in range(a + 1, n)
            if not m.has_pair(a, b) and (mask(a, b) or mask(b, a))
        }
        yield inst, m, want


def _cuts(n):
    return [(x, y) for x in range(n) for y in range(x + 1, n)]


def _can_violate(base, key, ell):
    """Does a pair with this key block in some layer or, under weak or
    super, break alpha-individual stability for some alpha (iff for
    alpha = ell)?"""
    full = (1 << ell) - 1
    if block_mask(base, *key, full):
        return True
    sa, sb, ha, hb = key
    return base != "strong" and max(
        support_mask(base, sa, ha, full).bit_count(),
        support_mask(base, sb, hb, full).bit_count(),
    ) < ell


def _within(base, key, reach):
    """Does each agent's reach mask meet more than ``cut`` layers of
    ``open``?  It is the strict mask ``s & ~h`` under weak, else the geq
    mask ``s | ~h``."""
    sa, sb, ha, hb = key
    open_, cut = reach
    if base == "weak":
        return (sa & ~ha & open_).bit_count() > cut and (sb & ~hb & open_).bit_count() > cut
    return ((sa | ~ha) & open_).bit_count() > cut and ((sb | ~hb) & open_).bit_count() > cut


def _reach_cases(base, ell):
    """``(reach, violates)``: ``[full, ell - alpha]`` with the pair cost of
    each pair or individual query of ``base``, as ``check`` passes it, and
    ``[open, 0]`` with blocking in an open layer for each ``open``, as
    ``stable_layers`` narrows it."""
    full = (1 << ell) - 1
    for q in all_queries(ell):
        if q.base == base and q.agg in ("pair", "individual"):
            yield [full, ell - q.alpha], _pair_cost(q, ell)
    for open_ in range(1, full + 1):
        yield [open_, 0], lambda *key, open_=open_: block_mask(base, *key, full) & open_


def _assert_scan_yields_every_violating_pair(base):
    """Each pair ``_approving`` yields appears once, with its exact key, and
    approves somewhere; every pair that can block or violate is yielded;
    and a scan cut at a least pair still yields every such pair below it.
    Under a reach, only pairs within it are yielded, and still every pair
    that violates the query or blocks in an open layer, with or without a
    least pair."""
    for inst, m, want in _scan_cases():
        needed = {pair for pair, key in want.items() if _can_violate(base, key, inst.ell)}
        rows = list(_approving(inst, m, base))
        assert len({(a, b) for a, b, _ in rows}) == len(rows)  # each pair once
        got = {(a, b): key for a, b, key in rows}
        assert all(pair in want and want[pair] == key for pair, key in got.items())
        assert needed <= got.keys()
        for least in _cuts(inst.n):
            below = {
                (a, b): key
                for a, b, key in _approving(inst, m, base, list(least))
                if (a, b) < least
            }
            assert all(pair in want and want[pair] == key for pair, key in below.items())
            assert {pair for pair in needed if pair < least} <= below.keys()
        for reach, violates in _reach_cases(base, inst.ell):
            needed = {pair for pair, key in want.items() if violates(*key)}
            for least in [None] + _cuts(inst.n):
                got = {
                    (a, b): key
                    for a, b, key in _approving(inst, m, base, least and list(least), list(reach))
                }
                assert all(want[pair] == key and _within(base, key, reach) for pair, key in got.items())
                assert {pair for pair in needed if least is None or pair < least} <= got.keys()


def test_approving_scan_matches_definition():
    # super skips only pairs with an agent happy everywhere that does not
    # approve the other (test_happy_everywhere_lemma_exhaustive)
    _assert_scan_yields_every_violating_pair("super")


@pytest.mark.parametrize("base", ["weak", "strong"])
def test_strict_rows_scan_yields_every_violating_pair(base):
    _assert_scan_yields_every_violating_pair(base)


class _RowRead(Exception):
    pass


class _SealedRow(dict):
    """A mask row that refuses to be walked; lookups still work."""

    def _refuse(self, *args):
        raise _RowRead

    items = values = keys = __iter__ = _refuse


def test_strict_rows_scan_skips_happy_agents_in_constant_time():
    # a planted perfect matching approved in every layer, plus noise: every
    # agent is happy everywhere, so no weak or strong scan walks a row
    rng = random.Random(11)
    n, ell = 2000, 3
    approvals = [[set() for _ in range(n)] for _ in range(ell)]
    for layer in approvals:
        for a in range(n):
            layer[a].add(a ^ 1)
            layer[a].update(rng.sample(range(n), 3))
            layer[a].discard(a)
    plain = build_instance(n, ell, approvals)
    inst = MultilayerInstance(n, ell, tuple(_SealedRow(row) for row in plain.approval_masks))
    m = Matching.from_pairs((a, a + 1) for a in range(0, n, 2))
    for base in ("weak", "strong"):
        assert list(_approving(inst, m, base)) == []
        assert list(_approving(inst, m, base, [n, n])) == []
        assert stable_layers(inst, m, base) == frozenset(range(ell))
    with pytest.raises(_RowRead):
        list(_approving(inst, m, "super"))


def test_strict_rows_lemma_exhaustive():
    # weak blocks lie in strict_a & strict_b, strong ones in
    # strict_a | strict_b, and a weak individual violation needs both agents
    # strict and approving; so a weak pair or individual violation needs
    # both strict masks wider than ell - alpha (the weak scan's reach)
    for ell in range(1, 4):
        full = (1 << ell) - 1
        weak = [
            (q, _pair_cost(q, ell)) for q in all_queries(ell) if q.base == "weak" and q.agg in ("pair", "individual")
        ]
        for sa, sb, ha, hb in itertools.product(range(full + 1), repeat=4):
            strict_a, strict_b = sa & ~ha, sb & ~hb
            assert not block_mask("weak", sa, sb, ha, hb, full) & ~(strict_a & strict_b)
            assert not block_mask("strong", sa, sb, ha, hb, full) & ~(strict_a | strict_b)
            supports = (
                support_mask("weak", sa, ha, full).bit_count(),
                support_mask("weak", sb, hb, full).bit_count(),
            )
            if max(supports) < ell:
                assert strict_a and strict_b and sa and sb
            for q, cost in weak:
                if cost(sa, sb, ha, hb):
                    assert min(strict_a.bit_count(), strict_b.bit_count()) > ell - q.alpha


def test_happy_everywhere_lemma_exhaustive():
    # an agent happy in every layer that does not approve the other is at
    # least indifferent nowhere and has full super support: the pair costs
    # nothing under any query
    for ell in range(1, 4):
        full = (1 << ell) - 1
        costs = [_pair_cost(q, ell) for q in all_queries(ell)]
        for sb, hb in itertools.product(range(full + 1), repeat=2):
            for cost in costs:
                assert cost(0, sb, full, hb) == 0
                assert cost(sb, 0, hb, full) == 0


def test_reach_lemma_exhaustive():
    # geq_x = (s_x | ~h_x) & full: blocks lie in geq_a & geq_b under every
    # base, so a pair or individual violation needs both geq masks wider
    # than ell - alpha (weak support is at least ell - |geq|); and the super
    # scan's cut is that bound, exactly, on a pair with those masks
    for ell in range(1, 4):
        full = (1 << ell) - 1
        queries = [(q, _pair_cost(q, ell)) for q in all_queries(ell)]
        reaches = [[full, cut] for cut in range(ell)] + [[o, 0] for o in range(1, full + 1)]
        for key in itertools.product(range(full + 1), repeat=4):
            sa, sb, ha, hb = key
            geq_a, geq_b = (sa | ~ha) & full, (sb | ~hb) & full
            for q, cost in queries:
                if q.agg in ("all", "global"):
                    assert not cost(*key) & ~(geq_a & geq_b)
                elif cost(*key):
                    assert min(geq_a.bit_count(), geq_b.bit_count()) > ell - q.alpha
            if not sa and not sb:
                continue  # silent pairs are never scanned
            # a = 0, b = 1, matched to 2 and 3
            approvals = [[set() for _ in range(4)] for _ in range(ell)]
            for x, y, mask in ((0, 1, sa), (1, 0, sb), (0, 2, ha), (1, 3, hb)):
                for i in range(ell):
                    if mask >> i & 1:
                        approvals[i][x].add(y)
            inst = build_instance(4, ell, approvals)
            m = Matching(((0, 2), (1, 3)))
            for reach in reaches:
                got = [k for a, b, k in _approving(inst, m, "super", None, list(reach)) if (a, b) == (0, 1)]
                assert got == ([key] if _within("super", key, reach) else [])


def test_is_happy(ex1, m1):
    assert is_happy(ex1, m1, 0, 1)      # a matched to b, approved everywhere
    assert not is_happy(ex1, Matching(()), 0, 0)
    assert not is_happy(ex1, m1, 2, 1)  # c approves only b in layer two


@pytest.mark.parametrize("agent, layer", [(7, 0), (True, 0), (1.5, 0), (0, True), (0, 3)])
def test_is_happy_rejects_bad_ids(ex1, m1, agent, layer):
    # True read as agent 1, 7 raised IndexError and 1.5 a bare TypeError
    with pytest.raises(IdOutOfRange):
        is_happy(ex1, m1, agent, layer)


def test_blocks_fixture_claims(ex1, m1, m2):
    for layer in range(3):
        assert blocks(ex1, m2, (0, 1), layer, "super")
    assert blocks(ex1, m1, (0, 3), 1, "super")
    assert not blocks(ex1, m1, (0, 3), 0, "super")
    assert not blocks(ex1, m1, (0, 3), 2, "super")
    assert not blocks(ex1, m2, (0, 1), 1, "weak")  # a is happy with d in layer two


def test_blocks_rejects_matched_pair(ex1, m1):
    with pytest.raises(PairIsMatched):
        blocks(ex1, m1, (0, 1), 0, "weak")


def test_blocking_pairs_examples(ex1, m1):
    assert _blocking_pairs(ex1, m1, 2, "super") == [(1, 2)]
    empty = build_instance(4, 1, [[set()] * 4])
    anym = Matching.from_pairs([(0, 2)])
    assert _blocking_pairs(empty, anym, 0, "weak") == []
    perfect = Matching.from_pairs([(0, 1), (2, 3)])
    assert _blocking_pairs(empty, perfect, 0, "super") == [
        (0, 2),
        (0, 3),
        (1, 2),
        (1, 3),
    ]


def test_stable_layers_fixture(ex1, m1, m2):
    assert stable_layers(ex1, m1, "strong") == frozenset({0, 2})
    assert stable_layers(ex1, m1, "super") == frozenset({0})
    assert stable_layers(ex1, m2, "weak") == frozenset({1, 2})


def test_characterizations_on_footnote_fixture(ex2, m1):
    for layer in range(2):
        assert weak_char_check(ex2, m1, layer)
        assert strong_char_check(ex2, m1, layer)
    assert not weak_char_check(ex2, Matching(()), 0)


def test_characterization_triangle(triangle):
    single = Matching.from_pairs([(0, 1)])
    assert not strong_char_check(triangle, single, 0)


def test_characterizations_require_symmetry(ex1, m1):
    with pytest.raises(NotSymmetric):
        weak_char_check(ex1, m1, 0)
    with pytest.raises(NotSymmetric):
        strong_char_check(ex1, m1, 0)


def test_characterizations_match_definition_exhaustively():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        inst = gen_random(n, 2, 0.5, symmetric=True, seed=rng.getrandbits(30))
        for m in enumerate_matchings(n):
            for i in range(2):
                assert weak_char_check(inst, m, i) == stable_in_layer(inst, m, i, "weak")
                assert strong_char_check(inst, m, i) == stable_in_layer(
                    inst, m, i, "strong"
                )


@st.composite
def instance_matching_pair(draw):
    n = draw(st.integers(2, 6))
    ell = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    symmetric = draw(st.booleans())
    inst = gen_random(n, ell, 0.5, symmetric=symmetric, seed=seed)
    k = draw(st.integers(0, n // 2))
    perm = draw(st.permutations(range(n)))
    m = Matching.from_pairs(
        (perm[2 * i], perm[2 * i + 1]) for i in range(k)
    )
    return inst, m


@given(instance_matching_pair())
@settings(max_examples=120, deadline=None)
def test_blocking_monotone_across_bases(data):
    inst, m = data
    for a in range(inst.n):
        for b in range(a + 1, inst.n):
            if m.partner(a) == b:
                continue
            for i in range(inst.ell):
                w = blocks(inst, m, (a, b), i, "weak")
                s = blocks(inst, m, (a, b), i, "strong")
                p = blocks(inst, m, (a, b), i, "super")
                assert (not w or s) and (not s or p)


@given(instance_matching_pair())
@settings(max_examples=80, deadline=None)
def test_adding_pairs_never_creates_blocking(data):
    inst, m = data
    free = sorted(a for a in range(inst.n) if not m.covers(a))
    if len(free) < 2:
        return
    bigger = Matching.from_pairs(list(m.pairs) + [(free[0], free[1])])
    for base in ("weak", "strong", "super"):
        for i in range(inst.ell):
            for pair in _blocking_pairs(inst, bigger, i, base):
                assert blocks(inst, m, pair, i, base)
