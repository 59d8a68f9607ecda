import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsm
from mlsm import Matching, build_instance
from mlsm.cli import (
    instance_from_doc,
    instance_to_doc,
    main,
    matching_from_doc,
    matching_to_doc,
)
from mlsm.errors import (
    BadParameters,
    IdOutOfRange,
    InvalidMatching,
    MalformedDocument,
    MalformedFormula,
    MlsmError,
    SelfApproval,
)
from mlsm.reductions import gen_random, parse_dimacs, parse_edge_list


@pytest.fixture
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(instance_to_doc(ex1)))
    return str(path)


@pytest.fixture
def m1_file(tmp_path, ex1, m1):
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(matching_to_doc(ex1, m1)))
    return str(path)


@pytest.fixture
def m2_file(tmp_path, ex1, m2):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps(matching_to_doc(ex1, m2)))
    return str(path)


def test_instance_roundtrip(ex1):
    assert instance_from_doc(instance_to_doc(ex1)) == ex1
    for seed in range(10):
        inst = gen_random(6, 3, 0.4, symmetric=seed % 2 == 0, seed=seed)
        named = instance_from_doc(instance_to_doc(inst))
        assert named.approvals == inst.approvals


def test_matching_roundtrip(ex1, m1):
    assert matching_from_doc(ex1, matching_to_doc(ex1, m1)) == m1


def test_check_stable_exit_zero(ex1_file, m1_file, capsys):
    code = main(["check", ex1_file, m1_file, "--base", "weak", "--agg", "all"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is True
    assert doc["elapsed_ms"] >= 0


def test_check_unstable_exit_one_with_witness(ex1_file, m2_file, capsys):
    code = main(
        ["check", ex1_file, m2_file, "--base", "strong", "--agg", "pair", "--alpha", "1"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["violating_pair"] == ["a", "b"]
    assert doc["blocking_layers"] == [1, 2, 3]


def test_check_strong_individual_exits_two(ex1_file, m1_file, capsys):
    code = main(
        ["check", ex1_file, m1_file, "--base", "strong", "--agg", "individual", "--alpha", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "strong individual" in err


def test_solve_exists(tmp_path, ex2, capsys):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(instance_to_doc(ex2)))
    code = main(
        ["solve", str(path), "--base", "super", "--agg", "global", "--alpha", "2"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exists"] is True
    assert sorted(map(sorted, doc["matching"])) == [["a1", "a2"], ["a3", "a4"]]
    assert doc["witness_layers"] == [1, 2]


def test_solve_output_reverifies_through_check(tmp_path, ex2, capsys):
    inst_path = tmp_path / "ex2.json"
    inst_path.write_text(json.dumps(instance_to_doc(ex2)))
    assert main(
        ["solve", str(inst_path), "--base", "super", "--agg", "all"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    matching_path = tmp_path / "found.json"
    matching_path.write_text(json.dumps({"pairs": doc["matching"]}))
    assert main(
        ["check", str(inst_path), str(matching_path), "--base", "super", "--agg", "all"]
    ) == 0


def test_solve_not_exists(tmp_path, triangle, capsys):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(instance_to_doc(triangle)))
    code = main(["solve", str(path), "--base", "strong", "--agg", "all"])
    assert code == 1


def test_solve_unknown_exit_three(tmp_path, capsys):
    inst = gen_random(30, 2, 0.3, seed=13)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(instance_to_doc(inst)))
    code = main(
        ["solve", str(path), "--base", "weak", "--agg", "all", "--budget", "8"]
    )
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["exists"] is None


def test_oracle_all_lists_fixture(ex1_file, capsys, ex1, m1):
    code = main(
        ["oracle", ex1_file, "--base", "super", "--agg", "pair", "--alpha", "2", "--all"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [["a", "b"], ["c", "d"]] in doc["all_matchings"]


def test_oracle_footnote_negative(tmp_path, ex2, capsys):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(instance_to_doc(ex2)))
    code = main(
        ["oracle", str(path), "--base", "super", "--agg", "individual", "--alpha", "2"]
    )
    assert code == 1


def test_oracle_budget_exit_two(tmp_path, capsys):
    inst = gen_random(20, 1, 0.2, seed=2)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(instance_to_doc(inst)))
    code = main(["oracle", str(path), "--base", "weak", "--agg", "all"])
    assert code == 2


def test_gen_random_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
    for out in (out1, out2):
        assert main(
            [
                "gen", "random", "--n", "6", "--layers", "2", "--p", "0.3",
                "--symmetric", "--seed", "7", "--out", str(out),
            ]
        ) == 0
    assert out1.read_text() == out2.read_text()


def test_gen_sat_writes_instance_and_certificate(tmp_path, capsys):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "sat.json"
    assert main(["gen", "sat", "--cnf", str(cnf), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["agents"]) == 17 and len(doc["layers"]) == 2
    cert = json.loads((tmp_path / "sat.cert.json").read_text())
    assert cert["kind"] == "sat" and cert["query"]["base"] == "weak"


def test_gen_is_records_alpha(tmp_path, capsys):
    graph = tmp_path / "k3.txt"
    graph.write_text("3 3\n1 2\n2 3\n1 3\n")
    out = tmp_path / "is.json"
    assert main(["gen", "is", "--graph", str(graph), "--k", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["agents"]) == 12 and len(doc["layers"]) == 3
    cert = json.loads((tmp_path / "is.cert.json").read_text())
    assert cert["query"]["alpha"] == 2


def test_gen_degpart(tmp_path, capsys):
    graph = tmp_path / "k2.txt"
    graph.write_text("2 1\n1 2\n")
    out = tmp_path / "dp.json"
    assert main(
        ["gen", "degpart", "--graph", str(graph), "--layers", "2", "--alpha", "1",
         "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert len(doc["agents"]) == 8


@pytest.mark.parametrize(
    "generator, text, flags, cert",
    [
        ("sat", "p cnf 3 1\n1 -2 3 0\n", [], {
            "kind": "sat",
            "query": {"base": "weak", "agg": "all", "alpha": None},
            "source": {"num_vars": 3, "clauses": [[1, -2, 3]]},
            "agents": ["a_x1", "a_nx1", "b+_x1", "b-_x1", "a_x2", "a_nx2", "b+_x2", "b-_x2", "a_x3", "a_nx3",
                       "b+_x3", "b-_x3", "al1_c0", "al2_c0", "be1_c0", "be2_c0", "be3_c0"],
        }),
        ("is", "3 2\n1 2\n2 3\n", ["--k", "2"], {
            "kind": "independent-set",
            "query": {"base": "strong", "agg": "global", "alpha": 2},
            "source": {"vertices": 3, "edges": [[0, 1], [1, 2]], "k": 2},
            "agents": ["e0-1.1", "e0-1.2", "e0-1.3", "e0-1.4", "e1-2.1", "e1-2.2", "e1-2.3", "e1-2.4"],
        }),
        ("degpart", "2 1\n1 2\n", ["--layers", "2", "--alpha", "1"], {
            "kind": "degree-partition",
            "query": {"base": "super", "agg": "pair", "alpha": 1},
            "source": {"vertices": 2, "edges": [[0, 1]], "layers": 2, "alpha": 1},
            "agents": ["v0.1", "v0.2", "v1.1", "v1.2", "v0.star", "v1.star", "a", "a'"],
        }),
    ],
    ids=["sat", "is", "degpart"],
)
def test_gen_certificate_documents(tmp_path, capsys, generator, text, flags, cert):
    # the whole certificate, key order included, as json.dumps writes it
    source = tmp_path / "source.txt"
    source.write_text(text)
    out = tmp_path / "gen.json"
    flag = "--cnf" if generator == "sat" else "--graph"
    assert main(["gen", generator, flag, str(source), *flags, "--out", str(out)]) == 0
    cert_path = tmp_path / "gen.cert.json"
    assert capsys.readouterr().out == f"wrote {out} and {cert_path}\n"
    assert cert_path.read_text() == json.dumps(cert, indent=2)
    assert json.loads(out.read_text())["agents"] == cert["agents"]


def test_bench_subcommand_is_gone(capsys):
    # the randomized suites are tests, not a subcommand
    with pytest.raises(SystemExit) as exc:
        main(["bench", "lattice"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "generator, text, where",
    [
        ("is", "3\n", "line 1: expected two integers, got '3'"),
        ("is", "# header\n3 x\n1 2\n", "line 2: expected integers, got '3 x'"),
        ("is", "3 1\n0\n", "line 2: expected two integers, got '0'"),
        ("sat", "p cnf x 1\n1 0\n", "line 1: expected integers, got 'p cnf x 1'"),
        ("sat", "c note\np cnf 2 1\n1 a 0\n", "line 3: expected integers, got '1 a 0'"),
        ("is", "3 1\n1 2\n2 3\n", "expected 1 edges, found 2"),
        ("is", "3 1\n1 2 3\n", "line 2: expected two integers, got '1 2 3'"),
        ("is", "-2 0\n", "line 1: vertex count must be nonnegative, got -2"),
        ("sat", "p cnf 3 1\n1 2 3 0\n-1 2 3 0\n", "header declares 1 clauses, found 2"),
        ("sat", "p cnf 3 5\n1 2 3 0\n", "header declares 5 clauses, found 1"),
        ("sat", "p cnf 3 1\np cnf 5 1\n1 2 5 0\n", "line 2: second problem line 'p cnf 5 1'"),
        ("sat", "1 2 0\np cnf 2 1\n", "line 1: clause before the 'p cnf' header"),
        ("sat", "p cnf -1 0\n", "line 1: negative count in 'p cnf -1 0'"),
        ("sat", "p dnf 3 1\n1 2 0\n", "line 1: bad problem line 'p dnf 3 1'"),
        ("sat", "c no header\n", "missing 'p cnf' header"),
        ("sat", "p cnf 3 1\n1 2 0\n3\n", "header declares 1 clauses, found 2"),
    ],
    ids=["one-token-header", "non-integer-header", "one-token-edge", "non-integer-cnf-header", "non-integer-literal",
         "surplus-edge-line", "three-token-edge", "negative-vertex-count", "surplus-clause", "missing-clauses",
         "second-cnf-header", "clause-before-header", "negative-variable-count", "not-cnf-problem-line",
         "missing-cnf-header", "unterminated-last-clause"],
)
def test_malformed_graph_and_cnf_files_exit_two(tmp_path, capsys, generator, text, where):
    source = tmp_path / "source.txt"
    source.write_text(text)
    out = str(tmp_path / "out.json")
    if generator == "is":
        argv = ["gen", "is", "--graph", str(source), "--k", "1", "--out", out]
        error, parse = BadParameters, parse_edge_list
    else:
        argv = ["gen", "sat", "--cnf", str(source), "--out", out]
        error, parse = MalformedFormula, parse_dimacs
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == where
    with pytest.raises(error):
        parse(text)


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad), str(bad), "--base", "weak", "--agg", "all"]) == 2


@pytest.mark.parametrize(
    "argv, data",
    [
        (["check", "EX1", "BAD", "--base", "weak", "--agg", "all"], b"{not json"),
        (["check", "BAD", "M1", "--base", "weak", "--agg", "all"], b"\xff{}"),
        (["gen", "sat", "--cnf", "BAD", "--out", "OUT"], b"\xffp cnf 1 0\n"),
        (["gen", "is", "--graph", "BAD", "--k", "1", "--out", "OUT"], b"\xff2 1\n1 2\n"),
    ],
    ids=["json-syntax", "instance-not-utf8", "cnf-not-utf8", "graph-not-utf8"],
)
def test_reader_errors_name_their_file(tmp_path, ex1_file, m1_file, argv, data, capsys):
    bad = tmp_path / "bad.input"
    bad.write_bytes(data)
    files = {"BAD": str(bad), "EX1": ex1_file, "M1": m1_file, "OUT": str(tmp_path / "out.json")}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"].startswith(f"{bad}: ")


def test_alpha_out_of_range_exit_two(ex1_file, m1_file, capsys):
    code = main(
        ["check", ex1_file, m1_file, "--base", "weak", "--agg", "pair", "--alpha", "9"]
    )
    assert code == 2
    code = main(
        ["check", ex1_file, m1_file, "--base", "weak", "--agg", "pair", "--alpha", "0"]
    )
    assert code == 2


def test_missing_alpha_exit_two(ex1_file, m1_file, capsys):
    assert main(["check", ex1_file, m1_file, "--base", "weak", "--agg", "pair"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--agg", "all", "--alpha", "1"], "all-layers takes no alpha"),
        (["--agg", "pair"], "pair aggregation requires alpha"),
    ],
    ids=["alpha-with-all", "pair-without-alpha"],
)
def test_query_flags_never_reinterpreted(ex1_file, capsys, flags, message):
    assert main(["solve", ex1_file, "--base", "weak", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert json.loads(captured.err)["error"] == message


def test_duplicate_agent_names_exit_two(tmp_path, m1_file, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({"agents": ["a", "a"], "layers": [{}]}))
    assert main(["check", str(bad), m1_file, "--base", "weak", "--agg", "all"]) == 2


def test_unknown_agent_in_matching_exit_two(ex1_file, tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"pairs": [["a", "zz"]]}))
    assert main(["check", ex1_file, str(bad), "--base", "weak", "--agg", "all"]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        [],
        ["a", "b"],
        {"agents": "bc", "layers": [{}]},
        {"agents": ["a", "b"], "layers": {"a": ["b"]}},
        {"agents": ["a", "b"], "layers": [["a", "b"]]},
        {"agents": ["a", "b"], "layers": [{"a": "b"}]},
        {"agents": ["a", "b"], "layers": [{"a": [["b"]]}]},
        {"agents": [1, 2], "layers": [{}]},
        {"layers": [{}]},
    ],
)
def test_malformed_instance_shapes_exit_two(tmp_path, m1_file, doc, capsys):
    with pytest.raises(MalformedDocument):
        instance_from_doc(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), m1_file, "--base", "weak", "--agg", "all"]) == 2


def test_self_approval_message_uses_cli_numbering(tmp_path, capsys):
    bad = tmp_path / "self.json"
    bad.write_text(json.dumps({"agents": ["a", "b"], "layers": [{}, {"a": ["a"]}]}))
    assert main(["solve", str(bad), "--base", "weak", "--agg", "all"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "agent 'a' approves itself in layer 2"


def test_empty_layer_list_exit_two(tmp_path, m1_file, capsys):
    doc = {"agents": ["a", "b"], "layers": []}
    with pytest.raises(IdOutOfRange):
        instance_from_doc(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), m1_file, "--base", "weak", "--agg", "all"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "layer count must be at least 1, got 0"


def test_self_approval_from_doc_names_agent_and_layer():
    doc = {"agents": ["x", "y", "z"], "layers": [{"x": ["y"]}, {}, {"x": ["z"], "z": ["x", "z"]}]}
    with pytest.raises(SelfApproval) as exc:
        instance_from_doc(doc)
    assert (exc.value.agent, exc.value.layer) == (2, 2)
    assert str(exc.value) == "agent 'z' approves itself in layer 3"


def test_self_approval_wins_over_a_later_unknown_name(tmp_path, capsys):
    # the document is read layer by layer, so the first broken layer decides
    doc = {"agents": ["a", "b"], "layers": [{"a": ["b", "a"]}, {"b": ["zz"]}]}
    with pytest.raises(SelfApproval):
        instance_from_doc(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--base", "weak", "--agg", "all"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "agent 'a' approves itself in layer 1"


@pytest.mark.parametrize(
    "doc",
    [[["a", "b"]], {"pairs": {"a": "b"}}, {"pairs": ["ab"]}, {"pairs": [["a", ["b"]]]}],
)
def test_malformed_matching_shapes_exit_two(ex1, ex1_file, tmp_path, doc, capsys):
    with pytest.raises(MalformedDocument):
        matching_from_doc(ex1, doc)
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", ex1_file, str(bad), "--base", "weak", "--agg", "all"]) == 2


@pytest.mark.parametrize(
    "pair, message",
    [
        (["a", "x"], "unknown agent in matching: 'x'"),
        (["a", ["b"]], "unknown agent in matching: unhashable type: 'list'"),
        ([{"b": 1}, "c"], "unknown agent in matching: unhashable type: 'dict'"),
        ([0, "b"], "unknown agent in matching: 0"),
    ],
)
def test_unknown_matching_names_exit_two(ex1_file, tmp_path, pair, message, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"pairs": [["c", "d"], pair]}))
    assert main(["check", ex1_file, str(bad), "--base", "weak", "--agg", "all"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == message


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([["a", "a"]], "pair ('a', 'a') has identical endpoints"),
        ([["a", "b"], ["b", "c"]], "agent reused by pair ('b', 'c')"),
    ],
)
def test_invalid_matching_names_agents_and_exits_two(ex1, ex1_file, tmp_path, pairs, message, capsys):
    with pytest.raises(InvalidMatching) as exc:
        matching_from_doc(ex1, {"pairs": pairs})
    assert str(exc.value) == message
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"pairs": pairs}))
    assert main(["check", ex1_file, str(bad), "--base", "weak", "--agg", "all"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == message


def test_invalid_matching_of_a_nameless_instance_names_ids():
    inst = build_instance(3, 1, [[{1}, set(), set()]])
    with pytest.raises(InvalidMatching, match=r"^agent reused by pair \(0, 2\)$"):
        matching_from_doc(inst, {"pairs": [["1", "0"], ["2", "0"]]})


def test_matching_names_of_a_nameless_instance_are_its_ids():
    inst = build_instance(3, 1, [[{1}, set(), set()]])
    assert matching_from_doc(inst, {"pairs": [["2", "0"]]}) == Matching.from_pairs([(0, 2)])
    with pytest.raises(MalformedDocument, match="^unknown agent in matching: 2$"):
        matching_from_doc(inst, {"pairs": [["0", 2]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "INST", "--base", "weak", "--agg", "all", "--budget", "-1"],
        ["oracle", "INST", "--base", "weak", "--agg", "all", "--budget", "-1"],
    ],
    ids=["solve", "oracle"],
)
def test_negative_budget_exit_two(ex1_file, argv, capsys):
    argv = [ex1_file if arg == "INST" else arg for arg in argv]
    assert main(argv) == 2
    assert "negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# document properties

_NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def _named_instances(draw):
    n = draw(st.integers(0, 6))
    ell = draw(st.integers(1, 3))
    names = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    layers = [
        [draw(st.sets(st.sampled_from([b for b in range(n) if b != a]))) if n > 1 else set() for a in range(n)]
        for _ in range(ell)
    ]
    return build_instance(n, ell, layers, names)


@st.composite
def _instances_with_matchings(draw):
    inst = draw(_named_instances())
    order = draw(st.permutations(range(inst.n)))
    k = draw(st.integers(0, inst.n // 2))
    return inst, Matching.from_pairs(zip(order[0 : 2 * k : 2], order[1 : 2 * k : 2]))


_JUNK = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False)
    | st.sampled_from(_NAMES)
    | st.lists(st.sampled_from(_NAMES), max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_NAMES), max_size=2)
)


def _or_junk(shaped):
    """``shaped`` two times in three, else junk of any JSON kind (a plain
    ``|`` would weigh each of junk's seven kinds as much as ``shaped``)."""
    return st.sampled_from([shaped, shaped, _JUNK]).flatmap(lambda s: s)


_NAME = _or_junk(st.sampled_from(_NAMES))
_INSTANCE_DOCS = _or_junk(
    st.fixed_dictionaries(
        {
            "agents": _or_junk(st.lists(st.sampled_from(_NAMES), max_size=5, unique=True) | st.lists(_NAME, max_size=5)),
            "layers": _or_junk(
                st.lists(_or_junk(st.dictionaries(st.sampled_from(_NAMES + [""]), _or_junk(st.lists(_NAME, max_size=3)), max_size=4)), max_size=3)
            ),
        }
    )
)
_MATCHING_DOCS = _or_junk(st.fixed_dictionaries({"pairs": _or_junk(st.lists(_or_junk(st.lists(_NAME, max_size=3)), max_size=4))}))


@given(_named_instances())
@settings(max_examples=150, deadline=None)
def test_instance_doc_roundtrip_property(inst):
    assert instance_from_doc(instance_to_doc(inst)) == inst
    assert instance_from_doc(json.loads(json.dumps(instance_to_doc(inst)))) == inst


@st.composite
def _reshuffled_docs(draw):
    """An instance and its document with every layer's keys and every
    approval list shuffled, and some names repeated."""
    inst = draw(_named_instances())
    doc = instance_to_doc(inst)
    layers = []
    for layer in doc["layers"]:
        items = draw(st.permutations(list(layer.items())))
        out = {}
        for name, approved in items:
            repeats = draw(st.lists(st.sampled_from(approved), max_size=3))
            out[name] = draw(st.permutations(approved + repeats))
        layers.append(out)
    return inst, {"agents": doc["agents"], "layers": layers}


@given(_reshuffled_docs())
@settings(max_examples=100, deadline=None)
def test_instance_doc_order_and_repeats_ignored(case):
    inst, doc = case
    for back in (instance_from_doc(instance_to_doc(inst)), instance_from_doc(doc)):
        assert back == inst and hash(back) == hash(inst)


@given(_instances_with_matchings())
@settings(max_examples=150, deadline=None)
def test_matching_doc_roundtrip_property(case):
    inst, m = case
    assert matching_from_doc(inst, matching_to_doc(inst, m)) == m


@given(_INSTANCE_DOCS)
@settings(max_examples=300, deadline=None)
def test_malformed_instance_docs_raise_only_package_errors(doc):
    try:
        inst = instance_from_doc(doc)
    except MlsmError:
        return
    assert instance_from_doc(instance_to_doc(inst)) == inst


@given(_MATCHING_DOCS)
@settings(max_examples=300, deadline=None)
def test_malformed_matching_docs_raise_only_package_errors(doc):
    inst = instance_from_doc({"agents": _NAMES[:4], "layers": [{"a": ["b"], "b": ["a"]}]})
    try:
        m = matching_from_doc(inst, doc)
    except MlsmError:
        return
    assert matching_from_doc(inst, matching_to_doc(inst, m)) == m


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter on this package: the test process
    itself may have loaded anything."""
    src = str(Path(mlsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_loads_no_dataclasses():
    # the value classes on the CLI path are plain classes, so a CLI call pays
    # for neither dataclasses nor the inspect it imports; the generators
    # load only in `gen`
    code = (
        "import sys, mlsm.cli; "
        "loaded = {'dataclasses', 'inspect', 'networkx', 'mlsm.reductions'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    _fresh_python(code)


def test_reductions_import_loads_no_dataclasses():
    # the generators' value classes are plain classes too
    code = (
        "import sys, mlsm.reductions; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    _fresh_python(code)


# ---------------------------------------------------------------------------
# cold start: check loads the checker only, solve and oracle their stack

CHECKER = ["mlsm", "mlsm.blocking", "mlsm.cli", "mlsm.errors", "mlsm.model", "mlsm.verify"]


def test_cli_import_and_check_load_only_the_checker(ex1_file, m1_file):
    code = (
        "import sys, mlsm.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('mlsm'))\n"
        f"assert loaded() == {CHECKER!r}, loaded()\n"
        "code = mlsm.cli.main(['check', sys.argv[1], sys.argv[2], '--base', 'weak', '--agg', 'all'])\n"
        f"assert code == 0 and loaded() == {CHECKER!r}, loaded()\n"
    )
    proc = _fresh_python(code, ex1_file, m1_file)
    assert json.loads(proc.stdout)["stable"] is True


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_solve_and_oracle_load_their_stack(ex1_file, command):
    code = (
        "import sys, mlsm.cli\n"
        "code = mlsm.cli.main([sys.argv[1], sys.argv[2], '--base', 'weak', '--agg', 'all'])\n"
        "assert code == 0, code\n"
        "assert 'mlsm.oracle' in sys.modules and 'mlsm.reductions' not in sys.modules\n"
    )
    proc = _fresh_python(code, command, ex1_file)
    assert json.loads(proc.stdout)["exists"] is True


def test_solve_and_oracle_documents_and_default_budget(tmp_path, capsys):
    # the --budget default, 12, comes from OracleBudget: n=12 runs the
    # oracle, n=13 is over it
    argv = ["--base", "weak", "--agg", "all"]
    pairs = [["0", "1"], ["2", "6"], ["3", "4"], ["5", "8"], ["7", "10"], ["9", "11"]]
    paths = {}
    for n in (12, 13):
        paths[n] = str(tmp_path / f"n{n}.json")
        Path(paths[n]).write_text(json.dumps(instance_to_doc(gen_random(n, 3, 0.8, seed=1))))

    def run(*args):
        code = main([*args, *argv])
        out, err = capsys.readouterr()
        doc = json.loads(out) if out else json.loads(err)
        doc.pop("elapsed_ms", None)
        return code, doc

    assert run("solve", paths[12]) == (0, {
        "exists": True, "status": "exists", "query": "all-layers weak", "algorithm": "oracle",
        "witness_layers": [1, 2, 3], "matching": pairs, "detail": None,
    })
    assert run("oracle", paths[12]) == (0, {
        "exists": True, "query": "all-layers weak", "algorithm": "oracle", "matching": pairs,
    })
    assert run("solve", paths[13]) == (3, {
        "exists": None, "status": "unknown", "query": "all-layers weak", "algorithm": "none",
        "witness_layers": None, "matching": None,
        "detail": "no complete algorithm applies: tau > 3, asymmetric, n=13 > oracle budget 12",
    })
    assert run("oracle", paths[13]) == (2, {"error": "13 agents exceed the oracle budget of 12"})
    default = f"(default: {mlsm.OracleBudget().max_agents})"
    for command in ("solve", "oracle"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert default in " ".join(capsys.readouterr().out.split())


def test_lazy_names_are_the_defining_modules_own():
    import mlsm.cli as cli
    from mlsm import oracle, solvers

    for name in mlsm.__all__:
        obj = getattr(mlsm, name)
        assert obj.__module__ != "mlsm"
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert cli.dispatch is solvers.dispatch
    for name in ("OracleBudget", "DEFAULT_BUDGET", "oracle_all", "oracle_solve"):
        assert getattr(cli, name) is getattr(oracle, name)
    assert "dispatch" not in vars(cli) and "dispatch" not in vars(mlsm)


def test_lazy_names_follow_a_rebinding(monkeypatch):
    import mlsm.cli as cli
    from mlsm import solvers

    original = solvers.dispatch

    def replacement(*args):
        return original(*args)

    monkeypatch.setattr(solvers, "dispatch", replacement)
    assert cli.dispatch is replacement and mlsm.dispatch is replacement
    monkeypatch.undo()
    assert cli.dispatch is original and mlsm.dispatch is original


@pytest.mark.parametrize("module", ["mlsm", "mlsm.cli"])
def test_unknown_attribute_raises(module):
    mod = sys.modules[module]
    with pytest.raises(AttributeError, match="no_such_name"):
        mod.no_such_name
    assert not hasattr(mod, "solve_super_global")


@pytest.mark.parametrize(
    "which, text, key",
    [
        ("instance", '{"agents": ["a", "b", "c"], "layers": [{"a": ["b"], "b": ["a"], "a": ["c"]}]}', "a"),
        ("instance", '{"agents": ["a", "b"], "layers": [{}], "agents": ["a", "b", "c"]}', "agents"),
        ("matching", '{"pairs": [["a", "b"]], "pairs": []}', "pairs"),
    ],
    ids=["layer-agent", "agents", "pairs"],
)
def test_repeated_json_key_exits_two(tmp_path, ex1_file, m1_file, which, text, key, capsys):
    # json keeps the last value of a repeated key: the first case would read
    # as "a approves c only", the last as the empty matching
    bad = tmp_path / "repeated.json"
    bad.write_text(text)
    files = (str(bad), m1_file) if which == "instance" else (ex1_file, str(bad))
    assert main(["check", *files, "--base", "weak", "--agg", "all"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == f"{bad}: key {key!r} repeated in one object"


def _deep(tmp_path) -> str:
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DEEP", "EMPTY", "--base", "weak", "--agg", "all"],
        ["check", "EX1", "DEEP", "--base", "weak", "--agg", "all"],
        ["solve", "DEEP", "--base", "weak", "--agg", "all"],
        ["oracle", "DEEP", "--base", "weak", "--agg", "all"],
    ],
    ids=["check-instance", "check-matching", "solve", "oracle"],
)
def test_deeply_nested_json_exits_two(tmp_path, ex1_file, argv, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"pairs": []}')
    files = {"DEEP": _deep(tmp_path), "EMPTY": str(empty), "EX1": ex1_file}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == f"{files['DEEP']}: JSON nested too deeply"
