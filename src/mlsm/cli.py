"""Command-line front end and file formats.

Instances, matchings, and verdicts travel as JSON documents with stable key
order and 1-based layer indices; agents are referenced by display name.
Exit codes: check 0 stable / 1 unstable, solve 0 exists / 1 not-exists /
3 unknown, oracle 0 found / 1 none, gen 0 on success, 2 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import _lazy_attrs
from .blocking import BASES, Matching
from .errors import InvalidMatching, MalformedDocument, MlsmError
from .model import MultilayerInstance, _check_names, _check_shape, _refuse_self_approvals
from .verify import AGGREGATIONS, StabilityQuery, check

__all__ = [
    "main",
    "cmd_check",
    "cmd_solve",
    "cmd_oracle",
    "cmd_gen",
    "instance_to_doc",
    "instance_from_doc",
    "matching_to_doc",
    "matching_from_doc",
]

# solve and oracle import their stack when they run; these names stay
# readable here for library callers
__getattr__ = _lazy_attrs(
    __name__,
    {
        "dispatch": "mlsm.solvers",
        "OracleBudget": "mlsm.oracle",
        "DEFAULT_BUDGET": "mlsm.oracle",
        "oracle_all": "mlsm.oracle",
        "oracle_solve": "mlsm.oracle",
    },
)


# ---------------------------------------------------------------------------
# documents


def instance_to_doc(inst: MultilayerInstance) -> dict:
    names = [inst.name_of(a) for a in range(inst.n)]
    layers = []
    for i in range(inst.ell):
        layer = {}
        for a in range(inst.n):
            approved = sorted(inst.approvals[i][a])
            if approved:
                layer[names[a]] = [names[b] for b in approved]
        layers.append(layer)
    return {"agents": names, "layers": layers}


_JSON_KIND = {dict: "object", list: "array", str: "string"}


def _expect(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise MalformedDocument(f"{what} must be a JSON {_JSON_KIND[kind]}")
    return value


def instance_from_doc(doc: dict) -> MultilayerInstance:
    _expect(doc, dict, "an instance document")
    names = _expect(doc.get("agents"), list, '"agents"')
    _check_names(names, MalformedDocument)
    layers = _expect(doc.get("layers"), list, '"layers"')
    ell = len(layers)
    names = _check_shape(len(names), ell, ell, names)
    index = {name: a for a, name in enumerate(names)}
    masks: list[dict[int, int]] = [{} for _ in names]
    # names map straight to mask rows: the index holds only valid ids
    try:
        for i, layer in enumerate(layers):
            _expect(layer, dict, f"layer {i + 1}")
            bit = 1 << i
            for name, approved in layer.items():
                if not isinstance(approved, list):
                    raise MalformedDocument(f"approvals in layer {i + 1} must be arrays")
                try:
                    row = masks[index[name]]
                    for other in approved:
                        b = index[other]
                        row[b] = row.get(b, 0) | bit
                except (KeyError, TypeError) as exc:  # TypeError: unhashable name
                    raise MalformedDocument(f"unknown agent in layer {i + 1}: {exc}") from None
    except Exception:  # stopped in layer i: the layers below it are tested first
        _refuse_self_approvals(masks, names, i)
        raise
    _refuse_self_approvals(masks, names)
    return MultilayerInstance(len(names), ell, tuple(masks), names)


def matching_to_doc(inst: MultilayerInstance, m: Matching) -> dict:
    return {
        "pairs": [[inst.name_of(a), inst.name_of(b)] for a, b in m.pairs]
    }


def matching_from_doc(inst: MultilayerInstance, doc: dict) -> Matching:
    _expect(doc, dict, "a matching document")
    names = map(str, range(inst.n)) if inst.names is None else inst.names
    index = dict(zip(names, range(inst.n)))
    pairs = []
    for pair in _expect(doc.get("pairs"), list, '"pairs"'):
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedDocument(f"matching pair {pair!r} must name two agents")
        try:
            pairs.append((index[pair[0]], index[pair[1]]))
        except (KeyError, TypeError) as exc:
            raise MalformedDocument(f"unknown agent in matching: {exc}") from None
    try:
        return Matching.from_pairs(pairs)
    except InvalidMatching as exc:
        if inst.names is None:
            raise
        raise InvalidMatching(exc.pair, exc.reused, inst.names) from None


def _layers_out(layers) -> list[int] | None:
    if layers is None:
        return None
    return sorted(i + 1 for i in layers)


def _read(path: str) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise
    ``MalformedDocument`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: {exc}") from None


def _load_json(path: str) -> dict:
    """The document at ``path``; its errors start with the path.  A key
    repeated within one object is refused, not read as its last value."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise MalformedDocument(f"{path}: key {repeated!r} repeated in one object")
        return doc

    try:
        return json.loads(_read(path), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{path}: {exc}") from None
    except RecursionError:  # the decoder's nesting limit, about 1 000 levels
        raise MalformedDocument(f"{path}: JSON nested too deeply") from None


def _timed(decide, *args):
    """``decide(*args)`` and its wall time in ms, rounded for the document."""
    t0 = time.perf_counter()
    result = decide(*args)
    return result, round((time.perf_counter() - t0) * 1000, 3)


def _pairs(inst: MultilayerInstance, m: Matching | None) -> list | None:
    return None if m is None else matching_to_doc(inst, m)["pairs"]


def _emit(doc: dict, code: int) -> int:
    print(json.dumps(doc, indent=2))
    return code


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    inst = instance_from_doc(_load_json(args.instance))
    m = matching_from_doc(inst, _load_json(args.matching))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    verdict, elapsed = _timed(check, inst, m, q)
    doc = {
        "stable": verdict.stable,
        "query": q.describe(),
        "algorithm": "check",
        "witness_layers": _layers_out(verdict.witness_layers),
        "violating_pair": None
        if verdict.violating_pair is None
        else [inst.name_of(a) for a in verdict.violating_pair],
        "blocking_layers": _layers_out(verdict.blocking_layers),
        "elapsed_ms": elapsed,
    }
    return _emit(doc, 0 if verdict.stable else 1)


def _budget(args):
    from .oracle import OracleBudget

    return OracleBudget() if args.budget is None else OracleBudget(max_agents=args.budget)


def cmd_solve(args) -> int:
    from .solvers import dispatch

    inst = instance_from_doc(_load_json(args.instance))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    result, elapsed = _timed(dispatch, inst, q, _budget(args))
    doc = {
        "exists": None if result.status == "unknown" else result.exists,
        "status": result.status,
        "query": q.describe(),
        "algorithm": result.algorithm,
        "witness_layers": _layers_out(result.witness_layers),
        "matching": _pairs(inst, result.matching),
        "detail": result.detail,
        "elapsed_ms": elapsed,
    }
    return _emit(doc, {"exists": 0, "not-exists": 1, "unknown": 3}[result.status])


def cmd_oracle(args) -> int:
    from .oracle import oracle_all, oracle_solve

    inst = instance_from_doc(_load_json(args.instance))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    out, elapsed = _timed(oracle_all if args.all else oracle_solve, inst, q, _budget(args))
    found = next(iter(out), None) if args.all else out
    doc = {
        "exists": found is not None,
        "query": q.describe(),
        "algorithm": "oracle",
        "matching": _pairs(inst, found),
        "elapsed_ms": elapsed,
    }
    if args.all:
        doc["all_matchings"] = [_pairs(inst, m) for m in out]
    return _emit(doc, 0 if found is not None else 1)


def cmd_gen(args) -> int:
    from .reductions import (
        gen_random,
        parse_dimacs,
        parse_edge_list,
        reduce_degreepartition_to_pair_super,
        reduce_is_to_global_strong,
        reduce_sat_to_alllayers_weak,
    )

    if args.generator == "random":
        inst = gen_random(
            args.n, args.layers, args.p, args.symmetric, args.bipartite, args.seed
        )
        Path(args.out).write_text(json.dumps(instance_to_doc(inst), indent=2))
        print(f"wrote {args.out}")
        return 0
    if args.generator == "sat":
        formula = parse_dimacs(_read(args.cnf))
        gen = reduce_sat_to_alllayers_weak(formula)
        source = {"num_vars": formula.num_vars, "clauses": [list(c) for c in formula.clauses]}
    else:  # is and degpart read an edge list
        graph = parse_edge_list(_read(args.graph))
        source = {"vertices": graph.n, "edges": graph.sorted_edges()}
        if args.generator == "is":
            gen = reduce_is_to_global_strong(graph, args.k)
            source["k"] = args.k
        else:
            gen = reduce_degreepartition_to_pair_super(graph, args.layers, args.alpha)
            source.update(layers=args.layers, alpha=args.alpha)
    out = Path(args.out)
    out.write_text(json.dumps(instance_to_doc(gen.instance), indent=2))
    q = gen.query
    cert = {
        "kind": gen.kind,
        "query": {"base": q.base, "agg": q.agg, "alpha": q.alpha},
        "source": source,
        "agents": [gen.instance.name_of(a) for a in range(gen.instance.n)],
    }
    cert_path = out.with_suffix(".cert.json")
    cert_path.write_text(json.dumps(cert, indent=2))
    print(f"wrote {out} and {cert_path}")
    return 0


# ---------------------------------------------------------------------------


def _add_command(subs, name: str, help: str, fn, *positionals: str) -> argparse.ArgumentParser:
    """The subcommand ``name`` that ``fn`` runs on a query: its file
    arguments, then the query flags."""
    p = subs.add_parser(name, help=help)
    for positional in positionals:
        p.add_argument(positional)
    p.add_argument("--base", required=True, choices=BASES)
    p.add_argument("--agg", required=True, choices=AGGREGATIONS)
    p.add_argument("--alpha", type=int, default=None)
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsm",
        description="Stable matching under multilayer approval preferences.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "check", "verify a matching against a stability notion", cmd_check, "instance", "matching")
    p = _add_command(subs, "solve", "find a stable matching or report none/unknown", cmd_solve, "instance")
    # --budget has no parser default: building the parser, also for check,
    # must not import the oracle, so _budget falls back to OracleBudget's own
    p.add_argument(
        "--budget",
        type=int,
        help="agent cap of the exhaustive searches: the oracle fallback and the super-pair-fpt kernel (default: 12)",
    )
    p = _add_command(subs, "oracle", "exhaustive ground truth (small instances)", cmd_oracle, "instance")
    p.add_argument("--all", action="store_true", help="list every stable matching")
    p.add_argument("--budget", type=int, help="agent cap of the search (default: 12)")

    p = subs.add_parser("gen", help="generate instances")
    p.set_defaults(fn=cmd_gen)
    gens = p.add_subparsers(dest="generator", required=True)
    g = gens.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--bipartite", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    gens.add_parser("sat").add_argument("--cnf", required=True)
    g = gens.add_parser("is")
    g.add_argument("--graph", required=True)
    g.add_argument("--k", type=int, required=True)
    g = gens.add_parser("degpart")
    g.add_argument("--graph", required=True)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--alpha", type=int, required=True)
    for g in gens.choices.values():
        g.add_argument("--out", default="instance.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MlsmError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
