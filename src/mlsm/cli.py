"""Command-line front end and file formats.

Instances, matchings, and verdicts travel as JSON documents with stable key
order and 1-based layer indices; agents are referenced by display name.
Exit codes: check 0 stable / 1 unstable, solve 0 exists / 1 not-exists /
3 unknown, 2 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import _lazy_attrs
from .blocking import BASES, Matching
from .errors import InvalidMatching, MalformedDocument, MlsmError
from .model import MultilayerInstance, _check_names, _check_shape, _refuse_self_approvals
from .verify import AGGREGATIONS, StabilityQuery, check

if TYPE_CHECKING:  # each subcommand imports the modules only it runs
    from .reductions import GeneratedInstance

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
        _refuse_self_approvals(masks, i, names)
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


def _load_json(path: str) -> dict:
    """The document at ``path``.  A key repeated within one object is
    refused, not read as its last value."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise MalformedDocument(f"{path}: key {repeated!r} repeated in one object")
        return doc

    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=unique)
    except RecursionError:  # the decoder's nesting limit, about 1 000 levels
        raise MalformedDocument(f"{path}: JSON nested too deeply") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    inst = instance_from_doc(_load_json(args.instance))
    m = matching_from_doc(inst, _load_json(args.matching))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    t0 = time.perf_counter()
    verdict = check(inst, m, q)
    elapsed = (time.perf_counter() - t0) * 1000
    doc = {
        "stable": verdict.stable,
        "query": q.describe(),
        "algorithm": "check",
        "witness_layers": _layers_out(verdict.witness_layers),
        "violating_pair": None
        if verdict.violating_pair is None
        else [inst.name_of(a) for a in verdict.violating_pair],
        "blocking_layers": _layers_out(verdict.blocking_layers),
        "elapsed_ms": round(elapsed, 3),
    }
    _emit(doc)
    return 0 if verdict.stable else 1


def _budget(args):
    from .oracle import OracleBudget

    return OracleBudget() if args.budget is None else OracleBudget(max_agents=args.budget)


def cmd_solve(args) -> int:
    from .solvers import dispatch

    inst = instance_from_doc(_load_json(args.instance))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    budget = _budget(args)
    t0 = time.perf_counter()
    result = dispatch(inst, q, budget)
    elapsed = (time.perf_counter() - t0) * 1000
    doc = {
        "exists": None if result.status == "unknown" else result.exists,
        "status": result.status,
        "query": q.describe(),
        "algorithm": result.algorithm,
        "witness_layers": _layers_out(result.witness_layers),
        "matching": None
        if result.matching is None
        else matching_to_doc(inst, result.matching)["pairs"],
        "detail": result.detail,
        "elapsed_ms": round(elapsed, 3),
    }
    _emit(doc)
    return {"exists": 0, "not-exists": 1, "unknown": 3}[result.status]


def cmd_oracle(args) -> int:
    from .oracle import oracle_all, oracle_solve

    inst = instance_from_doc(_load_json(args.instance))
    q = StabilityQuery(args.base, args.agg, args.alpha)
    budget = _budget(args)
    t0 = time.perf_counter()
    if args.all:
        matchings = oracle_all(inst, q, budget)
        found = matchings[0] if matchings else None
    else:
        matchings = None
        found = oracle_solve(inst, q, budget)
    elapsed = (time.perf_counter() - t0) * 1000
    doc = {
        "exists": found is not None,
        "query": q.describe(),
        "algorithm": "oracle",
        "matching": None
        if found is None
        else matching_to_doc(inst, found)["pairs"],
        "elapsed_ms": round(elapsed, 3),
    }
    if matchings is not None:
        doc["all_matchings"] = [
            matching_to_doc(inst, m)["pairs"] for m in matchings
        ]
    _emit(doc)
    return 0 if found is not None else 1


def _write_generated(gen: GeneratedInstance, out: str, source: dict) -> None:
    out_path = Path(out)
    out_path.write_text(json.dumps(instance_to_doc(gen.instance), indent=2))
    q = gen.query
    cert = {
        "kind": gen.kind,
        "query": {"base": q.base, "agg": q.agg, "alpha": q.alpha},
        "source": source,
        "agents": [gen.instance.name_of(a) for a in range(gen.instance.n)],
    }
    cert_path = out_path.with_suffix(".cert.json")
    cert_path.write_text(json.dumps(cert, indent=2))
    print(f"wrote {out_path} and {cert_path}")


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
        formula = parse_dimacs(Path(args.cnf).read_text())
        gen = reduce_sat_to_alllayers_weak(formula)
        _write_generated(
            gen,
            args.out,
            {"num_vars": formula.num_vars, "clauses": [list(c) for c in formula.clauses]},
        )
        return 0
    if args.generator == "is":
        graph = parse_edge_list(Path(args.graph).read_text())
        gen = reduce_is_to_global_strong(graph, args.k)
        _write_generated(
            gen,
            args.out,
            {"vertices": graph.n, "edges": graph.sorted_edges(), "k": args.k},
        )
        return 0
    if args.generator == "degpart":
        graph = parse_edge_list(Path(args.graph).read_text())
        gen = reduce_degreepartition_to_pair_super(graph, args.layers, args.alpha)
        _write_generated(
            gen,
            args.out,
            {
                "vertices": graph.n,
                "edges": graph.sorted_edges(),
                "layers": args.layers,
                "alpha": args.alpha,
            },
        )
        return 0
    raise MlsmError(f"unknown generator {args.generator!r}")


# ---------------------------------------------------------------------------


def _add_query_flags(sub) -> None:
    sub.add_argument("--base", required=True, choices=BASES)
    sub.add_argument("--agg", required=True, choices=AGGREGATIONS)
    sub.add_argument("--alpha", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsm",
        description="Stable matching under multilayer approval preferences.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="verify a matching against a stability notion")
    p.add_argument("instance")
    p.add_argument("matching")
    _add_query_flags(p)
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("solve", help="find a stable matching or report none/unknown")
    p.add_argument("instance")
    _add_query_flags(p)
    # --budget has no parser default: building the parser, also for check,
    # must not import the oracle, so _budget falls back to OracleBudget's own
    p.add_argument(
        "--budget",
        type=int,
        help="agent cap of the exhaustive searches: the oracle fallback and the super-pair-fpt kernel (default: 12)",
    )
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("oracle", help="exhaustive ground truth (small instances)")
    p.add_argument("instance")
    _add_query_flags(p)
    p.add_argument("--all", action="store_true", help="list every stable matching")
    p.add_argument("--budget", type=int, help="agent cap of the search (default: 12)")
    p.set_defaults(fn=cmd_oracle)

    p = subs.add_parser("gen", help="generate instances")
    gen_subs = p.add_subparsers(dest="generator", required=True)
    g = gen_subs.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--bipartite", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)
    g = gen_subs.add_parser("sat")
    g.add_argument("--cnf", required=True)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)
    g = gen_subs.add_parser("is")
    g.add_argument("--graph", required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)
    g = gen_subs.add_parser("degpart")
    g.add_argument("--graph", required=True)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--alpha", type=int, required=True)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MlsmError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
