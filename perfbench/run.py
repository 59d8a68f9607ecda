"""Verdict benchmark for ``mlsm``: end-to-end and per-module timings.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

One client issues CLI-equivalent ``solve``/``check`` calls in a closed loop
(no threads; the next call starts after the previous verdict document is
out).  A timed call covers what ``mlsm solve|check`` does after import:
``json.loads`` plus ``instance_from_doc`` (and ``matching_from_doc``), then
``dispatch`` or ``check``, then ``matching_to_doc`` plus ``json.dumps`` of the
verdict document.  Verification against the reference answers happens
outside the timed region.  Calls run in passes (see workloads.py), a fixed
number per workload (``PASSES``).

``--trace 0`` replays the passes with cold caches until ``--seconds`` have
gone by (at least three times), rescales every call by the machine's speed
around it (see calib.py), counts each call's median replay and prints the
end-to-end metrics; ``--trace 1`` runs each pass untraced and then traced,
in rounds until ``--seconds`` have gone by (at least one), and prints the
per-module metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any verdict
is wrong, unconfirmable or raised, and 2 on bad arguments or a missing
source tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11  # fresh interpreters timed per run for setup_s
# Passes per run.  The count is fixed, never derived from the measured
# speed, so every run of a workload times the same calls and its
# percentiles compare across commits; --seconds only sets how often they
# are replayed.  One pass takes 2-4 s on a 2-core x86 VM.
PASSES = {"solve-large": 1, "check-large": 1, "exact-small": 2}
MIN_REPLAYS = 3
# time_vs_input_slope counts only the calls decided by this route, where a
# workload names one: on exact-small the oracle calls, whose growth the
# ladder is there to show (the other routes' calls there are flat and
# would move each rung's median between two clusters).
SLOPE_ROUTE = {"exact-small": "oracle"}


def pass_count(workload: str, scale: str) -> int:
    return 1 if scale == "tiny" else PASSES[workload]


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    if not (SRC / "mlsm" / "__init__.py").is_file():
        _fail(f"no mlsm sources under {SRC}")
    sys.path.insert(0, str(SRC))


_bootstrap()

import mlsm  # noqa: E402
from mlsm import cli  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

ROUTES = [
    "weak-lowalpha",
    "super-global",
    "strong-alllayers-symmetric",
    "strong-global-symmetric",
    "super-individual-highalpha",
    "super-pair-veryhighalpha",
    "super-pair-fpt",
    "agent-types",
    "changing-agents",
    "oracle",
    "none",
]
MODULES = ["cli", "model", "solvers", "verify", "blocking", "graphalg", "oracle"]
ROOT_SPAN = "bench.verdict"


# ---------------------------------------------------------------------------
# one CLI-equivalent call


def _layers_out(layers):
    return None if layers is None else sorted(i + 1 for i in layers)


def call(item, tr) -> str:
    """Do what ``mlsm solve`` / ``mlsm check`` does after import, minus the
    file read and the print; return the verdict document text."""
    tr.begin("cli.parse")
    doc = json.loads(item.instance.text)
    tr.end()
    inst = cli.instance_from_doc(doc)
    q = cli.StabilityQuery(item.query.base, item.query.agg, item.query.alpha)
    if item.kind == "check":
        tr.begin("cli.parse")
        mdoc = json.loads(item.matching_text)
        tr.end()
        m = cli.matching_from_doc(inst, mdoc)
        t0 = time.perf_counter()
        verdict = cli.check(inst, m, q)
        elapsed = (time.perf_counter() - t0) * 1000
        tr.begin("cli.emit")
        out = {
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
    else:
        budget = cli.OracleBudget(max_agents=12)
        t0 = time.perf_counter()
        result = cli.dispatch(inst, q, budget)
        elapsed = (time.perf_counter() - t0) * 1000
        tr.begin("cli.emit")
        out = {
            "exists": None if result.status == "unknown" else result.exists,
            "status": result.status,
            "query": q.describe(),
            "algorithm": result.algorithm,
            "witness_layers": _layers_out(result.witness_layers),
            "matching": None
            if result.matching is None
            else cli.matching_to_doc(inst, result.matching)["pairs"],
            "detail": result.detail,
            "elapsed_ms": round(elapsed, 3),
        }
    text = json.dumps(out, indent=2)
    tr.end()
    return text


def run_pass(items, tr, first_vid: int = 0, speed: "calib.Speed | None" = None):
    """Closed loop over one pass: (per-call seconds, per-call seconds at the
    reference speed, outputs, pass wall).

    With a ``speed`` the calls are bracketed by kernel bursts and rescaled
    to the reference speed (calib.py); without, both times are the same.

    The benchmark's own objects (instances, references, results) are frozen
    out of the cyclic collector for the pass, so collections inside a call
    see about the heap a one-shot CLI process has."""
    times, scaled, outputs = [], [], []
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    start = clock()
    for k, item in enumerate(items):
        tr.verdict(first_vid + k)
        if speed is not None:
            speed.start()
        t0 = clock()
        tr.begin(ROOT_SPAN)
        try:
            out = call(item, tr)
        except Exception as exc:  # a raising call is a failed verdict; keep measuring
            out = exc
        tr.end()
        t1 = clock()
        measured, rescaled = (t1 - t0, t1 - t0) if speed is None else speed.stop(t0, t1)
        times.append(measured)
        scaled.append(rescaled)
        outputs.append(out)
    if speed is not None:
        speed.pause()
    wall = clock() - start
    gc.unfreeze()
    return times, scaled, outputs, wall


def clear_caches() -> None:
    """Empty every lru_cache in the package (value-keyed tables)."""
    for name, mod in list(sys.modules.items()):
        if name == "mlsm" or name.startswith("mlsm."):
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# ---------------------------------------------------------------------------
# metrics


def tail(times_ms: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it): the highest whole percentile
    that still leaves at least ten samples above it (nearest rank)."""
    xs = sorted(times_ms)
    n = len(xs)
    pct = max(1, min(99, math.floor(100 * (n - 10) / n))) if n > 10 else 50
    rank = math.ceil(pct / 100 * n)
    return xs[rank - 1], pct, n - rank


def slope(rungs: dict[int, tuple[list[float], list[int]]]) -> float:
    """Least-squares slope of log(median call time) on log(mean input
    size) across the n rungs."""
    pts = [
        (math.log(statistics.mean(sizes)), math.log(statistics.median(ts)))
        for ts, sizes in (rungs[n] for n in sorted(rungs))
    ]
    mx = statistics.mean(x for x, _ in pts)
    my = statistics.mean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import mlsm.cli
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import calib
calib.burst()
print(t, calib.burst(), calib.burst())
"""


def setup_seconds() -> tuple[float, float]:
    """Median time a fresh interpreter takes to import mlsm.cli (after one
    untimed import that writes the bytecode caches): (at the reference
    speed, as measured).  The child times its own import, then runs kernel
    bursts (calib.py) that rescale it; the first burst only warms up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE)]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True)
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        t, b1, b2 = map(float, proc.stdout.split())
        scaled.append(calib.rescale(t, b1, b2))
        measured.append(t)
    return statistics.median(scaled), statistics.median(measured)


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.unknown = 0
        self.outcomes: dict[str, int] = {}
        self.routes: dict[str, int] = {}
        self.first_failures: list[str] = []

    def add(self, item, output) -> str:
        ok, outcome, algorithm = workloads.verify(item, output)
        self.attempted += 1
        self.unknown += outcome == "unknown"
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.routes[algorithm] = self.routes.get(algorithm, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(
                    f"{item.instance.family} n={item.instance.inst.n} {item.query.describe()}: {outcome} {algorithm}"
                )
        return algorithm


def run_untraced(workload: str, seed: int, seconds: float, scale: str):
    setup, setup_measured = setup_seconds()
    tally = Tally()
    passes = [workloads.build_pass(workload, seed, i, scale) for i in range(pass_count(workload, scale))]
    # per pass, per call: one rescaled and one measured time per replay
    scaled = [[[] for _ in items] for items in passes]
    measured = [[[] for _ in items] for items in passes]
    first_outputs = []
    spent = 0.0
    replays = 0
    deadline = time.perf_counter() + seconds
    speed = calib.Speed()
    try:
        while replays < MIN_REPLAYS or time.perf_counter() < deadline:
            for index, items in enumerate(passes):
                clear_caches()
                times, rescaled, outputs, wall = run_pass(items, NullTracer(), speed=speed)
                spent += wall
                if replays == 0:
                    first_outputs.append(outputs)
                for k, (t, r) in enumerate(zip(times, rescaled)):
                    measured[index][k].append(t)
                    scaled[index][k].append(r)
            replays += 1
    finally:
        speed.close()

    times_ms: list[float] = []
    measured_ms: list[float] = []
    rungs: dict[int, tuple[list[float], list[int]]] = {}
    for index, items in enumerate(passes):
        seen = set()
        for k, (item, out) in enumerate(zip(items, first_outputs[index])):
            algorithm = tally.add(item, out)
            t = statistics.median(scaled[index][k])
            times_ms.append(t * 1000)
            measured_ms.append(statistics.median(measured[index][k]) * 1000)
            rung = item.instance.rung
            if rung is not None and SLOPE_ROUTE.get(workload, algorithm) == algorithm:
                ts, sizes = rungs.setdefault(rung, ([], []))
                ts.append(t)
                if id(item.instance) not in seen:
                    seen.add(id(item.instance))
                    sizes.append(item.instance.size)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_ms, pct, beyond = tail(times_ms)
    metrics = {
        "verdicts_per_s": (tally.attempted / (sum(times_ms) / 1000), "1/s"),
        "verdict_ms_p50": (statistics.median(times_ms), "ms"),
        "verdict_ms_tail": (tail_ms, "ms"),
        "time_vs_input_slope": (slope(rungs), "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "passes": len(passes),
        "replays": replays,
        "timed_s": round(spent, 3),
        "tail": f"p{pct} with {beyond} of {len(times_ms)} samples beyond it",
        "measured_ms_p50": round(statistics.median(measured_ms), 4),
        "measured_ms_tail": round(tail(measured_ms)[0], 4),
        "measured_setup_s": round(setup_measured, 4),
        "rung_median_ms": {n: round(statistics.median(ts) * 1000, 3) for n, (ts, _) in sorted(rungs.items())},
        "failed_ratio": tally.failed / tally.attempted,
        "unknown_ratio": tally.unknown / tally.attempted,
        "outcomes": tally.outcomes,
        "routes": tally.routes,
    }
    return tally, metrics, notes


def run_traced(workload: str, seed: int, seconds: float, scale: str):
    tracer = Tracer()
    tally = Tally()
    algorithm_of: dict[int, str] = {}
    parse_bytes = 0
    plain = traced = 0.0
    built = [workloads.build_pass(workload, seed, i, scale) for i in range(pass_count(workload, scale))]
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for items in built:
            clear_caches()
            plain += run_pass(items, NullTracer())[3]
            clear_caches()
            tracer.install()
            try:
                _, _, outputs, wall = run_pass(items, tracer, tally.attempted)
            finally:
                tracer.uninstall()
            clear_caches()
            traced += wall
            for item, out in zip(items, outputs):
                vid = tally.attempted
                algorithm_of[vid] = tally.add(item, out)
                parse_bytes += len(item.instance.text) + len(item.matching_text)
        rounds += 1
    passes = rounds * len(built)  # traced passes, each averaged in below
    worst, bad_nesting = tracer.check_tree(ROOT_SPAN)
    if worst > 1e-6 or bad_nesting:
        raise RuntimeError(f"span tree inconsistent: self-time gap {worst:.3g}s, {bad_nesting} misnested spans")

    totals = tracer.totals()
    verdicts = tally.attempted

    def per_pass(value: float) -> float:
        return value / passes

    def stat(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in ("cli.parse", "cli.instance_from_doc", "cli.matching_from_doc", "cli.emit", "model.build_instance"):
        metrics[f"{name}.self_s"] = (per_pass(stat(name, "self_s")), "s")
    metrics["cli.parse.bytes"] = (parse_bytes / verdicts, "B")
    for name in ("model.is_symmetric", "model.agent_types", "model.changing_agents"):
        metrics[f"{name}.self_s"] = (per_pass(stat(name, "self_s")), "s")
        metrics[f"{name}.calls_per_verdict"] = (stat(name, "calls") / verdicts, "1/verdict")
    metrics["solvers.dispatch.self_s"] = (per_pass(stat("solvers.dispatch", "self_s")), "s")
    metrics["solvers.threshold_graph.self_s"] = (per_pass(stat("solvers.threshold_graph", "self_s")), "s")
    metrics["solvers.threshold_graph.calls"] = (per_pass(stat("solvers.threshold_graph", "calls")), "count")
    solver_self = tracer.self_by_verdict("solvers")
    for route in ROUTES:
        vids = [v for v, alg in algorithm_of.items() if alg == route]
        metrics[f"solvers.route.{route}.self_s"] = (per_pass(sum(solver_self.get(v, 0.0) for v in vids)), "s")
        metrics[f"solvers.route.{route}.verdicts"] = (per_pass(len(vids)), "count")
    checks = stat("verify.check", "calls")
    metrics["verify.check.self_s"] = (per_pass(stat("verify.check", "self_s")), "s")
    metrics["verify.check.calls"] = (per_pass(checks), "count")
    metrics["verify.check.accept_ratio"] = (tracer.check_accepted / checks if checks else 0.0, "ratio")
    metrics["blocking.stable_in_layer.self_s"] = (per_pass(stat("blocking.stable_in_layer", "self_s")), "s")
    metrics["blocking.stable_in_layer.calls"] = (per_pass(stat("blocking.stable_in_layer", "calls")), "count")
    for fn in ("maximum_matching", "has_perfect_matching", "saturating_matching", "maximal_matching"):
        metrics[f"graphalg.{fn}.self_s"] = (per_pass(stat(f"graphalg.{fn}", "self_s")), "s")
        metrics[f"graphalg.{fn}.calls"] = (per_pass(stat(f"graphalg.{fn}", "calls")), "count")
    oracle_wall = stat("oracle.oracle_solve", "wall_s")
    metrics["oracle.oracle_solve.self_s"] = (per_pass(stat("oracle.oracle_solve", "self_s")), "s")
    metrics["oracle.matchings"] = (per_pass(tracer.oracle_matchings), "count")
    metrics["oracle.matchings_per_s"] = (tracer.oracle_matchings / oracle_wall if oracle_wall else 0.0, "1/s")
    for module in MODULES:
        own = sum(rec["self_s"] for name, rec in totals.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_s"] = (per_pass(own), "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")

    notes = {
        "passes": len(built),
        "rounds": rounds,
        "spans": len(tracer.start),
        "untraced_s": round(plain, 3),
        "traced_s": round(traced, 3),
        "self_time_gap_s": worst,
        "failed_ratio": tally.failed / tally.attempted,
        "routes": tally.routes,
    }
    summary = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    tracer.write(HERE / "out" / f"trace-{workload}", {"metrics": summary, "notes": notes, "totals": totals})
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mlsm verdict benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale: one pass of tiny instances")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if not Path(mlsm.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported mlsm from {mlsm.__file__}, not from {SRC}")
    scale = "tiny" if args.tiny else "full"
    runner = run_traced if args.trace else run_untraced
    tally, metrics, notes = runner(args.workload, args.seed, args.seconds, scale)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"  # {key}: {value}")
    for line in tally.first_failures:
        print(f"  FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
