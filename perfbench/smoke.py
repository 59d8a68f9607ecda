"""Smoke test of the verdict benchmark at a tiny size (no timing assertions).

    python3 perfbench/smoke.py

1. The reference logic of workloads.py agrees with the exhaustive oracle on
   small instances of every generated family: planted degrees match
   ``check``, broken matchings are rejected, and every "exists" /
   "not-exists" reference matches ``existence_table``.
2. Each workload runs once per trace mode at ``--tiny`` scale: the last line
   is the result object, every verdict verifies, every metric named in
   BENCHMARK.json is reported with its unit, and the traced runs show the
   layer counts the workloads are built around.

Exits nonzero with a message on the first failed expectation.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from mlsm import check  # noqa: E402
from mlsm.oracle import existence_table  # noqa: E402
from mlsm.verify import all_queries  # noqa: E402

import workloads as W  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAILED {what}")


def reference_agrees_with_oracle(seeds: int = 6, n: int = 8) -> int:
    checked = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        for inst in (
            W.planted(rng, n, True, 2),
            W.planted(rng, n, False, 2),
            W.planted(rng, n, False, 2, partner0=n // 2),
            W.obstructed(rng, n),
            W.random_asym(rng, n),
            W.low_tau(rng, n),
        ):
            table = W._with_table(W.Instance(inst.family, inst.layers)).exact
            for q in all_queries(W.ELL):
                ref, why = inst.reference(q)
                if ref is not None:
                    expect((ref == "exists") == table(q), f"{inst.family} seed {seed} {q.describe()}: {ref} ({why})")
                    checked += 1
                m = inst.planted
                if m is not None:
                    degrees = W.planted_degrees(inst.facts, m)
                    expect(degrees.satisfied(q) == check(inst.inst, m, q).stable, f"planted degrees {q.describe()}")
                    for scramble in (False, True):
                        broken = W._broken(rng, m, scramble, n)
                        expect(not check(inst.inst, broken, q).stable, f"broken matching accepted {q.describe()}")
    return checked


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload} trace {trace} exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"{workload} verdicts")
    return result["metrics"]


def main() -> int:
    checked = reference_agrees_with_oracle()
    print(f"smoke: {checked} reference answers agree with existence_table")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer: dict[str, dict] = {}
    for workload in W.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run(workload, trace)
            expect(list(metrics) == [m["name"] for m in spec[key]], f"{workload} {key} names")
            for m in spec[key]:
                expect(metrics[m["name"]]["unit"] == m["unit"], f"{m['name']} unit")
            if trace:
                layer[workload] = {name: rec["value"] for name, rec in metrics.items()}
        print(f"smoke: {workload} ok")
    expect(layer["exact-small"]["oracle.matchings"] > 0, "oracle.matchings > 0 on exact-small")
    expect(layer["solve-large"]["oracle.matchings"] == 0, "oracle.matchings == 0 on solve-large")
    expect(layer["check-large"]["oracle.matchings"] == 0, "oracle.matchings == 0 on check-large")
    expect(layer["solve-large"]["solvers.threshold_graph.calls"] > 0, "threshold_graph on solve-large")
    expect(layer["check-large"]["solvers.threshold_graph.calls"] == 0, "no threshold_graph on check-large")
    for module in ("cli", "model", "solvers", "verify", "blocking", "graphalg", "oracle"):
        expect(any(v[f"{module}.self_s"] > 0 for v in layer.values()), f"{module} reports on some workload")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
