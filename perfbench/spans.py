"""In-memory span recorder for the traced run.

The traced run wraps the public functions each ``mlsm`` module offers to the
others (``TRACED``) by rebinding every module-level name that refers to
them, so ``dispatch`` and ``check`` call the wrappers without any edit to the
package.  Per-pair primitives (``blocking.blocks``, ``model.same_type``) are
not wrapped: they run millions of times per pass, and their time shows up
as self time of the caller.

A span is (name, parent span, verdict id, start, end, self time); self time
is the span's duration minus the durations of its direct children, which
run one after another inside it.  Spans live in flat arrays until the run
ends and ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

TRACED = {
    "mlsm.cli": ["instance_from_doc", "matching_from_doc", "matching_to_doc"],
    "mlsm.model": ["build_instance", "is_symmetric", "agent_types", "changing_agents"],
    "mlsm.solvers": [
        "dispatch",
        "threshold_graph",
        "solve_weak_lowalpha",
        "solve_strong_alllayers_symmetric",
        "solve_strong_global_symmetric",
        "layer_superstable_set",
        "solve_super_global",
        "solve_super_individual_highalpha",
        "solve_super_pair_veryhighalpha",
        "solve_super_pair_fpt",
        "solve_by_types",
        "solve_by_changing",
    ],
    "mlsm.verify": ["check"],
    "mlsm.blocking": ["stable_in_layer", "stable_layers"],
    "mlsm.graphalg": ["maximal_matching", "maximum_matching", "saturating_matching", "has_perfect_matching"],
    "mlsm.oracle": ["oracle_solve"],
}

CHECK = "verify.check"
ORACLE = "oracle.oracle_solve"


class NullTracer:
    """Stand-in for the untraced runs: every hook is a no-op."""

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def verdict(self, vid: int) -> None:
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.verdict_of = array("i")
        self.start = array("d")
        self.end_ = array("d")
        self.self_time = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._vid = -1
        self.check_accepted = 0
        self.oracle_depth = 0
        self.oracle_matchings = 0  # check calls made under an oracle_solve span
        self._patches: list[tuple[object, str, object]] = []

    def id_of(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def verdict(self, vid: int) -> None:
        self._vid = vid

    def begin(self, name: str) -> None:
        self.begin_id(self.id_of(name))

    def begin_id(self, nid: int) -> None:
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.verdict_of.append(self._vid)
        self.end_.append(0.0)
        self.self_time.append(0.0)
        self._stack.append(len(self.start))
        self._child.append(0.0)
        self.start.append(time.perf_counter())

    def end(self) -> None:
        t = time.perf_counter()
        idx = self._stack.pop()
        dur = t - self.start[idx]
        self.end_[idx] = t
        self.self_time[idx] = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.id_of(name)
        begin, end = self.begin_id, self.end

        if name == CHECK:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self.oracle_depth:
                    self.oracle_matchings += 1
                begin(nid)
                try:
                    verdict = fn(*args, **kwargs)
                finally:
                    end()
                self.check_accepted += verdict.stable
                return verdict
        elif name == ORACLE:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.oracle_depth += 1
                begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()
                    self.oracle_depth -= 1
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end()
        return traced

    def install(self) -> None:
        """Rebind every ``mlsm`` module-level name of a traced function."""
        wrappers = {}
        for module, fns in TRACED.items():
            mod = importlib.import_module(module)
            for fn in fns:
                original = getattr(mod, fn)
                name = f"{module.removeprefix('mlsm.')}.{fn}"
                wrappers[id(original)] = (original, self._wrap(name, original))
        for modname, mod in list(sys.modules.items()):
            if modname != "mlsm" and not modname.startswith("mlsm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in self._patches:
            setattr(mod, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def check_tree(self, root: str) -> tuple[float, int]:
        """(largest |sum of self times - wall| over verdict roots, in
        seconds; number of spans not nested inside their parent)."""
        root_id = self.ids[root]
        self_sum: dict[int, float] = {}
        bad_nesting = 0
        for i in range(len(self.start)):
            v = self.verdict_of[i]
            self_sum[v] = self_sum.get(v, 0.0) + self.self_time[i]
            p = self.parent[i]
            if p >= 0 and not (self.start[p] <= self.start[i] and self.end_[i] <= self.end_[p]):
                bad_nesting += 1
        worst = 0.0
        for i in range(len(self.start)):
            if self.name[i] == root_id:
                wall = self.end_[i] - self.start[i]
                worst = max(worst, abs(self_sum[self.verdict_of[i]] - wall))
        return worst, bad_nesting

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time, total duration."""
        out = {name: {"calls": 0, "self_s": 0.0, "wall_s": 0.0} for name in self.names}
        for i in range(len(self.start)):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.self_time[i]
            rec["wall_s"] += self.end_[i] - self.start[i]
        return out

    def self_by_verdict(self, module: str) -> dict[int, float]:
        """Self time per verdict id of the spans of one module."""
        ids = {nid for nid, name in enumerate(self.names) if name.split(".")[0] == module}
        out: dict[int, float] = {}
        for i in range(len(self.start)):
            if self.name[i] in ids:
                v = self.verdict_of[i]
                out[v] = out.get(v, 0.0) + self.self_time[i]
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Save the spans as raw native arrays (``<path>.spans``, in the order
        name, parent, verdict as int32 then start, end, self as float64) next
        to a JSON header with the name table and the run's metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name, self.parent, self.verdict_of, self.start, self.end_, self.self_time):
                arr.tofile(fh)
        header = {"spans": len(self.start), "names": self.names, "summary": summary}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
