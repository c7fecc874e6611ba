"""Span tracing of mixdecomp's public functions, installed from outside.

The tracer wraps each public function named in ``TARGETS`` at every module
attribute that refers to it (``mixdecomp.bounds.simulate_states`` as well as
``mixdecomp.simulate.simulate_states``), and each listed method on its
class, so that callers pick up the wrapper wherever they look the name up.
Nothing under ``src/`` is edited.

A span is (name, start, end, parent).  Spans stay in memory; ``write`` dumps
them once the traced operation has ended.  A span opened in a worker thread
with nothing open on its own thread takes as parent the innermost span open
on the main thread, which is the call that handed the work to the pool.  A
span's self time is its duration minus the part of it that its child spans
cover (their union, so parallel children are not counted twice).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# (module, attribute path) -> layer group.  Groups are summed into the
# per-layer metrics by ``layer_metrics``.
TARGETS = {
    ("mixdecomp.simulate", "simulate_states"): "simulate.paths",
    ("mixdecomp.simulate", "RowSampler.step"): "simulate.step",
    ("mixdecomp.bounds", "MCTailProvider.query"): "bounds.tail",
    ("mixdecomp.bounds", "MCTailProvider.query_joint"): "bounds.tail",
    ("mixdecomp.bounds", "bound_basic"): "bounds.search",
    ("mixdecomp.bounds", "bound_basic2"): "bounds.search",
    ("mixdecomp.bounds", "bound_regular"): "bounds.search",
    ("mixdecomp.bounds", "bound_graph_hit"): "bounds.search",
    ("mixdecomp.bounds", "bound_drift"): "bounds.search",
    ("mixdecomp.bounds", "bound_contraction"): "bounds.search",
    ("mixdecomp.bounds", "calibrate_constants"): "bounds.search",
    ("mixdecomp.wellcovering", "oracle_wc_time"): "wellcovering.oracle",
    ("mixdecomp.wellcovering", "feasibility_oracle"): "wellcovering.oracle",
    ("mixdecomp.wellcovering", "propagation_bound"): "wellcovering.propagation",
    ("mixdecomp.wellcovering", "bootstrap_mixing_bound"): "wellcovering.bootstrap",
    ("mixdecomp.wellcovering", "concentration_audit"): "wellcovering.audit",
    ("mixdecomp.contraction", "wasserstein"): "contraction.wasserstein",
    ("mixdecomp.contraction", "estimate_contraction"): "contraction.estimate",
    ("mixdecomp.decomposition", "trace_kernel"): "decomposition",
    ("mixdecomp.decomposition", "projected_kernel"): "decomposition",
    ("mixdecomp.decomposition", "escape_analysis"): "decomposition",
    ("mixdecomp.decomposition", "block_mixing_times"): "decomposition",
    ("mixdecomp.decomposition", "avg_hit_time"): "decomposition",
    ("mixdecomp.kernel", "stationary_distribution"): "kernel",
    ("mixdecomp.kernel", "mixing_profile"): "kernel",
    ("mixdecomp.kernel", "hitting_analysis"): "kernel",
    ("mixdecomp.bounds", "exact_mixing_time"): "kernel",
    ("mixdecomp.io", "write_json"): "report.write",
    ("mixdecomp.io", "write_csv"): "report.write",
}

# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "simulate.self_s": "s",
    "simulate.path_steps": "count",
    "simulate.step_rows": "count",
    "simulate.path_bytes": "B",
    "bounds.tail_queries": "count",
    "bounds.tail_query_s": "s",
    "bounds.search_calls": "count",
    "bounds.search_self_s": "s",
    "wellcovering.oracle_calls": "count",
    "wellcovering.oracle_s": "s",
    "wellcovering.propagation_s": "s",
    "wellcovering.bootstrap_self_s": "s",
    "wellcovering.audit_s": "s",
    "contraction.wasserstein_calls": "count",
    "contraction.wasserstein_s": "s",
    "contraction.estimate_self_s": "s",
    "decomposition.calls": "count",
    "decomposition.self_s": "s",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """Records spans around the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        # span: [name index, start, end, parent id, work]; id = list index
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name_idx: int, work):
        spans = self.spans
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            span = [name_idx, time.perf_counter(), 0.0, parent, 0]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at each attribute that refers to it."""
        for (mod_name, path), group in TARGETS.items():
            module = importlib.import_module(mod_name)
            name_idx = len(self.names)
            self.names.append(f"{mod_name.split('.', 1)[1]}.{path}")
            self.groups.append(group)
            work = _WORK.get(path)
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(original, name_idx, work))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name_idx, work)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("mixdecomp"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name_idx, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for sid, (_, t0, t1, _, _) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Sum the spans into the per-layer metrics of ``LAYER_UNITS``."""
        self_t = self.self_times()
        time_of: dict[str, float] = {}
        calls_of: dict[str, int] = {}
        work_of: dict[str, int] = {}
        step_rows_outside = 0
        paths_idx = self.groups.index("simulate.paths")
        for sid, (name_idx, _, _, parent, work) in enumerate(self.spans):
            group = self.groups[name_idx]
            time_of[group] = time_of.get(group, 0.0) + self_t[sid]
            calls_of[group] = calls_of.get(group, 0) + 1
            if group == "simulate.paths":
                work_of["path_steps"] = work_of.get("path_steps", 0) + work[0]
                work_of["path_bytes"] = work_of.get("path_bytes", 0) + work[1]
            elif group == "simulate.step" and not self._inside(sid, paths_idx):
                step_rows_outside += work
            elif group == "report.write":
                work_of["bytes_written"] = work_of.get("bytes_written", 0) + work

        def t(*groups: str) -> float:
            return sum(time_of.get(g, 0.0) for g in groups)

        def n(*groups: str) -> int:
            return sum(calls_of.get(g, 0) for g in groups)

        top_level = sum(
            t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0
        )
        return {
            "simulate.self_s": t("simulate.paths", "simulate.step"),
            "simulate.path_steps": work_of.get("path_steps", 0),
            "simulate.step_rows": step_rows_outside,
            "simulate.path_bytes": work_of.get("path_bytes", 0),
            "bounds.tail_queries": n("bounds.tail"),
            "bounds.tail_query_s": t("bounds.tail"),
            "bounds.search_calls": n("bounds.search"),
            "bounds.search_self_s": t("bounds.search"),
            "wellcovering.oracle_calls": n("wellcovering.oracle"),
            "wellcovering.oracle_s": t("wellcovering.oracle"),
            "wellcovering.propagation_s": t("wellcovering.propagation"),
            "wellcovering.bootstrap_self_s": t("wellcovering.bootstrap"),
            "wellcovering.audit_s": t("wellcovering.audit"),
            "contraction.wasserstein_calls": n("contraction.wasserstein"),
            "contraction.wasserstein_s": t("contraction.wasserstein"),
            "contraction.estimate_self_s": t("contraction.estimate"),
            "decomposition.calls": n("decomposition"),
            "decomposition.self_s": t("decomposition"),
            "kernel.calls": n("kernel"),
            "kernel.self_s": t("kernel"),
            "report.write_s": t("report.write"),
            "report.bytes_written": work_of.get("bytes_written", 0),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - top_level,
        }

    def _inside(self, sid: int, name_idx: int) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name_idx:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "work"],
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)


def _path_work(args, kwargs, out):
    return [int(out.shape[0]) * int(out.shape[1] - 1), int(out.nbytes)]


def _step_work(args, kwargs, out):
    return int(out.shape[0])


def _file_work(args, kwargs, out):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


_WORK = {
    "simulate_states": _path_work,
    "RowSampler.step": _step_work,
    "write_json": _file_work,
    "write_csv": _file_work,
}
