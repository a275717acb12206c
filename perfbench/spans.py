"""Spans and counters around idtrack's public calls, for the traced run.

``install`` patches each public function where its caller looks it up
(``idtrack.tracker.nms``, ``idtrack.metrics.solve_max``, ...), so nothing in
the package changes. One ``Tracer`` records every call as a span (name,
start, end, parent) plus the counters the per-layer metrics need;
``layer_metrics`` turns one pipeline pass of spans into per-layer numbers.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager

# Span name -> (module, attribute) patched to record it. The cli.* spans
# are opened by the benchmark itself around each ``cli.main`` call.
PATCH_SITES = {
    "sim.generate": [("idtrack.cli", "generate")],
    "mot_io.write_gt": [("idtrack.cli", "write_gt")],
    "mot_io.write_detections": [("idtrack.cli", "write_detections")],
    "mot_io.write_embeddings": [("idtrack.cli", "write_embeddings")],
    "mot_io.read_detections": [("idtrack.mot_io", "read_detections")],
    "mot_io.read_embeddings": [("idtrack.mot_io", "read_embeddings")],
    "mot_io.write_results": [("idtrack.cli", "write_results")],
    "mot_io.read_gt": [("idtrack.cli", "read_gt")],
    "affinity.nms": [("idtrack.tracker", "nms")],
    "affinity.combined_affinity": [("idtrack.tracker", "combined_affinity")],
    "assignment.solve_max": [("idtrack.tracker", "solve_max"), ("idtrack.metrics", "solve_max")],
    "tracker.step": [("idtrack.tracker.Tracker", "step")],
    "tracker.update_trajectory": [("idtrack.tracker", "update_trajectory")],
    "metrics.evaluate": [("idtrack.cli", "evaluate")],
}
# The scalar IoU runs ~10^5 times per pass, so it is counted, not spanned.
COUNT_SITES = [("idtrack.affinity", "iou"), ("idtrack.metrics", "iou")]
CLI_SPANS = ("cli.simulate", "cli.track", "cli.eval")
EXPECTED_SPANS = tuple(PATCH_SITES) + CLI_SPANS

# Per-layer metric -> unit. Every "_s" metric is the summed duration of the
# span of the same name, except the "_self_s" ones, which are self time.
LAYER_METRICS = {
    "sim.generate_s": "s",
    "sim.detections": "count",
    "mot_io.write_embeddings_s": "s",
    "mot_io.write_detections_s": "s",
    "mot_io.write_gt_s": "s",
    "mot_io.read_embeddings_s": "s",
    "mot_io.read_detections_s": "s",
    "mot_io.write_results_s": "s",
    "mot_io.read_gt_s": "s",
    "mot_io.bytes_written": "bytes",
    "mot_io.bytes_read": "bytes",
    "affinity.nms_s": "s",
    "affinity.nms_in": "count",
    "affinity.nms_kept_ratio": "ratio",
    "affinity.iou_calls": "count",
    "affinity.combined_affinity_s": "s",
    "affinity.cells": "count",
    "assignment.solve_max_s": "s",
    "assignment.solve_calls": "count",
    "assignment.cells": "count",
    "assignment.pair_yield": "ratio",
    "tracker.step_s": "s",
    "tracker.step_self_s": "s",
    "tracker.update_trajectory_s": "s",
    "tracker.recovery_solves": "count",
    "tracker.recovery_cells": "count",
    "tracker.births": "count",
    "tracker.active_mean": "count",
    "tracker.paused_mean": "count",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_self_s": "s",
    "metrics.gt_boxes": "count",
    "cli.simulate_s": "s",
    "cli.track_s": "s",
    "cli.eval_s": "s",
}


class Tracer:
    """In-memory spans and counters of one pipeline pass at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._tracker = None  # the Tracker whose step is running
        self._recovery_pending = False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()  # count_calls wrappers hold this Counter
        self._stack.clear()
        self._tracker = None
        self._recovery_pending = False

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # Counter hooks, looked up by span name in ``wrap``.

    def _after_sim_generate(self, args, result, state):
        self.counts["sim.detections"] += sum(len(v) for v in result[1].values())

    def _written(self, args, result, state):
        self.counts["mot_io.bytes_written"] += os.path.getsize(args[0])

    _after_mot_io_write_gt = _after_mot_io_write_detections = _written
    _after_mot_io_write_embeddings = _after_mot_io_write_results = _written

    def _read(self, args, result, state):
        self.counts["mot_io.bytes_read"] += os.path.getsize(args[0])

    _after_mot_io_read_detections = _after_mot_io_read_embeddings = _after_mot_io_read_gt = _read

    def _after_affinity_nms(self, args, result, state):
        self.counts["affinity.nms_in"] += len(args[0])
        self.counts["affinity.nms_kept"] += len(result)

    def _after_affinity_combined_affinity(self, args, result, state):
        self.counts["affinity.cells"] += result.size
        # Phase 2 compares paused trajectories; phase 1 compares active ones.
        trajectories = args[0]
        if self._tracker is not None and trajectories:
            self._recovery_pending = any(trajectories[0] is t for t in self._tracker.paused)

    def _after_assignment_solve_max(self, args, result, state):
        rows, cols = args[0].shape
        self.counts["assignment.solve_calls"] += 1
        self.counts["assignment.cells"] += rows * cols
        self.counts["assignment.pairs"] += len(result.pairs)
        self.counts["assignment.min_dim"] += min(rows, cols)
        if self._recovery_pending:
            self.counts["tracker.recovery_solves"] += 1
            self.counts["tracker.recovery_cells"] += rows * cols
            self._recovery_pending = False

    def _before_tracker_step(self, args):
        self._tracker = args[0]
        return args[0].next_id

    def _after_tracker_step(self, args, result, next_id_before):
        tracker = args[0]
        self.counts["tracker.steps"] += 1
        self.counts["tracker.births"] += tracker.next_id - next_id_before
        self.counts["tracker.active"] += len(tracker.active)
        self.counts["tracker.paused"] += len(tracker.paused)
        self._tracker = None
        self._recovery_pending = False

    def _after_metrics_evaluate(self, args, result, state):
        self.counts["metrics.gt_boxes"] += result.gt_total


def _resolve(path: str):
    import importlib

    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr)


def install(tracer: Tracer) -> tuple[list[tuple[object, str, object]], list[str]]:
    """Patch every site. Returns what ``uninstall`` needs to undo it, and a
    problem for each site that no longer exists."""
    patched, problems = [], []
    sites = [(name, site, tracer.wrap) for name, owners in PATCH_SITES.items() for site in owners]
    sites += [("affinity.iou_calls", site, tracer.count_calls) for site in COUNT_SITES]
    for name, (owner_path, attr), make in sites:
        try:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            problems.append(f"patch site {owner_path}.{attr} for {name} is gone")
            continue
        setattr(owner, attr, make(name, original))
        patched.append((owner, attr, original))
    return patched, problems


def uninstall(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent, overlaps merged)."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def check_spans(spans, expected=EXPECTED_SPANS) -> list[str]:
    """Problems that make a trace untrustworthy: a span left open, a child
    outside its parent, a negative self time, or an expected span that
    recorded no calls (a wrapper an import refactor has blinded)."""
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            problems.append(f"span {i} ({name}) never closed")
        elif parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            if p_end is None or start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) falls outside its parent {parent} ({p_name})")
    if problems:
        return problems
    for i, value in enumerate(self_times(spans)):
        if value < 0:
            problems.append(f"span {i} ({spans[i][0]}) has negative self time {value!r}")
    seen = {s[0] for s in spans}
    problems.extend(f"expected span {name} recorded zero calls" for name in expected if name not in seen)
    return problems


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer numbers of one pipeline pass (times summed over calls)."""
    total: Counter = Counter()
    own: Counter = Counter()
    for (name, start, end, _), value in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += value
    out = {}
    for metric in LAYER_METRICS:
        if metric.endswith("_self_s"):
            out[metric] = own[metric[: -len("_self_s")]]
        elif metric.endswith("_s"):
            out[metric] = total[metric[: -len("_s")]]
    for metric in ("sim.detections", "mot_io.bytes_written", "mot_io.bytes_read", "affinity.nms_in",
                   "affinity.iou_calls", "affinity.cells", "assignment.solve_calls", "assignment.cells",
                   "tracker.recovery_solves", "tracker.recovery_cells", "tracker.births", "metrics.gt_boxes"):
        out[metric] = counts[metric]
    out["affinity.nms_kept_ratio"] = counts["affinity.nms_kept"] / max(counts["affinity.nms_in"], 1)
    out["assignment.pair_yield"] = counts["assignment.pairs"] / max(counts["assignment.min_dim"], 1)
    steps = max(counts["tracker.steps"], 1)
    out["tracker.active_mean"] = counts["tracker.active"] / steps
    out["tracker.paused_mean"] = counts["tracker.paused"] / steps
    return out
