"""Span tracing of rissim's Monte Carlo layers, installed from outside the package.

Each traced function is wrapped where its caller looks it up (for example
``rissim.channel.draw_ray_angles``, which ``_stochastic_panel_link`` calls),
so the package is unchanged and an untraced run executes exactly the code a
user runs. ``Tracer`` restores every original on exit.

A span is ``(name, start_ns, end_ns, seq, parent_seq, point, trial, pid)``:
``seq`` numbers spans within one process, ``parent_seq`` is the enclosing
traced call (-1 at the top) and ``(point, trial)`` is the sweep index and
trial the span belongs to (trial is -1 outside a trial, e.g. near-field g).
Spans stay in memory. ``ProcessPoolExecutor`` workers are forked inside the
``with`` block and so run the wrappers too; after each sweep point a worker
appends its spans to a JSON-lines spool file, which ``take`` merges into the
parent's buffer.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from rissim import channel, experiment

POINT_SPAN = "experiment.sweep_point"
ASSEMBLY_SPAN = "channel.assemble_panel_channel"

# (module whose global the caller reads, attribute, span name). The sweep
# point span is the root of every trial; it gives spans their point id and
# is where workers hand their spans over. It is not a reported layer.
TRACED = (
    (experiment, "_run_sweep_point", POINT_SPAN),
    (experiment, "_trial_rngs", "experiment.trial_rngs"),
    (experiment, "tx_ris_channel", "channel.tx_ris_channel"),
    (experiment, "ris_rx_farfield", "channel.ris_rx_farfield"),
    (experiment, "ris_rx_nearfield", "channel.ris_rx_nearfield"),
    (experiment, "siso_channel", "channel.siso_channel"),
    (experiment, "evaluate_link", "link.evaluate_link"),
    (channel, "assign_link_state", "largescale.assign_link_state"),
    (channel, "draw_lsps", "largescale.draw_lsps"),
    (channel, "path_loss_db", "largescale.path_loss_db"),
    (channel, "draw_delays", "smallscale.draw_delays"),
    (channel, "cluster_powers", "smallscale.cluster_powers"),
    (channel, "draw_ray_angles", "smallscale.draw_ray_angles"),
    (channel, "draw_phases", "smallscale.draw_phases"),
    (channel, "build_cluster_set", "smallscale.build_cluster_set"),
    (channel, "filter_front_hemisphere", "smallscale.filter_front_hemisphere"),
    (channel, "_assemble_panel_channel", ASSEMBLY_SPAN),
    (channel, "element_gain", "array_response.element_gain"),
    (channel, "steering_phase_factors", "array_response.steering_phase_factors"),
    (channel, "los_angles", "geometry.los_angles"),
)
LAYERS = tuple(name for _, _, name in TRACED if name != POINT_SPAN)
ASSEMBLY_COUNTERS = ("rays_in", "rays_surviving", "complex_exps", "matmul_flops")


def installed_wrappers() -> list[str]:
    """Names of traced attributes that currently hold a wrapper."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, _ in TRACED
        if hasattr(getattr(module, attr), "__wrapped__")
    ]


class Tracer:
    """Installs the layer wrappers for the life of a ``with`` block."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self._originals: list = []
        self._reset_buffer()

    def _reset_buffer(self) -> None:
        # The buffer belongs to one process; a forked worker starts its own.
        self._pid = os.getpid()
        self._clear_spans()
        self._stack: list = []
        self._seq = 0
        self._point = -1
        self._trial = -1

    def __enter__(self) -> "Tracer":
        self._owner = os.getpid()
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        for stale in self.spool_dir.glob("spool-*.jsonl"):
            stale.unlink()
        self._reset_buffer()
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        # functools.wraps copies __module__ and __qualname__, so the wrapped
        # ``_run_sweep_point`` still pickles by reference for the pool.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == POINT_SPAN:
                self._enter_point(*args, **kwargs)
            elif name == "experiment.trial_rngs":
                self._enter_trial(*args, **kwargs)
            elif name == ASSEMBLY_SPAN:
                self._count_assembly(*args, **kwargs)
            seq = self._seq
            self._seq += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(seq)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(
                    (name, start, end, seq, parent, self._point, self._trial, self._pid)
                )
                if name == POINT_SPAN and self._pid != self._owner:
                    self._spool()

        return traced

    def _enter_point(self, config, index, point) -> None:
        if os.getpid() != self._pid:
            # First task in a forked worker: drop what the parent held.
            self._reset_buffer()
        self._point, self._trial = index, -1

    def _enter_trial(self, master_seed, sweep_index, trial) -> None:
        self._point, self._trial = sweep_index, trial

    def _count_assembly(self, panel, cluster_set, *args, **kwargs) -> None:
        mask = cluster_set.ray_mask
        # Assembly returns zeros without touching a ray when none survives;
        # otherwise it steers every ray of each cluster with a survivor.
        rays_in = int(mask.any(axis=1).sum()) * mask.shape[1] if mask.any() else 0
        side = panel.side
        self.counters["rays_in"] += rays_in
        self.counters["rays_surviving"] += int(mask.sum())
        self.counters["complex_exps"] += 2 * side * rays_in
        self.counters["matmul_flops"] += 8 * side * side * rays_in

    def _clear_spans(self) -> None:
        self.spans: list = []
        self.counters = dict.fromkeys(ASSEMBLY_COUNTERS, 0)

    def _spool(self) -> None:
        record = {"spans": self.spans, "counters": self.counters}
        with open(self.spool_dir / f"spool-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
        self._clear_spans()

    def take(self) -> tuple[list, dict]:
        """Merge worker spools into the buffer, return it and start a new one."""
        for path in sorted(self.spool_dir.glob("spool-*.jsonl")):
            with open(path) as f:
                for line in f:
                    record = json.loads(line)
                    self.spans.extend(tuple(s) for s in record["spans"])
                    for key, value in record["counters"].items():
                        self.counters[key] += value
            path.unlink()
        spans, counters = self.spans, self.counters
        self._clear_spans()
        return spans, counters


def layer_times(spans) -> dict:
    """Per span name: ``[calls, self_ns, total_ns]``.

    Self time is a span's duration minus the durations of its child spans.
    """
    child_ns = defaultdict(int)
    for _, start, end, _, parent, _, _, pid in spans:
        if parent >= 0:
            child_ns[(pid, parent)] += end - start
    times = {name: [0, 0, 0] for name in LAYERS + (POINT_SPAN,)}
    for name, start, end, seq, _, _, _, pid in spans:
        entry = times[name]
        entry[0] += 1
        entry[1] += end - start - child_ns[(pid, seq)]
        entry[2] += end - start
    return times
