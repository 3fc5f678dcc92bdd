"""One benchmark run: timed sweeps, the traced run, output checks and metrics.

Callers put the checkout's sources on the path first (``checkout``). Every
call into rissim goes through its public entry points, from this process;
only ``run_experiment`` itself starts worker processes, and only when the
workload asks for more than one worker. Nothing here sets an environment
variable: the program runs with the environment it was given.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, dataclass

import numpy as np
from rissim import LinkBudget, evaluate_link, generate_realization, run_experiment

from checkout import BENCH_DIR, SRC
from layertrace import LAYERS, Tracer, layer_times
from workloads import WORKLOADS

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 7
REL_TOL = 1e-9
REFERENCE_DIR = BENCH_DIR / "references"

# The untraced run's metrics: name -> (unit, better).
END_TO_END = {
    "trial_points_per_s": ("trial_points/s", "higher"),
    "cpu_ms_per_trial_point": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass
class Sweep:
    """One timed ``run_experiment`` call."""

    wall_s: float
    cpu_s: float
    stats: object


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its largest reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_sweep(config, workers: int) -> Sweep:
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    stats = run_experiment(config, workers=workers)
    wall = time.perf_counter() - start
    return Sweep(wall, cpu_seconds() - cpu0, stats)


def sweeps_for(config, workers: int, seconds: float, minimum: int) -> list[Sweep]:
    """Repeat the sweep until ``seconds`` have passed and ``minimum`` are done."""
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < minimum or time.perf_counter() - start < seconds:
        sweeps.append(timed_sweep(config, workers))
    return sweeps


def row_key(row) -> str:
    """Exact identity of one result row (repr keeps every digit and NaN)."""
    return repr(astuple(row))


def differs(value: float, expected: float) -> bool:
    return not abs(value - expected) <= REL_TOL * abs(expected)


def reference_path(workload: str, seed: int):
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def reference_record(workload: str, seed: int, stats) -> dict:
    """The stored form of a reference: per-point means of one sweep."""
    return {
        "workload": workload,
        "seed": seed,
        "trials": stats.rows[0].trials,
        "points": [
            {
                "index": row.index,
                "n_elements": row.point.n_elements,
                "ris": [row.point.ris_x, row.point.ris_y, row.point.ris_z],
                "mean_rate_bps_hz": row.mean_rate_bps_hz,
                "mean_snr_db": row.mean_snr_db,
            }
            for row in stats.rows
        ],
    }


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def failed_points(stats, reference=None) -> set:
    """Sweep indices that carry an error or differ from the reference.

    A value differs when its relative distance from the reference exceeds
    ``REL_TOL``. Without a reference only errors count.
    """
    bad = {row.index for row in stats.rows if row.error is not None}
    if reference is None:
        return bad
    expected = {p["index"]: p for p in reference["points"]}
    if len(expected) != len(stats.rows):
        return {row.index for row in stats.rows}
    for row in stats.rows:
        ref = expected.get(row.index)
        if (
            ref is None
            or row.trials != reference["trials"]
            or differs(row.mean_rate_bps_hz, ref["mean_rate_bps_hz"])
            or differs(row.mean_snr_db, ref["mean_snr_db"])
        ):
            bad.add(row.index)
    return bad


def cross_path_failures(config, stats, indices) -> set:
    """Points whose means ``generate_realization`` does not reproduce.

    ``generate_realization`` is the package's second, per-trial path to the
    same channels, so this check holds for seeds without a stored reference.
    """
    points = config.sweep_points()
    bad = set()
    for i in indices:
        budget = LinkBudget.from_dbm(points[i].p_t_dbm, config.n_0_dbm)
        rates, snrs = [], []
        try:
            for t in range(config.trials):
                r = generate_realization(config, points[i], i, t)
                link = evaluate_link(r.h, r.g, r.h_siso, budget)
                rates.append(link.rate_bps_hz)
                snrs.append(link.snr_linear)
        except ValueError:
            bad.add(i)
            continue
        row = stats.rows[i]
        if differs(row.mean_rate_bps_hz, float(np.mean(rates))) or differs(
            row.mean_snr_db, 10.0 * math.log10(float(np.mean(snrs)))
        ):
            bad.add(i)
    return bad


def setup_times(workload: str, seed: int) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, run one at a time."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def environment_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "rissim").rglob("*.py"))
        ),
    }


def throughput(sweeps: list[Sweep], trial_points: int) -> tuple[float, float]:
    """Trial-points per second and CPU ms per trial-point over all sweeps.

    Ratios of totals over the whole measured window: with ``workers`` > 1 the
    per-sweep rate is bimodal, and a median of a few sweeps jumps between
    the modes where the totals do not.
    """
    wall = sum(s.wall_s for s in sweeps)
    cpu = sum(s.cpu_s for s in sweeps)
    work = trial_points * len(sweeps)
    return work / wall, 1000.0 * cpu / work


def layer_metrics(untraced: list[Sweep], traced: list) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, and the ways its counts failed to repeat.

    ``traced`` holds ``(Sweep, spans, counters)`` per traced sweep. Counts
    come from one sweep and must repeat in every other; times are medians.
    """
    per_sweep = [layer_times(spans) for _, spans, _ in traced]
    counters = [c for _, _, c in traced]
    problems = []
    metrics = {}
    for name in LAYERS:
        calls = per_sweep[0][name][0]
        if any(t[name][0] != calls for t in per_sweep):
            problems.append(f"{name}.calls differ between traced sweeps")
        self_ms = statistics.median(t[name][1] for t in per_sweep) / 1e6
        per_call = (
            statistics.median(t[name][2] / t[name][0] for t in per_sweep) / 1e3 if calls else 0.0
        )
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
        metrics[f"{name}.us_per_call"] = (per_call, "us")
    if any(c != counters[0] for c in counters):
        problems.append("assembly counters differ between traced sweeps")
    c = counters[0]
    metrics["channel.assemble.rays_in"] = (c["rays_in"], "count")
    metrics["channel.assemble.rays_surviving"] = (c["rays_surviving"], "count")
    metrics["channel.assemble.ray_yield"] = (
        c["rays_surviving"] / c["rays_in"] if c["rays_in"] else 0.0, "fraction"
    )
    # Operation counts computed from array shapes, not measured.
    metrics["channel.assemble.complex_exps"] = (c["complex_exps"], "count_by_shape")
    metrics["channel.assemble.matmul_flops"] = (c["matmul_flops"], "count_by_shape")
    metrics["experiment.driver.cpu_per_wall"] = (
        sum(s.cpu_s for s in untraced) / sum(s.wall_s for s in untraced), "cpu_s/wall_s"
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(s.wall_s for s, _, _ in traced)
        / statistics.median(s.wall_s for s in untraced)
        - 1.0,
        "fraction",
    )
    return metrics, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    """Measure one workload; return the full record of the run.

    ``record["metrics"]`` maps names to ``(value, unit)``: the end-to-end
    metrics untraced, the per-layer metrics traced.
    """
    workload = WORKLOADS[workload_name]
    config = workload.config(seed)
    workers = workload.pool_workers()
    n_points = len(config.sweep_points())
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "workers": workers,
        "trials": config.trials,
        "points": n_points,
        "environment": environment_record(),
    }
    setup = [] if trace else setup_times(workload_name, seed)

    # The untimed first sweep fills caches and is the run's checked output.
    baseline = run_experiment(config, workers=workers)
    reference = load_reference(workload_name, seed)
    reference_bad = failed_points(baseline, reference)
    cross_bad = cross_path_failures(config, baseline, workload.cross_check_points)
    bad = reference_bad | cross_bad
    expected_keys = [row_key(row) for row in baseline.rows]

    problems = []
    if trace:
        # Untraced and traced calls alternate, so a drift in machine speed
        # falls on both alike and cancels from trace.overhead_frac.
        untraced, traced = [], []
        tracer = Tracer(out_dir / "spool")
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            untraced.append(timed_sweep(config, workers))
            with tracer:
                sweep = timed_sweep(config, workers)
                traced.append((sweep, *tracer.take()))
        metrics, problems = layer_metrics(untraced, traced)
        checked = untraced + [s for s, _, _ in traced]
        spans_path = out_dir / f"{workload_name}-seed{seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for i, (_, spans, _) in enumerate(traced):
                for span in spans:
                    f.write(json.dumps([i, *span]) + "\n")
        record["spans_file"] = spans_path.name
        record["sweep_wall_s"] = [s.wall_s for s in untraced]
        record["traced_sweep_wall_s"] = [s.wall_s for s, _, _ in traced]
    else:
        timed = sweeps_for(config, workers, seconds, minimum=3)
        rate, cpu_ms = throughput(timed, n_points * config.trials)
        values = {
            "trial_points_per_s": rate,
            "cpu_ms_per_trial_point": cpu_ms,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup),
        }
        metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
        checked = timed
        record["sweep_wall_s"] = [s.wall_s for s in timed]
        record["sweep_cpu_s"] = [s.cpu_s for s in timed]
        record["setup_samples_s"] = setup

    attempted = n_points * (1 + len(checked))
    failed = len(bad)
    for sweep in checked:
        rows = sweep.stats.rows
        drift = {
            i for i, key in enumerate(expected_keys) if i >= len(rows) or row_key(rows[i]) != key
        }
        failed += len(bad | drift)
    record.update(
        attempted=attempted,
        failed=failed,
        failed_point_frac=failed / attempted,
        reference_check=(
            "unchecked" if reference is None else ("failed" if reference_bad else "passed")
        ),
        cross_path_check="failed" if cross_bad else "passed",
        problems=problems,
        correct=failed == 0 and not problems,
        metrics=metrics,
    )
    return record
