"""Tests of the benchmark's own code: output checks, metric names and the trace.

Run from the root of a checkout: ``python3 -m pytest benchmarks/tests``.
"""

import json
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checkout import ROOT, use_checkout_sources  # noqa: E402

use_checkout_sources()

import layertrace  # noqa: E402
import measure  # noqa: E402
from layertrace import LAYERS, POINT_SPAN, Tracer, installed_wrappers, layer_times  # noqa: E402
from rissim import figure_presets, run_experiment  # noqa: E402
from workloads import Workload  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:Tx is inside the Fraunhofer distance")

# fig4 at 2 trials: far-field, near-field and no-RIS points, N up to 4096.
TINY = Workload("tiny", "fig4", trials=2, workers=1, cross_check_points=(0, 4, 5))


def tiny_config():
    return TINY.config(5)


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(measure.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(measure, "setup_times", lambda workload, seed: [0.1])


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestOutputCheck:
    def test_reference_of_the_same_run_passes(self):
        stats = run_experiment(tiny_config())
        reference = json.loads(json.dumps(measure.reference_record("tiny", 5, stats)))
        assert measure.failed_points(stats, reference) == set()

    def test_one_perturbed_point_counts_as_failed(self):
        stats = run_experiment(tiny_config())
        reference = json.loads(json.dumps(measure.reference_record("tiny", 5, stats)))
        reference["points"][2]["mean_rate_bps_hz"] *= 1.0 + 1e-8
        assert measure.failed_points(stats, reference) == {2}

    def test_difference_within_tolerance_passes(self):
        stats = run_experiment(tiny_config())
        reference = json.loads(json.dumps(measure.reference_record("tiny", 5, stats)))
        reference["points"][2]["mean_snr_db"] *= 1.0 + 1e-11
        assert measure.failed_points(stats, reference) == set()

    def test_reference_of_another_trial_count_fails_every_point(self):
        stats = run_experiment(tiny_config())
        longer = run_experiment(replace(tiny_config(), trials=3))
        reference = measure.reference_record("tiny", 5, longer)
        assert measure.failed_points(stats, reference) == {r.index for r in stats.rows}

    def test_error_point_counts_as_failed_without_reference(self):
        # Rx behind the panel: the near-field point carries an error.
        config = replace(tiny_config(), rx=replace(tiny_config().rx, y=60.0))
        stats = run_experiment(config)
        assert stats.rows[4].error is not None
        assert 4 in measure.failed_points(stats)

    def test_cross_path_check_passes_on_untouched_output(self):
        config = tiny_config()
        stats = run_experiment(config)
        assert measure.cross_path_failures(config, stats, TINY.cross_check_points) == set()

    def test_cross_path_check_catches_a_changed_mean(self):
        config = tiny_config()
        stats = run_experiment(config)
        row = stats.rows[0]
        stats.rows[0] = replace(row, mean_rate_bps_hz=row.mean_rate_bps_hz + 1e-6)
        assert measure.cross_path_failures(config, stats, (0, 5)) == {0}


class TestRun:
    def test_untraced_run_leaves_no_wrapper_installed(self, tiny_workload, tmp_path):
        record = measure.run("tiny", 5, 0.0, False, tmp_path)
        assert record["correct"]
        assert record["reference_check"] == "unchecked"
        assert installed_wrappers() == []

    def test_traced_run_removes_its_wrappers(self, tiny_workload, tmp_path):
        record = measure.run("tiny", 5, 0.0, True, tmp_path)
        assert record["correct"], record["problems"]
        assert installed_wrappers() == []

    def test_metric_names_and_units_match_benchmark_json(self, tiny_workload, tmp_path):
        spec = benchmark_spec()
        untraced = measure.run("tiny", 5, 0.0, False, tmp_path)["metrics"]
        traced = measure.run("tiny", 5, 0.0, True, tmp_path)["metrics"]
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
            name: unit for name, (_, unit) in untraced.items()
        }
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
            name: unit for name, (_, unit) in traced.items()
        }
        assert {w["name"] for w in spec["workloads"]} == set(measure.WORKLOADS) - {"tiny"}


class TestTrace:
    def test_wrappers_installed_only_inside_the_block(self, tmp_path):
        with Tracer(tmp_path):
            assert len(installed_wrappers()) == len(layertrace.TRACED)
        assert installed_wrappers() == []

    def test_self_times_sum_to_at_most_traced_wall(self, tmp_path):
        with Tracer(tmp_path) as tracer:
            start = time.perf_counter_ns()
            run_experiment(tiny_config(), workers=1)
            wall_ns = time.perf_counter_ns() - start
            spans, _ = tracer.take()
        times = layer_times(spans)
        assert sum(times[name][1] for name in LAYERS) <= wall_ns
        assert all(times[name][1] >= 0 for name in times)

    def test_tracing_does_not_change_results_and_counts_repeat(self, tmp_path):
        config = tiny_config()
        untraced = [measure.row_key(r) for r in run_experiment(config).rows]
        runs = []
        with Tracer(tmp_path) as tracer:
            for _ in range(2):
                stats = run_experiment(config)
                spans, counters = tracer.take()
                assert [measure.row_key(r) for r in stats.rows] == untraced
                calls = {name: entry[0] for name, entry in layer_times(spans).items()}
                runs.append((calls, counters))
        assert runs[0] == runs[1]
        assert runs[0][0]["channel.tx_ris_channel"] == 5 * config.trials
        assert 0 < runs[0][1]["rays_surviving"] <= runs[0][1]["rays_in"]

    def test_worker_spans_reach_the_trace(self, tmp_path):
        config = tiny_config()
        with Tracer(tmp_path) as tracer:
            start = time.perf_counter_ns()
            stats = run_experiment(config, workers=2)
            wall_ns = time.perf_counter_ns() - start
            spans, counters = tracer.take()
        pids = {span[7] for span in spans}
        assert pids and os.getpid() not in pids
        points = sorted(span[5] for span in spans if span[0] == POINT_SPAN)
        assert points == [row.index for row in stats.rows]
        trials = {(span[5], span[6]) for span in spans if span[0] == "experiment.trial_rngs"}
        assert len(trials) == len(stats.rows) * config.trials
        for pid in pids:
            times = layer_times([s for s in spans if s[7] == pid])
            assert sum(times[name][1] for name in LAYERS) <= wall_ns
        assert counters["rays_in"] > 0
        assert list(tmp_path.glob("spool-*")) == []

    def test_wrapped_sweep_point_still_pickles_for_the_pool(self, tmp_path):
        from rissim import experiment

        with Tracer(tmp_path):
            assert pickle.loads(pickle.dumps(experiment._run_sweep_point)) is (
                experiment._run_sweep_point
            )


def test_workload_configs_come_from_the_presets():
    presets = figure_presets()
    for workload in measure.WORKLOADS.values():
        preset = presets[workload.preset]
        config = workload.config(11)
        assert config.master_seed == 11
        restored = replace(config, trials=2000, master_seed=2024, n_elements=preset.n_elements)
        assert restored == preset
