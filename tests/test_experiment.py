import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_paths
from conftest import make_scenario
from rissim import channel, experiment
from rissim.array_response import ElementPattern
from rissim.channel import FieldRegime, _LinkChunk, _panel_link
from rissim.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    RateStats,
    SweepPoint,
    SweepResult,
    _PointChannels,
    _run_sweep_point,
    _set_blas_threads,
    _trial_rngs,
    figure_presets,
    generate_realization,
    run_experiment,
)
from rissim.geometry import CarrierConfig, PanelGeometry, Point3
from rissim.largescale import Environment
from rissim.link import LinkBudget, evaluate_link


def small_config(**kwargs):
    defaults = dict(
        name="unit",
        environment=Environment.INH,
        f_c_ghz=2.4,
        tx=Point3(0, 25, 3),
        rx=Point3(40, 48, 1.5),
        ris_center=Point3(38, 50, 3),
        n_elements=(16,),
        boresight="-y",
        trials=8,
        master_seed=99,
        regime_override=FieldRegime.NEAR_FIELD,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_round_trip_through_dict(self):
        config = figure_presets()["fig4"]
        rebuilt = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    @pytest.mark.parametrize(
        "config",
        [
            *figure_presets().values(),
            small_config(
                n_elements=(0, 16, 64),
                ris_x_sweep=(36.0, 38.5),
                ris_y_sweep=(50.0,),
                ris_z_sweep=(2.0, 3.0),
                spacing_m=0.07,
                regime_override=FieldRegime.FAR_FIELD,
                no_ris_baseline_extra_db=0.0,
                steering_convention="textbook",
            ),
        ],
        ids=lambda config: config.name,
    )
    def test_every_field_round_trips_through_json(self, config):
        raw = json.loads(json.dumps(config.to_dict()))
        assert set(raw) == {f.name for f in fields(ExperimentConfig)}
        assert ExperimentConfig.from_dict(raw) == config

    def test_from_dict_fills_absent_keys_with_the_defaults(self):
        raw = {
            "name": "unit", "environment": "InH", "f_c_ghz": 2.4, "tx": [0, 25, 3],
            "rx": [40, 48, 1.5], "ris_center": [38, 50, 3], "ris_z_sweep": [],
        }
        expected = ExperimentConfig(
            "unit", Environment.INH, 2.4, Point3(0, 25, 3), Point3(40, 48, 1.5), Point3(38, 50, 3)
        )
        assert ExperimentConfig.from_dict(raw) == expected
        del raw["rx"], raw["tx"]
        with pytest.raises(ValueError, match="missing config keys: tx, rx"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ValueError, match="a config is a JSON object, got list"):
            ExperimentConfig.from_dict(list(raw))

    def test_sweep_point_enumeration_order(self):
        config = small_config(
            n_elements=(4, 16), ris_z_sweep=(2.0, 3.0), no_ris_baseline_extra_db=10.0
        )
        points = config.sweep_points()
        assert len(points) == 5
        assert points[0] == SweepPoint(38, 50, 2.0, 4, 20.0)
        assert points[1] == SweepPoint(38, 50, 2.0, 16, 20.0)
        assert points[-1] == SweepPoint(38, 50, 3.0, 0, 30.0)

    def test_rejects_empty_sweeps(self):
        with pytest.raises(ValueError):
            small_config(n_elements=())
        with pytest.raises(ValueError):
            small_config(ris_x_sweep=())
        with pytest.raises(ValueError):
            small_config(trials=0)

    def test_rejects_unknown_keys(self):
        raw = small_config().to_dict()
        raw["trails"] = 5
        raw["seed"] = 1
        with pytest.raises(ValueError, match="unknown config keys: seed, trails"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("f_c_ghz", 0.0),
            ("f_c_ghz", float("nan")),
            ("element_pattern_q", -0.5),
            ("spacing_m", 0.0),
            ("boresight", "+x"),
            ("steering_convention", "mirrored"),
            ("n_elements", (64, 15)),
            ("n_elements", (-4,)),
            ("master_seed", -1),
        ],
    )
    def test_rejects_bad_values_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            small_config(**{key: value})

    def test_accepts_the_no_ris_entry(self):
        assert small_config(n_elements=(0, 1, 64)).n_elements == (0, 1, 64)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_elements", 64),
            ("ris_z_sweep", 5),
            ("tx", 5),
            ("tx", [1.0, 2.0]),
            ("f_c_ghz", [2.4]),
            ("trials", [5]),
            ("tx", [0, 25, "a"]),
            ("rx", [0.0, math.inf, 1.5]),
            ("n_elements", [64, "x"]),
            ("p_t_dbm", None),
            ("environment", "Mars"),
        ],
    )
    def test_from_dict_rejects_a_scalar_for_a_list(self, key, value):
        raw = small_config().to_dict()
        raw[key] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p_t_dbm", math.nan),
            ("n_0_dbm", -math.inf),
            ("f_c_ghz", math.inf),
            ("spacing_m", math.inf),
            ("element_pattern_q", math.inf),
            ("no_ris_baseline_extra_db", math.nan),
            ("ris_x_sweep", (38.0, math.inf)),
            ("ris_z_sweep", (math.nan,)),
        ],
    )
    def test_rejects_non_finite_numbers_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_config(**{key: value})
        raw = json.loads(json.dumps({**small_config().to_dict(), key: value}))
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [("n_elements", [16.7]), ("trials", 2.9), ("master_seed", 1.5), ("trials", math.inf)],
    )
    def test_from_dict_rejects_a_fraction_for_an_integer(self, key, value):
        raw = {**small_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"{key}: .* is not a whole number"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_accepts_whole_floats_for_integers(self):
        raw = {**small_config().to_dict(), "trials": 2000.0, "n_elements": [16.0, 64]}
        config = ExperimentConfig.from_dict(raw)
        assert config.trials == 2000 and type(config.trials) is int
        assert config.n_elements == (16, 64)
        assert all(type(n) is int for n in config.n_elements)

    def test_default_spacing_is_half_wavelength(self):
        config = small_config()
        assert config.spacing() == pytest.approx(0.1249167 / 2, abs=1e-6)
        assert small_config(spacing_m=0.07).spacing() == 0.07


class TestRunExperiment:
    def test_same_seed_identical_results(self):
        config = small_config()
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.to_csv_text() == b.to_csv_text()

    def test_different_seed_differs(self):
        a = run_experiment(small_config())
        b = run_experiment(replace(small_config(), master_seed=100))
        assert a.to_csv_text() != b.to_csv_text()

    def test_parallel_matches_serial(self):
        config = small_config(ris_z_sweep=(2.0, 3.0), trials=6)
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_no_ris_point_equals_direct_only_rate(self):
        config = small_config(n_elements=(0,), trials=20)
        stats = run_experiment(config)
        budget = LinkBudget.from_dbm(config.p_t_dbm, config.n_0_dbm)
        empty = np.zeros(0, dtype=complex)
        rates = []
        for t in range(config.trials):
            realization = generate_realization(config, config.sweep_points()[0], 0, t)
            rates.append(
                evaluate_link(empty, empty, realization.h_siso, budget).rate_bps_hz
            )
        assert stats.rows[0].mean_rate_bps_hz == pytest.approx(np.mean(rates))
        assert math.isnan(stats.rows[0].los_fraction_txris)

    def test_forced_los_fraction_is_one_when_panel_at_tx_height(self):
        stats = run_experiment(small_config(trials=12))
        assert stats.rows[0].los_fraction_txris == 1.0

    def test_rate_monotone_in_transmit_power(self):
        lo = run_experiment(small_config(p_t_dbm=10.0))
        hi = run_experiment(small_config(p_t_dbm=20.0))
        assert hi.rows[0].mean_rate_bps_hz > lo.rows[0].mean_rate_bps_hz

    def test_geometry_error_recorded_and_run_continues(self):
        # Second sweep height pushes the Rx behind the panel for near field.
        config = small_config(
            ris_y_sweep=(50.0, 40.0), trials=4, regime_override=FieldRegime.NEAR_FIELD
        )
        stats = run_experiment(config)
        assert stats.rows[0].error is None
        assert stats.rows[1].error is not None
        assert math.isnan(stats.rows[1].mean_rate_bps_hz)
        assert "behind" in stats.rows[1].error

    def test_higher_n_gives_higher_rate(self):
        config = small_config(n_elements=(16, 256), trials=60)
        stats = run_experiment(config)
        assert stats.rows[1].mean_rate_bps_hz > stats.rows[0].mean_rate_bps_hz

    @pytest.mark.parametrize("seed", [0, 7, 2024, 2**40 + 3])
    def test_trial_rngs_match_spawned_children(self, seed):
        for index in (0, 1, 329):
            for trial in (0, 1, 1999):
                direct = _trial_rngs(seed, index, trial)
                spawned = reference_paths.trial_rngs(seed, index, trial)
                for a, b in zip(direct, spawned, strict=True):
                    assert a.bit_generator.state == b.bit_generator.state

    def test_trial_rng_streams_are_independent_of_order(self):
        a = _trial_rngs(5, 3, 7)[0].standard_normal(4)
        _ = _trial_rngs(5, 0, 0)[0].standard_normal(4)
        b = _trial_rngs(5, 3, 7)[0].standard_normal(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [2**32, 2**70 + 5, 2**128 + 3, 2**200 + 11])
    @pytest.mark.parametrize("index, trial", [(2**32, 0), (5, 2**40), (2**64 + 1, 2**33 + 7)])
    def test_trial_rngs_match_seed_sequence_for_multiword_seeds_and_keys(
        self, seed, index, trial
    ):
        for k, generator in enumerate(_trial_rngs(seed, index, trial)):
            key = np.random.SeedSequence(seed, spawn_key=(index, trial, k))
            expected = np.random.Generator(np.random.PCG64(key))
            assert generator.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("args", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_trial_rngs_reject_negative_seeds_and_keys(self, args):
        with pytest.raises(ValueError, match=">= 0"):
            _trial_rngs(*args)

    def test_import_leaves_numpy_random_unloaded(self):
        package_root = os.path.dirname(os.path.dirname(experiment.__file__))
        code = "import sys, rissim; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": package_root}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "preset, index, rate, snr_db",
        [
            # Near field (InH, N=64), far field (UMi, N=1024), no-RIS baseline.
            ("fig3a", 0, 27.624931809837275, 86.5105095666705),
            ("fig5a", 0, 19.439724245256034, 63.958306766380176),
            ("fig4", 5, 29.21311063142936, 88.16935039415807),
        ],
    )
    def test_golden_values_pin_stream_contract(self, preset, index, rate, snr_db):
        config = replace(figure_presets()[preset], trials=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            row = _run_sweep_point(config, index, config.sweep_points()[index])
        assert row.mean_rate_bps_hz == pytest.approx(rate, rel=1e-12)
        assert row.mean_snr_db == pytest.approx(snr_db, rel=1e-12)


class TestFastPathMatchesReference:
    """The chunked engine against the per-trial reference path of ``reference_paths``."""

    @staticmethod
    def reference(config, index, point):
        """Per-trial (snr, h, g, tx_ris LOS, tx_rx LOS) of the reference path."""
        out = []
        for t in range(config.trials):
            h, g, h_siso, los_h, los_siso = reference_paths.trial_channels(config, index, point, t)
            snr = reference_paths.trial_snr(h, g, h_siso, point.p_t_dbm, config.n_0_dbm)
            out.append((snr, h, g, los_h, los_siso))
        return out

    @staticmethod
    def engine(channels, point, config, bounds):
        """Per-trial SNR, tx_ris LOS and tx_rx LOS of the engine over chunks [a, b).

        The fourth value says whether a chunk held both LOS and NLOS Tx-RIS trials.
        """
        budget = LinkBudget.from_dbm(point.p_t_dbm, config.n_0_dbm)
        snrs, los_h, los_siso, mixed = [], [], [], False
        for start, stop in zip(bounds[:-1], bounds[1:]):
            chunk = channels.chunk(range(start, stop))
            snrs.extend(evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget).snr_linear)
            link_h = chunk.links["tx_ris"]
            if link_h is not None:
                los_h.extend(link_h.los)
                mixed = mixed or 0 < link_h.los.sum() < link_h.los.size
            los_siso.extend(chunk.links["tx_rx"].los)
        return np.array(snrs), los_h, los_siso, mixed

    @pytest.mark.parametrize(
        "preset, indices",
        [
            ("fig5a", (0, 164, 329)),
            # N=16 (far field), N=4096 (near field) and the no-RIS point.
            ("fig4", (0, 4, 5)),
            ("fig3a", (0, 5)),
            ("fig5b", (0, 29)),
        ],
    )
    def test_per_trial_snr(self, preset, indices):
        config = replace(figure_presets()[preset], trials=12)
        points = config.sweep_points()
        saw_mixed_chunk = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in indices:
                reference = self.reference(config, i, points[i])
                channels = _PointChannels(config, i).place(points[i])
                step = channels.chunk_trials
                bounds = list(range(0, config.trials, step)) + [config.trials]
                snrs, los_h, los_siso, mixed = self.engine(channels, points[i], config, bounds)
                saw_mixed_chunk = saw_mixed_chunk or mixed
                for t, (ref_snr, ref_h, ref_g, ref_los_h, ref_los_siso) in enumerate(reference):
                    assert snrs[t] == pytest.approx(ref_snr, rel=1e-10)
                    assert los_siso[t] == ref_los_siso
                    assert (los_h[t] if los_h else None) == ref_los_h
                    real = channels.trial(t)
                    assert real.metadata["tx_rx"].state.los == ref_los_siso
                    for vector, ref_vector in ((real.h, ref_h), (real.g, ref_g)):
                        scale = np.abs(ref_vector).max(initial=0.0)
                        np.testing.assert_allclose(
                            vector, ref_vector, rtol=0.0, atol=1e-10 * scale
                        )
        if preset == "fig5a":
            # The Tx-RIS link is drawn LOS or NLOS, so chunks hold both.
            assert saw_mixed_chunk

    def test_fully_shadowed_trials_in_a_chunk(self):
        # A grazing Tx with the widest azimuth spread drops every ray of some draws.
        panel = PanelGeometry.centered(Point3(0, 0, 3.0), 16, 0.05, "+y")
        tx, carrier = Point3(49, 10, 4.0), CarrierConfig(2.4)
        params = make_scenario(k_db=3.0, lg_asa=np.log10(104.0))
        overrides = {True: params, False: params}
        link = _panel_link(
            "tx_ris", Environment.INH, tx, panel, carrier, ElementPattern(), "reference",
            overrides,
        )
        seeds = range(40)
        chunk = _LinkChunk.generate(link, [link.draw(np.random.default_rng(s)) for s in seeds])
        shadowed = []
        for i, seed in enumerate(seeds):
            ref_h, ref_state, ref_clusters = reference_paths.tx_ris_channel(
                Environment.INH, tx, panel, carrier, np.random.default_rng(seed),
                scenario_overrides=overrides,
            )
            meta = chunk.metadata(i)
            assert meta.state == ref_state
            assert meta.fully_shadowed == (not ref_clusters.ray_mask.any())
            np.testing.assert_array_equal(meta.cluster_set.ray_mask, ref_clusters.ray_mask)
            scale = np.abs(ref_h).max(initial=0.0)
            np.testing.assert_allclose(chunk.values[i], ref_h, rtol=0.0, atol=1e-10 * scale)
            shadowed.append(meta.fully_shadowed)
        assert any(shadowed) and not all(shadowed)
        assert not np.any(chunk.values[shadowed])

    @pytest.mark.parametrize("preset, index", [("fig5a", 0), ("fig3a", 0), ("fig4", 0)])
    def test_chunk_boundaries_do_not_change_trials(self, preset, index):
        config = replace(figure_presets()[preset], trials=14)
        point = config.sweep_points()[index]
        channels = _PointChannels(config, index).place(point)
        results = []
        for bounds in (
            list(range(15)),
            [0, 3, 6, 9, 12, 14],
            list(range(0, 14, channels.chunk_trials)) + [14],
            [0, 5, 6, 14],
        ):
            results.append(self.engine(channels, point, config, bounds)[:3])
        snrs, los_h, los_siso = results[0]
        for other_snrs, other_los_h, other_los_siso in results[1:]:
            np.testing.assert_allclose(other_snrs, snrs, rtol=1e-12, atol=0.0)
            assert other_los_h == los_h
            assert other_los_siso == los_siso

    @given(
        env=st.sampled_from(list(Environment)),
        side=st.sampled_from([1, 2, 3, 8, 16]),
        regime=st.sampled_from([None, FieldRegime.FAR_FIELD, FieldRegime.NEAR_FIELD]),
        ris=st.tuples(st.floats(10.0, 90.0), st.floats(50.5, 70.0), st.floats(1.0, 12.0)),
        rx=st.tuples(st.floats(10.0, 90.0), st.floats(0.0, 50.0), st.floats(0.5, 12.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_placements_match_reference(self, env, side, regime, ris, rx, seed):
        config = ExperimentConfig(
            name="random",
            environment=env,
            f_c_ghz=3.5,
            tx=Point3(0.0, 20.0, 10.0),
            rx=Point3(*rx),
            ris_center=Point3(*ris),
            n_elements=(side * side,),
            boresight="-y",
            trials=3,
            master_seed=seed,
            regime_override=regime,
        )
        point = config.sweep_points()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = self.reference(config, 0, point)
            channels = _PointChannels(config, 0).place(point)
            snrs, los_h, los_siso, _ = self.engine(channels, point, config, [0, 3])
        for t, (ref_snr, _, _, ref_los_h, ref_los_siso) in enumerate(reference):
            assert snrs[t] == pytest.approx(ref_snr, rel=1e-10)
            assert (los_h[t], los_siso[t]) == (ref_los_h, ref_los_siso)


class TestChunkWorkingSet:
    @staticmethod
    def place(preset, n_elements, trials=64):
        config = replace(figure_presets()[preset], trials=trials, n_elements=(n_elements,))
        point = config.sweep_points()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _PointChannels(config, 0).place(point), point

    @pytest.mark.parametrize("preset, n_elements", [("fig5a", 1024), ("fig3a", 64)])
    def test_one_trial_per_tile_gives_identical_assembly(
        self, monkeypatch, preset, n_elements
    ):
        channels, _ = self.place(preset, n_elements)
        trials = range(3, 3 + channels.chunk_trials)
        assert len(trials) > 1
        tiled = channels.chunk(trials)
        monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
        one_per_tile = channels.chunk(trials)
        np.testing.assert_array_equal(one_per_tile.h, tiled.h)
        np.testing.assert_array_equal(one_per_tile.g, tiled.g)

    @pytest.mark.parametrize(
        "preset, n_elements",
        # InH and UMi far field (two panel links) at N=64, UMi near and far field at N=4096.
        [("fig3a", 64), ("fig5a", 64), ("fig4", 4096), ("fig5a", 4096)],
    )
    def test_chunk_peak_memory_within_twice_the_budget(self, preset, n_elements):
        channels, point = self.place(preset, n_elements)
        budget = LinkBudget.from_dbm(point.p_t_dbm, channels.config.n_0_dbm)
        size = channels.chunk_trials
        channels.chunk(range(size))  # Fill lazy caches before measuring.
        tracemalloc.start()
        try:
            chunk = channels.chunk(range(size, 2 * size))
            evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * channel._CHUNK_BYTES


_unchecked_trial_rngs = experiment._trial_rngs


def trial_rngs_failing_at_point_1(master_seed, sweep_index, trial):
    if sweep_index == 1 and trial == 2:
        raise RuntimeError("trial failed")
    return _unchecked_trial_rngs(master_seed, sweep_index, trial)


def trial_rngs_interrupted(master_seed, sweep_index, trial):
    raise KeyboardInterrupt


class TestFailureScope:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_in_a_trial_becomes_that_points_error_row(self, monkeypatch, workers):
        monkeypatch.setattr(experiment, "_trial_rngs", trial_rngs_failing_at_point_1)
        config = small_config(ris_z_sweep=(2.0, 3.0, 2.5), trials=4)
        stats = run_experiment(config, workers=workers)
        assert [row.index for row in stats.rows] == [0, 1, 2]
        assert stats.rows[1].error == "RuntimeError: trial failed"
        assert math.isnan(stats.rows[1].mean_rate_bps_hz)
        for row in (stats.rows[0], stats.rows[2]):
            assert row.error is None
            assert math.isfinite(row.mean_rate_bps_hz) and row.trials == 4

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        monkeypatch.setattr(experiment, "_trial_rngs", trial_rngs_interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_config(trials=2))


_unchecked_run_sweep_point = experiment._run_sweep_point


def sweep_point_on_one_blas_thread(config, index, point):
    """``_run_sweep_point`` that fails unless OpenBLAS runs one thread."""
    get, _ = experiment._openblas_thread_funcs()
    if get() != 1:
        raise AssertionError(f"sweep point ran with {get()} BLAS threads")
    return _unchecked_run_sweep_point(config, index, point)


def failing_sweep_point(config, index, point):
    raise RuntimeError("sweep point failed")


@pytest.mark.skipif(
    experiment._openblas_thread_funcs() is None, reason="no OpenBLAS thread control found"
)
class TestBlasThreads:
    @pytest.fixture
    def two_threads(self):
        """OpenBLAS at two threads for one test; the returned getter reads the count."""
        get, set_ = experiment._openblas_thread_funcs()
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_thread_per_sweep_point_then_restored(self, monkeypatch, two_threads, workers):
        monkeypatch.setattr(experiment, "_run_sweep_point", sweep_point_on_one_blas_thread)
        stats = run_experiment(small_config(ris_z_sweep=(2.0, 3.0), trials=2), workers=workers)
        assert [row.error for row in stats.rows] == [None, None]
        assert two_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_a_sweep_point_raises(self, monkeypatch, two_threads, workers):
        monkeypatch.setattr(experiment, "_run_sweep_point", failing_sweep_point)
        with pytest.raises(RuntimeError, match="sweep point failed"):
            run_experiment(small_config(ris_z_sweep=(2.0, 3.0)), workers=workers)
        assert two_threads() == 2

    def test_initializer_covers_spawned_workers(self):
        with ProcessPoolExecutor(
            1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_set_blas_threads,
            initargs=(1,),
        ) as pool:
            # Returns the count the worker had before this call.
            assert pool.submit(_set_blas_threads, 1).result(timeout=60) == 1


class TestOutputs:
    def test_csv_schema(self):
        stats = run_experiment(small_config(trials=3))
        lines = stats.to_csv_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        assert row[0] == "unit"
        assert row[-3] == "near_field"
        assert row[-2] == "3"
        assert row[-1] == "99"

    def test_csv_floats_nine_significant_digits(self):
        stats = run_experiment(small_config(trials=3))
        row = stats.to_csv_text().strip().split("\n")[1]
        mean_rate = row.split(",")[6]
        assert re.fullmatch(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", mean_rate)
        assert len(mean_rate.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_json_structure(self):
        stats = run_experiment(small_config(trials=3))
        payload = json.loads(stats.to_json_text())
        assert payload["preset"] == "unit"
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["n_elements"] == 16
        assert row["error"] is None
        assert isinstance(row["mean_rate_bps_hz"], float)

    def test_csv_quotes_a_name_with_separators(self):
        name = 'a,b "c"\nd'
        row = SweepResult(0, SweepPoint(38, 50, 3, 16, 20.0), 1.0, 0.5, 30.0, 1.0, 0.0,
                          "near_field", 2, 99)
        records = list(csv.reader(io.StringIO(RateStats(name, [row]).to_csv_text())))
        assert [len(record) for record in records] == [len(CSV_COLUMNS)] * 2
        assert records[1][0] == name and records[1][-1] == "99"

    def test_json_writes_infinities_as_null(self):
        nan, inf = float("nan"), float("inf")
        row = SweepResult(
            0, SweepPoint(38, 50, 3, 16, 20.0), 0.0, inf, -inf, nan, 0.0, "near_field", 2, 99
        )

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(RateStats("unit", [row]).to_json_text(), parse_constant=reject)
        record = payload["rows"][0]
        assert record["std_rate"] is None
        assert record["mean_snr_db"] is None
        assert record["los_fraction_txris"] is None
        assert record["mean_rate_bps_hz"] == 0.0

    def test_write_files(self, tmp_path):
        stats = run_experiment(small_config(trials=2))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        stats.write(csv_path, "csv")
        stats.write(json_path, "json")
        assert csv_path.read_text().startswith("preset,")
        assert json.loads(json_path.read_text())["preset"] == "unit"


class TestPresets:
    def test_five_presets_exist(self):
        presets = figure_presets()
        assert set(presets) == {"fig3a", "fig3b", "fig4", "fig5a", "fig5b"}

    def test_fig3a_coordinates(self):
        config = figure_presets()["fig3a"]
        assert (config.tx.x, config.tx.y, config.tx.z) == (0, 25, 3)
        assert (config.rx.x, config.rx.y, config.rx.z) == (40, 48, 1.5)
        assert (config.ris_center.x, config.ris_center.y) == (38, 50)
        assert config.ris_z_sweep == (2.0, 3.0)
        assert config.environment is Environment.INH
        assert config.regime_override is FieldRegime.NEAR_FIELD

    def test_fig3b_coordinates(self):
        config = figure_presets()["fig3b"]
        assert (config.rx.x, config.rx.y, config.rx.z) == (67, 45, 1.5)
        assert (config.ris_center.x, config.ris_center.y) == (70, 50)

    def test_fig4_setup(self):
        config = figure_presets()["fig4"]
        assert config.environment is Environment.UMI
        assert (config.tx.x, config.tx.y, config.tx.z) == (0, 25, 10)
        assert (config.rx.x, config.rx.y, config.rx.z) == (65, 52, 1)
        assert (config.ris_center.x, config.ris_center.y, config.ris_center.z) == (62, 55, 7)
        assert config.no_ris_baseline_extra_db == 10.0
        assert config.regime_override is None
        assert max(config.n_elements) == 4096

    def test_fig5_setup(self):
        a, b = figure_presets()["fig5a"], figure_presets()["fig5b"]
        for config in (a, b):
            assert config.f_c_ghz == 5.8
            assert config.n_elements == (1024,)
            assert (config.rx.x, config.rx.y, config.rx.z) == (100, 50, 1)
        assert a.regime_override is FieldRegime.FAR_FIELD
        assert b.regime_override is FieldRegime.NEAR_FIELD
        # Near-field grid reaches a 2 m panel/Rx separation in y.
        assert min(abs(y - 50.0) for y in b.ris_y_sweep) == 2.0
        assert any(abs(y - 50.0) == 4.0 for y in b.ris_y_sweep)

    def test_all_presets_use_common_budget(self):
        for config in figure_presets().values():
            assert config.n_0_dbm == -130.0
            assert config.p_t_dbm == 20.0
            assert config.trials == 2000

    def test_presets_run_clean_at_tiny_scale(self):
        # Every preset must produce valid rows (no geometry errors).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, config in figure_presets().items():
                thin = replace(
                    config,
                    trials=2,
                    n_elements=(min(config.n_elements),),
                    ris_x_sweep=config.ris_x_sweep[:2] if config.ris_x_sweep else None,
                    ris_y_sweep=config.ris_y_sweep[:2] if config.ris_y_sweep else None,
                )
                stats = run_experiment(thin)
                assert all(r.error is None for r in stats.rows), name
