import csv
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_paths
from conftest import make_scenario, with_tables
from rissim import channel, experiment
from rissim.channel import FieldRegime, _panel_link
from rissim.cli import main
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
                regime_override=FieldRegime.FAR_FIELD,
                no_ris_baseline_extra_db=0.0,
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
        # The element pattern, the steering convention, the panel's facing and
        # spacing and the noise power are model constants.
        for key, value in (
            ("element_pattern_q", 0.285),
            ("steering_convention", "reference"),
            ("boresight", "-y"),
            ("spacing_m", 0.0625),
            ("n_0_dbm", -130.0),
        ):
            with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
                ExperimentConfig.from_dict({**small_config().to_dict(), key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("f_c_ghz", 0.0),
            ("f_c_ghz", float("nan")),
            pytest.param("n_elements", (64, 15), id="n_elements-not_square"),
            pytest.param("n_elements", (-4,), id="n_elements-negative"),
            ("master_seed", -1),
            ("trials", 2**32 + 1),
        ],
    )
    def test_rejects_bad_values_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            small_config(**{key: value})

    def test_accepts_the_no_ris_entry(self):
        assert small_config(n_elements=(0, 1, 64)).n_elements == (0, 1, 64)

    def test_rejects_coincident_tx_and_rx(self):
        # The small config's Tx is at (0, 25, 3); no point of it could run.
        with pytest.raises(ValueError, match="^tx and rx coincide$"):
            small_config(rx=Point3(0.0, 25.0, 3.0))
        with pytest.raises(ValueError, match="^tx and rx coincide$"):
            ExperimentConfig.from_dict({**small_config().to_dict(), "rx": [0, 25, 3]})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_elements", 64),
            ("ris_z_sweep", 5),
            ("tx", 5),
            pytest.param("tx", [1.0, 2.0], id="tx-two_coordinates"),
            pytest.param("f_c_ghz", [2.4], id="f_c_ghz-list"),
            pytest.param("trials", [5], id="trials-list"),
            pytest.param("tx", [0, 25, "a"], id="tx-string_coordinate"),
            pytest.param("rx", [0.0, math.inf, 1.5], id="rx-infinite_coordinate"),
            pytest.param("n_elements", [64, "x"], id="n_elements-string_entry"),
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
            ("f_c_ghz", math.inf),
            ("no_ris_baseline_extra_db", math.nan),
            pytest.param("ris_x_sweep", (38.0, math.inf), id="ris_x_sweep-inf_entry"),
            pytest.param("ris_z_sweep", (math.nan,), id="ris_z_sweep-nan_entry"),
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
        [
            pytest.param("n_elements", [16.7], id="n_elements-fraction_entry"),
            ("trials", 2.9),
            ("master_seed", 1.5),
            ("trials", math.inf),
        ],
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", True),
            ("master_seed", False),
            pytest.param("n_elements", [True, 4], id="n_elements-boolean_entry"),
            ("f_c_ghz", "2.4"),
            ("trials", "20"),
            ("no_ris_baseline_extra_db", "10"),
            pytest.param("ris_x_sweep", [38.0, "40"], id="ris_x_sweep-string_entry"),
            pytest.param("tx", [0, 25, True], id="tx-boolean_coordinate"),
        ],
    )
    def test_from_dict_rejects_a_boolean_or_string_for_a_number(self, key, value):
        raw = {**figure_presets()["fig4"].to_dict(), key: value}
        with pytest.raises(ValueError, match=f"{key} must be a number, got "):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_accepts_an_integer_for_a_float(self):
        raw = {**figure_presets()["fig4"].to_dict(), "p_t_dbm": 20}
        config = ExperimentConfig.from_dict(raw)
        assert config.p_t_dbm == 20.0 and type(config.p_t_dbm) is float

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("name", [1, 2], id="name-list"),
            ("name", None),
        ],
    )
    def test_from_dict_rejects_a_non_string_for_a_string_key(self, key, value):
        raw = {**small_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"{key} must be a string, got "):
            ExperimentConfig.from_dict(raw)


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

    def test_pooled_points_match_serial_on_a_mixed_sweep(self, forced_pool):
        # No-RIS, far-field, near-field and error rows; every point after the
        # first runs in the pool.
        config = small_config(
            n_elements=(0, 16, 1024), ris_y_sweep=(50.0, 40.0), regime_override=None, trials=3
        )
        serial = run_experiment(config, workers=1)
        assert forced_pool == []
        pooled = run_experiment(config, workers=2)
        assert forced_pool == [2]
        assert pooled.to_csv_text().encode() == serial.to_csv_text().encode()
        assert [row.error for row in pooled.rows] == [row.error for row in serial.rows]
        assert {row.regime for row in pooled.rows[1:]} == {"none", "far_field", "near_field"}
        assert sum(row.error is not None for row in pooled.rows) == 2

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

    @pytest.mark.parametrize("seed", [0, 2**32, 2**70 + 5, 2**128 + 3, 2**200 + 11])
    def test_stream_words_of_several_points_match_seed_sequence_row_for_row(self, seed):
        # Rows of four sweep points in one call, keys at both ends of their range side by side.
        indices = [0, 0, 3, 3, 2**32 - 1, 2**32 - 1, 7]
        trials = [0, 2**32 - 1, 0, 5, 0, 2**32 - 1, 2**32 - 1]
        words = experiment._stream_words(seed, indices, trials)
        assert words.shape == (len(indices), 3, 4) and words.dtype == np.uint64
        for row, (index, trial) in enumerate(zip(indices, trials)):
            for k in range(3):
                key = np.random.SeedSequence(seed, spawn_key=(index, trial, k))
                np.testing.assert_array_equal(words[row, k], key.generate_state(4, np.uint64))

    def test_stream_words_of_a_row_do_not_depend_on_the_other_rows(self):
        indices = np.repeat([4, 5, 2**32 - 1], 3)
        trials = np.tile([0, 7, 2**32 - 1], 3)
        words = experiment._stream_words(9, indices, trials)
        for row in range(len(indices)):
            alone = experiment._stream_words(9, indices[row : row + 1], trials[row : row + 1])
            np.testing.assert_array_equal(alone[0], words[row])
        reversed_rows = experiment._stream_words(9, indices[::-1], trials[::-1])
        np.testing.assert_array_equal(reversed_rows[::-1], words)

    @pytest.mark.parametrize("key", [-1, 2**32])
    def test_stream_words_reject_keys_outside_one_word(self, key):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            experiment._stream_words(0, [key, 0], [0, 0])
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            experiment._stream_words(0, [0, 0], [0, key])

    @example(seed=0, index=0, trial=0)
    @example(seed=2**32 - 1, index=2**32 - 1, trial=2**32 - 1)
    @example(seed=2**32, index=0, trial=2**32 - 1)
    @example(seed=2**128 - 1, index=2**32 - 1, trial=0)
    @example(seed=2**128, index=0, trial=0)
    @example(seed=2**160 - 1, index=2**32 - 1, trial=2**32 - 1)
    @given(
        seed=st.integers(0, 2**256 - 1),
        index=st.integers(0, 2**32 - 1),
        trial=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_stream_words_match_seed_sequence_for_any_seed_and_one_word_keys(
        self, seed, index, trial
    ):
        # Seeds of 1, 2, 4 and 5 words among the examples; the row sits between others.
        words = experiment._stream_words(seed, [0, index, 1], [1, trial, 0])
        for k in range(3):
            key = np.random.SeedSequence(seed, spawn_key=(index, trial, k))
            np.testing.assert_array_equal(words[1, k], key.generate_state(4, np.uint64))

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

    def test_import_leaves_the_process_pool_unloaded(self):
        package_root = os.path.dirname(os.path.dirname(experiment.__file__))
        code = (
            "import sys, rissim, rissim.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": package_root}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

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
            chunk = experiment._chunk([(channels, range(start, stop))])
            snrs.extend(evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget).snr_linear)
            link_h = chunk.los["tx_ris"]
            if link_h is not None:
                los_h.extend(link_h)
                mixed = mixed or 0 < link_h.sum() < link_h.size
            los_siso.extend(chunk.los["tx_rx"])
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
                channels = _PointChannels(config, i, points[i]).connect()
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

    @pytest.mark.parametrize(
        "preset, index",
        [
            ("fig5a", 0), ("fig5a", 164), ("fig5a", 329),
            # N=16 (far field), N=4096 (near field) and the no-RIS point.
            ("fig4", 0), ("fig4", 4), ("fig4", 5),
            ("fig3a", 0), ("fig5b", 0),
        ],
    )
    def test_chunk_rows_equal_the_one_trial_path_bit_for_bit(self, preset, index):
        # A chunk maps each LOS state's trials together and scatters them back
        # to trial order; trial(t) maps every link of trial t alone.
        config = replace(figure_presets()[preset], trials=12)
        point = config.sweep_points()[index]
        saw_mixed_chunk = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            channels = _PointChannels(config, index, point).connect()
            for start in range(0, config.trials, channels.chunk_trials):
                trials = range(start, min(start + channels.chunk_trials, config.trials))
                chunk = experiment._chunk([(channels, trials)])
                states = {kind: los for kind, los in chunk.los.items() if los is not None}
                saw_mixed_chunk |= any(0 < los.sum() < los.size for los in states.values())
                for row, t in enumerate(trials):
                    real = channels.trial(t)
                    # Chunk rows hold the element magnitudes of the one-trial vectors.
                    np.testing.assert_array_equal(chunk.h[row], np.abs(real.h))
                    np.testing.assert_array_equal(chunk.g[row], np.abs(real.g))
                    np.testing.assert_array_equal(chunk.h_siso[row], real.h_siso)
                    for kind, los in states.items():
                        assert los[row] == real.metadata[kind].state.los
        assert saw_mixed_chunk

    def test_fully_shadowed_trials_in_a_chunk(self):
        # A grazing Tx with the widest azimuth spread drops every ray of some draws.
        panel = PanelGeometry.centered(Point3(0, 0, 3.0), 16, 0.05, "+y")
        tx, carrier = Point3(49, 10, 4.0), CarrierConfig(2.4)
        params = make_scenario(k_db=3.0, lg_asa=np.log10(104.0))
        overrides = {True: params, False: params}
        link = with_tables(
            _panel_link("tx_ris", Environment.INH, tx, panel, carrier),
            params,
        )
        seeds = range(40)
        _, values = link.generate([(link, np.random.default_rng(s)) for s in seeds])
        shadowed = []
        for i, seed in enumerate(seeds):
            ref_h, ref_state, ref_clusters = reference_paths.tx_ris_channel(
                Environment.INH, tx, panel, carrier, np.random.default_rng(seed),
                scenario_overrides=overrides,
            )
            value, meta = link.one_trial(np.random.default_rng(seed))
            assert meta.state == ref_state
            assert meta.fully_shadowed == (not ref_clusters.ray_mask.any())
            np.testing.assert_array_equal(meta.cluster_set.ray_mask, ref_clusters.ray_mask)
            scale = np.abs(ref_h).max(initial=0.0)
            np.testing.assert_allclose(values[i], np.abs(ref_h), rtol=0.0, atol=1e-10 * scale)
            np.testing.assert_allclose(value, ref_h, rtol=0.0, atol=1e-10 * scale)
            shadowed.append(meta.fully_shadowed)
        assert any(shadowed) and not all(shadowed)
        assert not np.any(values[shadowed])

    @pytest.mark.parametrize("preset, index", [("fig5a", 0), ("fig3a", 0), ("fig4", 0)])
    def test_chunk_boundaries_do_not_change_trials(self, preset, index):
        config = replace(figure_presets()[preset], trials=14)
        point = config.sweep_points()[index]
        channels = _PointChannels(config, index, point).connect()
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
            trials=3,
            master_seed=seed,
            regime_override=regime,
        )
        point = config.sweep_points()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = self.reference(config, 0, point)
            channels = _PointChannels(config, 0, point).connect()
            snrs, los_h, los_siso, _ = self.engine(channels, point, config, [0, 3])
        for t, (ref_snr, _, _, ref_los_h, ref_los_siso) in enumerate(reference):
            assert snrs[t] == pytest.approx(ref_snr, rel=1e-10)
            assert (los_h[t], los_siso[t]) == (ref_los_h, ref_los_siso)


def fig5a_row(trials, xs=None):
    """fig5a at the given trials, on the first y row (on ``xs`` when given)."""
    preset = figure_presets()["fig5a"]
    return replace(preset, trials=trials, ris_x_sweep=xs or preset.ris_x_sweep, ris_y_sweep=(52.0,))


class TestUnits:
    """Units: consecutive points that share one chunk."""

    @pytest.mark.parametrize(
        "config, sizes",
        [
            # Forty-eight trials fit a chunk at N=1024 in the far field.
            (replace(figure_presets()["fig5a"], trials=2), [24] * 13 + [18]),
            (replace(figure_presets()["fig5a"], trials=3), [16] * 20 + [10]),
            (replace(figure_presets()["fig5a"], trials=11), [4] * 82 + [2]),
            (replace(figure_presets()["fig5a"], trials=12), [4] * 82 + [2]),
            # Two points join only if 2 * trials <= 48: at most 24 trials each.
            (replace(figure_presets()["fig5a"], trials=24), [2] * 165),
            (replace(figure_presets()["fig5a"], trials=25), [1] * 330),
            # A near-field unit is as wide as a point's own chunk: 60 trials at
            # N=1024, so one unit holds all 30 fig5b points at one trial each.
            (replace(figure_presets()["fig5b"], trials=1), [30]),
            (replace(figure_presets()["fig5b"], trials=3), [20, 10]),
            # Every point differs in N, or is the no-RIS point at another power.
            (replace(figure_presets()["fig4"], trials=1), [1] * 6),
            # The regime switches from near to far field between y=50 and y=52.
            (small_config(n_elements=(64,), ris_y_sweep=(49.0, 50.0, 52.0, 53.0),
                          regime_override=None, trials=4), [2, 2]),
        ],
        ids=[
            "fig5a-2", "fig5a-3", "fig5a-11", "fig5a-12", "fig5a-24", "fig5a-25", "fig5b-1",
            "fig5b-3", "fig4-1", "regime-switch",
        ],
    )
    def test_units_join_runs_of_one_size_regime_and_power(self, config, sizes):
        units = experiment._units(config)
        assert [len(unit) for unit in units] == sizes
        located = [(c.sweep_index, c.point) for unit in units for c in unit]
        assert located == list(enumerate(config.sweep_points()))
        for unit in units:
            keys = {(c.point.n_elements, c.regime_name, c.point.p_t_dbm) for c in unit}
            assert len(keys) == 1
            assert len(unit) == 1 or len(unit) * config.trials <= unit[0].chunk_trials

    @pytest.mark.parametrize(
        "config",
        [
            # Far field: both panel links of every point in one pass.
            fig5a_row(2),
            # Near field: a different g for every point. fig5b at N=4096 makes
            # units of 16 and 14 points.
            replace(figure_presets()["fig3a"], trials=1, n_elements=(64,)),
            replace(figure_presets()["fig5b"], trials=1, n_elements=(4096,)),
        ],
        ids=["fig5a-2", "fig3a-1", "fig5b-1"],
    )
    def test_unit_chunk_rows_equal_each_points_trials_bit_for_bit(self, config):
        # fig3a's one unit has two trials per link, which may share a LOS state.
        must_mix = config.name != "fig3a"
        saw_mixed = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for unit in experiment._units(config)[:3]:
                assert len(unit) > 1
                placed = [channels.connect() for channels in unit]
                trials = range(config.trials)
                chunk = experiment._chunk([(channels, trials) for channels in placed])
                states = {kind: los for kind, los in chunk.los.items() if los is not None}
                saw_mixed |= any(0 < los.sum() < los.size for los in states.values())
                assert chunk.h.shape[0] == len(unit) * config.trials
                rows = ((channels, t) for channels in placed for t in trials)
                for row, (channels, t) in enumerate(rows):
                    real = channels.trial(t)
                    np.testing.assert_array_equal(chunk.h[row], np.abs(real.h))
                    np.testing.assert_array_equal(chunk.g[row], np.abs(real.g))
                    np.testing.assert_array_equal(chunk.h_siso[row], real.h_siso)
                    for kind, los in states.items():
                        assert los[row] == real.metadata[kind].state.los
        assert saw_mixed or not must_mix

    @pytest.mark.parametrize("preset, trials", [("fig5a", 2), ("fig3a", 1), ("fig4", 1)])
    def test_unit_rows_equal_points_run_alone(self, preset, trials):
        config = replace(figure_presets()[preset], trials=trials)
        if preset == "fig5a":
            config = fig5a_row(trials, xs=(40.0, 42.0, 44.0, 46.0, 48.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stats = run_experiment(config)
            alone = [_run_sweep_point(config, i, p) for i, p in enumerate(config.sweep_points())]
        assert [repr(row) for row in stats.rows] == [repr(row) for row in alone]

    def test_unit_statistics_equal_each_points_own_reductions(self):
        # One reduction over the trial axis of the unit's (points, trials)
        # arrays gives each point's numpy mean and std bit for bit.
        config = fig5a_row(3)
        unit = experiment._units(config)[1]
        assert len(unit) > 2
        rows = experiment._stats(config, [channels.connect() for channels in unit])
        budget = LinkBudget.from_dbm(config.p_t_dbm, config.n_0_dbm)
        trials = range(config.trials)
        for row, channels in zip(rows, unit):
            chunk = experiment._chunk([(channels, trials)])
            result = evaluate_link(chunk.h, chunk.g, chunk.h_siso, budget)
            mean_snr = float(np.mean(result.snr_linear))
            assert row.index == channels.sweep_index
            assert row.mean_rate_bps_hz == float(np.mean(result.rate_bps_hz))
            assert row.std_rate == float(np.std(result.rate_bps_hz, ddof=1))
            assert row.mean_snr_db == 10.0 * math.log10(mean_snr)
            assert row.los_fraction_txris == int(chunk.los["tx_ris"].sum()) / config.trials
            assert row.los_fraction_txrx == int(chunk.los["tx_rx"].sum()) / config.trials

    @pytest.mark.parametrize("n_elements, trials", [(1024, 1), (1024, 2), (4096, 1), (4096, 2)])
    def test_near_field_units_hold_the_trials_of_a_point_alone(self, n_elements, trials):
        # On a finer y grid than fig5b's the points outnumber a chunk's trials.
        config = replace(
            figure_presets()["fig5b"], trials=trials, n_elements=(n_elements,),
            ris_y_sweep=tuple(52.0 + 0.5 * i for i in range(17)),
        )
        unit = experiment._units(config)[0]
        alone = _PointChannels(config, 0, config.sweep_points()[0]).chunk_trials
        assert alone == channel._chunk_trials(config.environment, n_elements, FieldRegime.NEAR_FIELD)
        assert {c.regime for c in unit} == {FieldRegime.NEAR_FIELD}
        assert len(unit) == alone // trials

    def test_a_unit_is_freed_once_it_ran(self, monkeypatch):
        # A sweep holds the connected links of one unit at a time, not of every point.
        ran = []

        def recorded(config, unit):
            assert all(ref() is None for ref in ran)
            ran.extend(weakref.ref(channels) for channels in unit)
            return _unchecked_run_unit(config, unit)

        monkeypatch.setattr(experiment, "_run_unit", recorded)
        run_experiment(fig5a_row(10, xs=(40.0, 42.0, 44.0, 46.0, 48.0)))
        assert len(ran) == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_units_do_not_depend_on_workers(self, monkeypatch, inline_pool, workers):
        ran = []

        def recorded(config, unit, **kwargs):
            ran.append([channels.sweep_index for channels in unit])
            return _unchecked_run_unit(config, unit, **kwargs)

        monkeypatch.setattr(experiment, "_run_unit", recorded)
        # At twenty trials two points fit a chunk.
        config = fig5a_row(20, xs=(40.0, 42.0, 44.0, 46.0, 48.0))
        run_experiment(config, workers=workers)
        assert inline_pool == ([2] if workers == 2 else [])
        assert ran == [[0, 1], [2, 3], [4]]


class TestUnitFailureScope:
    """A unit of several points that raises is rerun point by point."""

    @staticmethod
    def config():
        # At twenty trials, units [0, 1], [2, 3], [4, 5]: the pool gets the last two.
        return fig5a_row(20, xs=(40.0, 42.0, 44.0, 46.0, 48.0, 50.0))

    def check(self, stats, expected):
        assert [row.index for row in stats.rows] == list(range(6))
        assert stats.rows[3].error == "RuntimeError: trial failed"
        assert math.isnan(stats.rows[3].mean_rate_bps_hz)
        for i in (0, 1, 2, 4, 5):
            assert repr(stats.rows[i]) == repr(expected.rows[i])

    def test_only_the_failing_point_of_a_unit_gets_an_error_row(self, monkeypatch):
        expected = run_experiment(self.config())
        monkeypatch.setattr(experiment, "_stream_words", stream_words_failing_at_point_3)
        self.check(run_experiment(self.config(), workers=1), expected)

    def test_a_pooled_unit_is_rerun_point_by_point(self, monkeypatch, forced_pool):
        expected = run_experiment(self.config())
        monkeypatch.setattr(experiment, "_stream_words", stream_words_failing_at_point_3)
        self.check(run_experiment(self.config(), workers=2), expected)
        assert forced_pool == [2]


class TestChunkWorkingSet:
    @staticmethod
    def place(preset, n_elements, trials=64):
        config = replace(figure_presets()[preset], trials=trials, n_elements=(n_elements,))
        point = config.sweep_points()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _PointChannels(config, 0, point).connect(), point

    @pytest.mark.parametrize("preset, n_elements", [("fig5a", 1024), ("fig3a", 64)])
    def test_one_trial_per_tile_gives_identical_assembly(
        self, monkeypatch, preset, n_elements
    ):
        channels, _ = self.place(preset, n_elements)
        trials = range(3, 3 + channels.chunk_trials)
        assert len(trials) > 1
        tiled = experiment._chunk([(channels, trials)])
        monkeypatch.setattr(channel, "_CHUNK_BYTES", 1)
        one_per_tile = experiment._chunk([(channels, trials)])
        np.testing.assert_array_equal(one_per_tile.h, tiled.h)
        np.testing.assert_array_equal(one_per_tile.g, tiled.g)

    @pytest.mark.parametrize(
        "preset, n_elements, floor",
        [("fig5a", 1024, 40), ("fig4", 4096, 14), ("fig3a", 64, 50)],
    )
    def test_chunks_are_at_least_as_wide_as_the_floor(self, preset, n_elements, floor):
        # UMi far field at N=1024, UMi near field at N=4096, InH near field at N=64.
        channels, _ = self.place(preset, n_elements)
        assert channels.chunk_trials >= floor

    def test_fig5a_units_at_two_trials_hold_ten_points_or_more(self):
        units = experiment._units(replace(figure_presets()["fig5a"], trials=2))
        assert min(len(unit) for unit in units) >= 18
        assert len(units) <= 15

    @pytest.mark.parametrize(
        "preset, n_elements, trials",
        [
            # InH and UMi far field (two panel links) at N=64, UMi near and far field at N=4096.
            ("fig3a", 64, 64), ("fig5a", 64, 64), ("fig4", 4096, 64), ("fig5a", 4096, 64),
            # The fig5a preset's own shape: UMi far field at N=1024.
            ("fig5a", 1024, 64),
            # Units at one trial per point: 48 fig5a points at N=1024, 96 panel
            # rows in one pass; fig5b points at N=1024 and 4096, each row with
            # a copy of its own point's near-field |g|.
            ("fig5a", 1024, 1), ("fig5b", 1024, 1), ("fig5b", 4096, 1),
        ],
        ids=[
            "fig3a-64", "fig5a-64", "fig4-4096", "fig5a-4096", "fig5a-1024-64",
            "fig5a-1024-unit", "fig5b-1024-unit", "fig5b-4096-unit",
        ],
    )
    def test_chunk_peak_memory_within_twice_the_budget(self, preset, n_elements, trials):
        config = replace(figure_presets()[preset], n_elements=(n_elements,), trials=trials)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = [channels.connect() for channels in experiment._units(config)[0]]
        # The first unit is one point whose trials fill several chunks, or several points.
        assert (len(unit) > 1) == (trials == 1)
        budget = LinkBudget.from_dbm(unit[0].point.p_t_dbm, config.n_0_dbm)
        size = min(trials, unit[0].chunk_trials)

        def chunk(first):
            return experiment._chunk([(c, range(first, first + size)) for c in unit])

        chunk(0)  # Fill lazy caches before measuring.
        tracemalloc.start()
        try:
            result = chunk(size)
            evaluate_link(result.h, result.g, result.h_siso, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * channel._CHUNK_BYTES


_unchecked_stream_words = experiment._stream_words


def stream_words_failing_at(point, trial):
    """A ``_stream_words`` that raises for any chunk holding (point, trial)."""

    def stream_words(master_seed, sweep_indices, trials):
        if any(i == point and t == trial for i, t in zip(sweep_indices, trials)):
            raise RuntimeError("trial failed")
        return _unchecked_stream_words(master_seed, sweep_indices, trials)

    return stream_words


stream_words_failing_at_point_1 = stream_words_failing_at(1, 2)
stream_words_failing_at_point_3 = stream_words_failing_at(3, 1)


def stream_words_interrupted(master_seed, sweep_indices, trials):
    raise KeyboardInterrupt


class TestFailureScope:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_in_a_trial_becomes_that_points_error_row(self, monkeypatch, workers):
        monkeypatch.setattr(experiment, "_stream_words", stream_words_failing_at_point_1)
        config = small_config(ris_z_sweep=(2.0, 3.0, 2.5), trials=4)
        stats = run_experiment(config, workers=workers)
        assert [row.index for row in stats.rows] == [0, 1, 2]
        assert stats.rows[1].error == "RuntimeError: trial failed"
        assert math.isnan(stats.rows[1].mean_rate_bps_hz)
        for row in (stats.rows[0], stats.rows[2]):
            assert row.error is None
            assert math.isfinite(row.mean_rate_bps_hz) and row.trials == 4

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        monkeypatch.setattr(experiment, "_stream_words", stream_words_interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(small_config(trials=2))

    def test_pooled_exception_becomes_that_points_error_row(self, monkeypatch, forced_pool):
        monkeypatch.setattr(experiment, "_stream_words", stream_words_failing_at_point_1)
        # At 40 trials every point is a unit of its own, so point 1 runs in a worker.
        config = small_config(ris_z_sweep=(2.0, 3.0, 2.5), trials=40)
        assert [len(unit) for unit in experiment._units(config)] == [1, 1, 1]
        stats = run_experiment(config, workers=2)
        assert forced_pool == [2]
        assert [row.index for row in stats.rows] == [0, 1, 2]
        assert stats.rows[1].error == "RuntimeError: trial failed"
        assert math.isnan(stats.rows[1].mean_rate_bps_hz)
        for row in (stats.rows[0], stats.rows[2]):
            assert row.error is None
            assert math.isfinite(row.mean_rate_bps_hz) and row.trials == 40

    def test_a_unit_that_fails_in_process_is_rerun_in_process(self, monkeypatch, forced_pool):
        # Even with a pool that always pays, the rerun starts none.
        config = small_config(ris_z_sweep=(2.0, 3.0, 2.5), trials=4)
        assert [len(unit) for unit in experiment._units(config)] == [3]
        expected = run_experiment(config)
        monkeypatch.setattr(experiment, "_stream_words", stream_words_failing_at_point_1)
        stats = run_experiment(config, workers=2)
        assert forced_pool == []
        assert [row.index for row in stats.rows] == [0, 1, 2]
        assert stats.rows[1].error == "RuntimeError: trial failed"
        assert math.isnan(stats.rows[1].mean_rate_bps_hz)
        for i in (0, 2):
            assert repr(stats.rows[i]) == repr(expected.rows[i])


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in for the process pool that runs its points in this process.

    Returns the list of the sizes of the pools started; starts no process.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "_POOL_MIN_SECONDS", 0.0)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return sizes


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestPoolChoice:
    def test_pool_pays_only_above_the_constant(self):
        limit = experiment._POOL_MIN_SECONDS
        assert not experiment._pool_pays(0.5 * limit, 1, 1)
        assert not experiment._pool_pays(limit, 2, 2)
        assert experiment._pool_pays(1.01 * limit, 2, 2)
        assert experiment._pool_pays(0.3 * limit, 1, 4)
        assert not experiment._pool_pays(0.2 * limit, 2, 9)

    def test_pool_never_pays_before_a_point_is_done(self):
        assert not experiment._pool_pays(0.0, 0, 330)
        assert not experiment._pool_pays(100.0, 0, 330)

    def test_small_preset_sweep_starts_no_pool(self, monkeypatch):
        config = replace(figure_presets()["fig4"], trials=5)
        serial = run_experiment(config, workers=1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        stats = run_experiment(config, workers=2)
        assert stats.to_csv_text() == serial.to_csv_text()

    @pytest.mark.parametrize(
        "workers, cores, points, sizes",
        [
            (2, 16, 6, [2]),  # the workers asked for
            (8, 2, 6, [2]),  # the usable cores
            (8, 16, 4, [3]),  # the points left after the first
            (3, 16, 6, [3]),
            (8, 16, 2, []),  # one point left: no pool of one
            (8, 1, 6, []),  # one core
            (1, 16, 6, []),
        ],
    )
    def test_pool_size_is_capped(self, monkeypatch, inline_pool, workers, cores, points, sizes):
        monkeypatch.setattr(experiment, "_usable_cores", lambda: cores)
        # At 40 trials no two points fit one chunk, so every point is a unit.
        z_sweep = tuple(2.0 + 0.1 * i for i in range(points))
        config = small_config(ris_z_sweep=z_sweep, trials=40)
        stats = run_experiment(config, workers=workers)
        assert inline_pool == sizes
        assert [row.index for row in stats.rows] == list(range(points))

    def test_usable_cores_from_the_affinity_mask_or_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert experiment._usable_cores() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert experiment._usable_cores() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiment._usable_cores() == 1


_unchecked_run_unit = experiment._run_unit


def unit_on_one_blas_thread(config, unit, **kwargs):
    """``_run_unit`` that fails unless OpenBLAS runs one thread."""
    get, _ = experiment._openblas_thread_funcs()
    if get() != 1:
        raise AssertionError(f"sweep unit ran with {get()} BLAS threads")
    return _unchecked_run_unit(config, unit, **kwargs)


def failing_unit(config, unit, **kwargs):
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
        monkeypatch.setattr(experiment, "_run_unit", unit_on_one_blas_thread)
        stats = run_experiment(small_config(ris_z_sweep=(2.0, 3.0), trials=2), workers=workers)
        assert [row.error for row in stats.rows] == [None, None]
        assert two_threads() == 2

    def test_one_thread_in_each_pooled_point_then_restored(
        self, monkeypatch, two_threads, forced_pool
    ):
        monkeypatch.setattr(experiment, "_run_unit", unit_on_one_blas_thread)
        # At 40 trials every point is a unit, so the last two go to the pool.
        stats = run_experiment(small_config(ris_z_sweep=(2.0, 3.0, 2.5), trials=40), workers=2)
        assert forced_pool == [2]
        assert [row.error for row in stats.rows] == [None, None, None]
        assert two_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_when_a_sweep_point_raises(self, monkeypatch, two_threads, workers):
        monkeypatch.setattr(experiment, "_run_unit", failing_unit)
        with pytest.raises(RuntimeError, match="sweep point failed"):
            run_experiment(small_config(ris_z_sweep=(2.0, 3.0)), workers=workers)
        assert two_threads() == 2

    def test_generate_realization_on_one_thread_then_restored(self, monkeypatch, two_threads):
        # At N=1024 a product formed on two threads can differ in its last bits.
        config = replace(figure_presets()["fig5a"], trials=1)
        points = config.sweep_points()[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            made = [
                generate_realization(config, p, i, t)
                for i, p in enumerate(points)
                for t in range(3)
            ]
            assert two_threads() == 2
            _set_blas_threads(1)
            alone = [
                _PointChannels(config, i, p).connect().trial(t)
                for i, p in enumerate(points)
                for t in range(3)
            ]
            _set_blas_threads(2)
        for real, expected in zip(made, alone):
            np.testing.assert_array_equal(real.h, expected.h)
            np.testing.assert_array_equal(real.g, expected.g)
            assert real.h_siso == expected.h_siso
        monkeypatch.setattr(_PointChannels, "trial", failing_unit)
        with pytest.raises(RuntimeError, match="sweep point failed"):
            generate_realization(config, points[0], 0, 0)
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


def test_blas_thread_control_is_found_where_numpy_links_openblas():
    # TestBlasThreads is skipped when the lookup finds nothing; here a lookup
    # that misses the OpenBLAS numpy names fails instead.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy links {blas}, not OpenBLAS")
    funcs = experiment._openblas_thread_funcs()
    assert funcs is not None
    get, set_ = funcs
    before = get()
    try:
        for count in (2, 1):
            set_(count)
            assert get() == count
    finally:
        set_(before)


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

    def test_rows_are_slotted_and_survive_a_pickle_round_trip(self):
        # Rows come back from pool workers pickled.
        row = SweepResult(0, SweepPoint(38, 50, 3, 16, 20.0), 1.0, 0.5, 30.0, 1.0, 0.0,
                          "near_field", 2, 99, error="ValueError: x")
        assert not hasattr(row, "__dict__") and not hasattr(row.point, "__dict__")
        assert pickle.loads(pickle.dumps(row)) == row

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
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(small_config(trials=2).to_dict()))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        for path, fmt in ((csv_path, "csv"), (json_path, "json")):
            args = ["run", "--config", str(config_path), "--format", fmt, "--output", str(path)]
            assert main(args) == 0
        assert csv_path.read_text().startswith("preset,")
        assert json.loads(json_path.read_text())["preset"] == "unit"


PRESET_DEFAULTS = {
    "ris_x_sweep": None,
    "ris_y_sweep": None,
    "ris_z_sweep": None,
    "p_t_dbm": 20.0,
    "trials": 2000,
    "master_seed": 2024,
    "regime_override": None,
    "no_ris_baseline_extra_db": None,
}

PRESET_FIELDS = {
    "fig3a": {
        "environment": "InH",
        "f_c_ghz": 2.4,
        "tx": [0, 25, 3],
        "rx": [40, 48, 1.5],
        "ris_center": [38, 50, 3],
        "n_elements": [64, 256, 1024],
        "ris_z_sweep": [2.0, 3.0],
        "regime_override": "near_field",
    },
    "fig3b": {
        "environment": "InH",
        "f_c_ghz": 2.4,
        "tx": [0, 25, 3],
        "rx": [67, 45, 1.5],
        "ris_center": [70, 50, 3],
        "n_elements": [64, 256, 1024],
        "ris_z_sweep": [2.0, 3.0],
        "regime_override": "near_field",
    },
    "fig4": {
        "environment": "UMi",
        "f_c_ghz": 2.4,
        "tx": [0, 25, 10],
        "rx": [65, 52, 1],
        "ris_center": [62, 55, 7],
        "n_elements": [16, 64, 256, 1024, 4096],
        "no_ris_baseline_extra_db": 10.0,
    },
    "fig5a": {
        "environment": "UMi",
        "f_c_ghz": 5.8,
        "tx": [0, 25, 10],
        "rx": [100, 50, 1],
        "ris_center": [70, 60, 7],
        "n_elements": [1024],
        "ris_x_sweep": [40.0 + 2.0 * i for i in range(30)],
        "ris_y_sweep": [52.0 + 2.0 * i for i in range(11)],
        "regime_override": "far_field",
    },
    "fig5b": {
        "environment": "UMi",
        "f_c_ghz": 5.8,
        "tx": [0, 25, 10],
        "rx": [100, 50, 1],
        "ris_center": [96, 56, 7],
        "n_elements": [1024],
        "ris_x_sweep": [90.0, 92.0, 94.0, 96.0, 98.0, 100.0],
        "ris_y_sweep": [52.0, 54.0, 56.0, 58.0, 60.0],
        "regime_override": "near_field",
    },
}


class TestPresets:
    def test_five_presets_exist(self):
        presets = figure_presets()
        assert set(presets) == {"fig3a", "fig3b", "fig4", "fig5a", "fig5b"}

    @pytest.mark.parametrize("name", list(PRESET_FIELDS))
    def test_every_field_of_the_preset(self, name):
        expected = {"name": name, **PRESET_DEFAULTS, **PRESET_FIELDS[name]}
        assert figure_presets()[name].to_dict() == expected

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


def mirrored(config):
    """``config`` reflected in the plane y = 0: terminals, panel and y sweep."""

    def flip(p):
        return Point3(p.x, -p.y, p.z)

    ys = config.ris_y_sweep
    return replace(
        config,
        tx=flip(config.tx),
        rx=flip(config.rx),
        ris_center=flip(config.ris_center),
        ris_y_sweep=None if ys is None else tuple(-y for y in ys),
    )


class TestDerivedPanel:
    """Each panel faces its Tx, so the config names no facing."""

    @pytest.mark.parametrize("name", list(PRESET_FIELDS))
    def test_mirrored_preset_gives_the_same_rows(self, name):
        config = replace(figure_presets()[name], trials=3)
        if name == "fig5a":
            config = replace(
                config, ris_x_sweep=config.ris_x_sweep[::6], ris_y_sweep=config.ris_y_sweep[::5]
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run_experiment(config).rows
            flipped = run_experiment(mirrored(config)).rows
        assert all(row.error is None for row in rows + flipped)
        # Every row but its ris_y is the original's, bit for bit (repr is exact).
        unflipped = [replace(r, point=replace(r.point, ris_y=-r.point.ris_y)) for r in flipped]
        assert [repr(row) for row in unflipped] == [repr(row) for row in rows]

    def test_tx_in_the_panel_plane_takes_the_rx_side(self):
        config = small_config(
            tx=Point3(0, 50, 3), rx=Point3(40, 48, 1.5), ris_center=Point3(38, 50, 3), trials=4
        )
        channels = _PointChannels(config, 0, config.sweep_points()[0])
        assert channels.panel.boresight == "-y"
        (row,) = run_experiment(config).rows
        assert row.error is None
        assert math.isfinite(row.mean_rate_bps_hz) and row.mean_rate_bps_hz > 0.0

    def test_elements_sit_half_a_wavelength_apart(self):
        config = small_config(f_c_ghz=5.8)
        channels = _PointChannels(config, 0, config.sweep_points()[0])
        assert channels.panel.spacing == CarrierConfig(5.8).wavelength_m / 2.0

    @pytest.mark.parametrize(
        "tx_y, rx_y, facing", [(25.0, 48.0, "-y"), (75.0, 52.0, "+y")], ids=["tx_below", "tx_above"]
    )
    def test_panel_faces_the_side_the_tx_lies_on(self, tx_y, rx_y, facing):
        config = small_config(tx=Point3(0, tx_y, 3), rx=Point3(40, rx_y, 1.5))
        channels = _PointChannels(config, 0, config.sweep_points()[0])
        assert channels.panel.boresight == facing
        (row,) = run_experiment(config).rows
        assert row.error is None and math.isfinite(row.mean_rate_bps_hz)

    @pytest.mark.parametrize(
        "regime, message",
        [
            (FieldRegime.NEAR_FIELD, "rx lies behind the panel"),
            (FieldRegime.FAR_FIELD, "ris_rx: terminal lies behind the panel"),
        ],
        ids=["near_field", "far_field"],
    )
    def test_rx_on_the_far_side_gets_an_error_row(self, regime, message):
        # The panel faces the Tx (y < 50); an Rx at y > 50 sees its back.
        config = small_config(rx=Point3(40, 60, 1.5), n_elements=(16, 0), regime_override=regime)
        ris_row, baseline = run_experiment(config).rows
        assert ris_row.error == message and math.isnan(ris_row.mean_rate_bps_hz)
        assert baseline.error is None and math.isfinite(baseline.mean_rate_bps_hz)

    @pytest.mark.parametrize(
        "regime, message",
        [
            (None, "rx lies behind the panel"),
            (FieldRegime.FAR_FIELD, "ris_rx: terminal lies behind the panel"),
        ],
        ids=["auto_near_field", "far_field"],
    )
    def test_rx_behind_the_panel_fails_before_the_tx_ris_link_warns(self, regime, message):
        # At N=4096 the fig4 Tx lies inside the Fraunhofer distance, which the
        # Tx-RIS link warns about; a point whose Rx sees the panel's back
        # fails before it builds that link.
        config = replace(
            figure_presets()["fig4"], rx=Point3(65, 60, 1), n_elements=(4096,),
            no_ris_baseline_extra_db=None, trials=2, regime_override=regime,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (row,) = run_experiment(config).rows
        assert row.error == message
        assert [str(w.message) for w in caught] == []


class TestModelConstants:
    def test_noise_power_is_a_class_constant_not_a_field(self):
        names = {f.name for f in fields(ExperimentConfig)}
        assert names.isdisjoint({"boresight", "spacing_m", "n_0_dbm"})
        assert len(names) == 15
        assert small_config().n_0_dbm == ExperimentConfig.n_0_dbm == -130.0
        # The link budget's default noise power is the same constant.
        assert LinkBudget.from_dbm(20.0) == LinkBudget.from_dbm(20.0, ExperimentConfig.n_0_dbm)

    def test_nearfield_point_holds_magnitudes_and_trial_gives_the_complex_g(self):
        config = small_config(n_elements=(64,))
        channels = _PointChannels(config, 0, config.sweep_points()[0]).connect()
        g = channel.ris_rx_nearfield(channels.panel, config.rx, channels.carrier)[0]
        assert channels.links["ris_rx"] is None
        assert channels.near_g.dtype == np.float64 and channels.near_g.shape == (64,)
        np.testing.assert_array_equal(channels.near_g, np.abs(g))
        np.testing.assert_array_equal(channels.trial(0).g, g)

    def test_nearfield_g_is_computed_once_per_call_and_once_per_point(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return channel.ris_rx_nearfield(*args)

        monkeypatch.setattr(experiment, "ris_rx_nearfield", counted)
        config = small_config(n_elements=(64, 256), trials=130)
        points = config.sweep_points()
        for trial in range(3):
            generate_realization(config, points[0], 0, trial)
        assert len(calls) == 3
        # 130 trials take three chunks of 60 at both element counts.
        channels = _PointChannels(config, 1, points[1])
        assert channels.regime is FieldRegime.NEAR_FIELD and channels.chunk_trials == 60
        calls.clear()
        rows = run_experiment(config).rows
        assert all(row.error is None for row in rows)
        assert len(calls) == len(points) == 2
