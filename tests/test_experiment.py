import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rissim.channel import FieldRegime
from rissim.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepPoint,
    _run_sweep_point,
    _trial_rngs,
    figure_presets,
    generate_realization,
    run_experiment,
)
from rissim.geometry import Point3
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

    def test_trial_rng_streams_are_independent_of_order(self):
        a = _trial_rngs(5, 3, 7)[0].standard_normal(4)
        _ = _trial_rngs(5, 0, 0)[0].standard_normal(4)
        b = _trial_rngs(5, 3, 7)[0].standard_normal(4)
        assert np.array_equal(a, b)

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
