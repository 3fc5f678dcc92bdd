"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The Monte Carlo criteria run the built-in presets at 2000 trials; the
position-sweep trends use thinned axis lines of the preset grids to stay
inside the stated runtime budgets.
"""

import contextlib
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scistats

from reference_paths import (
    nearfield_gain_subdivided,
    nearfield_plate_gain,
    optimal_phases,
    phase_grid_search,
    received_snr,
)
from rissim.experiment import figure_presets, generate_realization, run_experiment
from rissim.geometry import Point3, distance_3d
from rissim.largescale import Environment, draw_lsps, load_scenario_params, path_loss_db
from rissim.link import LinkBudget, evaluate_link
from rissim.smallscale import cluster_powers, draw_delays, draw_phases

pytestmark = pytest.mark.filterwarnings("ignore:Tx is inside")


@contextlib.contextmanager
def criterion(num, label, budget_s):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[acceptance] criterion {num} FAIL ({elapsed:.1f}s) {label}"
              f" :: {info['detail']}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {num} PASS ({elapsed:.1f}s) {label}"
          f" :: {info['detail']}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded {budget_s}s budget"


def test_criterion_1_path_loss_spot_checks():
    with criterion(1, "path loss formula spot checks", 1.0) as info:
        checks = [
            (Environment.INH, True, 10.0, 1.5, 57.30),
            (Environment.UMI, True, 100.0, 1.5, 79.60),
            (Environment.UMI, False, 100.0, 1.5, 105.99),
        ]
        for env, los, d3d, h_ut, expected in checks:
            value = path_loss_db(env, los, d3d, 2.4, h_ut=h_ut)
            assert value == pytest.approx(expected, abs=0.01), (env, los)
        info["detail"] = "3 hand evaluations within 0.01 dB"


def test_criterion_2_cluster_power_normalization():
    with criterion(2, "cluster power normalization and LOS floor", 10.0) as info:
        rng = np.random.default_rng(2024)
        worst_sum_err = 0.0
        for env in Environment:
            params = load_scenario_params(env, True)
            for _ in range(5000):
                lsps = draw_lsps(params, True, rng)
                delays = draw_delays(
                    params.cluster_count, params.delay_scaling, lsps.ds_s, rng
                )
                powers = cluster_powers(
                    delays,
                    params.delay_scaling,
                    lsps.ds_s,
                    params.per_cluster_shadowing_db,
                    lsps.k_factor_db,
                    True,
                    rng,
                )
                worst_sum_err = max(worst_sum_err, abs(powers.sum() - 1.0))
                assert abs(powers.sum() - 1.0) <= 1e-9
                k_lin = 10.0 ** (lsps.k_factor_db / 10.0)
                assert powers[0] >= k_lin / (k_lin + 1.0)
        info["detail"] = f"10^4 draws, worst |sum-1| = {worst_sum_err:.1e}"


def test_criterion_3_nearfield_additivity():
    with criterion(3, "near-field gain subdivision additivity", 5.0) as info:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            side = rng.uniform(0.02, 0.15)
            center = Point3(rng.uniform(-1, 1), 0.0, rng.uniform(-1, 1))
            rx = Point3(
                center.x + rng.uniform(-20, 20) * side,
                rng.uniform(0.5, 50) * side,
                center.z + rng.uniform(-20, 20) * side,
            )
            whole = nearfield_plate_gain(center, side, rx)
            for k in (2, 4, 8):
                sub = nearfield_gain_subdivided(center, side, rx, k)
                rel = abs(sub - whole) / abs(whole)
                worst = max(worst, rel)
                assert rel < 1e-10
        info["detail"] = f"100 placements x k in (2,4,8), worst rel = {worst:.1e}"


def test_criterion_4_nearfield_far_limit():
    with criterion(4, "near-field far-distance limit", 1.0) as info:
        side = 0.0625
        errors = []
        for mult in (10, 30, 100):
            y = mult * side
            gain = nearfield_plate_gain(Point3(0, 0, 0), side, Point3(0, y, 0))
            ratio = gain * 4 * np.pi * y**2 / side**2
            errors.append(abs(ratio - 1.0))
            if mult == 10:
                assert 0.99 <= ratio <= 1.01
        assert errors[0] > errors[1] > errors[2]
        info["detail"] = f"|ratio-1| at 10d/30d/100d = " + "/".join(
            f"{e:.1e}" for e in errors
        )


def test_criterion_5_phase_optimality_vs_grid():
    with criterion(5, "closed-form phases attain grid-search maximum", 60.0) as info:
        rng = np.random.default_rng(55)
        budget = LinkBudget(1.0, 1.0)
        worst_gap = 0.0
        for n in (1, 2, 3):
            for _ in range(100):
                h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                h_siso = complex(rng.standard_normal(), rng.standard_normal())
                snr_formula = received_snr(
                    h, g, optimal_phases(h, g, h_siso), h_siso, budget
                )
                snr_grid = phase_grid_search(h, g, h_siso, 100, budget)
                assert snr_formula >= snr_grid - 1e-12 * snr_grid
                gap = (snr_formula - snr_grid) / snr_formula
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-3
        info["detail"] = f"N in (1,2,3) x 100 realizations, worst gap {worst_gap:.2e}"


def test_criterion_6_ris_never_hurts():
    with criterion(6, "optimally phased SNR >= RIS-absent SNR", 60.0) as info:
        config = replace(
            figure_presets()["fig3a"], n_elements=(64,), ris_z_sweep=(3.0,)
        )
        point = config.sweep_points()[0]
        budget = LinkBudget.from_dbm(config.p_t_dbm, config.n_0_dbm)
        empty = np.zeros(0, dtype=complex)
        min_margin = np.inf
        for t in range(10_000):
            real = generate_realization(config, point, 0, t)
            with_ris = evaluate_link(real.h, real.g, real.h_siso, budget)
            without = evaluate_link(empty, empty, real.h_siso, budget)
            margin = with_ris.snr_linear - without.snr_linear
            min_margin = min(min_margin, margin)
            assert with_ris.snr_linear >= without.snr_linear
        info["detail"] = f"10^4 realizations, min SNR margin {min_margin:.3e}"


def test_criterion_7_indoor_height_and_size_trends():
    with criterion(7, "indoor preset: higher panel and larger N win", 300.0) as info:
        stats = run_experiment(figure_presets()["fig3a"], workers=2)
        rates = {
            (row.point.ris_z, row.point.n_elements): row.mean_rate_bps_hz
            for row in stats.rows
        }
        for n in (64, 256, 1024):
            assert rates[(3.0, n)] > rates[(2.0, n)], f"height trend at N={n}"
        for z in (2.0, 3.0):
            assert rates[(z, 64)] < rates[(z, 256)] < rates[(z, 1024)], f"N trend at z={z}"
        info["detail"] = (
            f"rate(z=3)-rate(z=2) at N=64/256/1024: "
            + "/".join(f"{rates[(3.0, n)] - rates[(2.0, n)]:.2f}" for n in (64, 256, 1024))
        )


def test_criterion_8_outdoor_beats_10db_stronger_baseline():
    with criterion(8, "outdoor preset: RIS beats no-RIS at +10 dB", 600.0) as info:
        stats = run_experiment(figure_presets()["fig4"], workers=2)
        baseline = next(r for r in stats.rows if r.point.n_elements == 0)
        assert baseline.point.p_t_dbm == 30.0
        ris_rows = [r for r in stats.rows if 0 < r.point.n_elements <= 4096]
        winners = [
            r.point.n_elements
            for r in ris_rows
            if r.mean_rate_bps_hz >= baseline.mean_rate_bps_hz
        ]
        assert winners, "no element count matched the boosted baseline"
        info["detail"] = (
            f"baseline(+10dB) {baseline.mean_rate_bps_hz:.2f} b/s/Hz, "
            f"beaten at N in {winners}"
        )


def test_criterion_9a_farfield_position_trend():
    with criterion(9, "(a) far-field sweep: rate tracks RIS-Rx distance", 600.0) as info:
        base = figure_presets()["fig5a"]
        rx = base.rx

        row_cfg = replace(
            base,
            ris_x_sweep=tuple(float(x) for x in range(40, 99, 6)),
            ris_y_sweep=(52.0,),
        )
        row = run_experiment(row_cfg, workers=2).rows
        x_rates = [r.mean_rate_bps_hz for r in row]
        x_dist = [
            distance_3d(Point3(r.point.ris_x, r.point.ris_y, r.point.ris_z), rx)
            for r in row
        ]
        rho_x = scistats.spearmanr(x_rates, [-d for d in x_dist]).statistic

        col_cfg = replace(
            base,
            ris_x_sweep=(98.0,),
            ris_y_sweep=tuple(float(y) for y in range(52, 73, 2)),
        )
        col = run_experiment(col_cfg, workers=2).rows
        y_rates = [r.mean_rate_bps_hz for r in col]
        y_dist = [
            distance_3d(Point3(r.point.ris_x, r.point.ris_y, r.point.ris_z), rx)
            for r in col
        ]
        rho_y = scistats.spearmanr(y_rates, [-d for d in y_dist]).statistic

        info["detail"] = f"spearman(rate, -d3d): y-axis {rho_y:.3f}, x-axis {rho_x:.3f}"
        assert rho_y > 0.9, f"y-axis trend too weak: {rho_y:.3f}"
        # Known model property: the Tx-RIS leg weakens (path loss up, LOS
        # probability down) as the panel moves along +x toward the Rx, so the
        # x-axis trend is U-shaped rather than monotone. Asserted as stated.
        assert rho_x > 0.9, f"x-axis trend not monotone: {rho_x:.3f}"


def test_criterion_9b_nearfield_close_separation_dip():
    with criterion(9, "(b) near-field sweep: 2 m separation below 4 m", 600.0) as info:
        base = figure_presets()["fig5b"]
        cfg = replace(base, ris_x_sweep=(100.0,), ris_y_sweep=(52.0, 54.0))
        rows = run_experiment(cfg, workers=2).rows
        by_sep = {abs(r.point.ris_y - base.rx.y): r.mean_rate_bps_hz for r in rows}
        info["detail"] = f"rate at 2 m {by_sep[2.0]:.2f} < rate at 4 m {by_sep[4.0]:.2f}"
        assert by_sep[2.0] < by_sep[4.0]


def test_criterion_10_byte_identical_reruns():
    with criterion(10, "determinism: byte-identical CSV reruns", 120.0) as info:
        config = replace(figure_presets()["fig3a"], trials=50, n_elements=(64, 256))
        first = run_experiment(config, workers=1).to_csv_text().encode()
        second = run_experiment(config, workers=1).to_csv_text().encode()
        parallel = run_experiment(config, workers=3).to_csv_text().encode()
        assert first == second == parallel
        info["detail"] = f"3 runs x {len(first)} bytes identical (1/1/3 workers)"


def test_criterion_11_statistical_conformance():
    with criterion(11, "LSP correlations and phase uniformity", 30.0) as info:
        rng = np.random.default_rng(11)
        worst = 0.0
        for env, los in ((Environment.UMI, True), (Environment.INH, True)):
            params = load_scenario_params(env, los)
            latents = np.stack(
                [draw_lsps(params, los, rng).latent for _ in range(100_000)]
            )
            empirical = np.corrcoef(latents.T)
            err = np.max(np.abs(empirical - params.cross_correlation))
            worst = max(worst, err)
            assert err < 0.02
        phases = draw_phases(500, 200, rng).ravel()
        ks = scistats.kstest(phases, "uniform", args=(-np.pi, 2 * np.pi))
        assert ks.pvalue > 0.01
        info["detail"] = (
            f"worst correlation error {worst:.4f}, phase KS p-value {ks.pvalue:.3f}"
        )
