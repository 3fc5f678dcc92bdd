from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ScriptedRng, indefinite_table
from rissim.largescale import (
    LSP_ORDER,
    Environment,
    LargeScaleParams,
    LinkState,
    _angle_constants,
    _data_file,
    assign_link_state,
    draw_lsps,
    load_scenario_params,
    los_probability,
    lsps_from_normals,
    path_loss_db,
    scenario_params_from_dict,
)


class TestLosProbability:
    def test_inh_close_is_certain(self):
        assert los_probability(Environment.INH, 10.0) == 1.0

    def test_inh_far_floor(self):
        assert los_probability(Environment.INH, 45.0) == 0.5

    def test_inh_mid_range(self):
        assert los_probability(Environment.INH, 27.0) == pytest.approx(
            np.exp(-9.0 / 27.0)
        )

    def test_umi_zero_distance(self):
        assert los_probability(Environment.UMI, 0.0) == 1.0

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            los_probability(Environment.UMI, -1.0)

    @pytest.mark.parametrize("env", list(Environment))
    def test_non_increasing_in_distance(self, env):
        # The transcribed InH table has one tiny upward step where the
        # exponential branch (0.4948 at 37 m) meets the 0.5 floor.
        d = np.linspace(0.0, 300.0, 2000)
        p = np.array([los_probability(env, x) for x in d])
        assert np.all(np.diff(p) <= 0.0053)
        assert np.all((p >= 0.0) & (p <= 1.0))
        if env is Environment.UMI:
            assert np.all(np.diff(p) <= 1e-12)


class TestAssignLinkState:
    def test_elevation_rule_forces_los(self):
        state = assign_link_state(Environment.INH, 45.0, z_ris=3.0, z_tx=3.0, rng=None)
        assert state.los and state.forced

    def test_draw_above_probability_is_nlos(self):
        rng = ScriptedRng(uniforms=[0.99])
        state = assign_link_state(Environment.INH, 45.0, z_ris=2.0, z_tx=3.0, rng=rng)
        assert not state.los and not state.forced

    def test_draw_below_probability_is_los(self):
        rng = ScriptedRng(uniforms=[0.10])
        state = assign_link_state(Environment.INH, 45.0, z_ris=2.0, z_tx=3.0, rng=rng)
        assert state.los and not state.forced

    def test_forced_nlos_is_invalid(self):
        with pytest.raises(ValueError):
            LinkState(los=False, forced=True)


class TestPathLoss:
    def test_inh_los_10m(self):
        assert path_loss_db(Environment.INH, True, 10.0, 2.4) == pytest.approx(
            57.30, abs=0.01
        )

    def test_umi_los_100m(self):
        assert path_loss_db(Environment.UMI, True, 100.0, 2.4) == pytest.approx(
            79.60, abs=0.01
        )

    def test_umi_nlos_100m(self):
        assert path_loss_db(
            Environment.UMI, False, 100.0, 2.4, h_ut=1.5
        ) == pytest.approx(105.99, abs=0.01)

    def test_shadow_fading_is_additive(self):
        base = path_loss_db(Environment.INH, False, 20.0, 2.4)
        assert path_loss_db(Environment.INH, False, 20.0, 2.4, sf_db=3.5) == pytest.approx(
            base + 3.5
        )

    def test_zero_distance_raises(self):
        with pytest.raises(ValueError):
            path_loss_db(Environment.INH, True, 0.0, 2.4)

    @pytest.mark.parametrize("env", list(Environment))
    @pytest.mark.parametrize("los", [True, False])
    def test_strictly_increasing_in_distance(self, env, los):
        d = np.linspace(1.0, 500.0, 500)
        pl = np.array([path_loss_db(env, los, x, 2.4) for x in d])
        assert np.all(np.diff(pl) > 0)

    @pytest.mark.parametrize("env", list(Environment))
    def test_nlos_exceeds_los_beyond_10m(self, env):
        for d in np.linspace(10.0, 300.0, 100):
            los = path_loss_db(env, True, d, 2.4)
            nlos = path_loss_db(env, False, d, 2.4)
            assert nlos > los


class TestScenarioData:
    @pytest.mark.parametrize("env", list(Environment))
    @pytest.mark.parametrize("los", [True, False])
    def test_embedded_tables_load(self, env, los):
        params = load_scenario_params(env, los)
        assert params.rays_per_cluster == len(params.ray_offsets) == 20
        assert params.delay_scaling > 1.0
        eigs = np.linalg.eigvalsh(params.cross_correlation)
        assert eigs.min() >= -1e-12

    def test_cluster_counts_by_state(self):
        assert load_scenario_params(Environment.INH, True).cluster_count == 15
        assert load_scenario_params(Environment.INH, False).cluster_count == 19
        assert load_scenario_params(Environment.UMI, True).cluster_count == 12
        assert load_scenario_params(Environment.UMI, False).cluster_count == 19

    def test_table_dict_with_the_long_keys_builds(self):
        raw = {
            "environment": "InH",
            "los_state": "NLOS",
            "cluster_count": 19,
            "rays_per_cluster": 20,
            "delay_scaling": 3.0,
            "per_cluster_shadowing_db": 3.0,
            "c_asa_deg": 11.0,
            "c_zsa_deg": 9.0,
            "lsp_order": list(LSP_ORDER),
            "lsp": {k: {"mean": 1.0, "std": 0.2} for k in LSP_ORDER},
            "cross_correlation": np.eye(7).tolist(),
        }
        params = scenario_params_from_dict(raw)
        assert params.cluster_count == 19
        assert params.delay_scaling == 3.0
        assert params.c_asa_deg == 11.0
        assert params.lsp_means["lgDS"] == 1.0


# The four shipped tables, by data-file name.
SHIPPED_TABLES = [
    pytest.param(env, los, id=f"{env.value.lower()}_{'los' if los else 'nlos'}")
    for env in Environment
    for los in (True, False)
]


class TestShippedTables:
    """The four shipped files, checked here once instead of at every table build."""

    @pytest.mark.parametrize("env, los", SHIPPED_TABLES)
    def test_file_holds_a_complete_consistent_table(self, env, los):
        state = "LOS" if los else "NLOS"
        raw = _data_file(f"{env.value.lower()}_{state.lower()}.json")
        consts = _angle_constants()
        assert (raw["environment"], raw["los_state"]) == (env.value, state)
        assert tuple(raw["lsp_order"]) == LSP_ORDER
        c, s = raw["cluster_count"], raw["rays_per_cluster"]
        assert c >= 1 and s >= 1
        assert s == len(consts["ray_offsets"])
        assert raw["delay_scaling"] > 1.0
        m = np.array(raw["cross_correlation"], dtype=float)
        assert m.shape == (7, 7)
        assert np.array_equal(m, m.T)
        assert np.array_equal(np.diag(m), np.ones(7))
        assert np.linalg.eigvalsh(m).min() > 0.0
        assert all({"mean", "std"} <= set(raw["lsp"][k]) for k in LSP_ORDER)
        assert str(c) in consts["c_phi_nlos"] and str(c) in consts["c_theta_nlos"]

    @pytest.mark.parametrize("env, los", SHIPPED_TABLES)
    def test_correlation_factor_is_the_symmetric_square_root(self, env, los):
        params = load_scenario_params(env, los)
        f = params.correlation_factor
        # Symmetric to rounding: v @ diag @ v.T is not bit-symmetric.
        np.testing.assert_allclose(f, f.T, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(f @ f, params.cross_correlation, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("env, los", SHIPPED_TABLES)
    def test_mean_std_rows_follow_lsp_order(self, env, los):
        params = load_scenario_params(env, los)
        assert params.lsp_mean_std.shape == (2, 7)
        assert params.lsp_mean_std[0].tolist() == [params.lsp_means[k] for k in LSP_ORDER]
        assert params.lsp_mean_std[1].tolist() == [params.lsp_stds[k] for k in LSP_ORDER]

    def test_loaded_table_is_immutable(self):
        params = load_scenario_params(Environment.UMI, True)
        with pytest.raises(FrozenInstanceError):
            params.cluster_count = 3
        with pytest.raises(FrozenInstanceError):
            params.correlation_factor = np.eye(7)


class TestCorrelationFactor:
    def test_indefinite_matrix_is_rejected(self):
        # The table raises when it is built, before any draw reads it.
        with pytest.raises(ValueError, match="not PSD"):
            indefinite_table()


    def test_replace_derives_the_factor_of_the_new_matrix(self):
        # ``replace`` is how tests swap a table's matrix; the derived factor
        # must follow the new matrix, not the one it was copied from.
        shipped = load_scenario_params(Environment.UMI, True)
        identity = replace(shipped, cross_correlation=np.eye(7))
        assert np.array_equal(identity.correlation_factor, np.eye(7))
        assert not np.array_equal(shipped.correlation_factor, np.eye(7))


class TestDrawLsps:
    def test_zero_std_returns_means(self, rng):
        params = load_scenario_params(Environment.UMI, True)
        degenerate = scenario_params_from_dict(
            {
                "environment": "UMi",
                "los_state": "LOS",
                "cluster_count": 12,
                "rays_per_cluster": 20,
                "delay_scaling": 3.2,
                "per_cluster_shadowing_db": 3.0,
                "c_asa_deg": 17.0,
                "c_zsa_deg": 7.0,
                "lsp_order": list(LSP_ORDER),
                "lsp": {
                    k: {"mean": params.lsp_means[k], "std": 0.0} for k in LSP_ORDER
                },
                "cross_correlation": np.eye(7).tolist(),
            }
        )
        lsps = draw_lsps(degenerate, True, rng)
        assert lsps.sf_db == 0.0
        assert lsps.k_factor_db == params.lsp_means["K_db"]
        assert lsps.ds_s == pytest.approx(10.0 ** params.lsp_means["lgDS"])
        assert lsps.asa_deg == pytest.approx(10.0 ** params.lsp_means["lgASA"])

    def test_deterministic_for_fixed_seed(self):
        params = load_scenario_params(Environment.INH, True)
        a = draw_lsps(params, True, np.random.default_rng(42))
        b = draw_lsps(params, True, np.random.default_rng(42))
        assert a.sf_db == b.sf_db
        assert a.k_factor_db == b.k_factor_db
        assert a.ds_s == b.ds_s
        assert (a.asa_deg, a.asd_deg, a.zsa_deg, a.zsd_deg) == (
            b.asa_deg,
            b.asd_deg,
            b.zsa_deg,
            b.zsd_deg,
        )
        assert np.array_equal(a.latent, b.latent)

    def test_caps_applied(self, rng):
        params = load_scenario_params(Environment.INH, False)
        for _ in range(500):
            lsps = draw_lsps(params, False, rng)
            assert lsps.asa_deg <= 104.0 and lsps.asd_deg <= 104.0
            assert lsps.zsa_deg <= 52.0 and lsps.zsd_deg <= 52.0
            assert lsps.ds_s > 0

    def test_latent_correlation_matches_configured(self, rng):
        params = load_scenario_params(Environment.UMI, True)
        n = 20000
        latents = np.stack([draw_lsps(params, True, rng).latent for _ in range(n)])
        empirical = np.corrcoef(latents.T)
        assert np.max(np.abs(empirical - params.cross_correlation)) < 0.05

    def test_sf_k_pair_correlation(self, rng):
        params = load_scenario_params(Environment.UMI, True)
        target = params.cross_correlation[0, 1]
        n = 30000
        draws = [draw_lsps(params, True, rng) for _ in range(n)]
        sf = np.array([d.sf_db for d in draws])
        k = np.array([d.k_factor_db for d in draws])
        assert np.corrcoef(sf, k)[0, 1] == pytest.approx(target, abs=0.02)


class TestLspsTrialAxis:
    """``lsps_from_normals`` on a chunk: (T, 7) normals give (T,) fields."""

    @given(
        env=st.sampled_from(Environment),
        los=st.booleans(),
        normals=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.just(7)),
            elements=st.floats(-4.0, 4.0),
        ),
    )
    def test_batch_equals_its_rows(self, env, los, normals):
        params = load_scenario_params(env, los)
        lsps = lsps_from_normals(params, normals)
        assert lsps.latent.shape == normals.shape
        for t, row in enumerate(normals):
            one = draw_lsps(params, los, ScriptedRng(normals=row))
            for f in fields(LargeScaleParams):
                # A stacked and a single matrix product may round differently.
                np.testing.assert_allclose(
                    getattr(lsps, f.name)[t], getattr(one, f.name), rtol=1e-13, atol=1e-15
                )
