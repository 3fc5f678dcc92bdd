import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

import reference_paths
from conftest import ScriptedRng, make_scenario
from rissim.geometry import SphericalAngles
from rissim.largescale import Environment, LargeScaleParams, load_scenario_params
from rissim.smallscale import (
    build_cluster_set,
    cluster_powers,
    delays_from_uniforms,
    draw_delays,
    draw_phases,
    draw_ray_angles,
    filter_front_hemisphere,
    powers_from_normals,
    ray_angles_from,
)


def make_lsps(asa=10.0, zsa=10.0, k_db=9.0, ds=1e-7):
    return LargeScaleParams(
        sf_db=0.0,
        k_factor_db=k_db,
        ds_s=ds,
        asd_deg=asa,
        asa_deg=asa,
        zsd_deg=zsa,
        zsa_deg=zsa,
        latent=np.zeros(7),
    )


class TestDrawDelays:
    def test_single_cluster_is_zero(self, rng):
        assert draw_delays(1, 3.0, 1e-7, rng) == pytest.approx([0.0])

    def test_hand_evaluated_pair(self):
        rng = ScriptedRng(uniforms=[0.5, 0.25])
        delays = draw_delays(2, 3.0, 100e-9, rng)
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(207.94e-9, rel=1e-4)

    def test_sorted_and_nonnegative(self, rng):
        for _ in range(200):
            delays = draw_delays(12, 3.2, 1e-7, rng)
            assert delays[0] == 0.0
            assert np.all(np.diff(delays) >= 0)

    def test_raw_delay_mean_is_rtau_times_ds(self, rng):
        # For two i.i.d. exponential draws the surviving gap keeps the raw
        # mean r_tau * DS by memorylessness.
        r_tau, ds = 3.0, 100e-9
        gaps = np.array([draw_delays(2, r_tau, ds, rng)[1] for _ in range(100_000)])
        assert gaps.mean() == pytest.approx(r_tau * ds, rel=0.02)

    def test_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            draw_delays(0, 3.0, 1e-7, rng)
        with pytest.raises(ValueError):
            draw_delays(3, 1.0, 1e-7, rng)
        with pytest.raises(ValueError):
            draw_delays(3, 3.0, 0.0, rng)


class TestClusterPowers:
    def test_nlos_equal_delays_split_evenly(self):
        rng = ScriptedRng(normals=[0.0, 0.0])
        powers = cluster_powers(
            np.array([0.0, 0.0]), 3.0, 1e-7, 0.0, k_db=0.0, los=False, rng=rng
        )
        assert powers == pytest.approx([0.5, 0.5])

    def test_los_injection_with_unit_k(self):
        rng = ScriptedRng(normals=[0.0, 0.0])
        powers = cluster_powers(
            np.array([0.0, 0.0]), 3.0, 1e-7, 0.0, k_db=0.0, los=True, rng=rng
        )
        assert powers == pytest.approx([0.75, 0.25])

    def test_pure_los_limit(self):
        rng = ScriptedRng(normals=[0.0, 0.0, 0.0])
        powers = cluster_powers(
            np.array([0.0, 1e-9, 2e-9]), 3.0, 1e-7, 0.0, k_db=300.0, los=True, rng=rng
        )
        assert powers[0] == pytest.approx(1.0)
        assert powers[1:] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_normalization_and_first_cluster_floor(self, rng):
        k_db = 7.0
        k_lin = 10.0 ** (k_db / 10.0)
        for _ in range(500):
            delays = draw_delays(15, 3.6, 1e-7, rng)
            powers = cluster_powers(delays, 3.6, 1e-7, 6.0, k_db, True, rng)
            assert powers.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(powers >= 0)
            assert powers[0] >= k_lin / (k_lin + 1.0)


class TestDrawPhases:
    def test_range_and_shape(self, rng):
        phases = draw_phases(5, 20, rng)
        assert phases.shape == (5, 20)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)

    def test_empirical_mean_near_zero(self, rng):
        phases = draw_phases(100, 1000, rng)
        assert abs(phases.mean()) < 0.02

    def test_deterministic(self):
        a = draw_phases(3, 4, np.random.default_rng(5))
        b = draw_phases(3, 4, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestDrawRayAngles:
    def test_zero_spread_los_collapses_to_los_direction(self, rng):
        scenario = make_scenario(cluster_count=3, rays_per_cluster=4)
        lsps = make_lsps(asa=1e-6, zsa=1e-6)
        los_dir = SphericalAngles(75.0, 60.0)
        powers = np.array([0.6, 0.3, 0.1])
        zen, az = draw_ray_angles(
            Environment.INH, powers, lsps, los_dir, True, scenario, rng
        )
        assert zen[0] == pytest.approx(np.full(4, 75.0), abs=1e-5)
        assert az[0] == pytest.approx(np.full(4, 60.0), abs=1e-5)

    def test_intra_cluster_spread_is_offset_table_times_constant(self, rng):
        offsets = load_scenario_params(Environment.INH, True).ray_offsets
        scenario = make_scenario(
            cluster_count=2,
            rays_per_cluster=20,
            c_asa=8.0,
            c_zsa=9.0,
            ray_offsets=offsets,
        )
        lsps = make_lsps(asa=5.0, zsa=5.0)
        zen, az = draw_ray_angles(
            Environment.INH,
            np.array([0.7, 0.3]),
            lsps,
            SphericalAngles(90.0, 90.0),
            True,
            scenario,
            rng,
        )
        span = offsets.max() - offsets.min()
        for c in range(2):
            assert az[c].max() - az[c].min() == pytest.approx(8.0 * span, abs=1e-9)
            assert zen[c].max() - zen[c].min() == pytest.approx(9.0 * span, abs=1e-9)

    def test_ranges_respected(self, rng):
        params = load_scenario_params(Environment.UMI, False)
        lsps = make_lsps(asa=80.0, zsa=40.0)
        powers = np.full(19, 1 / 19)
        for _ in range(50):
            zen, az = draw_ray_angles(
                Environment.UMI,
                powers,
                lsps,
                SphericalAngles(100.0, 40.0),
                False,
                params,
                rng,
            )
            assert np.all((zen >= 0.0) & (zen <= 180.0))
            assert np.all((az > -180.0) & (az <= 180.0))

    def test_deterministic(self):
        params = load_scenario_params(Environment.UMI, True)
        lsps = make_lsps()
        powers = np.linspace(1.0, 0.1, 12)
        powers /= powers.sum()
        out1 = draw_ray_angles(
            Environment.UMI, powers, lsps, SphericalAngles(90, 90), True, params,
            np.random.default_rng(3),
        )
        out2 = draw_ray_angles(
            Environment.UMI, powers, lsps, SphericalAngles(90, 90), True, params,
            np.random.default_rng(3),
        )
        assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])

    def test_azimuth_spread_grows_with_asa(self, rng):
        params = load_scenario_params(Environment.UMI, False)
        powers = np.full(19, 1 / 19)
        asa_values = [5.0, 15.0, 40.0, 90.0]
        spreads = []
        for asa in asa_values:
            lsps = make_lsps(asa=asa, zsa=10.0)
            samples = []
            for _ in range(300):
                _, az = draw_ray_angles(
                    Environment.UMI,
                    powers,
                    lsps,
                    SphericalAngles(90.0, 90.0),
                    False,
                    params,
                    rng,
                )
                samples.append(az.ravel())
            samples = np.concatenate(samples)
            spreads.append(stats.circstd(np.radians(samples)))
        rho = stats.spearmanr(asa_values, spreads).statistic
        assert rho == 1.0

    @pytest.mark.parametrize("env", list(Environment))
    @pytest.mark.parametrize("los", [True, False])
    def test_matches_per_cluster_permutation_loop(self, env, los):
        params = load_scenario_params(env, los)
        lsps = make_lsps(asa=30.0, zsa=12.0)
        los_dir = SphericalAngles(80.0, 60.0)
        for seed in range(10):
            powers = np.random.default_rng(seed).dirichlet(np.ones(params.cluster_count))
            fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            fast = draw_ray_angles(env, powers, lsps, los_dir, los, params, fast_rng)
            loop = reference_paths.draw_ray_angles(
                env, powers, lsps, los_dir, los, params, loop_rng
            )
            np.testing.assert_array_equal(fast[0], loop[0])
            np.testing.assert_array_equal(fast[1], loop[1])
            # Both leave the stream at the same place for the draws after them.
            assert fast_rng.uniform() == loop_rng.uniform()


class TestFilterFrontHemisphere:
    def make_set(self, azimuths, powers=None):
        azimuths = np.asarray(azimuths, dtype=float)
        c, s = azimuths.shape
        powers = np.full(c, 1.0 / c) if powers is None else np.asarray(powers)
        return build_cluster_set(
            delays_s=np.zeros(c),
            powers=powers,
            ray_zenith_deg=np.full((c, s), 90.0),
            ray_azimuth_deg=azimuths,
            phases_rad=np.zeros((c, s)),
        )

    def test_front_rays_unchanged(self):
        cs = self.make_set([[10.0, 90.0], [170.0, 45.0]])
        out = filter_front_hemisphere(cs)
        assert out.ray_mask.all()
        assert np.array_equal(out.powers, cs.powers)

    def test_back_cluster_removed_others_untouched(self):
        cs = self.make_set([[-90.0, -90.0], [90.0, 90.0]])
        out = filter_front_hemisphere(cs)
        assert not out.ray_mask[0].any()
        assert out.ray_mask[1].all()
        assert out.powers[0] == 0.0
        assert out.powers[1] == cs.powers[1]

    def test_boundaries_inclusive(self):
        cs = self.make_set([[0.0, 180.0]])
        assert filter_front_hemisphere(cs).ray_mask.all()

    def test_idempotent(self):
        cs = self.make_set([[-10.0, 30.0], [200.0 - 360.0, 90.0]])
        once = filter_front_hemisphere(cs)
        twice = filter_front_hemisphere(once)
        assert np.array_equal(once.ray_mask, twice.ray_mask)
        assert np.array_equal(once.powers, twice.powers)

    def test_fully_shadowed_flag(self):
        cs = self.make_set([[-90.0, -45.0]])
        out = filter_front_hemisphere(cs)
        assert out.fully_shadowed
        assert not cs.fully_shadowed


class TestDelaysTrialAxis:
    """``delays_from_uniforms`` on a chunk: (T, C) uniforms, (T,) spreads."""

    @given(
        data=st.data(),
        trials=st.integers(1, 6),
        c=st.integers(1, 20),
        r_tau=st.floats(1.5, 4.0),
    )
    def test_batch_equals_its_rows(self, data, trials, c, r_tau):
        ds = data.draw(arrays(np.float64, trials, elements=st.floats(1e-8, 1e-6)))
        u = data.draw(
            arrays(np.float64, (trials, c), elements=st.floats(0.0, 1.0, exclude_max=True))
        )
        delays = delays_from_uniforms(r_tau, ds, u)
        assert delays.shape == (trials, c)
        for t in range(trials):
            one = draw_delays(c, r_tau, ds[t], ScriptedRng(uniforms=u[t]))
            np.testing.assert_array_equal(delays[t], one)


class TestClusterPowersTrialAxis:
    """``powers_from_normals`` on a chunk: (T, C) delays, (T,) spreads and K-factors."""

    @given(
        data=st.data(),
        trials=st.integers(1, 6),
        c=st.integers(1, 20),
        r_tau=st.floats(1.5, 4.0),
        zeta_db=st.floats(0.0, 8.0),
        los=st.booleans(),
    )
    def test_unit_sum_per_trial_with_los_floor(self, data, trials, c, r_tau, zeta_db, los):
        ds = data.draw(arrays(np.float64, trials, elements=st.floats(1e-8, 1e-6)))
        k_db = data.draw(arrays(np.float64, trials, elements=st.floats(-10.0, 20.0)))
        steps = data.draw(arrays(np.float64, (trials, c), elements=st.floats(0.0, 1e-7)))
        delays = np.cumsum(steps, axis=1) - steps[:, :1]
        normals = data.draw(arrays(np.float64, (trials, c), elements=st.floats(-3.0, 3.0)))
        powers = powers_from_normals(delays, r_tau, ds, zeta_db, k_db, los, normals)
        assert powers.shape == (trials, c)
        np.testing.assert_allclose(powers.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.all(powers >= 0.0)
        if los:
            k_lin = 10.0 ** (k_db / 10.0)
            assert np.all(powers[:, 0] >= k_lin / (k_lin + 1.0) * (1.0 - 1e-12))
        for t in range(trials):
            one = cluster_powers(
                delays[t], r_tau, ds[t], zeta_db, k_db[t], los, ScriptedRng(normals=normals[t])
            )
            # Scalar and array powers of ten may differ in the last bit.
            np.testing.assert_allclose(powers[t], one, rtol=1e-14, atol=0.0)


class TestRayAnglesTrialAxis:
    """``ray_angles_from`` on a chunk: (T, C) powers and centre draws, (T,) spreads."""

    @given(
        data=st.data(),
        trials=st.integers(1, 6),
        env=st.sampled_from(Environment),
        los=st.booleans(),
    )
    def test_batch_equals_its_rows(self, data, trials, env, los):
        scenario = load_scenario_params(env, los)
        c, s = scenario.cluster_count, scenario.rays_per_cluster
        spread = st.floats(1.0, 100.0)
        lsps = make_lsps(
            asa=data.draw(arrays(np.float64, trials, elements=spread)),
            zsa=data.draw(arrays(np.float64, trials, elements=spread)),
            k_db=data.draw(arrays(np.float64, trials, elements=st.floats(-10.0, 20.0))),
        )
        powers = data.draw(arrays(np.float64, (trials, c), elements=st.floats(1e-6, 1.0)))
        bits = arrays(np.int64, (trials, c), elements=st.integers(0, 1))
        normals = arrays(np.float64, (trials, c), elements=st.floats(-3.0, 3.0))
        centers = [data.draw(bits), data.draw(normals), data.draw(bits), data.draw(normals)]
        seed = data.draw(st.integers(0, 2**32 - 1))
        rows = np.broadcast_to(np.arange(s), (trials, 2 * c, s))
        order = np.random.default_rng(seed).permuted(rows, axis=2)
        los_dir = SphericalAngles(80.0, 70.0)
        zenith, azimuth = ray_angles_from(
            env, powers, lsps, los_dir.zenith_deg, los_dir.azimuth_deg, los, scenario,
            *centers, order,
        )
        assert zenith.shape == azimuth.shape == (trials, c, s)
        for t in range(trials):
            row = make_lsps(asa=lsps.asa_deg[t], zsa=lsps.zsa_deg[t], k_db=lsps.k_factor_db[t])
            one = ray_angles_from(
                env, powers[t], row, los_dir.zenith_deg, los_dir.azimuth_deg, los, scenario,
                *(draw[t] for draw in centers), order[t],
            )
            # The LOS scaling's scalar and array powers of the K-factor may
            # differ in the last bit; azimuths are compared modulo 360.
            np.testing.assert_allclose(zenith[t], one[0], rtol=0.0, atol=1e-9)
            wrapped = np.mod(azimuth[t] - one[1] + 180.0, 360.0) - 180.0
            np.testing.assert_allclose(wrapped, 0.0, rtol=0.0, atol=1e-9)
