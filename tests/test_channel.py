import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import make_scenario, with_tables
import reference_paths
from reference_paths import steering_vector
from rissim.array_response import element_gain
from rissim.channel import (
    FieldRegime,
    _assemble_panel_channel,
    _direct_link,
    _Link,
    _panel_link,
    _plate_gain,
    nearfield_plate_gain,
    ris_rx_farfield,
    ris_rx_nearfield,
    select_field_regime,
    siso_channel,
    tx_ris_channel,
)
from rissim.geometry import (
    CarrierConfig,
    PanelGeometry,
    Point3,
    SphericalAngles,
    distance_3d,
    fraunhofer_distance,
    los_angles,
)
from rissim.largescale import Environment, path_loss_db
from rissim.smallscale import ClusterSet

CARRIER = CarrierConfig(2.4)


def reference_plate_gain(center, side, rx):
    """Scalar loop over the four corner terms of the plate integral."""
    y = abs(center.y - rx.y)
    total = 0.0
    for x in (side / 2.0 + center.x - rx.x, side / 2.0 + rx.x - center.x):
        for z in (side / 2.0 + center.z - rx.z, side / 2.0 + rx.z - center.z):
            u, v = x / y, z / y
            root = math.sqrt(u * u + v * v + 1.0)
            total += (u * v) / (3.0 * (v * v + 1.0) * root)
            total += (2.0 / 3.0) * math.atan2(u * v, root)
    return total / (4.0 * math.pi)


class TestTxRisChannel:
    def test_single_ray_closed_form(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 4, 0.05, "+y")
        tx = Point3(0, 10, 1.0)
        link = _panel_link("tx_ris", Environment.INH, tx, panel, CARRIER)
        h, meta = with_tables(link, make_scenario(k_db=10.0)).one_trial(
            np.random.default_rng(0)
        )
        assert meta.state.los and meta.state.forced
        pl_linear = 10.0 ** (meta.path_loss_db / 10.0)
        expected_mag = np.sqrt(element_gain(90.0) / pl_linear)
        assert np.allclose(np.abs(h), expected_mag)
        # Broadside incidence: all entries share one common phase.
        assert np.allclose(h, h[0])
        assert np.linalg.norm(h) ** 2 == pytest.approx(
            panel.n_elements * element_gain(90.0) / pl_linear, rel=1e-12
        )

    def test_fully_shadowed_panel_gives_zero_vector(self):
        panel = PanelGeometry.centered(Point3(0, 0, 3.0), 4, 0.05, "+y")
        tx = Point3(49, 10, 4.0)
        link = with_tables(
            _panel_link("tx_ris", Environment.INH, tx, panel, CARRIER),
            make_scenario(k_db=3.0, lg_asa=np.log10(104.0)),
        )
        found = None
        for seed in range(500):
            h, meta = link.one_trial(np.random.default_rng(seed))
            if meta.fully_shadowed:
                found = (h, meta)
                break
        assert found is not None, "no fully shadowed draw in 500 seeds"
        h, meta = found
        assert np.all(h == 0)
        assert not meta.state.los

    def test_behind_panel_rejected(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 4, 0.05, "+y")
        with pytest.raises(ValueError, match="behind"):
            tx_ris_channel(
                Environment.INH, Point3(0, -5, 1.0), panel, CARRIER,
                np.random.default_rng(0),
            )

    def test_deterministic_bit_exact(self):
        panel = PanelGeometry.centered(Point3(38, 50, 3.0), 16, 0.0625, "-y")
        tx = Point3(0, 25, 3.0)
        h1, _ = tx_ris_channel(
            Environment.INH, tx, panel, CARRIER, np.random.default_rng(11)
        )
        h2, _ = tx_ris_channel(
            Environment.INH, tx, panel, CARRIER, np.random.default_rng(11)
        )
        assert np.array_equal(h1, h2)

    def test_warns_inside_fraunhofer(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 256, 0.0625, "+y")
        assert fraunhofer_distance(panel, CARRIER) > 10.0
        with pytest.warns(UserWarning, match="Fraunhofer"):
            tx_ris_channel(
                Environment.INH, Point3(0, 10, 1.0), panel, CARRIER,
                np.random.default_rng(0),
            )

    def test_matches_naive_ray_sum(self):
        panel = PanelGeometry.centered(Point3(2, 8, 2.0), 9, 0.0625, "-y")
        tx = Point3(0, 2, 1.0)
        saw_dropped_rays = False
        for seed in range(20, 30):
            h, meta = tx_ris_channel(
                Environment.UMI, tx, panel, CARRIER, np.random.default_rng(seed)
            )
            clusters = meta.cluster_set
            saw_dropped_rays = saw_dropped_rays or not clusters.ray_mask.all()
            pl_linear = 10.0 ** (meta.path_loss_db / 10.0)
            s = clusters.ray_mask.shape[1]
            naive = np.zeros(panel.n_elements, dtype=complex)
            for c in range(clusters.ray_mask.shape[0]):
                for r in range(s):
                    if not clusters.ray_mask[c, r]:
                        continue
                    coeff = (
                        np.sqrt(clusters.powers[c] / s)
                        * np.sqrt(element_gain(clusters.ray_zenith_deg[c, r]) / pl_linear)
                        * np.exp(1j * clusters.phases_rad[c, r])
                    )
                    naive += coeff * steering_vector(
                        panel,
                        SphericalAngles(
                            clusters.ray_zenith_deg[c, r],
                            clusters.ray_azimuth_deg[c, r],
                        ),
                        CARRIER.wavelength_m,
                    )
            assert np.allclose(h, naive, rtol=1e-10, atol=1e-18)
        assert saw_dropped_rays

    @given(
        side=st.integers(1, 16),
        mask=arrays(bool, array_shapes(min_dims=2, max_dims=2, max_side=6)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(side=5, mask=np.zeros((3, 4), bool), seed=1)
    @example(side=7, mask=np.eye(1, 12, 5, dtype=bool).reshape(3, 4), seed=2)
    @example(side=16,
             mask=np.array([[True, False, True], [False, False, False], [True, True, True]]),
             seed=3)
    @settings(max_examples=60, deadline=None)
    def test_assembly_matches_naive_ray_sum(self, side, mask, seed):
        rng = np.random.default_rng(seed)
        c, s = mask.shape
        clusters = ClusterSet(
            delays_s=np.zeros(c),
            powers=rng.dirichlet(np.ones(c)),
            ray_zenith_deg=rng.uniform(0.0, 180.0, (c, s)),
            ray_azimuth_deg=rng.uniform(-180.0, 180.0, (c, s)),
            phases_rad=rng.uniform(-np.pi, np.pi, (c, s)),
            ray_mask=mask,
        )
        panel = PanelGeometry.centered(Point3(0, 0, 2.0), side * side, 0.0625, "+y")
        pl_linear = 10.0 ** rng.uniform(5.0, 12.0)
        h = _assemble_panel_channel(panel, clusters, pl_linear, CARRIER.wavelength_m)

        naive = np.zeros(panel.n_elements, dtype=complex)
        bound = 0.0
        for ci, ri in zip(*np.nonzero(mask)):
            zenith = clusters.ray_zenith_deg[ci, ri]
            gain = element_gain(zenith)
            coeff = np.sqrt(clusters.powers[ci] / s * gain / pl_linear) * np.exp(
                1j * clusters.phases_rad[ci, ri]
            )
            naive += coeff * steering_vector(
                panel,
                SphericalAngles(zenith, clusters.ray_azimuth_deg[ci, ri]),
                CARRIER.wavelength_m,
            )
            bound += abs(coeff)
        assert h.shape == (panel.n_elements,)
        # Each entry is a sum of unit-modulus terms weighted by |coeff|, so
        # the error is judged against their total, not the (possibly
        # cancelling) entry itself.
        np.testing.assert_allclose(h, naive, rtol=0.0, atol=1e-12 * bound)

    def test_mean_power_is_the_gain_weighted_ray_power(self):
        # Random ray phases make the cross terms average out: E|h|^2 is
        # N * sum over surviving rays of P_c / S * G(zenith) / PL.
        offsets = np.array(
            [0.0447, -0.0447, 0.1413, -0.1413, 0.2492, -0.2492, 0.3715, -0.3715]
        )
        params = make_scenario(
            cluster_count=8,
            rays_per_cluster=8,
            k_db=0.0,
            lg_asa=np.log10(3.0),
            lg_zsa=np.log10(3.0),
            zeta_db=3.0,
            c_asa=0.5,
            c_zsa=0.5,
            ray_offsets=offsets,
        )
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 16, 0.0625, "+y")
        tx = Point3(0, 10, 1.0)
        link = with_tables(
            _panel_link("tx_ris", Environment.INH, tx, panel, CARRIER),
            params,
        )
        total = expected = 0.0
        n_seeds = 10_000
        for seed in range(n_seeds):
            h, meta = link.one_trial(np.random.default_rng(seed))
            clusters = meta.cluster_set
            assert not clusters.ray_mask.sum() < clusters.ray_mask.size * 0.99
            total += np.linalg.norm(h) ** 2
            ray_power = (
                clusters.powers[:, None] / params.rays_per_cluster
                * element_gain(clusters.ray_zenith_deg)
            )
            expected += (
                panel.n_elements * np.sum(ray_power * clusters.ray_mask)
                / 10.0 ** (meta.path_loss_db / 10.0)
            )
        assert total / n_seeds == pytest.approx(expected / n_seeds, rel=0.05)


class TestEffectiveAntennaHeight:
    def test_ris_link_uses_panel_height_minus_one(self):
        from rissim.largescale import path_loss_db
        from rissim.geometry import distance_3d

        panel = PanelGeometry.centered(Point3(62, 55, 7.0), 16, 0.0625, "-y")
        tx = Point3(0, 25, 10.0)
        for seed in range(100):
            h, meta = tx_ris_channel(
                Environment.UMI, tx, panel, CARRIER, np.random.default_rng(seed)
            )
            if not meta.state.los:
                expected = path_loss_db(
                    Environment.UMI,
                    False,
                    distance_3d(tx, panel.center),
                    2.4,
                    h_ut=panel.center.z - 1.0,
                    sf_db=meta.lsps.sf_db,
                )
                assert meta.path_loss_db == pytest.approx(expected, rel=1e-12)
                return
        pytest.fail("no NLOS draw in 100 seeds")

    def test_direct_link_uses_rx_height(self):
        from rissim.largescale import path_loss_db
        from rissim.geometry import distance_3d

        tx, rx = Point3(0, 25, 10.0), Point3(65, 52, 1.0)
        for seed in range(100):
            value, meta = siso_channel(
                Environment.UMI, tx, rx, CARRIER, np.random.default_rng(seed)
            )
            if not meta.state.los:
                expected = path_loss_db(
                    Environment.UMI,
                    False,
                    distance_3d(tx, rx),
                    2.4,
                    h_ut=rx.z,
                    sf_db=meta.lsps.sf_db,
                )
                assert meta.path_loss_db == pytest.approx(expected, rel=1e-12)
                return
        pytest.fail("no NLOS draw in 100 seeds")


class TestSisoChannel:
    def test_single_ray_magnitude(self):
        link = _direct_link(Environment.INH, Point3(0, 0, 1.0), Point3(10, 0, 1.0), CARRIER)
        value, meta = with_tables(link, make_scenario(k_db=6.0)).one_trial(
            np.random.default_rng(2)
        )
        pl_linear = 10.0 ** (meta.path_loss_db / 10.0)
        assert abs(value) == pytest.approx(1.0 / np.sqrt(pl_linear), rel=1e-12)

    def test_mean_power_is_inverse_path_loss(self):
        params = make_scenario(cluster_count=10, rays_per_cluster=4, k_db=0.0,
                               ray_offsets=np.zeros(4), zeta_db=3.0)
        tx, rx = Point3(0, 0, 1.0), Point3(10, 0, 1.5)
        link = with_tables(_direct_link(Environment.INH, tx, rx, CARRIER), params)
        total = 0.0
        pl_db = None
        n_seeds = 10_000
        for seed in range(n_seeds):
            value, meta = link.one_trial(np.random.default_rng(seed))
            total += abs(value) ** 2
            pl_db = meta.path_loss_db
        pl_linear = 10.0 ** (pl_db / 10.0)
        assert total / n_seeds == pytest.approx(1.0 / pl_linear, rel=0.05)

    def test_coincident_terminals_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            siso_channel(
                Environment.INH, Point3(1, 2, 3), Point3(1, 2, 3), CARRIER,
                np.random.default_rng(0),
            )

    def test_deterministic(self):
        args = (Environment.UMI, Point3(0, 25, 10), Point3(65, 52, 1), CARRIER)
        v1, _ = siso_channel(*args, np.random.default_rng(9))
        v2, _ = siso_channel(*args, np.random.default_rng(9))
        assert v1 == v2

    def test_no_elevation_forcing(self):
        # At 100 m the UMi LOS probability is ~0.26; both states must occur.
        states = set()
        for seed in range(60):
            _, meta = siso_channel(
                Environment.UMI, Point3(0, 0, 10), Point3(100, 0, 1), CARRIER,
                np.random.default_rng(seed),
            )
            states.add(meta.state.los)
            assert not meta.state.forced
        assert states == {True, False}


class TestNearField:
    def test_boresight_far_distance_value(self):
        gain = nearfield_plate_gain(Point3(0, 0, 0), 0.0625, Point3(0, 1.0, 0))
        assert gain == pytest.approx(3.104453218e-4, rel=1e-8)
        limit = 0.0625**2 / (4 * np.pi * 1.0**2)
        assert gain / limit == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("direction", [(3, -3, -6), (1, 2, 0), (0, 2, 1)])
    def test_far_distance_limit_off_broadside(self, direction):
        # Far away a plate of area A seen along unit vector (dx, dy, dz)/d
        # captures A (|dy|/d) (1 - (dz/d)^2) / (4 pi d^2): the projected area
        # times the polarization mismatch of a z-oriented field.
        side = 0.0625
        unit = np.array(direction, dtype=float) / np.linalg.norm(direction)
        errors = []
        for mult in (10, 30, 100):
            d = mult * side
            dx, dy, dz = d * unit
            limit = side**2 * (abs(dy) / d) * (1.0 - (dz / d) ** 2) / (4 * np.pi * d**2)
            errors.append(abs(_plate_gain(dx, dz, abs(dy), side) / limit - 1.0))
        assert errors[0] < 1e-2
        assert errors[0] > errors[1] > errors[2]

    def test_reflection_symmetry(self, rng):
        for _ in range(50):
            dx, dz = rng.uniform(-0.5, 0.5, 2)
            y = rng.uniform(0.05, 2.0)
            base = nearfield_plate_gain(Point3(0, 0, 0), 0.05, Point3(dx, y, dz))
            assert nearfield_plate_gain(
                Point3(0, 0, 0), 0.05, Point3(-dx, y, dz)
            ) == pytest.approx(base, rel=1e-12)
            assert nearfield_plate_gain(
                Point3(0, 0, 0), 0.05, Point3(dx, y, -dz)
            ) == pytest.approx(base, rel=1e-12)

    def test_in_plane_receiver_rejected(self):
        with pytest.raises(ValueError, match="plane"):
            nearfield_plate_gain(Point3(0, 0, 0), 0.05, Point3(1.0, 0.0, 0.0))

    def test_phase_multiple_of_wavelength_is_real_positive(self):
        lam = CARRIER.wavelength_m
        panel = PanelGeometry(1, 0.05, Point3(0, 0, 0), "+y")
        g, _ = ris_rx_nearfield(panel, Point3(0, 3 * lam, 0), CARRIER)
        assert g[0].imag == pytest.approx(0.0, abs=1e-12)
        assert g[0].real > 0

    def test_phase_quarter_turn(self):
        lam = CARRIER.wavelength_m
        panel = PanelGeometry(1, 0.05, Point3(0, 0, 0), "+y")
        g, _ = ris_rx_nearfield(panel, Point3(0, 3.25 * lam, 0), CARRIER)
        assert np.angle(g[0]) == pytest.approx(-np.pi / 2, abs=1e-9)

    def test_total_captured_power_below_one(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 1024, 0.0625, "+y")
        for y in (0.05, 0.3, 1.0, 5.0):
            g, _ = ris_rx_nearfield(panel, Point3(0.2, y, 0.9), CARRIER)
            total = np.sum(np.abs(g) ** 2)
            assert 0.0 < total < 1.0

    def test_matches_plate_gain_per_element(self):
        panel = PanelGeometry.centered(Point3(1, 2, 3), 9, 0.07, "+y")
        rx = Point3(1.3, 4.0, 2.5)
        g, _ = ris_rx_nearfield(panel, rx, CARRIER)
        grid = panel.element_grid()
        for n in (0, 4, 8):
            expected = nearfield_plate_gain(Point3(*grid[n]), 0.07, rx)
            assert abs(g[n]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_kernel_matches_scalar_reference(self, rng):
        for _ in range(50):
            side = rng.uniform(0.02, 0.15)
            panel = PanelGeometry.centered(Point3(0, 0, 1.0), 9, side, "+y")
            rx = Point3(rng.uniform(-1, 1), rng.uniform(0.05, 3.0), rng.uniform(0, 2))
            g, _ = ris_rx_nearfield(panel, rx, CARRIER)
            for n, position in enumerate(panel.element_grid()):
                expected = reference_plate_gain(Point3(*position), side, rx)
                assert nearfield_plate_gain(Point3(*position), side, rx) == pytest.approx(
                    expected, rel=1e-12
                )
                assert abs(g[n]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_rx_in_plane_or_behind_rejected(self):
        panel = PanelGeometry.centered(Point3(0, 5, 1.0), 4, 0.05, "-y")
        with pytest.raises(ValueError, match="plane"):
            ris_rx_nearfield(panel, Point3(1, 5, 1), CARRIER)
        with pytest.raises(ValueError, match="behind"):
            ris_rx_nearfield(panel, Point3(1, 8, 1), CARRIER)


class TestElementNormalization:
    """The far-field and near-field per-element power at the fig4 geometry, term by term.

    RIS-Rx 7.348 m at 2.4 GHz, the Rx at dx = 3, dy = -3, dz = -6 m from the
    panel centre. Far field: UMi LOS path loss times the element gain toward
    the LOS zenith. Near field: the plate's mean |g_n|^2, whose small-plate
    limit is free-space spreading times pi times the cosine off the panel
    normal times the polarization factor 1 - (dz/d)^2.
    """

    CENTER, RX = Point3(62, 55, 7), Point3(65, 52, 1)

    @staticmethod
    def db(value):
        return 10.0 * math.log10(value)

    def terms(self):
        d = distance_3d(self.CENTER, self.RX)
        panel = PanelGeometry.centered(self.CENTER, 16, CARRIER.wavelength_m / 2.0, "-y")
        zenith = los_angles(panel, self.RX).zenith_deg
        far = {
            "distance": -path_loss_db(Environment.UMI, True, d, CARRIER.f_c_ghz),
            "peak": self.db(element_gain(90.0)),
            "obliquity": self.db(element_gain(zenith) / element_gain(90.0)),
            "polarization": 0.0,
        }
        near = {
            "distance": -20.0 * math.log10(4.0 * math.pi * d / CARRIER.wavelength_m),
            "peak": self.db(math.pi),
            "obliquity": self.db(abs(self.RX.y - self.CENTER.y) / d),
            "polarization": self.db(1.0 - ((self.RX.z - self.CENTER.z) / d) ** 2),
        }
        return d, far, near

    def plate_mean_db(self, n):
        panel = PanelGeometry.centered(self.CENTER, n, CARRIER.wavelength_m / 2.0, "-y")
        g, _ = ris_rx_nearfield(panel, self.RX, CARRIER)
        return self.db(np.mean(np.abs(g) ** 2))

    def test_each_term_of_the_table(self):
        d, far, near = self.terms()
        assert d == pytest.approx(7.348, abs=5e-4)
        expected_far = {"distance": -54.66, "peak": 4.97, "obliquity": -1.36, "polarization": 0.0}
        expected_near = {
            "distance": -57.38, "peak": 4.97, "obliquity": -3.89, "polarization": -4.77
        }
        assert far == pytest.approx(expected_far, abs=0.01)
        assert near == pytest.approx(expected_near, abs=0.01)
        assert sum(far.values()) == pytest.approx(-51.05, abs=0.01)
        assert self.plate_mean_db(16) == pytest.approx(-61.06, abs=0.01)
        assert self.plate_mean_db(4096) == pytest.approx(-60.27, abs=0.01)

    def test_the_four_gaps_sum_to_the_far_near_difference(self):
        _, far, near = self.terms()
        gaps = [far[term] - near[term] for term in far]
        assert sum(far.values()) - self.plate_mean_db(16) == pytest.approx(sum(gaps), abs=0.05)


class TestRisRxFarfield:
    def test_same_pipeline_shape_and_determinism(self):
        panel = PanelGeometry.centered(Point3(62, 55, 7.0), 16, 0.0625, "-y")
        rx = Point3(65, 52, 1.0)
        g1, meta1 = ris_rx_farfield(
            Environment.UMI, panel, rx, CARRIER, np.random.default_rng(4)
        )
        g2, _ = ris_rx_farfield(
            Environment.UMI, panel, rx, CARRIER, np.random.default_rng(4)
        )
        assert np.array_equal(g1, g2)
        assert g1.shape == (16,)
        # Panel above the Rx forces LOS on this link.
        assert meta1.state.los and meta1.state.forced

    def test_single_ray_closed_form(self):
        panel = PanelGeometry.centered(Point3(0, 0, 2.0), 4, 0.05, "+y")
        rx = Point3(0, 5, 2.0)
        link = _panel_link("ris_rx", Environment.INH, rx, panel, CARRIER)
        g, meta = with_tables(link, make_scenario(k_db=10.0)).one_trial(
            np.random.default_rng(1)
        )
        pl_linear = 10.0 ** (meta.path_loss_db / 10.0)
        assert np.allclose(np.abs(g), np.sqrt(element_gain(90.0) / pl_linear))


class TestSelectFieldRegime:
    def test_inside_fraunhofer_is_near(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 256, 0.0625, "+y")
        rx = Point3(0, 10, 1.0)
        assert select_field_regime(panel, rx, CARRIER) is FieldRegime.NEAR_FIELD

    def test_boundary_is_far(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 16, 0.0625, "+y")
        boundary = fraunhofer_distance(panel, CARRIER)
        rx = Point3(0, boundary, 1.0)
        assert select_field_regime(panel, rx, CARRIER) is FieldRegime.FAR_FIELD

    def test_override_wins(self):
        panel = PanelGeometry.centered(Point3(0, 0, 1.0), 256, 0.0625, "+y")
        rx = Point3(0, 1.0, 1.0)
        assert (
            select_field_regime(panel, rx, CARRIER, FieldRegime.FAR_FIELD)
            is FieldRegime.FAR_FIELD
        )


class TestStreamContract:
    """The rows ``_Link.draw_rows`` writes against the contract's plain sized calls."""

    PANEL = PanelGeometry.centered(Point3(0.0, 0.0, 3.0), 16, 0.0625, "+y")

    @classmethod
    def link(cls, env, kind):
        if kind == "panel-drawn":
            # The terminal is above the panel: the LOS state is drawn.
            return _panel_link("tx_ris", env, Point3(10.0, 30.0, 10.0), cls.PANEL, CARRIER)
        if kind == "panel-forced":
            # The panel is above the terminal: LOS is forced.
            return _panel_link("ris_rx", env, Point3(-5.0, 20.0, 1.5), cls.PANEL, CARRIER)
        return _direct_link(env, Point3(10.0, 30.0, 10.0), Point3(0.0, 5.0, 1.5), CARRIER)

    @pytest.mark.parametrize("env", list(Environment))
    @pytest.mark.parametrize("kind", ["panel-drawn", "panel-forced", "direct"])
    def test_draw_rows_equal_the_plain_sized_calls(self, env, kind):
        link = self.link(env, kind)
        assert link.forced_los == (kind == "panel-forced")
        seeds = range(60)
        references = [np.random.default_rng(seed) for seed in seeds]
        expected = [reference_paths.link_draws(link, rng) for rng in references]
        drawn = [(link.draw(rng), rng) for rng in map(np.random.default_rng, seeds)]
        assert [los for los, _ in drawn] == [los for los, _ in expected]
        states = {los for los, _ in drawn}
        assert states == ({True} if link.forced_los else {True, False})
        for state in states:
            rows = [i for i, (los, _) in enumerate(drawn) if los == state]
            blocks = _Link.draw_rows(state, [(link, drawn[i][1]) for i in rows])
            assert len(blocks) == len(expected[rows[0]][1])
            for row, i in enumerate(rows):
                for block, draw in zip(blocks, expected[i][1]):
                    np.testing.assert_array_equal(block[row], draw)
                after = drawn[i][1].bit_generator.state
                assert after == references[i].bit_generator.state

    def test_the_order_block_holds_one_byte_per_offset(self):
        # Each row is shuffled as intp, but the chunk keeps the small block.
        link = self.link(Environment.UMI, "panel-forced")
        rows = [(link, np.random.default_rng(seed)) for seed in range(3)]
        order = _Link.draw_rows(True, rows)[7]
        c, s = link.params[True].cluster_count, link.params[True].rays_per_cluster
        assert order.shape == (3, 2 * c, s) and order.dtype == np.uint8
