import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rissim.geometry import (
    CarrierConfig,
    PanelGeometry,
    Point3,
    distance_2d,
    distance_3d,
    fraunhofer_distance,
    los_angles,
)

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


class TestDistance:
    def test_zero_for_identical_points(self):
        assert distance_3d(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0

    def test_indoor_tx_to_ris(self):
        assert distance_3d(Point3(0, 25, 3), Point3(38, 50, 3)) == pytest.approx(
            45.4863, abs=5e-3
        )

    def test_pythagorean_triple(self):
        assert distance_3d(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0

    @given(finite, finite, finite, finite, finite, finite)
    def test_symmetric_and_nonnegative(self, x1, y1, z1, x2, y2, z2):
        a, b = Point3(x1, y1, z1), Point3(x2, y2, z2)
        assert distance_3d(a, b) == distance_3d(b, a) >= 0.0

    def test_2d_ignores_height(self):
        assert distance_2d(Point3(0, 0, 5), Point3(3, 4, -7)) == 5.0


class TestPoint3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point3(0.0, math.nan, 0.0)
        with pytest.raises(ValueError):
            Point3(math.inf, 0.0, 0.0)


class TestPanelGeometry:
    def test_requires_perfect_square(self):
        with pytest.raises(ValueError):
            PanelGeometry(5, 0.05, Point3(0, 0, 0))
        with pytest.raises(ValueError, match="perfect square"):
            PanelGeometry.centered(Point3(0, 0, 0), 5, 0.05)

    def test_requires_positive_spacing(self):
        with pytest.raises(ValueError):
            PanelGeometry(4, 0.0, Point3(0, 0, 0))

    def test_single_element(self):
        panel = PanelGeometry(1, 0.1, Point3(1, 2, 3))
        assert panel.element_grid().tolist() == [[1.0, 2.0, 3.0]]

    def test_four_elements_row_major(self):
        panel = PanelGeometry(4, 0.05, Point3(1, 0, 2))
        assert panel.element_grid().tolist() == [
            [1.0, 0.0, 2.0],
            [1.05, 0.0, 2.0],
            [1.0, 0.0, 2.05],
            [1.05, 0.0, 2.05],
        ]

    def test_nine_elements_fifth_position(self):
        panel = PanelGeometry(9, 0.1, Point3(0, 0, 0))
        assert panel.element_grid()[4].tolist() == [0.1, 0.0, 0.1]

    @pytest.mark.parametrize("n", [4, 16, 81])
    def test_grid_nearest_neighbor_spacing(self, n):
        panel = PanelGeometry(n, 0.07, Point3(-1, 2, 0.5))
        grid = panel.element_grid()
        diff = grid[:, None, :] - grid[None, :, :]
        dists = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() == pytest.approx(0.07)
        side = int(round(math.sqrt(n)))
        assert len(set(map(tuple, grid))) == n
        assert np.unique(grid[:, 0]).size == side
        assert np.unique(grid[:, 2]).size == side

    def test_centered_constructor(self):
        panel = PanelGeometry.centered(Point3(10, 5, 3), 16, 0.1, "-y")
        center = panel.center
        assert (center.x, center.y, center.z) == pytest.approx((10, 5, 3))
        assert panel.boresight_sign == -1.0


class TestLosAngles:
    def make_panel(self, boresight="+y"):
        return PanelGeometry(1, 0.05, Point3(0, 0, 0), boresight)

    def test_broadside(self):
        angles = los_angles(self.make_panel(), Point3(0, 10, 0))
        assert angles.zenith_deg == pytest.approx(90.0)
        assert angles.azimuth_deg == pytest.approx(90.0)

    def test_elevated_source(self):
        angles = los_angles(self.make_panel(), Point3(0, 10, 10))
        assert angles.zenith_deg == pytest.approx(45.0)
        assert angles.azimuth_deg == pytest.approx(90.0)

    def test_diagonal_in_plane(self):
        angles = los_angles(self.make_panel(), Point3(10, 10, 0))
        assert angles.zenith_deg == pytest.approx(90.0)
        assert angles.azimuth_deg == pytest.approx(45.0)

    def test_minus_y_boresight_maps_to_90(self):
        angles = los_angles(self.make_panel("-y"), Point3(0, -10, 0))
        assert angles.azimuth_deg == pytest.approx(90.0)

    def test_coincident_source_raises(self):
        with pytest.raises(ValueError):
            los_angles(self.make_panel(), Point3(0, 0, 0))

    @given(finite, st.floats(1e-3, 1e4), finite)
    def test_front_halfspace_azimuth_range(self, x, y, z):
        panel = self.make_panel()
        angles = los_angles(panel, Point3(x, y, z))
        assert 0.0 < angles.azimuth_deg < 180.0 or (
            x != 0.0 and angles.azimuth_deg in (0.0, 180.0)
        )

    @given(finite, st.floats(1e-3, 1e4), finite)
    def test_boresight_mirror_symmetry(self, x, y, z):
        front = los_angles(self.make_panel("+y"), Point3(x, y, z))
        back = los_angles(self.make_panel("-y"), Point3(x, -y, z))
        assert front.azimuth_deg == pytest.approx(back.azimuth_deg)
        assert front.zenith_deg == pytest.approx(back.zenith_deg)


class TestFraunhofer:
    def test_256_elements_at_2p4_ghz(self):
        panel = PanelGeometry(256, 0.05, Point3(0, 0, 0))
        assert fraunhofer_distance(panel, CarrierConfig(2.4)) == pytest.approx(
            15.989, abs=1e-3
        )

    def test_single_element_two_meter_wavelength(self):
        panel = PanelGeometry(1, 0.05, Point3(0, 0, 0))
        f_c = 2.998e8 / 2.0 / 1e9
        with pytest.warns(UserWarning):
            carrier = CarrierConfig(f_c)
        assert fraunhofer_distance(panel, carrier) == pytest.approx(1.0)

    def test_1024_elements_at_5p8_ghz(self):
        panel = PanelGeometry(1024, 0.05, Point3(0, 0, 0))
        assert fraunhofer_distance(panel, CarrierConfig(5.8)) == pytest.approx(
            26.465, abs=1e-2
        )

    def test_scales_linearly_in_n_and_inversely_in_frequency(self):
        small = PanelGeometry(64, 0.05, Point3(0, 0, 0))
        large = PanelGeometry(256, 0.05, Point3(0, 0, 0))
        c24, c48 = CarrierConfig(2.4), CarrierConfig(4.8)
        assert fraunhofer_distance(large, c24) == pytest.approx(
            4 * fraunhofer_distance(small, c24)
        )
        assert fraunhofer_distance(small, c48) == pytest.approx(
            fraunhofer_distance(small, c24) / 2
        )


class TestCarrierConfig:
    def test_wavelength(self):
        assert CarrierConfig(2.4).wavelength_m == pytest.approx(0.1249167, abs=1e-6)

    def test_warns_outside_band(self):
        with pytest.warns(UserWarning):
            CarrierConfig(28.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CarrierConfig(0.0)
