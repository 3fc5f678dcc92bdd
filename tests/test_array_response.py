import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_paths import steering_vector
from rissim.array_response import PATTERN_Q, element_gain, steering_phase_factors
from rissim.geometry import PanelGeometry, Point3, SphericalAngles


class TestElementGain:
    def test_boresight_peak(self):
        assert element_gain(90.0) == pytest.approx(3.14, abs=5e-3)

    def test_zero_at_panel_normal_plane(self):
        assert element_gain(0.0) == pytest.approx(0.0, abs=1e-8)
        assert element_gain(180.0) == pytest.approx(0.0, abs=1e-8)
        assert element_gain(-5.0) == 0.0
        assert element_gain(185.0) == 0.0

    def test_45_degrees(self):
        assert element_gain(45.0) == pytest.approx(2.577, abs=2e-3)

    @given(st.floats(0.0, 180.0))
    def test_bounded_by_peak(self, zenith):
        assert 0.0 <= element_gain(zenith) <= element_gain(90.0) + 1e-12

    @pytest.mark.parametrize("zenith", [45.0, [0.0, 90.0, 45.0], [[10.0, 90.0], [137.5, 185.0]]])
    def test_returns_an_array_shaped_like_its_input(self, zenith):
        gains = element_gain(zenith)
        assert isinstance(gains, np.ndarray)
        assert gains.shape == np.shape(zenith)

    def test_vectorized(self):
        gains = element_gain(np.array([0.0, 90.0, 45.0]))
        assert gains.shape == (3,)
        assert gains[1] == pytest.approx(3.14, abs=5e-3)

    def test_is_the_cos_power_formula_with_the_model_exponent(self):
        assert PATTERN_Q == 0.285
        zenith = np.array([10.0, 45.0, 90.0, 137.5])
        cosine = np.cos(np.radians(90.0 - zenith))
        expected = 2.0 * (2.0 * 0.285 + 1.0) * cosine ** (2.0 * 0.285)
        assert np.array_equal(element_gain(zenith), expected)


class TestSteeringPhaseFactors:
    def test_reference_convention_values(self):
        a, b = steering_phase_factors(40.0, 70.0)
        assert a == np.cos(np.radians(40.0))
        assert b == np.sin(np.radians(40.0)) * np.cos(np.radians(70.0))

    def test_broadcasts_over_ray_arrays(self):
        zenith = np.full((3, 20), 60.0)
        a, b = steering_phase_factors(zenith, np.linspace(-90.0, 90.0, 20))
        assert a.shape == b.shape == (3, 20)
        assert np.allclose(a, 0.5)
        assert np.allclose(b[:, [0, -1]], 0.0)


class TestSteeringVector:
    def panel(self, n=4, spacing=0.0625):
        return PanelGeometry(n, spacing, Point3(0, 0, 0))

    def test_broadside_is_all_ones(self):
        sv = steering_vector(self.panel(16), SphericalAngles(90.0, 90.0), 0.125)
        assert np.allclose(sv, 1.0)

    def test_zenith_90_azimuth_0_alternates_rows(self):
        sv = steering_vector(self.panel(), SphericalAngles(90.0, 0.0), 0.125)
        assert np.allclose(sv, [1, 1, -1, -1])

    def test_zenith_0_alternates_columns(self):
        sv = steering_vector(self.panel(), SphericalAngles(0.0, 37.0), 0.125)
        assert np.allclose(sv, [1, -1, 1, -1])

    @given(st.floats(0.0, 180.0), st.floats(-179.999, 180.0))
    def test_unit_modulus_first_entry_one(self, zenith, azimuth):
        sv = steering_vector(self.panel(9, 0.05), SphericalAngles(zenith, azimuth), 0.1)
        assert np.allclose(np.abs(sv), 1.0)
        assert sv[0] == 1.0 + 0.0j

    def test_conjugates_when_phase_terms_negate(self):
        # Mirroring both angle factors flips the sign of every phase term.
        panel = self.panel(16, 0.05)
        sv = steering_vector(panel, SphericalAngles(60.0, 40.0), 0.1)
        mirrored = steering_vector(panel, SphericalAngles(120.0, 140.0), 0.1)
        assert np.allclose(mirrored, np.conj(sv))

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            steering_vector(self.panel(), SphericalAngles(90, 90), 0.0)
