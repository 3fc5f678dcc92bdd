import numpy as np
import pytest

from reference_paths import (
    nearfield_gain_subdivided,
    nearfield_plate_gain,
    optimal_phases,
    phase_grid_search,
    received_snr,
)
from rissim.geometry import Point3
from rissim.link import LinkBudget


class TestSubdivisionOracle:
    def test_k2_matches_whole_plate(self, rng):
        for _ in range(30):
            side = rng.uniform(0.02, 0.15)
            center = Point3(rng.uniform(-1, 1), 0.5, rng.uniform(-1, 1))
            rx = Point3(
                center.x + rng.uniform(-10, 10) * side,
                center.y + rng.uniform(0.5, 30) * side,
                center.z + rng.uniform(-10, 10) * side,
            )
            whole = nearfield_plate_gain(center, side, rx)
            sub = nearfield_gain_subdivided(center, side, rx, 2)
            assert sub == pytest.approx(whole, rel=1e-10)

    def test_k8_matches_k2(self, rng):
        center = Point3(0, 0, 0)
        rx = Point3(0.1, 0.8, -0.2)
        k2 = nearfield_gain_subdivided(center, 0.1, rx, 2)
        k8 = nearfield_gain_subdivided(center, 0.1, rx, 8)
        assert k8 == pytest.approx(k2, rel=1e-10)

    def test_boresight_far_limit(self):
        side = 0.05
        y = 100 * side
        gain = nearfield_gain_subdivided(
            Point3(0, 0, 0), side, Point3(0, y, 0), 4
        )
        assert gain * 4 * np.pi * y**2 / side**2 == pytest.approx(1.0, abs=1e-4)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            nearfield_gain_subdivided(Point3(0, 0, 0), 0.1, Point3(0, 1, 0), 1)


class TestPhaseGridSearch:
    def test_single_element_matches_closed_form(self, rng):
        budget = LinkBudget(1.0, 1.0)
        h = np.array([0.3 - 0.7j])
        g = np.array([-1.1 + 0.2j])
        h_siso = 0.5 + 0.9j
        best = phase_grid_search(h, g, h_siso, 360, budget)
        optimal = received_snr(h, g, optimal_phases(h, g, h_siso), h_siso, budget)
        assert best == pytest.approx(optimal, rel=5e-4)
        assert best <= optimal + 1e-12

    def test_two_elements_bounded_by_optimum(self, rng):
        budget = LinkBudget(1.0, 1.0)
        for _ in range(20):
            h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h_siso = complex(rng.standard_normal(), rng.standard_normal())
            best = phase_grid_search(h, g, h_siso, 64, budget)
            optimal = received_snr(h, g, optimal_phases(h, g, h_siso), h_siso, budget)
            assert best <= optimal * (1 + 1e-3)

    def test_zero_h_equals_direct_snr_everywhere(self):
        budget = LinkBudget(1.0, 1.0)
        h = np.zeros(2, dtype=complex)
        g = np.ones(2, dtype=complex)
        best = phase_grid_search(h, g, 0.6 - 0.8j, 16, budget)
        assert best == pytest.approx(1.0)

    def test_cost_guards(self):
        with pytest.raises(ValueError, match="N <= 4"):
            phase_grid_search(np.ones(5, complex), np.ones(5, complex), 0j, 8)
        with pytest.raises(ValueError, match="too large"):
            phase_grid_search(np.ones(4, complex), np.ones(4, complex), 0j, 128)
        with pytest.raises(ValueError, match="grid points"):
            phase_grid_search(np.ones(1, complex), np.ones(1, complex), 0j, 1)
