import numpy as np
import pytest

from rissim.link import (
    LinkBudget,
    achievable_rate,
    evaluate_link,
    optimal_phases,
    received_snr,
)


def random_channels(rng, n):
    h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h_siso = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return h, g, h_siso


class TestLinkBudget:
    def test_from_dbm(self):
        budget = LinkBudget.from_dbm(20.0, -130.0)
        assert budget.p_t_mw == pytest.approx(100.0)
        assert budget.n_0_mw == pytest.approx(1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LinkBudget(p_t_mw=0.0)


class TestOptimalPhases:
    def test_already_aligned_real_positive(self):
        h = np.array([1.0 + 0j, 2.0 + 0j])
        g = np.array([3.0 + 0j, 0.5 + 0j])
        phases = optimal_phases(h, g, 1.0 + 0j)
        assert np.allclose(phases, 0.0)

    def test_quarter_turn_example(self):
        phases = optimal_phases(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 1j)
        assert phases[0] == pytest.approx(np.pi / 2)

    def test_every_summand_aligned_with_direct_path(self, rng):
        h, g, h_siso = random_channels(rng, 6)
        summands = g * np.exp(1j * optimal_phases(h, g, h_siso)) * h
        assert np.allclose(np.angle(summands), np.angle(h_siso))

    def test_zero_direct_aligns_to_zero_phase(self, rng):
        h, g, _ = random_channels(rng, 4)
        summands = g * np.exp(1j * optimal_phases(h, g, 0.0)) * h
        assert np.allclose(np.angle(summands), 0.0, atol=1e-12)

    def test_zero_product_gets_zero_shift(self):
        h = np.array([0.0 + 0j, 1.0 + 0j])
        g = np.array([1.0 + 0j, 1.0 + 0j])
        assert optimal_phases(h, g, 1j)[0] == 0.0


class TestReceivedSnr:
    def test_no_ris_numeric_example(self):
        budget = LinkBudget(p_t_mw=1.0, n_0_mw=1e-13)
        empty = np.zeros(0, dtype=complex)
        snr = received_snr(empty, empty, np.zeros(0), complex(1e-5), budget)
        assert snr == pytest.approx(1000.0)
        assert achievable_rate(snr) == pytest.approx(9.967, abs=1e-3)

    def test_zero_h_reduces_to_direct_only(self, rng):
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h = np.zeros(5, dtype=complex)
        budget = LinkBudget(1.0, 1.0)
        h_siso = 0.3 - 0.4j
        arbitrary = rng.uniform(-np.pi, np.pi, 5)
        snr = received_snr(h, g, arbitrary, h_siso, budget)
        assert snr == pytest.approx(abs(h_siso) ** 2)

    def test_optimal_at_least_arbitrary(self, rng):
        budget = LinkBudget(1.0, 1.0)
        for _ in range(300):
            h, g, h_siso = random_channels(rng, 4)
            best = received_snr(h, g, optimal_phases(h, g, h_siso), h_siso, budget)
            other = rng.uniform(-np.pi, np.pi, 4)
            assert best >= received_snr(h, g, other, h_siso, budget) - 1e-9

    def test_optimal_closed_form_value(self, rng):
        h, g, h_siso = random_channels(rng, 8)
        budget = LinkBudget(2.0, 0.5)
        snr = received_snr(h, g, optimal_phases(h, g, h_siso), h_siso, budget)
        aligned = np.sum(np.abs(h) * np.abs(g)) + abs(h_siso)
        assert snr == pytest.approx(budget.p_t_mw * aligned**2 / budget.n_0_mw)

    def test_invariant_under_common_rotation(self, rng):
        h, g, h_siso = random_channels(rng, 5)
        phases = optimal_phases(h, g, h_siso)
        budget = LinkBudget(1.0, 1.0)
        base = received_snr(h, g, phases, h_siso, budget)
        psi = np.exp(1j * 1.234)
        rotated = received_snr(h * psi, g, phases, h_siso * psi, budget)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_snr_never_below_direct_link(self, rng):
        budget = LinkBudget(1.0, 1.0)
        for _ in range(200):
            h, g, h_siso = random_channels(rng, 3)
            with_ris = received_snr(h, g, optimal_phases(h, g, h_siso), h_siso, budget)
            assert with_ris >= abs(h_siso) ** 2 - 1e-12

    def test_monotone_in_appended_elements(self, rng):
        budget = LinkBudget(1.0, 1.0)
        h, g, h_siso = random_channels(rng, 6)
        prev = 0.0
        for n in range(1, 7):
            snr = received_snr(
                h[:n], g[:n], optimal_phases(h[:n], g[:n], h_siso), h_siso, budget
            )
            assert snr >= prev - 1e-12
            prev = snr


class TestAchievableRate:
    def test_zero_snr(self):
        assert achievable_rate(0.0) == 0.0

    def test_unit_snr(self):
        assert achievable_rate(1.0) == 1.0

    def test_thousand(self):
        assert achievable_rate(1000.0) == pytest.approx(9.967, abs=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(-0.1)


class TestEvaluateLink:
    def test_components_reported(self, rng):
        h, g, h_siso = random_channels(rng, 4)
        result = evaluate_link(h, g, h_siso, LinkBudget(1.0, 1.0))
        assert result.direct_magnitude == pytest.approx(abs(h_siso))
        assert result.ris_path_magnitude == pytest.approx(np.sum(np.abs(h * g)))
        assert result.rate_bps_hz == pytest.approx(np.log2(1 + result.snr_linear))

    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_closed_form_equals_explicit_optimal_phases(self, rng, n):
        budget = LinkBudget.from_dbm(20.0, -130.0)
        h, g, h_siso = random_channels(rng, n)
        h, g, h_siso = 1e-4 * h, 1e-4 * g, 1e-7 * h_siso
        if n > 1:
            h[1] = 0.0
        for direct in (h_siso, 0.0):
            oracle = received_snr(h, g, optimal_phases(h, g, direct), direct, budget)
            closed = evaluate_link(h, g, direct, budget).snr_linear
            assert closed == pytest.approx(oracle, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            evaluate_link(np.ones(2), np.ones(3), 0.0, LinkBudget())
