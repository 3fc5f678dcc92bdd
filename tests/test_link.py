from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from rissim.link import (
    LinkBudget,
    LinkResult,
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


@st.composite
def trial_channels(draw):
    """(T, N) channels h and g and T direct channels, entries of magnitude <= 10."""
    trials = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    parts = draw(arrays(np.float64, (6, trials, n), elements=st.floats(-10.0, 10.0)))
    h = parts[0] + 1j * parts[1]
    g = parts[2] + 1j * parts[3]
    return h, g, parts[4, :, 0] + 1j * parts[5, :, 0]


class TestTrialAxisProperties:
    """``evaluate_link`` on a chunk: (T, N) channels and T direct channels."""

    budget = LinkBudget(1.0, 1.0)

    @given(channels=trial_channels())
    def test_rows_equal_the_one_trial_form(self, channels):
        h, g, h_siso = channels
        snrs = evaluate_link(h, g, h_siso, self.budget).snr_linear
        for t in range(h.shape[0]):
            one = evaluate_link(h[t], g[t], h_siso[t], self.budget).snr_linear
            # The abs of a complex scalar and of an array may differ in the last bit.
            assert snrs[t] == pytest.approx(one, rel=1e-14, abs=1e-300)

    @given(channels=trial_channels())
    def test_magnitudes_give_the_same_results_bit_for_bit(self, channels):
        # Chunks carry |h| and |g|: the closed form reads no element phase.
        self.check_magnitudes(*channels)

    def test_magnitudes_give_the_same_results_bit_for_bit_across_product_blocks(self, rng):
        # All 20 trials at N=1024 go through one (20, 1024) product.
        h, g, _ = random_channels(rng, (20, 1024))
        self.check_magnitudes(h, g, rng.standard_normal(20) + 1j * rng.standard_normal(20))

    def check_magnitudes(self, h, g, h_siso):
        for index in (np.s_[:], np.s_[0]):
            h_rows, g_rows, direct = h[index], g[index], h_siso[index]
            magnitudes = evaluate_link(np.abs(h_rows), np.abs(g_rows), direct, self.budget)
            complex_rows = evaluate_link(h_rows, g_rows, direct, self.budget)
            for field in fields(LinkResult):
                value, expected = (getattr(r, field.name) for r in (magnitudes, complex_rows))
                np.testing.assert_array_equal(value, expected)

    @given(channels=trial_channels())
    def test_never_falls_as_elements_are_appended(self, channels):
        h, g, h_siso = channels
        previous = evaluate_link(h[:, :0], g[:, :0], h_siso, self.budget).snr_linear
        for n in range(1, h.shape[1] + 1):
            snr = evaluate_link(h[:, :n], g[:, :n], h_siso, self.budget).snr_linear
            assert np.all(snr >= previous * (1.0 - 1e-12))
            previous = snr

    @given(
        channels=trial_channels(),
        angles=arrays(np.float64, (3, 6), elements=st.floats(-np.pi, np.pi)),
    )
    def test_invariant_under_a_common_phase_rotation(self, channels, angles):
        h, g, h_siso = channels
        trials = h.shape[0]
        rotate_h, rotate_g, rotate_direct = np.exp(1j * angles[:, :trials])
        base = evaluate_link(h, g, h_siso, self.budget).snr_linear
        rotated = evaluate_link(
            h * rotate_h[:, None], g * rotate_g[:, None], h_siso * rotate_direct, self.budget
        ).snr_linear
        np.testing.assert_allclose(rotated, base, rtol=1e-12, atol=1e-300)
