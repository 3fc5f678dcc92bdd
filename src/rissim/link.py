"""Link budget, optimal RIS phases, received SNR and achievable rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise power in mW. Default noise: -130 dBm."""

    p_t_mw: float = 100.0
    n_0_mw: float = 1e-13

    def __post_init__(self):
        if self.p_t_mw <= 0 or self.n_0_mw <= 0:
            raise ValueError("powers must be positive")

    @classmethod
    def from_dbm(cls, p_t_dbm: float, n_0_dbm: float = -130.0) -> "LinkBudget":
        return cls(10.0 ** (p_t_dbm / 10.0), 10.0 ** (n_0_dbm / 10.0))


@dataclass(frozen=True)
class LinkResult:
    """SNR/rate of one configured realization plus component magnitudes.

    For a chunk of trials each field is a (T,) array.
    """

    snr_linear: float
    rate_bps_hz: float
    direct_magnitude: float
    ris_path_magnitude: float


def optimal_phases(h: np.ndarray, g: np.ndarray, h_siso: complex) -> np.ndarray:
    """SNR-maximizing RIS phases: align every reflected term with the direct path.

    alpha_n = arg(h_siso) - arg(h_n * g_n); the RIS magnitudes are one. When
    the direct channel is zero the terms are aligned to zero phase instead,
    and elements with a vanishing product get a zero phase shift. Together
    with ``received_snr`` this is the explicit-phase oracle of the closed
    form in ``evaluate_link``.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if h.shape != g.shape:
        raise ValueError("h and g must have equal length")
    product = h * g
    reference = np.angle(h_siso) if h_siso != 0 else 0.0
    return np.where(product != 0, reference - np.angle(product), 0.0)


def received_snr(
    h: np.ndarray,
    g: np.ndarray,
    phases_rad: np.ndarray,
    h_siso: complex,
    budget: LinkBudget,
) -> float:
    """Instantaneous received SNR p_t * |g^T Theta h + h_siso|^2 / n_0.

    Theta is diagonal with unit-magnitude entries exp(j * phases_rad).
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    combined = np.sum(g * np.exp(1j * np.asarray(phases_rad, dtype=float)) * h) + h_siso
    return budget.p_t_mw * abs(combined) ** 2 / budget.n_0_mw


def achievable_rate(snr_linear):
    """Achievable rate log2(1 + snr) in bits/s/Hz, elementwise for an array."""
    if np.any(np.asarray(snr_linear) < 0):
        raise ValueError("SNR must be non-negative")
    return np.log2(1.0 + snr_linear)


def evaluate_link(
    h: np.ndarray, g: np.ndarray, h_siso: complex, budget: LinkBudget
) -> LinkResult:
    """SNR, rate and component magnitudes under optimal RIS phases.

    Optimal phases align every reflected term with the direct path, so the
    SNR has the closed form p_t * (|h_siso| + sum_n |h_n| |g_n|)^2 / n_0.
    With (T, N) channels and T direct channels every field is a (T,) array.
    """
    if np.shape(h) != np.shape(g):
        raise ValueError("h and g must have equal length")
    direct = np.abs(h_siso)
    ris_path = np.sum(np.abs(h) * np.abs(g), axis=-1)
    snr = budget.p_t_mw * (direct + ris_path) ** 2 / budget.n_0_mw
    return LinkResult(
        snr_linear=snr,
        rate_bps_hz=achievable_rate(snr),
        direct_magnitude=direct,
        ris_path_magnitude=ris_path,
    )
