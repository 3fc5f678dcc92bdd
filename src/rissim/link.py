"""Link budget, and the SNR and achievable rate under optimal RIS phases."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The noise power, a model constant: SNR and rate depend on the two powers
# only through p_t / n_0, which the transmit power already sets.
N_0_DBM = -130.0


@dataclass(frozen=True)
class LinkBudget:
    """Transmit and noise power in mW."""

    p_t_mw: float
    n_0_mw: float

    def __post_init__(self):
        if self.p_t_mw <= 0 or self.n_0_mw <= 0:
            raise ValueError("powers must be positive")

    @classmethod
    def from_dbm(cls, p_t_dbm: float, n_0_dbm: float = N_0_DBM) -> "LinkBudget":
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
    With (T, N) channels and T direct channels every field is a (T,) array;
    the products take two (T, N) float64 temporaries, bounded by the caller's
    chunk of trials.
    """
    if np.shape(h) != np.shape(g):
        raise ValueError("h and g must have equal length")
    direct = np.abs(h_siso)
    product = np.abs(h)
    product *= np.abs(g)
    ris_path = product.sum(axis=-1)
    snr = budget.p_t_mw * (direct + ris_path) ** 2 / budget.n_0_mw
    return LinkResult(
        snr_linear=snr,
        rate_bps_hz=achievable_rate(snr),
        direct_magnitude=direct,
        ris_path_magnitude=ris_path,
    )
