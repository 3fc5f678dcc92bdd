"""RIS element radiation pattern and planar-array steering phase factors."""

from __future__ import annotations

import numpy as np

# Exponent of the cos^q element power pattern. Its broadside peak 2(2q+1) =
# 3.14 equals the near-field plate's broadside peak pi (ROADMAP item 5).
PATTERN_Q = 0.285


def element_gain(zenith_deg):
    """Linear element power gain 2(2q+1) * cos^{2q}(90 - zenith) toward the zenith angle(s).

    Maximal at broadside (zenith 90 degrees), where it equals 2(2q+1).
    Directions with a non-positive cosine argument (outside the open
    (0, 180) zenith range) clamp to zero gain, avoiding fractional powers
    of negative numbers.
    """
    cosine = np.cos(np.radians(90.0 - np.asarray(zenith_deg, dtype=float)))
    gain = 2.0 * (2.0 * PATTERN_Q + 1.0) * np.clip(cosine, 0.0, None) ** (2.0 * PATTERN_Q)
    if np.ndim(zenith_deg) == 0:
        return float(gain)
    return gain


def steering_phase_factors(zenith_deg, azimuth_deg) -> tuple[np.ndarray, np.ndarray]:
    """Per-direction multipliers (a, b) of the x and z element offsets.

    The steering phase of element n is (2*pi/lambda) * (x_n*a + z_n*b) with
    offsets measured from the first element, a = cos(zenith) and
    b = sin(zenith)*cos(azimuth).
    """
    zen = np.radians(np.asarray(zenith_deg, dtype=float))
    azi = np.radians(np.asarray(azimuth_deg, dtype=float))
    return np.cos(zen), np.sin(zen) * np.cos(azi)
