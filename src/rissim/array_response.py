"""RIS element radiation pattern and planar-array steering phase factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEERING_CONVENTIONS = ("reference", "textbook")


@dataclass(frozen=True)
class ElementPattern:
    """cos^q power radiation pattern of a single RIS element.

    The gain is 2(2q+1) * cos^{2q}(90 - zenith), maximal at broadside
    (zenith 90 degrees) where it equals 2(2q+1).
    """

    q: float = 0.285

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("pattern exponent q must be positive")


def element_gain(zenith_deg, pattern: ElementPattern = ElementPattern()):
    """Linear element power gain toward the given zenith angle(s).

    Directions with a non-positive cosine argument (outside the open
    (0, 180) zenith range) clamp to zero gain, avoiding fractional powers
    of negative numbers.
    """
    cosine = np.cos(np.radians(90.0 - np.asarray(zenith_deg, dtype=float)))
    gain = 2.0 * (2.0 * pattern.q + 1.0) * np.clip(cosine, 0.0, None) ** (2.0 * pattern.q)
    if np.ndim(zenith_deg) == 0:
        return float(gain)
    return gain


def steering_phase_factors(
    zenith_deg, azimuth_deg, convention: str = "reference"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-direction multipliers (a, b) of the x and z element offsets.

    The steering phase of element n is (2*pi/lambda) * (x_n*a + z_n*b) with
    offsets measured from the first element. The default "reference" convention
    uses a = cos(zenith), b = sin(zenith)*cos(azimuth); "textbook" swaps
    the two terms to the conventional planar-array form.
    """
    if convention not in STEERING_CONVENTIONS:
        raise ValueError(f"unknown steering convention {convention!r}")
    zen = np.radians(np.asarray(zenith_deg, dtype=float))
    azi = np.radians(np.asarray(azimuth_deg, dtype=float))
    if convention == "reference":
        return np.cos(zen), np.sin(zen) * np.cos(azi)
    return np.sin(zen) * np.cos(azi), np.cos(zen)

