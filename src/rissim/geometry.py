"""3D coordinate handling, panel-local angles and RIS element grid layout.

The RIS is a square panel of N elements on a plane of constant y, with the
first element at the bottom-left corner and elements counted row-major
(x fastest, then z). Angles follow one fixed convention throughout the
package: zenith is measured from the global +z axis, azimuth is measured in
the panel-local frame so that the panel boresight direction is azimuth 90
degrees. A source in the closed front half-space therefore has azimuth in
[0, 180] degrees.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 2.998e8
"""Propagation speed used for all wavelength computations [m/s]."""


@dataclass(frozen=True)
class Point3:
    """A point in 3D cartesian space, components in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"Point3 components must be finite, got {self}")


@dataclass(frozen=True)
class SphericalAngles:
    """Zenith/azimuth pair in degrees.

    Zenith lies in [0, 180] (measured from +z), azimuth in (-180, 180]
    (measured from the panel-local x axis, boresight at 90 degrees).
    """

    zenith_deg: float
    azimuth_deg: float

    def __post_init__(self):
        if not 0.0 <= self.zenith_deg <= 180.0:
            raise ValueError(f"zenith must be in [0, 180], got {self.zenith_deg}")
        if not -180.0 < self.azimuth_deg <= 180.0:
            raise ValueError(f"azimuth must be in (-180, 180], got {self.azimuth_deg}")


@dataclass(frozen=True)
class CarrierConfig:
    """Operating frequency in GHz and the derived wavelength."""

    f_c_ghz: float

    def __post_init__(self):
        if self.f_c_ghz <= 0:
            raise ValueError("carrier frequency must be positive")
        if not 0.5 <= self.f_c_ghz <= 7.0:
            warnings.warn(
                f"carrier frequency {self.f_c_ghz} GHz is outside the sub-6 GHz "
                "design range [0.5, 7] GHz",
                stacklevel=2,
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / (self.f_c_ghz * 1e9)


@dataclass(frozen=True)
class PanelGeometry:
    """Square RIS panel on a plane of constant y.

    Attributes:
        n_elements: Total element count N; must be a perfect square.
        spacing: Horizontal and vertical inter-element distance d [m].
        first_element: Position of the bottom-left corner element.
        boresight: "+y" or "-y", the direction the panel front faces.
    """

    n_elements: int
    spacing: float
    first_element: Point3
    boresight: str = "+y"
    _side: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        side = math.isqrt(self.n_elements)
        if side * side != self.n_elements:
            raise ValueError(f"n_elements must be a perfect square, got {self.n_elements}")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.boresight not in ("+y", "-y"):
            raise ValueError(f"boresight must be '+y' or '-y', got {self.boresight!r}")
        object.__setattr__(self, "_side", side)

    @classmethod
    def centered(
        cls, center: Point3, n_elements: int, spacing: float, boresight: str = "+y"
    ) -> "PanelGeometry":
        """Build a panel whose element grid is centered on ``center``."""
        half_span = (math.isqrt(n_elements) - 1) * spacing / 2.0
        first = Point3(center.x - half_span, center.y, center.z - half_span)
        return cls(n_elements, spacing, first, boresight)

    @property
    def side(self) -> int:
        """Number of elements per row/column (sqrt of N)."""
        return self._side

    @property
    def center(self) -> Point3:
        """Geometric center of the element grid."""
        half_span = (self._side - 1) * self.spacing / 2.0
        return Point3(
            self.first_element.x + half_span,
            self.first_element.y,
            self.first_element.z + half_span,
        )

    @property
    def boresight_sign(self) -> float:
        return 1.0 if self.boresight == "+y" else -1.0

    def element_grid(self) -> np.ndarray:
        """Element positions as an (N, 3) array, row-major from bottom-left."""
        n = np.arange(self.n_elements)
        cols = np.mod(n, self._side)
        rows = n // self._side
        out = np.empty((self.n_elements, 3), dtype=float)
        out[:, 0] = self.first_element.x + self.spacing * cols
        out[:, 1] = self.first_element.y
        out[:, 2] = self.first_element.z + self.spacing * rows
        return out


def distance_3d(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points [m]."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def distance_2d(a: Point3, b: Point3) -> float:
    """Horizontal (ground-plane) distance between two points [m]."""
    return math.hypot(a.x - b.x, a.y - b.y)


def los_angles(panel: PanelGeometry, source: Point3) -> SphericalAngles:
    """Line-of-sight zenith/azimuth of ``source`` as seen from the panel center.

    Zenith is measured from the global +z axis. Azimuth is measured in the
    panel-local frame: the boresight direction maps to 90 degrees, so any
    source in the closed front half-space yields azimuth in [0, 180].

    Raises:
        ValueError: if the source coincides with the panel center.
    """
    ref = panel.center
    dx = source.x - ref.x
    dy = source.y - ref.y
    dz = source.z - ref.z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist == 0.0:
        raise ValueError("source coincides with the panel reference point")
    zenith = math.degrees(math.acos(max(-1.0, min(1.0, dz / dist))))
    azimuth = math.degrees(math.atan2(panel.boresight_sign * dy, dx))
    if azimuth <= -180.0:
        azimuth += 360.0
    return SphericalAngles(zenith, azimuth)


def fraunhofer_distance(panel: PanelGeometry, carrier: CarrierConfig) -> float:
    """Far-field (Fraunhofer) distance N*lambda/2 of a square RIS [m]."""
    return panel.n_elements * carrier.wavelength_m / 2.0
