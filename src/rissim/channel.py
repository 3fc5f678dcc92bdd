"""Assembly of the three link channels and RIS-Rx field-regime selection.

Three links make up a realization: the stochastic Tx-RIS vector h, the scalar
Tx-Rx direct channel, and the RIS-Rx vector g which is either stochastic
(far field) or a deterministic pure-LOS per-element coefficient (near field).
All stochastic links are narrowband: cluster delays only shape the power and
angle statistics, and the output is a single complex coefficient per element.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .array_response import ElementPattern, element_gain, steering_phase_factors
from .geometry import (
    CarrierConfig,
    PanelGeometry,
    Point3,
    SphericalAngles,
    distance_2d,
    distance_3d,
    fraunhofer_distance,
    los_angles,
)
from .largescale import (
    Environment,
    LargeScaleParams,
    LinkState,
    ScenarioParams,
    assign_link_state,
    draw_lsps,
    load_scenario_params,
    los_probability,
    path_loss_db,
)
from .smallscale import (
    ClusterSet,
    build_cluster_set,
    cluster_powers,
    draw_delays,
    draw_phases,
    draw_ray_angles,
    filter_front_hemisphere,
)


class FieldRegime(Enum):
    FAR_FIELD = "far_field"
    NEAR_FIELD = "near_field"


@dataclass(frozen=True)
class LinkMetadata:
    """What went into one generated link, for inspection and statistics."""

    kind: str
    state: LinkState
    path_loss_db: Optional[float] = None
    lsps: Optional[LargeScaleParams] = None
    cluster_set: Optional[ClusterSet] = None
    los_direction: Optional[SphericalAngles] = None
    fully_shadowed: bool = False


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all three link channels plus their metadata."""

    h: np.ndarray
    g: np.ndarray
    g_regime: FieldRegime
    h_siso: complex
    metadata: dict


def _resolve_params(
    env: Environment,
    los: bool,
    overrides: Optional[Mapping[bool, ScenarioParams]],
) -> ScenarioParams:
    if overrides is not None and los in overrides:
        return overrides[los]
    return load_scenario_params(env, los)


def _assemble_panel_channel(
    panel: PanelGeometry,
    cluster_set: ClusterSet,
    pl_linear: float,
    pattern: Optional[ElementPattern],
    wavelength_m: float,
    convention: str,
) -> np.ndarray:
    """Sum the surviving rays' contributions into the N-element channel vector.

    The steering phase separates into independent column/row factors on the
    square grid, so the ray sum reduces to one small matrix product. Along
    the element index each factor is a geometric series, built as a running
    product of one complex exponential per ray.
    """
    mask = cluster_set.ray_mask
    if not mask.any():
        return np.zeros(panel.n_elements, dtype=complex)
    n_rays = mask.shape[1]
    zenith = cluster_set.ray_zenith_deg[mask]
    gains = element_gain(zenith, pattern) if pattern is not None else np.ones_like(zenith)
    coeffs = (
        np.sqrt(cluster_set.powers[np.nonzero(mask)[0]] / n_rays)
        * np.sqrt(gains / pl_linear)
        * np.exp(1j * cluster_set.phases_rad[mask])
    )
    a, b = steering_phase_factors(zenith, cluster_set.ray_azimuth_deg[mask], convention)
    kd = 2.0 * np.pi / wavelength_m * panel.spacing
    # Row k holds the factors of element index k: column (a) rays, then row (b) rays.
    factors = np.empty((panel.side, 2 * zenith.size), dtype=complex)
    factors[0] = 1.0
    factors[1:] = np.exp(1j * kd * np.concatenate((a, b)))
    np.cumprod(factors, axis=0, out=factors)
    col_factors, row_factors = np.hsplit(factors, 2)
    grid = (row_factors * coeffs) @ col_factors.T
    return grid.reshape(-1)


def _stochastic_panel_link(
    kind: str,
    env: Environment,
    terminal: Point3,
    panel: PanelGeometry,
    carrier: CarrierConfig,
    rng: np.random.Generator,
    pattern: Optional[ElementPattern],
    convention: str,
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]],
) -> tuple[np.ndarray, LinkMetadata]:
    """Shared generation pipeline for the Tx-RIS and far-field RIS-Rx links."""
    center = panel.center
    if panel.boresight_sign * (terminal.y - center.y) < 0.0:
        raise ValueError(f"{kind}: terminal lies behind the panel")
    los_dir = los_angles(panel, terminal)
    d3d = distance_3d(terminal, center)
    d2d = distance_2d(terminal, center)
    state = assign_link_state(env, d2d, z_ris=center.z, z_tx=terminal.z, rng=rng)
    params = _resolve_params(env, state.los, scenario_overrides)
    lsps = draw_lsps(params, state.los, rng)
    pl_db = path_loss_db(
        env, state.los, d3d, carrier.f_c_ghz, h_ut=center.z - 1.0, sf_db=lsps.sf_db
    )
    delays = draw_delays(params.cluster_count, params.delay_scaling, lsps.ds_s, rng)
    powers = cluster_powers(
        delays,
        params.delay_scaling,
        lsps.ds_s,
        params.per_cluster_shadowing_db,
        lsps.k_factor_db,
        state.los,
        rng,
    )
    zenith, azimuth = draw_ray_angles(
        env, powers, lsps, los_dir, state.los, params, rng
    )
    phases = draw_phases(params.cluster_count, params.rays_per_cluster, rng)
    clusters = filter_front_hemisphere(
        build_cluster_set(delays, powers, zenith, azimuth, phases)
    )
    pl_linear = 10.0 ** (pl_db / 10.0)
    vector = _assemble_panel_channel(
        panel, clusters, pl_linear, pattern, carrier.wavelength_m, convention
    )
    meta = LinkMetadata(
        kind=kind,
        state=state,
        path_loss_db=pl_db,
        lsps=lsps,
        cluster_set=clusters,
        los_direction=los_dir,
        fully_shadowed=clusters.fully_shadowed,
    )
    return vector, meta


def tx_ris_channel(
    env: Environment,
    tx: Point3,
    panel: PanelGeometry,
    carrier: CarrierConfig,
    rng: np.random.Generator,
    *,
    pattern: Optional[ElementPattern] = ElementPattern(),
    convention: str = "reference",
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]] = None,
) -> tuple[np.ndarray, LinkMetadata]:
    """Generate the stochastic Tx-RIS channel vector h, shape (N,).

    LOS is forced whenever the panel center is at least as high as the Tx.
    Rays arriving behind the panel are dropped without power renormalization;
    if every ray is dropped the channel is the zero vector and the metadata
    carries ``fully_shadowed=True``. Emits a warning (not an error) when the
    Tx sits inside the panel's Fraunhofer distance.
    """
    if distance_3d(tx, panel.center) < fraunhofer_distance(panel, carrier):
        warnings.warn(
            "Tx is inside the Fraunhofer distance of the panel; the Tx-RIS "
            "link is still generated with the far-field model",
            stacklevel=2,
        )
    return _stochastic_panel_link(
        "tx_ris", env, tx, panel, carrier, rng, pattern, convention, scenario_overrides
    )


def ris_rx_farfield(
    env: Environment,
    panel: PanelGeometry,
    rx: Point3,
    carrier: CarrierConfig,
    rng: np.random.Generator,
    *,
    pattern: Optional[ElementPattern] = ElementPattern(),
    convention: str = "reference",
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]] = None,
) -> tuple[np.ndarray, LinkMetadata]:
    """Generate the stochastic far-field RIS-Rx channel vector g, shape (N,).

    Identical pipeline to the Tx-RIS link with the Rx as the terminal; the
    departure angles at the panel follow the same distributions as the
    arrival angles of the Tx-RIS link.
    """
    return _stochastic_panel_link(
        "ris_rx", env, rx, panel, carrier, rng, pattern, convention, scenario_overrides
    )


def siso_channel(
    env: Environment,
    tx: Point3,
    rx: Point3,
    carrier: CarrierConfig,
    rng: np.random.Generator,
    *,
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]] = None,
) -> tuple[complex, LinkMetadata]:
    """Generate the scalar Tx-Rx direct channel.

    Uses the distance-dependent LOS probability only (no elevation forcing),
    and no angles or element pattern: each ray contributes its amplitude and
    random phase. The UMi NLOS height correction uses the Rx height.
    """
    d3d = distance_3d(tx, rx)
    if d3d == 0.0:
        raise ValueError("tx and rx coincide")
    d2d = distance_2d(tx, rx)
    state = LinkState(los=bool(rng.uniform() < los_probability(env, d2d)))
    params = _resolve_params(env, state.los, scenario_overrides)
    lsps = draw_lsps(params, state.los, rng)
    pl_db = path_loss_db(env, state.los, d3d, carrier.f_c_ghz, h_ut=rx.z, sf_db=lsps.sf_db)
    delays = draw_delays(params.cluster_count, params.delay_scaling, lsps.ds_s, rng)
    powers = cluster_powers(
        delays,
        params.delay_scaling,
        lsps.ds_s,
        params.per_cluster_shadowing_db,
        lsps.k_factor_db,
        state.los,
        rng,
    )
    phases = draw_phases(params.cluster_count, params.rays_per_cluster, rng)
    amplitudes = np.sqrt(powers[:, None] / params.rays_per_cluster)
    value = complex(np.sum(amplitudes * np.exp(1j * phases)) / math.sqrt(10.0 ** (pl_db / 10.0)))
    meta = LinkMetadata(kind="tx_rx", state=state, path_loss_db=pl_db, lsps=lsps)
    return value, meta


def _plate_gain(dx, dz, y: float, side: float) -> np.ndarray:
    """Exact captured-power fraction |g|^2 of square plates on a constant-y plane.

    Closed-form area integral of the near-field power density over plates of
    the given side length, centered at offsets ``dx``, ``dz`` (plate
    center minus receiver; scalars or arrays) at perpendicular distance
    ``y`` > 0 from the receiver. Polarization mismatch is embedded in the
    expression.
    """
    half = side / 2.0
    total = np.zeros(np.shape(dx))
    for x in (half + dx, half - dx):
        for z in (half + dz, half - dz):
            u = x / y
            v = z / y
            root = np.sqrt(u * u + v * v + 1.0)
            total += (u * v) / (3.0 * (v * v + 1.0) * root)
            total += (2.0 / 3.0) * np.arctan2(u * v, root)
    return total / (4.0 * np.pi)


def nearfield_plate_gain(center: Point3, side: float, rx: Point3) -> float:
    """Exact captured-power fraction |g|^2 of one square plate seen from ``rx``.

    Raises:
        ValueError: if the receiver lies in the plate plane.
    """
    y = abs(center.y - rx.y)
    if y == 0.0:
        raise ValueError("receiver lies in the panel plane")
    return float(_plate_gain(center.x - rx.x, center.z - rx.z, y, side))


def ris_rx_nearfield(
    panel: PanelGeometry, rx: Point3, carrier: CarrierConfig
) -> tuple[np.ndarray, LinkMetadata]:
    """Deterministic near-field RIS-Rx channel vector g, shape (N,).

    A pure LOS link: each element contributes the exact-aperture amplitude
    sqrt(``_plate_gain``) of its plate and the geometric phase
    2*pi*mod(distance/lambda, 1), applied with a negative sign.

    Raises:
        ValueError: if the Rx lies in the panel plane or behind the panel.
    """
    grid = panel.element_grid()
    y = abs(grid[0, 1] - rx.y)
    if y == 0.0:
        raise ValueError("rx lies in the panel plane")
    if panel.boresight_sign * (rx.y - grid[0, 1]) < 0.0:
        raise ValueError("rx lies behind the panel")

    dx = grid[:, 0] - rx.x
    dz = grid[:, 2] - rx.z
    magnitudes = np.sqrt(_plate_gain(dx, dz, y, panel.spacing))

    dist = np.sqrt(dx * dx + y * y + dz * dz)
    gamma = 2.0 * np.pi * np.mod(dist / carrier.wavelength_m, 1.0)
    g = magnitudes * np.exp(-1j * gamma)
    meta = LinkMetadata(kind="ris_rx", state=LinkState(los=True))
    return g, meta


def select_field_regime(
    panel: PanelGeometry,
    rx: Point3,
    carrier: CarrierConfig,
    override: Optional[FieldRegime] = None,
) -> FieldRegime:
    """Near field iff the panel-center/Rx distance is below N*lambda/2.

    The boundary itself counts as far field. An explicit override wins.
    """
    if override is not None:
        return override
    if distance_3d(panel.center, rx) < fraunhofer_distance(panel, carrier):
        return FieldRegime.NEAR_FIELD
    return FieldRegime.FAR_FIELD
