"""Assembly of the three link channels and RIS-Rx field-regime selection.

Three links make up a realization: the stochastic Tx-RIS vector h, the scalar
Tx-Rx direct channel, and the RIS-Rx vector g which is either stochastic
(far field) or a deterministic pure-LOS per-element coefficient (near field).
All stochastic links are narrowband: cluster delays only shape the power and
angle statistics, and the output is a single complex coefficient per element.

A stochastic link's constants (``_Link``) are computed once per sweep point.
A chunk of trials is generated in two phases: ``_Link.draw``, the one
statement of the draw order, makes each trial's draws from its generator;
``_Link.map_draws`` then feeds the draws of all trials in one LOS state,
stacked on a trial axis, to the stages' pure mappings. The one-trial
functions below are the same code on a chunk of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
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
    load_scenario_params,
    los_probability,
    lsps_from_normals,
    path_loss_db,
)
from .smallscale import (
    ClusterSet,
    _offset_rows,
    build_cluster_set,
    delays_from_uniforms,
    filter_front_hemisphere,
    phases_from_uniforms,
    powers_from_normals,
    ray_angles_from,
)

# Layers benchmarks/layertrace.py wraps where this module looks them up.
from .largescale import assign_link_state, draw_lsps  # noqa: F401
from .smallscale import cluster_powers, draw_delays, draw_phases, draw_ray_angles  # noqa: F401


# Working-set budget of one chunk of trials, in bytes; a chunk's steering
# block is built in tiles within the same budget.
_CHUNK_BYTES = 1 << 20


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
    pl_linear,
    pattern: Optional[ElementPattern],
    wavelength_m: float,
    convention: str,
) -> np.ndarray:
    """Sum the surviving rays' contributions into the N-element channel vector.

    The steering phase separates into independent column/row factors on the
    square grid, so the ray sum reduces to one small matrix product. Along
    the element index each factor is a geometric series, built by repeated
    doubling from one complex exponential per ray.

    A cluster set with a leading trial axis (and ``pl_linear`` of shape (T,))
    gives one vector per trial, shape (T, N). The factors are built in tiles
    of whole trials, each tile's (side, 2R) block within ``_CHUNK_BYTES``,
    and each trial's product takes its own columns of its tile's block.
    """
    mask = cluster_set.ray_mask
    lead = mask.shape[:-2]
    mask = mask.reshape((-1,) + mask.shape[-2:])
    n_rays = mask.shape[-1]
    trial, cluster, _ = np.nonzero(mask)

    def surviving(values):
        return values.reshape(mask.shape)[mask]

    zenith = surviving(cluster_set.ray_zenith_deg)
    gains = element_gain(zenith, pattern) if pattern is not None else np.ones_like(zenith)
    coeffs = (
        np.sqrt(cluster_set.powers.reshape(mask.shape[:2])[trial, cluster] / n_rays)
        * np.sqrt(gains / np.reshape(pl_linear, -1)[trial])
        * np.exp(1j * surviving(cluster_set.phases_rad))
    )
    a, b = steering_phase_factors(zenith, surviving(cluster_set.ray_azimuth_deg), convention)
    kd = 2.0 * np.pi / wavelength_m * panel.spacing
    n_trials = mask.shape[0]
    grid = np.zeros((n_trials, panel.side, panel.side), dtype=complex)
    bounds = np.searchsorted(trial, np.arange(n_trials + 1))
    # A tile holds two complex factors per element index for each of its
    # rays, and as many whole trials as fit _CHUNK_BYTES (at least one).
    tile_rays = _CHUNK_BYTES // (2 * 16 * panel.side)
    first = 0
    while first < n_trials:
        last = max(first + 1, int(np.searchsorted(bounds, bounds[first] + tile_rays, "right")) - 1)
        lo, hi = bounds[first], bounds[last]
        base = np.exp(1j * kd * np.stack((a[lo:hi], b[lo:hi])))[:, None, :]
        # factors[:, k] holds base**k, the column (a) and row (b) factors of
        # element index k. Each pass extends the known indices 0..step-1 by
        # multiplying them with base**step.
        factors = np.empty((2, panel.side, hi - lo), dtype=complex)
        factors[:, 0] = 1.0
        step = 1
        while step < panel.side:
            count = min(step, panel.side - step)
            np.multiply(
                factors[:, :count],
                factors[:, step - 1 : step] * base,
                out=factors[:, step : step + count],
            )
            step += count
        col_factors, row_factors = factors
        row_factors *= coeffs[lo:hi]
        for t in range(first, last):
            start, stop = bounds[t] - lo, bounds[t + 1] - lo
            if stop > start:
                grid[t] = row_factors[:, start:stop] @ col_factors[:, start:stop].T
        # Free this tile's block before the next one is allocated.
        del factors, col_factors, row_factors
        first = last
    return grid.reshape(lead + (panel.n_elements,))


@dataclass(frozen=True)
class _Link:
    """One stochastic link's constants, computed once per sweep point.

    A panel link (Tx-RIS or far-field RIS-Rx) carries its panel, LOS
    direction, element pattern and steering convention; the direct link
    carries none of them.
    """

    kind: str
    env: Environment
    forced_los: bool
    los_probability: float
    d3d: float
    h_ut: float
    f_c_ghz: float
    params: Mapping[bool, ScenarioParams]
    panel: Optional[PanelGeometry] = None
    los_direction: Optional[SphericalAngles] = None
    pattern: Optional[ElementPattern] = None
    convention: str = "reference"
    wavelength_m: float = 0.0

    def draw(self, rng: np.random.Generator) -> tuple[bool, list]:
        """One trial's LOS state and the variates of its stages, in draw order.

        This is the stream contract: the LOS state, then the LSP normals,
        delay uniforms and cluster shadowing normals, for a panel link the
        sign bits and jitter normals of the azimuth then zenith cluster
        centres and the ray offset order (one row-wise shuffle, which draws
        as a permutation per row would), and the ray phase uniforms.
        ``random`` and ``standard_normal`` give the same values as the
        ``uniform(0, 1)`` and ``normal(0, 1)`` of the one-trial stage
        functions, at less cost.
        """
        los = self.forced_los or bool(rng.random() < self.los_probability)
        params = self.params[los]
        c, s = params.cluster_count, params.rays_per_cluster
        draws = [rng.standard_normal(7), rng.random(c), rng.standard_normal(c)]
        if self.panel is not None:
            for _ in range(2):
                draws += [rng.integers(0, 2, size=c), rng.standard_normal(c)]
            draws.append(rng.permuted(_offset_rows(c, s), axis=1))
        draws.append(rng.random((c, s)))
        return los, draws

    def map_draws(self, los: bool, blocks: list) -> tuple:
        """(channel, path loss dB, LSPs, cluster set) of trials in one LOS state.

        ``blocks[k]`` stacks the k-th draw of ``draw`` of every trial on a
        leading trial axis, which every result carries: the channel is (T, N)
        for a panel link and (T,) for the direct link, whose cluster set is
        None. Empties ``blocks``, so each block is freed once it is mapped.
        """
        params = self.params[los]
        s = params.rays_per_cluster
        lsp, delay, shadow, *angles, phase = blocks
        blocks.clear()
        lsps = lsps_from_normals(params, lsp)
        pl_db = path_loss_db(
            self.env, los, self.d3d, self.f_c_ghz, h_ut=self.h_ut, sf_db=lsps.sf_db
        )
        delays = delays_from_uniforms(params.delay_scaling, lsps.ds_s, delay)
        powers = powers_from_normals(
            delays,
            params.delay_scaling,
            lsps.ds_s,
            params.per_cluster_shadowing_db,
            lsps.k_factor_db,
            los,
            shadow,
        )
        phases = phases_from_uniforms(phase)
        pl_linear = 10.0 ** (pl_db / 10.0)
        if self.panel is None:
            # No angles or element pattern: each ray adds its amplitude and phase.
            rays = np.sqrt(powers[..., None] / s) * np.exp(1j * phases)
            value = rays.reshape(rays.shape[:-2] + (-1,)).sum(axis=-1) / np.sqrt(pl_linear)
            return value, pl_db, lsps, None
        zenith, azimuth = ray_angles_from(
            self.env, powers, lsps, self.los_direction, los, params, *angles
        )
        del angles, phase
        clusters = filter_front_hemisphere(
            build_cluster_set(delays, powers, zenith, azimuth, phases)
        )
        vector = _assemble_panel_channel(
            self.panel, clusters, pl_linear, self.pattern, self.wavelength_m, self.convention
        )
        return vector, pl_db, lsps, clusters


def _panel_link(
    kind: str,
    env: Environment,
    terminal: Point3,
    panel: PanelGeometry,
    carrier: CarrierConfig,
    pattern: Optional[ElementPattern],
    convention: str,
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]] = None,
) -> _Link:
    """Constants of the Tx-RIS or far-field RIS-Rx link.

    LOS is forced when the panel center is at least as high as the terminal;
    the effective antenna height of the UMi NLOS path loss is the panel
    height minus one meter. The Tx-RIS link warns when the Tx is inside the
    Fraunhofer distance.
    """
    center = panel.center
    if panel.boresight_sign * (terminal.y - center.y) < 0.0:
        raise ValueError(f"{kind}: terminal lies behind the panel")
    d3d = distance_3d(terminal, center)
    if kind == "tx_ris" and d3d < fraunhofer_distance(panel, carrier):
        warnings.warn(
            "Tx is inside the Fraunhofer distance of the panel; the Tx-RIS "
            "link is still generated with the far-field model",
            stacklevel=2,
        )
    forced = center.z >= terminal.z
    return _Link(
        kind=kind,
        env=env,
        forced_los=forced,
        los_probability=1.0 if forced else los_probability(env, distance_2d(terminal, center)),
        d3d=d3d,
        h_ut=center.z - 1.0,
        f_c_ghz=carrier.f_c_ghz,
        params={los: _resolve_params(env, los, scenario_overrides) for los in (True, False)},
        panel=panel,
        los_direction=los_angles(panel, terminal),
        pattern=pattern,
        convention=convention,
        wavelength_m=carrier.wavelength_m,
    )


def _direct_link(
    env: Environment,
    tx: Point3,
    rx: Point3,
    carrier: CarrierConfig,
    scenario_overrides: Optional[Mapping[bool, ScenarioParams]] = None,
) -> _Link:
    """Constants of the Tx-Rx link: drawn LOS only, Rx height for UMi NLOS."""
    d3d = distance_3d(tx, rx)
    if d3d == 0.0:
        raise ValueError("tx and rx coincide")
    return _Link(
        kind="tx_rx",
        env=env,
        forced_los=False,
        los_probability=los_probability(env, distance_2d(tx, rx)),
        d3d=d3d,
        h_ut=rx.z,
        f_c_ghz=carrier.f_c_ghz,
        params={los: _resolve_params(env, los, scenario_overrides) for los in (True, False)},
    )


def _trial_of(record, i: int):
    """Trial ``i`` of a chunk's record (``LargeScaleParams`` or ``ClusterSet``)."""
    return replace(record, **{f.name: getattr(record, f.name)[i] for f in fields(record)})


@dataclass(frozen=True)
class _LinkChunk:
    """One link generated for a chunk of trials.

    ``values`` holds the channels in trial order, (T, N) or (T,); ``groups``
    holds, per LOS state present, the trial indices and what
    ``_Link.map_draws`` returned for them besides the channel.
    """

    link: _Link
    los: np.ndarray
    values: np.ndarray
    groups: tuple

    @classmethod
    def generate(cls, link: _Link, draws: list) -> "_LinkChunk":
        """Map ``link.draw`` results of a chunk's trials, grouped by LOS state.

        Empties ``draws`` once each LOS state's draws are stacked, so the
        chunk holds every draw once while its stages run.
        """
        los = np.array([state for state, _ in draws], dtype=bool)
        stacked = []
        for state in (True, False):
            trials = np.flatnonzero(los == state)
            if trials.size:
                blocks = [np.array(column) for column in zip(*(draws[i][1] for i in trials))]
                stacked.append((state, trials, blocks))
        draws.clear()
        shape = los.shape if link.panel is None else (los.size, link.panel.n_elements)
        values = np.empty(shape, dtype=complex)
        groups = []
        for state, trials, blocks in stacked:
            value, *rest = link.map_draws(state, blocks)
            values[trials] = value
            groups.append((trials, *rest))
        return cls(link, los, values, tuple(groups))

    def metadata(self, i: int) -> LinkMetadata:
        """Metadata of trial ``i``."""
        trials, pl_db, lsps, clusters = next(g for g in self.groups if i in g[0])
        j = int(np.searchsorted(trials, i))
        clusters = None if clusters is None else _trial_of(clusters, j)
        return LinkMetadata(
            kind=self.link.kind,
            state=LinkState(los=bool(self.los[i]), forced=self.link.forced_los),
            path_loss_db=float(pl_db[j]),
            lsps=_trial_of(lsps, j),
            cluster_set=clusters,
            los_direction=self.link.los_direction,
            fully_shadowed=clusters is not None and clusters.fully_shadowed,
        )


def _one_trial(link: _Link, rng: np.random.Generator):
    """The link's channel and metadata for one trial drawn from ``rng``."""
    chunk = _LinkChunk.generate(link, [link.draw(rng)])
    return chunk.values[0], chunk.metadata(0)


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
    link = _panel_link("tx_ris", env, tx, panel, carrier, pattern, convention, scenario_overrides)
    return _one_trial(link, rng)


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
    link = _panel_link("ris_rx", env, rx, panel, carrier, pattern, convention, scenario_overrides)
    return _one_trial(link, rng)


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
    value, meta = _one_trial(_direct_link(env, tx, rx, carrier, scenario_overrides), rng)
    return complex(value), meta


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
