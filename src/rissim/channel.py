"""Assembly of the three link channels and RIS-Rx field-regime selection.

Three links make up a realization: the stochastic Tx-RIS vector h, the scalar
Tx-Rx direct channel, and the RIS-Rx vector g which is either stochastic
(far field) or a deterministic pure-LOS per-element coefficient (near field).
All stochastic links are narrowband: cluster delays only shape the power and
angle statistics, and the output is a single complex coefficient per element.

A stochastic link's constants (``_Link``) are computed once per sweep point.
A row is one link-trial, a ``(link, generator)`` pair: a trial of its link
drawn from its own RNG stream. Rows are generated in two phases:
``_Link.draw`` draws each row's LOS state, then ``_Link.map_draws`` maps the
rows of one LOS state in one pass. In it ``_Link.draw_rows``, the one
statement of the draw order, writes the rest of the rows' draws into blocks
with a row axis, the stages' pure mappings map the blocks, and assembly
writes each row's channel into its place. A row brings its own link's path
loss without shadow fading and LOS direction, and shares everything else
with the pass, so one pass maps the Tx-RIS and far-field RIS-Rx trials
of every point of a sweep unit (consecutive points with equal element count
and regime, see ``experiment._units``). Every mapping works row by row, so a
row's channel does not depend on the rows beside it. ``_Link.generate`` runs
both phases for a set of rows and keeps their LOS states and channels in row
order. ``_Link.one_trial``, behind the one-trial functions below, maps one
trial's draws as a set of one row and also returns the trial's metadata.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .array_response import element_gain, steering_phase_factors
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


# Working-set budget of one chunk of trials, in bytes. One _TILE_SHARE-th of
# it is assembly's steering workspace, in which the factors are built in tiles.
# Each chunk pays a mapping pass's fixed cost (~130-170 numpy calls) per LOS
# state and link kind, so wider chunks spread it over more trials. 2 MiB is
# the knee of the speed/memory curve (BENCH_22.json, "budget_curve"): with
# the budgets alternating sweep by sweep in one process, fig5a at 2 trials
# per point ran x1.26 as fast at 2 MiB as at 1 MiB and x1.27-1.29 at 3-4 MiB,
# while a process's peak RSS rose by 1.2 MB at 2 MiB and 2.4-4.3 MB at 3-4.
_CHUNK_BYTES = 2 << 20
_TILE_SHARE = 4


def _chunk_trials(env: Environment, n_elements: int, regime) -> int:
    """Trials per chunk that keep a chunk's working set near ``_CHUNK_BYTES``.

    A chunk's peak is the largest of three phase peaks, each a fixed part
    plus a slope per trial; the chunk is the widest whose peak fits the
    budget. Assembly's two peaks share a fixed part, its steering workspace
    (``_CHUNK_BYTES // _TILE_SHARE``) and its 16 bytes per element of
    product scratch, and count per slot of the C*S rays of the larger of
    the LOS and NLOS tables (each LOS state is mapped in a pass of its own):
    68 bytes per slot while the surviving rays are gathered, or 42 bytes
    per slot plus 8 bytes per element for each panel link's row of
    magnitudes while the factors are built, after the pass's ray arrays are
    freed. tracemalloc measured the slopes of these peaks over the trials of
    fig5a chunks (UMi, far field, N = 16 to 4096) at 57.5 bytes per slot
    plus the rows (68 in all at N = 256), and at 15-36 bytes per slot plus
    the rows. Left out of the fixed part are numpy's 128 KiB ufunc buffer of
    the tile scaling and, at N = 4096, a tile of one trial's rays that
    outgrows the workspace share.

    The third peak is link evaluation's, after assembly's working set is
    freed: it has no fixed part, and per trial it holds the rows of |h| and
    |g| and two temporaries of as many, |h| and its product with |g|, 32
    bytes per element. tracemalloc measured its slope at 32.0 bytes per
    element for fig5a chunks (far field, N = 1024) and fig5b units (near
    field, N = 4096, one copy of its point's |g| per row), with intercepts
    of 2-3 KB, and at 24.0 for a chunk of one near-field point, whose rows
    share a view of its |g|. It sets the width from N = 4096 on. The
    estimate depends on the point alone, never on ``workers``: 60 trials at
    N = 64 (InH, near field), 48 at N = 1024 (UMi, far field) and 16 at
    N = 4096 (UMi, near field); BENCH_22.json ("chunk_peaks") has their peaks.
    """
    rays = max(
        p.cluster_count * p.rays_per_cluster
        for p in (load_scenario_params(env, los) for los in (True, False))
    )
    panel_links = 0 if n_elements == 0 else 1 if regime is FieldRegime.NEAR_FIELD else 2
    assembly = _CHUNK_BYTES // _TILE_SHARE + 16 * n_elements
    peaks = [
        (assembly, 68 * rays),
        (assembly, 42 * rays + 8 * n_elements * panel_links),
        (0, 32 * n_elements),
    ]
    return max(1, min((_CHUNK_BYTES - fixed) // slope for fixed, slope in peaks if slope))


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


def _assemble_panel_channel(
    panel: PanelGeometry,
    cluster_set: ClusterSet,
    pl_linear,
    wavelength_m: float,
    out=None,
) -> np.ndarray:
    """Sum the surviving rays' contributions into the N-element channel vector.

    The steering phase separates into independent column/row factors on the
    square grid, so the ray sum reduces to one small matrix product. Along
    the element index each factor is a geometric series, built by repeated
    doubling from one complex exponential per ray.

    A cluster set with a leading trial axis (and ``pl_linear`` of shape (T,))
    gives one vector per trial, shape (T, N). Each trial's product is
    written straight into its vector: into item t of ``out`` when given
    (anything whose item t is trial t's (N,) vector, which is returned),
    else into a new complex array. Real vectors in ``out`` get the product's
    magnitude, which is all the optimal-phase SNR reads: each product is
    formed in one reused (side, side) complex scratch and its ``np.abs``
    written into the vector. A trial with no surviving ray gets zeros. The
    surviving rays are gathered first and the reference to ``cluster_set``
    dropped, so a caller that passes the set as a temporary frees its ray
    arrays before the factors are built. The factors are built in tiles of
    whole trials, each tile's (2, side, R) block within ``_CHUNK_BYTES //
    _TILE_SHARE`` or of one trial, in one reused workspace; each trial's
    product takes its own columns of its tile's.
    """
    mask = cluster_set.ray_mask
    lead = mask.shape[:-2]
    n_clusters, n_rays = mask.shape[-2:]
    n_trials = mask.size // (n_clusters * n_rays)
    vectors = np.empty((n_trials, panel.n_elements), dtype=complex) if out is None else out
    # The flat indices of the surviving rays, in trial, cluster, ray order.
    rays = np.flatnonzero(mask)
    del mask

    def surviving(values):
        return np.take(values, rays)

    zenith = surviving(cluster_set.ray_zenith_deg)
    azimuth = surviving(cluster_set.ray_azimuth_deg)
    phases = surviving(cluster_set.phases_rad)
    powers = np.take(cluster_set.powers, rays // n_rays)
    # The ray arrays are freed here unless the caller still holds the set.
    del cluster_set
    gains = element_gain(zenith)
    trial = rays // (n_clusters * n_rays)
    del rays
    coeffs = (
        np.sqrt(powers / n_rays)
        * np.sqrt(gains / np.reshape(pl_linear, -1)[trial])
        * np.exp(1j * phases)
    )
    del powers, gains, phases
    # The x and z steering multipliers (a, b) of every surviving ray, stacked.
    ab = np.stack(steering_phase_factors(zenith, azimuth))
    del zenith, azimuth
    kd = 2.0 * np.pi / wavelength_m * panel.spacing
    side = panel.side
    bounds = np.searchsorted(trial, np.arange(n_trials + 1))
    del trial
    # Real vectors take the magnitude of each product, formed in a scratch grid.
    scratch = None if np.iscomplexobj(vectors[0]) else np.empty((side, side), dtype=complex)
    # A tile holds two complex factors per element index for each of its
    # rays, and as many whole trials as fit its share (at least one).
    tile_rays = _CHUNK_BYTES // _TILE_SHARE // (2 * 16 * side)
    capacity = max(min(tile_rays, bounds[-1]), np.diff(bounds).max(initial=0))
    workspace = np.empty(2 * side * capacity, dtype=complex)
    first = 0
    while first < n_trials:
        last = max(first + 1, int(np.searchsorted(bounds, bounds[first] + tile_rays, "right")) - 1)
        lo, hi = bounds[first], bounds[last]
        base = np.exp(1j * kd * ab[:, lo:hi])
        # factors[:, k] holds base**k, the column (a) and row (b) factors of
        # element index k. Each pass extends the known indices 0..step-1 by
        # multiplying them with base**step. A plane at a time: its indices
        # read and written lie apart, so numpy copies neither, and the row
        # plane stays contiguous for its scaling.
        factors = workspace[: 2 * side * (hi - lo)].reshape(2, side, hi - lo)
        factors[:, 0] = 1.0
        for plane, plane_base in zip(factors, base):
            step = 1
            while step < side:
                count = min(step, side - step)
                power = plane[step - 1] * plane_base
                np.multiply(plane[:count], power, out=plane[step : step + count])
                step += count
        col_factors, row_factors = factors
        row_factors *= coeffs[lo:hi]
        for t in range(first, last):
            start, stop = bounds[t] - lo, bounds[t + 1] - lo
            row = vectors[t].reshape(side, side)
            if stop > start:
                grid = row if scratch is None else scratch
                np.matmul(row_factors[:, start:stop], col_factors[:, start:stop].T, out=grid)
                if scratch is not None:
                    np.abs(grid, out=row)
            else:
                row[...] = 0.0
        first = last
    return vectors.reshape(lead + (panel.n_elements,)) if out is None else vectors


@dataclass(frozen=True)
class _Link:
    """One stochastic link's constants, computed once per sweep point.

    A panel link (Tx-RIS or far-field RIS-Rx) carries its panel, LOS
    direction and wavelength; the direct link carries none of them.
    ``pl_db`` is the path loss in dB without shadow fading, per LOS state.

    A mapping pass takes link-trial rows: row i is a ``(link, generator)``
    pair, a trial of its own link drawn from its own stream. A row's link
    gives the pass only its ``pl_db`` and LOS direction. The environment,
    scenario tables, panel side and spacing and wavelength are the first
    row's and must be those of every row. The Tx-RIS and far-field RIS-Rx
    links of the points of one sweep unit share them, and so do its direct
    links.
    """

    kind: str
    env: Environment
    forced_los: bool
    los_probability: float
    pl_db: Mapping[bool, float]
    params: Mapping[bool, ScenarioParams]
    panel: Optional[PanelGeometry] = None
    los_direction: Optional[SphericalAngles] = None
    wavelength_m: float = 0.0

    def draw(self, rng: np.random.Generator) -> bool:
        """A trial's LOS state, the first value of its stream ``rng``.

        ``draw_rows`` takes the rest of the trial's stream from ``rng`` once
        the rows of its LOS state are known.
        """
        return self.forced_los or bool(rng.random() < self.los_probability)

    @staticmethod
    def draw_rows(los: bool, rows: list) -> list:
        """The draw blocks of link-trial rows in LOS state ``los``, one per stage draw.

        ``rows[i]`` is a ``(link, rng)`` pair whose LOS state ``draw`` has
        drawn. Block k holds the k-th draw of every row on a leading row
        axis, and each trial's variates are written straight into its row.
        This is the stream contract: after the LOS state, the LSP normals,
        delay uniforms and cluster shadowing normals, for a panel link the
        sign bits and jitter normals of the azimuth then zenith cluster
        centres and the ray offset order (one row-wise shuffle, which draws
        as a permutation per row would), and the ray phase uniforms.
        ``random``, ``standard_normal`` and ``permuted`` with ``out=`` give
        the same values as the sized calls, and the sized ``uniform(0, 1)``
        and ``normal(0, 1)`` of the one-trial stage functions. A sign bit is
        ``integers(0, 2)``'s value, the top bit of one 32-bit word, which a
        float32 ``random`` reads as its ``>= 0.5``: the bits are drawn as
        float32 uniforms and each block is turned to bools in one call
        (``rissim validate`` checks the equivalence).
        """
        link = rows[0][0]
        params = link.params[los]
        c, s, count = params.cluster_count, params.rays_per_cluster, len(rows)
        offsets = _offset_rows(c, s)
        lsp, delay, shadow = np.empty((count, 7)), np.empty((count, c)), np.empty((count, c))
        angles, phase = [], np.empty((count, c, s))
        if link.panel is not None:
            angles = [
                np.empty((count, c), dtype=np.float32),
                np.empty((count, c)),
                np.empty((count, c), dtype=np.float32),
                np.empty((count, c)),
                np.empty((count,) + offsets.shape, dtype=offsets.dtype),
            ]
            az_bits, az_normals, zen_bits, zen_normals, order = angles
            # numpy moves intp-sized items with a fixed-size copy, so each row
            # is shuffled as intp in one scratch and stored in the small block.
            offsets = offsets.astype(np.intp)
            shuffled = np.empty_like(offsets)
        for row, (_, rng) in enumerate(rows):
            rng.standard_normal(out=lsp[row])
            rng.random(out=delay[row])
            rng.standard_normal(out=shadow[row])
            if angles:
                rng.random(out=az_bits[row], dtype=np.float32)
                rng.standard_normal(out=az_normals[row])
                rng.random(out=zen_bits[row], dtype=np.float32)
                rng.standard_normal(out=zen_normals[row])
                rng.permuted(offsets, axis=1, out=shuffled)
                order[row] = shuffled
            rng.random(out=phase[row])
        if angles:
            angles[0], angles[2] = az_bits >= 0.5, zen_bits >= 0.5
        return [lsp, delay, shadow, *angles, phase]

    @staticmethod
    def map_draws(rows: list, los: bool, out=None) -> tuple:
        """(channel, path loss dB, LSPs, cluster set) of link-trial rows in one LOS state.

        ``rows[i]`` is a ``(link, rng)`` pair whose LOS state ``draw`` has
        drawn as ``los``. The rows draw the rest of their streams into draw
        blocks (``draw_rows``), each with a leading row axis, which every
        result carries: the channel is (T, N) for panel links and (T,) for
        direct links, whose cluster set is None. A panel link's channel is
        written into ``out`` when given (anything whose item i is row i's
        (N,) vector; real vectors get magnitudes) and returned as ``out``;
        its cluster set is then None too, since none is kept while assembly
        runs. Every stage maps each row alone, so a row's values do not
        depend on the other rows.
        """
        link = rows[0][0]
        params = link.params[los]
        s = params.rays_per_cluster
        lsp, delay, shadow, *angles, phase = _Link.draw_rows(los, rows)
        lsps = lsps_from_normals(params, lsp)
        pl_db = np.array([r.pl_db[los] for r, _ in rows]) + lsps.sf_db
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
        phases = phases_from_uniforms(phase, out=phase)
        pl_linear = 10.0 ** (pl_db / 10.0)
        if link.panel is None:
            # No angles or element pattern: each ray adds its amplitude and phase.
            rays = 1j * phases
            del phases, phase
            np.exp(rays, out=rays)
            rays *= np.sqrt(powers[..., None] / s)
            value = rays.reshape(rays.shape[:-2] + (-1,)).sum(axis=-1) / np.sqrt(pl_linear)
            return value, pl_db, lsps, None
        directions = [(r.los_direction.zenith_deg, r.los_direction.azimuth_deg) for r, _ in rows]
        los_zenith, los_azimuth = np.array(directions).T[:, :, None]
        zenith, azimuth = ray_angles_from(
            link.env, powers, lsps, los_zenith, los_azimuth, los, params, *angles
        )
        del angles
        box = [filter_front_hemisphere(build_cluster_set(delays, powers, zenith, azimuth, phases))]
        del zenith, azimuth, phases, phase
        clusters = box[0] if out is None else None
        # Passed as a temporary: with ``out``, assembly holds the only reference.
        vector = _assemble_panel_channel(
            link.panel, box.pop(), pl_linear, link.wavelength_m, out=out
        )
        return vector, pl_db, lsps, clusters

    @staticmethod
    def generate(rows: list) -> tuple[np.ndarray, np.ndarray]:
        """(LOS states, channels) of link-trial rows, in row order.

        ``rows`` holds a ``(link, rng)`` pair per row. Each row draws its LOS
        state (``draw``); then the rows of each LOS state go through one pass
        (``map_draws``), which writes each panel row's channel straight into
        its place: the states are (T,), the channels (T, N) or (T,). A panel
        row holds the magnitudes |h_n| of its channel, 8 bytes per element,
        since the optimal-phase SNR (``evaluate_link``) reads no element
        phase; a direct row stays complex. One LOS state's draw blocks are
        held at a time.
        """
        los = np.array([link.draw(rng) for link, rng in rows], dtype=bool)
        panel = rows[0][0].panel
        if panel is None:
            values = np.empty(los.shape, dtype=complex)
        else:
            values = np.empty((los.size, panel.n_elements))
        for state in (True, False):
            index = np.flatnonzero(los == state)
            if index.size:
                subset = [rows[i] for i in index]
                if panel is None:
                    values[index] = _Link.map_draws(subset, state)[0]
                else:
                    _Link.map_draws(subset, state, out=[values[i] for i in index])
        return los, values

    def one_trial(self, rng: np.random.Generator) -> tuple:
        """(channel, ``LinkMetadata``) of one trial drawn from ``rng``: one row."""
        los = self.draw(rng)
        value, pl_db, lsps, clusters = self.map_draws([(self, rng)], los)
        clusters = None if clusters is None else _trial_of(clusters, 0)
        return value[0], LinkMetadata(
            kind=self.kind,
            state=LinkState(los=los, forced=self.forced_los),
            path_loss_db=float(pl_db[0]),
            lsps=_trial_of(lsps, 0),
            cluster_set=clusters,
            los_direction=self.los_direction,
            fully_shadowed=clusters is not None and clusters.fully_shadowed,
        )


def _trial_of(record, i: int):
    """Trial ``i`` of a chunk's record (``LargeScaleParams`` or ``ClusterSet``)."""
    return replace(record, **{f.name: getattr(record, f.name)[i] for f in fields(record)})


def _path_losses(
    env: Environment, d3d: float, carrier: CarrierConfig, h_ut: float, forced_los: bool = False
) -> dict:
    """Path loss in dB without shadow fading, per LOS state the link can be in."""
    states = (True,) if forced_los else (True, False)
    return {los: path_loss_db(env, los, d3d, carrier.f_c_ghz, h_ut=h_ut) for los in states}


def _scenario_tables(env: Environment) -> dict:
    """The environment's scenario tables per LOS state."""
    return {los: load_scenario_params(env, los) for los in (True, False)}


def _panel_link(
    kind: str, env: Environment, terminal: Point3, panel: PanelGeometry, carrier: CarrierConfig
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
        pl_db=_path_losses(env, d3d, carrier, center.z - 1.0, forced),
        params=_scenario_tables(env),
        panel=panel,
        los_direction=los_angles(panel, terminal),
        wavelength_m=carrier.wavelength_m,
    )


def _direct_link(env: Environment, tx: Point3, rx: Point3, carrier: CarrierConfig) -> _Link:
    """Constants of the Tx-Rx link: drawn LOS only, Rx height for UMi NLOS."""
    d3d = distance_3d(tx, rx)
    if d3d == 0.0:
        raise ValueError("tx and rx coincide")
    return _Link(
        kind="tx_rx",
        env=env,
        forced_los=False,
        los_probability=los_probability(env, distance_2d(tx, rx)),
        pl_db=_path_losses(env, d3d, carrier, rx.z),
        params=_scenario_tables(env),
    )


def tx_ris_channel(
    env: Environment,
    tx: Point3,
    panel: PanelGeometry,
    carrier: CarrierConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, LinkMetadata]:
    """Generate the stochastic Tx-RIS channel vector h, shape (N,).

    LOS is forced whenever the panel center is at least as high as the Tx.
    Rays arriving behind the panel are dropped without power renormalization;
    if every ray is dropped the channel is the zero vector and the metadata
    carries ``fully_shadowed=True``. Emits a warning (not an error) when the
    Tx sits inside the panel's Fraunhofer distance.
    """
    link = _panel_link("tx_ris", env, tx, panel, carrier)
    return link.one_trial(rng)


def ris_rx_farfield(
    env: Environment,
    panel: PanelGeometry,
    rx: Point3,
    carrier: CarrierConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, LinkMetadata]:
    """Generate the stochastic far-field RIS-Rx channel vector g, shape (N,).

    Identical pipeline to the Tx-RIS link with the Rx as the terminal; the
    departure angles at the panel follow the same distributions as the
    arrival angles of the Tx-RIS link.
    """
    link = _panel_link("ris_rx", env, rx, panel, carrier)
    return link.one_trial(rng)


def siso_channel(
    env: Environment, tx: Point3, rx: Point3, carrier: CarrierConfig, rng: np.random.Generator
) -> tuple[complex, LinkMetadata]:
    """Generate the scalar Tx-Rx direct channel.

    Uses the distance-dependent LOS probability only (no elevation forcing),
    and no angles or element pattern: each ray contributes its amplitude and
    random phase. The UMi NLOS height correction uses the Rx height.
    """
    value, meta = _direct_link(env, tx, rx, carrier).one_trial(rng)
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
