"""Straightforward per-trial versions of the trial path, kept as test references.

Each function generates one trial of one link the way the package did
before trials were evaluated in chunks, so the chunked engine can be checked
against it:

* ``trial_rngs`` derives a trial's three generators with
  ``SeedSequence.spawn``.
* ``link_draws`` makes one trial's draws of one link by the stream
  contract, with one plain sized call per draw.
* ``tx_ris_channel``, ``ris_rx_farfield`` and ``siso_channel`` compose one
  link from the per-trial stages below: LOS state, LSPs, path loss, delays,
  powers, angles, phases, hemisphere filter and assembly.
* ``assemble_panel_channel`` steers every ray of each cluster that has a
  surviving ray, with one complex exponential per ray and element index,
  and zeroes the coefficients of dropped rays.
* ``draw_ray_angles`` permutes the ray-offset table with one
  ``rng.permutation`` call per cluster and dimension, azimuth before zenith.
* ``steering_vector`` is the panel's array response toward one direction,
  from each element's offset: the one-ray reference of the assembly.
* ``trial_snr`` is the closed-form SNR of one trial of a sweep point.

The stage functions have the signatures of the package functions they
check, so a test can call either with the same arguments.

It also holds the oracles of the package's two closed forms:

* ``nearfield_plate_gain`` is the captured-power fraction of one plate
  through ``channel._plate_gain``, and ``nearfield_gain_subdivided`` the
  same plate as the sum over k x k sub-plates, which the exact area
  integral must equal.
* ``optimal_phases`` and ``received_snr`` give the SNR under explicitly
  built optimal phases, and ``phase_grid_search`` the best SNR over a
  uniform phase grid; ``link.evaluate_link``'s closed form must equal the
  first and bound the second.
"""

import math
from dataclasses import replace

import numpy as np

from rissim.array_response import element_gain, steering_phase_factors
from rissim.channel import _plate_gain, ris_rx_nearfield, select_field_regime
from rissim.geometry import (
    CarrierConfig,
    PanelGeometry,
    Point3,
    distance_2d,
    distance_3d,
    los_angles,
)
from rissim.largescale import (
    ASA_CAP_DEG,
    LSP_ORDER,
    ZSA_CAP_DEG,
    Environment,
    LargeScaleParams,
    LinkState,
    assign_link_state,
    load_scenario_params,
    los_probability,
    path_loss_db,
)
from rissim.link import LinkBudget
from rissim.smallscale import _C_PHI_LOS_COEFFS, _C_THETA_LOS_COEFFS, build_cluster_set

_MAX_GRID_CELLS = 20_000_000


def trial_rngs(master_seed, sweep_index, trial):
    base = np.random.SeedSequence(entropy=master_seed, spawn_key=(sweep_index, trial))
    return tuple(np.random.default_rng(s) for s in base.spawn(3))


def link_draws(link, rng):
    """(LOS state, draws) of one trial of a ``channel._Link``, in stream order.

    The LOS state (a uniform unless forced), the LSP normals, delay uniforms
    and cluster shadowing normals; for a panel link the sign bits and jitter
    normals of the azimuth then zenith cluster centres, and one permutation
    of the ray offsets per cluster and dimension, azimuth before zenith (2C
    rows); then the ray phase uniforms.
    """
    los = link.forced_los or bool(rng.uniform() < link.los_probability)
    params = link.params[los]
    c, s = params.cluster_count, params.rays_per_cluster
    draws = [rng.normal(0.0, 1.0, size=7), rng.uniform(size=c), rng.normal(0.0, 1.0, size=c)]
    if link.panel is not None:
        for _ in range(2):
            draws += [rng.integers(0, 2, size=c), rng.normal(0.0, 1.0, size=c)]
        draws.append(np.array([rng.permutation(s) for _ in range(2 * c)]))
    draws.append(rng.uniform(size=(c, s)))
    return los, draws


def draw_lsps(params, los, rng):
    latent = params.correlation_factor @ rng.standard_normal(7)
    values = {
        name: params.lsp_means[name] + params.lsp_stds[name] * latent[i]
        for i, name in enumerate(LSP_ORDER)
    }
    return LargeScaleParams(
        sf_db=values["SF_db"],
        k_factor_db=values["K_db"],
        ds_s=10.0 ** values["lgDS"],
        asd_deg=min(10.0 ** values["lgASD"], ASA_CAP_DEG),
        asa_deg=min(10.0 ** values["lgASA"], ASA_CAP_DEG),
        zsd_deg=min(10.0 ** values["lgZSD"], ZSA_CAP_DEG),
        zsa_deg=min(10.0 ** values["lgZSA"], ZSA_CAP_DEG),
        latent=latent,
    )


def draw_delays(c, r_tau, ds, rng):
    u = rng.uniform(size=c)
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    raw = -r_tau * ds * np.log(u)
    raw.sort()
    return raw - raw[0]


def cluster_powers(delays_s, r_tau, ds, zeta_db, k_db, los, rng):
    shadowing = rng.normal(0.0, 1.0, size=delays_s.shape) * zeta_db
    pre = np.exp(-delays_s * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-shadowing / 10.0)
    powers = pre / pre.sum()
    if los:
        k_lin = 10.0 ** (k_db / 10.0)
        powers = powers / (k_lin + 1.0)
        powers[0] += k_lin / (k_lin + 1.0)
    return powers


def _los_scaling(coeffs, k_db):
    a0, a1, a2, a3 = coeffs
    return a0 + a1 * k_db + a2 * k_db**2 + a3 * k_db**3


def _cluster_centers(powers, spread_deg, c_scale, los_center_deg, los, gaussian_mapping, rng):
    ratio = np.clip(powers / powers.max(), 1e-12, 1.0)
    if gaussian_mapping:
        prime = 2.0 * (spread_deg / 1.4) * np.sqrt(-np.log(ratio)) / c_scale
    else:
        prime = -spread_deg * np.log(ratio) / c_scale
    signs = rng.integers(0, 2, size=powers.shape) * 2.0 - 1.0
    jitter = rng.normal(0.0, 1.0, size=powers.shape) * (spread_deg / 7.0)
    centers = signs * prime + jitter + los_center_deg
    if los:
        centers = centers - (signs[0] * prime[0] + jitter[0])
    return centers


def draw_ray_angles(env, powers, lsps, los_dir, los, scenario, rng):
    powers = np.asarray(powers, dtype=float)
    c = powers.shape[0]
    s = scenario.rays_per_cluster
    if s != len(scenario.ray_offsets):
        raise ValueError(
            f"rays_per_cluster={s} does not match the configured "
            f"ray-offset table of length {len(scenario.ray_offsets)}"
        )

    c_phi = scenario.c_phi_nlos
    c_theta = scenario.c_theta_nlos
    if los:
        c_phi *= _los_scaling(_C_PHI_LOS_COEFFS, lsps.k_factor_db)
        c_theta *= _los_scaling(_C_THETA_LOS_COEFFS, lsps.k_factor_db)

    az_centers = _cluster_centers(
        powers, lsps.asa_deg, c_phi, los_dir.azimuth_deg, los,
        gaussian_mapping=(env is Environment.UMI), rng=rng,
    )
    zen_centers = _cluster_centers(
        powers, lsps.zsa_deg, c_theta, los_dir.zenith_deg, los,
        gaussian_mapping=False, rng=rng,
    )

    offsets = scenario.ray_offsets
    az_offsets = np.empty((c, s))
    zen_offsets = np.empty((c, s))
    for i in range(c):
        az_offsets[i] = offsets[rng.permutation(s)]
        zen_offsets[i] = offsets[rng.permutation(s)]

    azimuth = az_centers[:, None] + scenario.c_asa_deg * az_offsets
    zenith = zen_centers[:, None] + scenario.c_zsa_deg * zen_offsets

    azimuth = np.mod(azimuth + 180.0, 360.0) - 180.0
    azimuth[azimuth == -180.0] = 180.0
    zenith = np.mod(zenith, 360.0)
    zenith = np.where(zenith > 180.0, 360.0 - zenith, zenith)
    return zenith, azimuth


def draw_phases(c, s, rng):
    return np.pi - rng.uniform(size=(c, s)) * 2.0 * np.pi


def filter_front_hemisphere(cluster_set):
    in_front = (cluster_set.ray_azimuth_deg >= 0.0) & (cluster_set.ray_azimuth_deg <= 180.0)
    mask = cluster_set.ray_mask & in_front
    powers = np.where(mask.any(axis=1), cluster_set.powers, 0.0)
    return replace(cluster_set, ray_mask=mask, powers=powers)


def assemble_panel_channel(panel, cluster_set, pl_linear, wavelength_m):
    mask = cluster_set.ray_mask
    if not mask.any():
        return np.zeros(panel.n_elements, dtype=complex)
    n_rays = cluster_set.ray_mask.shape[1]
    gains = element_gain(cluster_set.ray_zenith_deg)
    coeffs = (
        np.sqrt(cluster_set.powers[:, None] / n_rays)
        * np.sqrt(gains / pl_linear)
        * np.exp(1j * cluster_set.phases_rad)
    )
    coeffs = np.where(mask, coeffs, 0.0)[mask.any(axis=1)].reshape(-1)
    a, b = steering_phase_factors(cluster_set.ray_zenith_deg, cluster_set.ray_azimuth_deg)
    a = a[mask.any(axis=1)].reshape(-1)
    b = b[mask.any(axis=1)].reshape(-1)
    kd = 2.0 * np.pi / wavelength_m * panel.spacing
    idx = np.arange(panel.side)
    col_factors = np.exp(1j * kd * np.outer(a, idx))
    row_factors = np.exp(1j * kd * np.outer(b, idx))
    grid = (row_factors * coeffs[:, None]).T @ col_factors
    return grid.reshape(-1)


def steering_vector(panel, angles, wavelength_m):
    """Array response of the panel toward one direction, shape (N,) complex.

    All entries have unit modulus and the first entry is exactly 1.
    """
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    a, b = steering_phase_factors(angles.zenith_deg, angles.azimuth_deg)
    grid = panel.element_grid()
    x_off = grid[:, 0] - panel.first_element.x
    z_off = grid[:, 2] - panel.first_element.z
    k = 2.0 * np.pi / wavelength_m
    return np.exp(1j * k * (x_off * a + z_off * b))


def _params(env, los, overrides):
    if overrides is not None and los in overrides:
        return overrides[los]
    return load_scenario_params(env, los)


def _panel_link(kind, env, terminal, panel, carrier, rng, overrides):
    center = panel.center
    if panel.boresight_sign * (terminal.y - center.y) < 0.0:
        raise ValueError(f"{kind}: terminal lies behind the panel")
    los_dir = los_angles(panel, terminal)
    d3d = distance_3d(terminal, center)
    d2d = distance_2d(terminal, center)
    state = assign_link_state(env, d2d, z_ris=center.z, z_tx=terminal.z, rng=rng)
    params = _params(env, state.los, overrides)
    lsps = draw_lsps(params, state.los, rng)
    pl_db = path_loss_db(env, state.los, d3d, carrier.f_c_ghz, h_ut=center.z - 1.0) + lsps.sf_db
    delays = draw_delays(params.cluster_count, params.delay_scaling, lsps.ds_s, rng)
    powers = cluster_powers(
        delays, params.delay_scaling, lsps.ds_s, params.per_cluster_shadowing_db,
        lsps.k_factor_db, state.los, rng,
    )
    zenith, azimuth = draw_ray_angles(env, powers, lsps, los_dir, state.los, params, rng)
    phases = draw_phases(params.cluster_count, params.rays_per_cluster, rng)
    clusters = filter_front_hemisphere(
        build_cluster_set(delays, powers, zenith, azimuth, phases)
    )
    vector = assemble_panel_channel(panel, clusters, 10.0 ** (pl_db / 10.0), carrier.wavelength_m)
    return vector, state, clusters


def tx_ris_channel(env, tx, panel, carrier, rng, *, scenario_overrides=None):
    """(h, LinkState, ClusterSet) of one trial."""
    return _panel_link("tx_ris", env, tx, panel, carrier, rng, scenario_overrides)


def ris_rx_farfield(env, panel, rx, carrier, rng, *, scenario_overrides=None):
    """(g, LinkState, ClusterSet) of one trial."""
    return _panel_link("ris_rx", env, rx, panel, carrier, rng, scenario_overrides)


def siso_channel(env, tx, rx, carrier, rng, *, scenario_overrides=None):
    """(h_siso, LinkState) of one trial."""
    d3d = distance_3d(tx, rx)
    if d3d == 0.0:
        raise ValueError("tx and rx coincide")
    state = LinkState(los=bool(rng.uniform() < los_probability(env, distance_2d(tx, rx))))
    params = _params(env, state.los, scenario_overrides)
    lsps = draw_lsps(params, state.los, rng)
    pl_db = path_loss_db(env, state.los, d3d, carrier.f_c_ghz, h_ut=rx.z) + lsps.sf_db
    delays = draw_delays(params.cluster_count, params.delay_scaling, lsps.ds_s, rng)
    powers = cluster_powers(
        delays, params.delay_scaling, lsps.ds_s, params.per_cluster_shadowing_db,
        lsps.k_factor_db, state.los, rng,
    )
    phases = draw_phases(params.cluster_count, params.rays_per_cluster, rng)
    amplitudes = np.sqrt(powers[:, None] / params.rays_per_cluster)
    value = complex(np.sum(amplitudes * np.exp(1j * phases)) / math.sqrt(10.0 ** (pl_db / 10.0)))
    return value, state


def trial_channels(config, index, point, trial):
    """(h, g, h_siso, tx_ris LOS or None, tx_rx LOS) of one trial of a sweep point."""
    carrier = CarrierConfig(config.f_c_ghz)
    rng_h, rng_siso, rng_g = trial_rngs(config.master_seed, index, trial)
    h = g = np.zeros(0, dtype=complex)
    los_h = None
    if point.n_elements > 0:
        # The panel faces the Tx (the Rx for a Tx in its plane), and its
        # elements sit half a wavelength apart.
        if config.tx.y != point.ris_y:
            facing = "+y" if config.tx.y > point.ris_y else "-y"
        else:
            facing = "+y" if config.rx.y >= point.ris_y else "-y"
        panel = PanelGeometry.centered(
            Point3(point.ris_x, point.ris_y, point.ris_z),
            point.n_elements,
            carrier.wavelength_m / 2.0,
            facing,
        )
        regime = config.regime_override or select_field_regime(panel, config.rx, carrier)
        h, state, _ = tx_ris_channel(config.environment, config.tx, panel, carrier, rng_h)
        los_h = state.los
        if regime.value == "near_field":
            g, _ = ris_rx_nearfield(panel, config.rx, carrier)
        else:
            g, _, _ = ris_rx_farfield(config.environment, panel, config.rx, carrier, rng_g)
    h_siso, state = siso_channel(config.environment, config.tx, config.rx, carrier, rng_siso)
    return h, g, h_siso, los_h, state.los


def trial_snr(h, g, h_siso, p_t_dbm, n_0_dbm):
    """Closed-form SNR p_t (|h_siso| + sum |h_n||g_n|)^2 / n_0 of one trial."""
    ris_path = np.sum(np.abs(h) * np.abs(g))
    return 10.0 ** (p_t_dbm / 10.0) * (abs(h_siso) + ris_path) ** 2 / 10.0 ** (n_0_dbm / 10.0)


def nearfield_plate_gain(center, side, rx):
    """Exact captured-power fraction |g|^2 of one square plate seen from ``rx``."""
    y = abs(center.y - rx.y)
    if y == 0.0:
        raise ValueError("receiver lies in the panel plane")
    return float(_plate_gain(center.x - rx.x, center.z - rx.z, y, side))


def nearfield_gain_subdivided(element_center, side, rx, k):
    """|g|^2 of a plate computed as the sum over k x k equal sub-plates, k >= 2."""
    if k < 2:
        raise ValueError("subdivision factor must be >= 2")
    sub = side / k
    start = -side / 2.0 + sub / 2.0
    total = 0.0
    for i in range(k):
        for j in range(k):
            center = Point3(
                element_center.x + start + i * sub,
                element_center.y,
                element_center.z + start + j * sub,
            )
            total += nearfield_plate_gain(center, sub, rx)
    return total


def optimal_phases(h, g, h_siso):
    """SNR-maximizing RIS phases: align every reflected term with the direct path.

    alpha_n = arg(h_siso) - arg(h_n * g_n). When the direct channel is zero
    the terms are aligned to zero phase instead, and elements with a
    vanishing product get a zero phase shift.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if h.shape != g.shape:
        raise ValueError("h and g must have equal length")
    product = h * g
    reference = np.angle(h_siso) if h_siso != 0 else 0.0
    return np.where(product != 0, reference - np.angle(product), 0.0)


def received_snr(h, g, phases_rad, h_siso, budget):
    """Instantaneous received SNR p_t |g^T Theta h + h_siso|^2 / n_0.

    Theta is diagonal with unit-magnitude entries exp(j * phases_rad).
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    combined = np.sum(g * np.exp(1j * np.asarray(phases_rad, dtype=float)) * h) + h_siso
    return budget.p_t_mw * abs(combined) ** 2 / budget.n_0_mw


def phase_grid_search(h, g, h_siso, grid_points, budget=None):
    """Maximum received SNR over a uniform per-element phase grid.

    Exhaustive search; guarded to at most 4 elements and a bounded total
    grid size. With no budget the SNR is computed at p_t = n_0 = 1.
    """
    h = np.asarray(h, dtype=complex)
    g = np.asarray(g, dtype=complex)
    n = len(h)
    if n > 4:
        raise ValueError("grid search is limited to N <= 4 elements")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    if grid_points**max(n, 1) > _MAX_GRID_CELLS:
        raise ValueError("phase grid too large")
    budget = budget or LinkBudget(p_t_mw=1.0, n_0_mw=1.0)

    products = h * g
    total = np.asarray(h_siso, dtype=complex)
    for i in range(n):
        phases = 2.0 * np.pi * np.arange(grid_points) / grid_points
        term = products[i] * np.exp(1j * phases)
        shape = [1] * n
        shape[i] = grid_points
        total = total + term.reshape(shape)
    best = np.max(np.abs(total) ** 2)
    return float(budget.p_t_mw * best / budget.n_0_mw)
