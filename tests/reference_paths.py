"""Straightforward versions of the trial's hot layers, kept as test references.

``assemble_panel_channel`` steers every ray of each cluster that has a
surviving ray, with one complex exponential per ray and element index, and
zeroes the coefficients of dropped rays. ``draw_ray_angles`` permutes the
ray-offset table with one ``rng.permutation`` call per cluster and
dimension, azimuth before zenith. Both have the signatures of the package
functions they check (``rissim.channel._assemble_panel_channel`` and
``rissim.smallscale.draw_ray_angles``), so a test can substitute them.
"""

import numpy as np

from rissim.array_response import element_gain, steering_phase_factors
from rissim.largescale import Environment
from rissim.smallscale import (
    _C_PHI_LOS_COEFFS,
    _C_THETA_LOS_COEFFS,
    _cluster_centers,
    _los_scaling,
)


def assemble_panel_channel(panel, cluster_set, pl_linear, pattern, wavelength_m, convention):
    mask = cluster_set.ray_mask
    if not mask.any():
        return np.zeros(panel.n_elements, dtype=complex)
    n_rays = cluster_set.ray_mask.shape[1]
    gains = (
        element_gain(cluster_set.ray_zenith_deg, pattern)
        if pattern is not None
        else np.ones_like(cluster_set.ray_zenith_deg)
    )
    coeffs = (
        np.sqrt(cluster_set.powers[:, None] / n_rays)
        * np.sqrt(gains / pl_linear)
        * np.exp(1j * cluster_set.phases_rad)
    )
    coeffs = np.where(mask, coeffs, 0.0)[mask.any(axis=1)].reshape(-1)
    a, b = steering_phase_factors(
        cluster_set.ray_zenith_deg, cluster_set.ray_azimuth_deg, convention
    )
    a = a[mask.any(axis=1)].reshape(-1)
    b = b[mask.any(axis=1)].reshape(-1)
    kd = 2.0 * np.pi / wavelength_m * panel.spacing
    idx = np.arange(panel.side)
    col_factors = np.exp(1j * kd * np.outer(a, idx))
    row_factors = np.exp(1j * kd * np.outer(b, idx))
    grid = (row_factors * coeffs[:, None]).T @ col_factors
    return grid.reshape(-1)


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
