"""Cluster delays, powers, per-ray angles and initial phases.

Implements the standard clustered generation procedure: exponential delay
profile, exponential power-delay profile with per-cluster shadowing and a
Ricean specular injection into the first cluster under LOS, inverse-mapped
cluster angles (wrapped Gaussian azimuth outdoors, Laplacian indoors and for
all zeniths) re-centered on the LOS direction, and fixed per-ray offsets with
random coupling.

Each random stage is a pure mapping of the variates ``channel._Link.draw_rows``
draws (``*_from_*``); on a chunk of trials its arrays carry a leading trial
axis. The ``rng``-taking names draw one trial's variates and map them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .geometry import SphericalAngles
from .largescale import Environment, LargeScaleParams, ScenarioParams

# LOS corrections to the angle-generation scaling constants, polynomial in
# the Ricean K-factor [dB].
_C_PHI_LOS_COEFFS = (1.1035, -0.028, -0.002, 0.0001)
_C_THETA_LOS_COEFFS = (1.3086, 0.0339, -0.0077, 0.0002)


@dataclass(frozen=True)
class ClusterSet:
    """Per-cluster delays/powers plus per-ray angles, phases and active mask.

    Shapes: delays and powers are (C,); ray_zenith_deg, ray_azimuth_deg,
    phases_rad and ray_mask are (C, S); a chunk of trials puts a trial axis
    in front of each. Powers sum to one before hemisphere filtering; rays
    masked out by the filter contribute nothing to a channel but their
    cluster power is not renormalized.
    """

    delays_s: np.ndarray
    powers: np.ndarray
    ray_zenith_deg: np.ndarray
    ray_azimuth_deg: np.ndarray
    phases_rad: np.ndarray
    ray_mask: np.ndarray

    @property
    def fully_shadowed(self) -> bool:
        """True when no ray survives the front-hemisphere filter."""
        return not bool(self.ray_mask.any())


def delays_from_uniforms(r_tau: float, ds: float, u: np.ndarray) -> np.ndarray:
    """C cluster delays from C uniforms by the exponential profile, sorted, first = 0."""
    if u.shape[-1] < 1:
        raise ValueError("cluster count must be >= 1")
    if r_tau <= 1.0:
        raise ValueError("delay scaling must exceed 1")
    ds = np.asarray(ds)
    if np.any(ds <= 0.0):
        raise ValueError("delay spread must be positive")
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    raw = -r_tau * ds[..., None] * np.log(u)
    raw.sort(axis=-1)
    return raw - raw[..., :1]


def draw_delays(
    c: int, r_tau: float, ds: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw C cluster delays from an exponential profile, sorted, first = 0."""
    return delays_from_uniforms(r_tau, ds, rng.uniform(size=c))


def powers_from_normals(
    delays_s: np.ndarray,
    r_tau: float,
    ds: float,
    zeta_db: float,
    k_db: float,
    los: bool,
    normals: np.ndarray,
) -> np.ndarray:
    """Cluster powers from the exponential power-delay profile.

    Pre-powers exp(-tau*(r_tau-1)/(r_tau*DS)) * 10^(-Z/10) with per-cluster
    shadowing Z = zeta * ``normals`` are normalized to unit sum. Under LOS
    each is scaled by 1/(K_R+1) and the specular power K_R/(K_R+1) is added
    to the first cluster; under NLOS the K-factor is ignored.
    """
    delays_s = np.asarray(delays_s, dtype=float)
    shadowing = normals * zeta_db
    ds = np.asarray(ds)[..., None]
    pre = np.exp(-delays_s * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-shadowing / 10.0)
    powers = pre / pre.sum(axis=-1, keepdims=True)
    if los:
        k_lin = np.asarray(10.0 ** (k_db / 10.0))[..., None]
        powers = powers / (k_lin + 1.0)
        powers[..., :1] += k_lin / (k_lin + 1.0)
    return powers


def cluster_powers(
    delays_s: np.ndarray,
    r_tau: float,
    ds: float,
    zeta_db: float,
    k_db: float,
    los: bool,
    rng: np.random.Generator,
) -> np.ndarray:
    """Cluster powers with per-cluster shadowing Z ~ N(0, zeta^2) drawn from ``rng``."""
    normals = rng.normal(0.0, 1.0, size=np.shape(delays_s)[-1])
    return powers_from_normals(delays_s, r_tau, ds, zeta_db, k_db, los, normals)


def phases_from_uniforms(u: np.ndarray, out=None) -> np.ndarray:
    """Initial ray phases on (-pi, pi] from uniforms on [0, 1), into ``out`` when given."""
    phases = np.multiply(u, 2.0, out=out)
    phases *= np.pi
    return np.subtract(np.pi, phases, out=phases)


def draw_phases(c: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. initial ray phases, uniform on (-pi, pi], shape (C, S)."""
    return phases_from_uniforms(rng.uniform(size=(c, s)))


def _los_scaling(coeffs, k_db: float) -> float:
    a0, a1, a2, a3 = coeffs
    return a0 + a1 * k_db + a2 * k_db**2 + a3 * k_db**3


def _cluster_centers(
    powers: np.ndarray,
    spread_deg: float,
    c_scale: float,
    los_center_deg: float,
    los: bool,
    gaussian_mapping: bool,
    sign_bits: np.ndarray,
    normals: np.ndarray,
) -> np.ndarray:
    """Cluster center angles via the inverse power mapping, signs and jitter.

    Under LOS the first cluster is re-centered exactly onto the LOS angle.
    """
    spread_deg = np.asarray(spread_deg)[..., None]
    c_scale = np.asarray(c_scale)[..., None]
    ratio = np.clip(powers / powers.max(axis=-1, keepdims=True), 1e-12, 1.0)
    if gaussian_mapping:
        prime = 2.0 * (spread_deg / 1.4) * np.sqrt(-np.log(ratio)) / c_scale
    else:
        prime = -spread_deg * np.log(ratio) / c_scale
    signs = sign_bits * 2.0 - 1.0
    jitter = normals * (spread_deg / 7.0)
    centers = signs * prime + jitter + los_center_deg
    if los:
        centers = centers - (signs[..., :1] * prime[..., :1] + jitter[..., :1])
    return centers


@functools.cache
def _offset_rows(c: int, s: int) -> np.ndarray:
    """2C rows of 0..S-1: each row is permuted into one ray-offset order.

    The shuffle draws the same values whatever the integer type, so the
    smallest one that holds S-1 keeps a chunk's order block small. Shuffled
    in place, such items are slow: numpy moves items with a fixed-size copy
    only when they are ``intp``-sized, so ``_Link.draw_rows`` shuffles an
    ``intp`` copy of these rows and stores the result in the block.
    """
    return np.broadcast_to(np.arange(s, dtype=np.min_scalar_type(s - 1)), (2 * c, s))


def ray_angles_from(
    env: Environment,
    powers: np.ndarray,
    lsps: LargeScaleParams,
    los_zenith_deg,
    los_azimuth_deg,
    los: bool,
    scenario: ScenarioParams,
    az_sign_bits: np.ndarray,
    az_normals: np.ndarray,
    zen_sign_bits: np.ndarray,
    zen_normals: np.ndarray,
    order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray zenith and azimuth angles in degrees, shape (C, S) each.

    Cluster centers come from the inverse mapping of normalized cluster
    powers (wrapped Gaussian azimuth for UMi, Laplacian azimuth for InH,
    Laplacian zenith everywhere), with a sign per sign bit, Gaussian jitter
    and LOS re-centering on the LOS zenith and azimuth (scalars, or (T, 1)
    arrays that give each row of a chunk its own direction). Ray angles add
    the fixed offset table scaled by the cluster-wise spread; rows 2i and
    2i+1 of ``order`` permute cluster i's azimuth and zenith offsets. Azimuth
    is wrapped into (-180, 180], zenith reflected into [0, 180].
    """
    powers = np.asarray(powers, dtype=float)
    c_phi = scenario.c_phi_nlos
    c_theta = scenario.c_theta_nlos
    if los:
        c_phi *= _los_scaling(_C_PHI_LOS_COEFFS, lsps.k_factor_db)
        c_theta *= _los_scaling(_C_THETA_LOS_COEFFS, lsps.k_factor_db)

    az_centers = _cluster_centers(
        powers,
        lsps.asa_deg,
        c_phi,
        los_azimuth_deg,
        los,
        gaussian_mapping=(env is Environment.UMI),
        sign_bits=az_sign_bits,
        normals=az_normals,
    )
    zen_centers = _cluster_centers(
        powers,
        lsps.zsa_deg,
        c_theta,
        los_zenith_deg,
        los,
        gaussian_mapping=False,
        sign_bits=zen_sign_bits,
        normals=zen_normals,
    )

    # Each angle array is built in place, so a chunk holds one array per angle.
    azimuth = scenario.ray_offsets[order[..., 0::2, :]]
    azimuth *= scenario.c_asa_deg
    azimuth += az_centers[..., None]
    azimuth += 180.0
    np.mod(azimuth, 360.0, out=azimuth)
    azimuth -= 180.0
    azimuth[azimuth == -180.0] = 180.0
    zenith = scenario.ray_offsets[order[..., 1::2, :]]
    zenith *= scenario.c_zsa_deg
    zenith += zen_centers[..., None]
    np.mod(zenith, 360.0, out=zenith)
    np.subtract(360.0, zenith, out=zenith, where=zenith > 180.0)
    return zenith, azimuth


def draw_ray_angles(
    env: Environment,
    powers: np.ndarray,
    lsps: LargeScaleParams,
    los_dir: SphericalAngles,
    los: bool,
    scenario: ScenarioParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray angles (``ray_angles_from``) of one trial's draws from ``rng``."""
    c = np.shape(powers)[-1]
    azimuth = rng.integers(0, 2, size=c), rng.normal(0.0, 1.0, size=c)
    zenith = rng.integers(0, 2, size=c), rng.normal(0.0, 1.0, size=c)
    order = rng.permuted(_offset_rows(c, scenario.rays_per_cluster), axis=1)
    return ray_angles_from(
        env, powers, lsps, los_dir.zenith_deg, los_dir.azimuth_deg, los, scenario,
        *azimuth, *zenith, order,
    )


def build_cluster_set(
    delays_s: np.ndarray,
    powers: np.ndarray,
    ray_zenith_deg: np.ndarray,
    ray_azimuth_deg: np.ndarray,
    phases_rad: np.ndarray,
) -> ClusterSet:
    """Assemble a ClusterSet with all rays active."""
    return ClusterSet(
        delays_s=np.asarray(delays_s, dtype=float),
        powers=np.asarray(powers, dtype=float),
        ray_zenith_deg=np.asarray(ray_zenith_deg, dtype=float),
        ray_azimuth_deg=np.asarray(ray_azimuth_deg, dtype=float),
        phases_rad=np.asarray(phases_rad, dtype=float),
        ray_mask=np.ones(np.shape(ray_zenith_deg), dtype=bool),
    )


def filter_front_hemisphere(cluster_set: ClusterSet) -> ClusterSet:
    """Deactivate rays whose panel-local azimuth falls outside [0, 180].

    Surviving powers are deliberately not renormalized: energy arriving
    behind the panel is lost. Clusters with no surviving ray carry zero
    power. Idempotent.
    """
    in_front = (cluster_set.ray_azimuth_deg >= 0.0) & (
        cluster_set.ray_azimuth_deg <= 180.0
    )
    mask = cluster_set.ray_mask & in_front
    powers = np.where(mask.any(axis=-1), cluster_set.powers, 0.0)
    return replace(cluster_set, ray_mask=mask, powers=powers)
