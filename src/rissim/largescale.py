"""LOS/NLOS assignment, path loss and correlated large-scale parameters.

Statistical constants (cluster counts, delay scaling, per-cluster shadowing,
ray-offset table, LSP means/stds and their cross-correlations) are shipped as
JSON data files per environment and LOS state, transcribed from the standard
sub-6 GHz geometry-based channel-model tables.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

LSP_ORDER = ("SF_db", "K_db", "lgDS", "lgASD", "lgASA", "lgZSD", "lgZSA")

ASA_CAP_DEG = 104.0
ZSA_CAP_DEG = 52.0
# Caps of the four angular spreads, in LSP_ORDER.
_SPREAD_CAPS_DEG = np.array([ASA_CAP_DEG, ASA_CAP_DEG, ZSA_CAP_DEG, ZSA_CAP_DEG])


class Environment(Enum):
    """Propagation environment: indoor hotspot or urban microcell."""

    INH = "InH"
    UMI = "UMi"


@dataclass(frozen=True)
class LinkState:
    """LOS/NLOS condition of one link.

    ``forced`` is True when LOS was imposed by the panel-elevation rule
    rather than drawn from the distance-dependent probability.
    """

    los: bool
    forced: bool = False

    def __post_init__(self):
        if self.forced and not self.los:
            raise ValueError("a forced link state must be LOS")


@dataclass(frozen=True)
class LargeScaleParams:
    """One correlated draw of the large-scale parameters for a link."""

    sf_db: float
    k_factor_db: float
    ds_s: float
    asd_deg: float
    asa_deg: float
    zsd_deg: float
    zsa_deg: float
    latent: np.ndarray = field(repr=False, default=None)
    """Correlated standard-normal 7-vector behind the draw, in LSP_ORDER."""


@dataclass(frozen=True, eq=False)
class ScenarioParams:
    """Statistical constants for one (environment, LOS state) pair.

    Only the four shipped tables (and tables built by tests) are ever built;
    their schema is checked by the test suite, not here. Building one derives
    ``correlation_factor`` and ``lsp_mean_std`` once, and is the only place a
    correlation matrix that is not PSD raises.

    Attributes:
        cluster_count: Number of clusters C.
        rays_per_cluster: Rays per cluster S; equals len(ray_offsets).
        delay_scaling: Delay distribution proportionality factor r_tau (> 1).
        per_cluster_shadowing_db: Per-cluster shadowing std zeta [dB].
        c_asa_deg / c_zsa_deg: Cluster-wise rms azimuth/zenith ray spread.
        lsp_means / lsp_stds: Per-LSP mean and std, keyed by LSP_ORDER names.
            DS and the four angular spreads are log10-domain, SF and K in dB.
        cross_correlation: 7x7 symmetric unit-diagonal matrix in LSP_ORDER.
        ray_offsets: Fixed per-ray offset table (unit spread).
        c_phi_nlos / c_theta_nlos: Azimuth/zenith angle-generation scaling
            constants for this cluster count (NLOS base value).
        correlation_factor: Symmetric square-root factor of cross_correlation.
        lsp_mean_std: The means and stds as (2, 7) rows in LSP_ORDER.
    """

    environment: Environment
    los: bool
    cluster_count: int
    rays_per_cluster: int
    delay_scaling: float
    per_cluster_shadowing_db: float
    c_asa_deg: float
    c_zsa_deg: float
    lsp_means: dict
    lsp_stds: dict
    cross_correlation: np.ndarray
    ray_offsets: np.ndarray
    c_phi_nlos: float
    c_theta_nlos: float
    correlation_factor: np.ndarray = field(init=False, repr=False)
    lsp_mean_std: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, v = np.linalg.eigh(self.cross_correlation)
        if w.min() < -1e-10:
            raise ValueError("correlation matrix is not PSD")
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
        object.__setattr__(self, "correlation_factor", factor)
        rows = [[table[name] for name in LSP_ORDER] for table in (self.lsp_means, self.lsp_stds)]
        object.__setattr__(self, "lsp_mean_std", np.array(rows))


def _data_file(name: str) -> dict:
    with resources.files("rissim.data").joinpath(name).open("r") as f:
        return json.load(f)


def _angle_constants() -> dict:
    return _data_file("angle_generation.json")


def scenario_params_from_dict(raw: dict) -> ScenarioParams:
    """Build ScenarioParams from the JSON data-file schema."""
    consts = _angle_constants()
    c = int(raw["cluster_count"])
    lsp = raw["lsp"]
    return ScenarioParams(
        environment=Environment(raw["environment"]),
        los=raw["los_state"] == "LOS",
        cluster_count=c,
        rays_per_cluster=int(raw["rays_per_cluster"]),
        delay_scaling=float(raw["delay_scaling"]),
        per_cluster_shadowing_db=float(raw["per_cluster_shadowing_db"]),
        c_asa_deg=float(raw["c_asa_deg"]),
        c_zsa_deg=float(raw["c_zsa_deg"]),
        lsp_means={k: float(lsp[k]["mean"]) for k in LSP_ORDER},
        lsp_stds={k: float(lsp[k]["std"]) for k in LSP_ORDER},
        cross_correlation=np.array(raw["cross_correlation"], dtype=float),
        ray_offsets=np.array(consts["ray_offsets"], dtype=float),
        c_phi_nlos=float(consts["c_phi_nlos"][str(c)]),
        c_theta_nlos=float(consts["c_theta_nlos"][str(c)]),
    )


@functools.cache
def load_scenario_params(env: Environment, los: bool) -> ScenarioParams:
    """Load the embedded parameter table for an environment and LOS state."""
    name = f"{env.value.lower()}_{'los' if los else 'nlos'}.json"
    return scenario_params_from_dict(_data_file(name))


def los_probability(env: Environment, d2d: float) -> float:
    """Distance-dependent LOS probability for the given environment.

    InH: 1 up to 18 m, exponential decay to 37 m, 0.5 beyond.
    UMi: min(18/d, 1) * (1 - exp(-d/36)) + exp(-d/36).
    """
    if d2d < 0:
        raise ValueError("distance must be non-negative")
    if env is Environment.INH:
        if d2d <= 18.0:
            return 1.0
        if d2d < 37.0:
            return math.exp(-(d2d - 18.0) / 27.0)
        return 0.5
    if d2d == 0.0:
        return 1.0
    e = math.exp(-d2d / 36.0)
    return min(18.0 / d2d, 1.0) * (1.0 - e) + e


def assign_link_state(
    env: Environment, d2d: float, z_ris: float, z_tx: float, rng: np.random.Generator
) -> LinkState:
    """Draw the LOS/NLOS state of an RIS-terminated link.

    LOS is forced whenever the RIS sits at the same elevation as, or higher
    than, the other terminal; otherwise the state is a Bernoulli draw with
    ``los_probability``.
    """
    if z_ris >= z_tx:
        return LinkState(los=True, forced=True)
    p = los_probability(env, d2d)
    return LinkState(los=bool(rng.uniform() < p), forced=False)


def path_loss_db(
    env: Environment,
    los: bool,
    d3d: float,
    f_c_ghz: float,
    h_ut: float = 1.5,
    sf_db: float = 0.0,
) -> float:
    """Reference path loss in dB, including the shadow-fading term.

    ``h_ut`` is the effective receive antenna height; it only enters the UMi
    NLOS branch. For RIS-terminated links callers pass the panel height minus
    one meter.
    """
    if d3d <= 0:
        raise ValueError("d3d must be positive")
    if f_c_ghz <= 0:
        raise ValueError("carrier frequency must be positive")
    lf = math.log10(f_c_ghz)
    ld = math.log10(d3d)
    if env is Environment.INH:
        if los:
            pl = 16.9 * ld + 32.8 + 20.0 * lf
        else:
            pl = 43.3 * ld + 11.5 + 20.0 * lf
    else:
        if los:
            pl = 22.0 * ld + 28.0 + 20.0 * lf
        else:
            pl = 36.7 * ld + 22.7 + 26.0 * lf - 0.3 * (h_ut - 1.5)
    return pl + sf_db


def lsps_from_normals(params: ScenarioParams, normals: np.ndarray) -> LargeScaleParams:
    """Correlated large-scale parameters from a standard-normal 7-vector.

    The vector is correlated through a square-root factor of the configured
    cross-correlation matrix and mapped per parameter: log-normal for DS and
    the angular spreads, normal-in-dB for SF and K. Azimuth spreads are
    capped at 104 degrees, zenith spreads at 52.

    ``normals`` of a chunk of trials, (T, 7), gives every field of the result
    a leading trial axis.
    """
    latent = (params.correlation_factor @ normals[..., None])[..., 0]
    means, stds = params.lsp_mean_std
    values = means + stds * latent
    # DS and the four angular spreads are log10-domain; the angles are capped.
    spreads = 10.0 ** values[..., 2:]
    angles = np.minimum(spreads[..., 1:], _SPREAD_CAPS_DEG)
    return LargeScaleParams(
        sf_db=values[..., 0],
        k_factor_db=values[..., 1],
        ds_s=spreads[..., 0],
        asd_deg=angles[..., 0],
        asa_deg=angles[..., 1],
        zsd_deg=angles[..., 2],
        zsa_deg=angles[..., 3],
        latent=latent,
    )


def draw_lsps(
    params: ScenarioParams, los: bool, rng: np.random.Generator
) -> LargeScaleParams:
    """Draw one correlated large-scale parameter set (``lsps_from_normals``)."""
    return lsps_from_normals(params, rng.standard_normal(7))
