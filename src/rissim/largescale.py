"""LOS/NLOS assignment, path loss and correlated large-scale parameters.

Statistical constants (cluster counts, delay scaling, per-cluster shadowing,
ray-offset table, LSP means/stds and their cross-correlations) are shipped as
JSON data files per environment and LOS state, transcribed from the standard
sub-6 GHz geometry-based channel-model tables. They can be overridden by
loading a user file with the same schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

LSP_ORDER = ("SF_db", "K_db", "lgDS", "lgASD", "lgASA", "lgZSD", "lgZSA")

ASA_CAP_DEG = 104.0
ZSA_CAP_DEG = 52.0


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


@dataclass
class ScenarioParams:
    """Statistical constants for one (environment, LOS state) pair.

    Attributes:
        cluster_count: Number of clusters C.
        rays_per_cluster: Rays per cluster S; must equal len(ray_offsets).
        delay_scaling: Delay distribution proportionality factor r_tau (> 1).
        per_cluster_shadowing_db: Per-cluster shadowing std zeta [dB].
        c_asa_deg / c_zsa_deg: Cluster-wise rms azimuth/zenith ray spread.
        lsp_means / lsp_stds: Per-LSP mean and std, keyed by LSP_ORDER names.
            DS and the four angular spreads are log10-domain, SF and K in dB.
        cross_correlation: 7x7 symmetric unit-diagonal matrix in LSP_ORDER.
        ray_offsets: Fixed per-ray offset table (unit spread).
        c_phi_nlos / c_theta_nlos: Azimuth/zenith angle-generation scaling
            constants for this cluster count (NLOS base value).
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
    _corr_factor: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.cluster_count < 1 or self.rays_per_cluster < 1:
            raise ValueError("cluster_count and rays_per_cluster must be >= 1")
        if self.delay_scaling <= 1.0:
            raise ValueError("delay_scaling must exceed 1")
        self.cross_correlation = np.asarray(self.cross_correlation, dtype=float)
        self.ray_offsets = np.asarray(self.ray_offsets, dtype=float)
        if self.cross_correlation.shape != (7, 7):
            raise ValueError("cross_correlation must be 7x7")
        if not np.allclose(self.cross_correlation, self.cross_correlation.T):
            raise ValueError("cross_correlation must be symmetric")
        if not np.allclose(np.diag(self.cross_correlation), 1.0):
            raise ValueError("cross_correlation must have unit diagonal")
        missing = [k for k in LSP_ORDER if k not in self.lsp_means or k not in self.lsp_stds]
        if missing:
            raise ValueError(f"missing LSP entries: {missing}")

    def correlation_factor(self) -> np.ndarray:
        """Symmetric square-root factor of the (repaired) correlation matrix."""
        if self._corr_factor is None:
            repaired = nearest_psd_correlation(self.cross_correlation)
            w, v = np.linalg.eigh(repaired)
            if w.min() < -1e-10:
                raise ValueError("correlation matrix is not PSD after repair")
            self._corr_factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
        return self._corr_factor


def nearest_psd_correlation(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix to the nearest PSD correlation matrix.

    Eigenvalues are clipped at zero and the diagonal is renormalized back to
    one. For an already-PSD input this is the identity operation up to
    floating point.
    """
    m = np.asarray(matrix, dtype=float)
    w, v = np.linalg.eigh(m)
    if w.min() >= 0.0:
        return m
    repaired = v @ np.diag(np.clip(w, 0.0, None)) @ v.T
    d = np.sqrt(np.diag(repaired))
    if np.any(d <= 0):
        raise ValueError("correlation matrix cannot be repaired to PSD")
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return repaired


def _data_file(name: str) -> dict:
    with resources.files("rissim.data").joinpath(name).open("r") as f:
        return json.load(f)


def _angle_constants() -> dict:
    return _data_file("angle_generation.json")


def scenario_params_from_dict(raw: dict) -> ScenarioParams:
    """Build ScenarioParams from the JSON data-file schema."""
    env = Environment(raw["environment"])
    los = raw["los_state"].upper() == "LOS"
    order = raw.get("lsp_order", list(LSP_ORDER))
    if tuple(order) != LSP_ORDER:
        raise ValueError(f"lsp_order must be {list(LSP_ORDER)}")
    consts = _angle_constants()
    c = int(raw["cluster_count"])
    c_phi = raw.get("c_phi_nlos")
    c_theta = raw.get("c_theta_nlos")
    if c_phi is None:
        try:
            c_phi = consts["c_phi_nlos"][str(c)]
        except KeyError:
            raise ValueError(
                f"no azimuth scaling constant for {c} clusters; "
                "supply c_phi_nlos explicitly"
            ) from None
    if c_theta is None:
        try:
            c_theta = consts["c_theta_nlos"][str(c)]
        except KeyError:
            raise ValueError(
                f"no zenith scaling constant for {c} clusters; "
                "supply c_theta_nlos explicitly"
            ) from None
    lsp = raw["lsp"]
    return ScenarioParams(
        environment=env,
        los=los,
        cluster_count=c,
        rays_per_cluster=int(raw["rays_per_cluster"]),
        delay_scaling=float(raw["delay_scaling"]),
        per_cluster_shadowing_db=float(raw["per_cluster_shadowing_db"]),
        c_asa_deg=float(raw["c_asa_deg"]),
        c_zsa_deg=float(raw["c_zsa_deg"]),
        lsp_means={k: float(lsp[k]["mean"]) for k in LSP_ORDER},
        lsp_stds={k: float(lsp[k]["std"]) for k in LSP_ORDER},
        cross_correlation=np.array(raw["cross_correlation"], dtype=float),
        ray_offsets=np.array(raw.get("ray_offsets", consts["ray_offsets"]), dtype=float),
        c_phi_nlos=float(c_phi),
        c_theta_nlos=float(c_theta),
    )


_SCENARIO_CACHE: dict = {}


def load_scenario_params(env: Environment, los: bool) -> ScenarioParams:
    """Load the embedded parameter table for an environment and LOS state."""
    key = (env, los)
    if key not in _SCENARIO_CACHE:
        name = f"{env.value.lower()}_{'los' if los else 'nlos'}.json"
        _SCENARIO_CACHE[key] = scenario_params_from_dict(_data_file(name))
    return _SCENARIO_CACHE[key]


def load_scenario_params_file(path) -> ScenarioParams:
    """Load a user-supplied parameter table (same schema as the embedded files)."""
    with open(path, "r") as f:
        return scenario_params_from_dict(json.load(f))


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
    factor = params.correlation_factor()
    latent = (factor @ normals[..., None])[..., 0]
    means = np.array([params.lsp_means[name] for name in LSP_ORDER])
    stds = np.array([params.lsp_stds[name] for name in LSP_ORDER])
    values = means + stds * latent
    # DS and the four angular spreads are log10-domain; the angles are capped.
    spreads = 10.0 ** values[..., 2:]
    angles = np.minimum(spreads[..., 1:], (ASA_CAP_DEG, ASA_CAP_DEG, ZSA_CAP_DEG, ZSA_CAP_DEG))
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
