from dataclasses import replace

import numpy as np
import pytest

from rissim.largescale import Environment, ScenarioParams, load_scenario_params


class ScriptedRng:
    """Stand-in generator returning pre-scripted uniform/normal draws."""

    def __init__(self, uniforms=(), normals=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)

    def _take(self, pool, size):
        if size is None:
            return pool.pop(0)
        n = int(np.prod(size))
        values = np.array([pool.pop(0) for _ in range(n)])
        return values.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self._take(self._uniforms, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self._take(self._normals, size)

    def standard_normal(self, size=None):
        return self._take(self._normals, size)


def make_scenario(
    env=Environment.INH,
    los=True,
    *,
    cluster_count=1,
    rays_per_cluster=1,
    k_db=10.0,
    lg_ds=-7.0,
    lg_asa=-6.0,
    lg_zsa=-6.0,
    sf_std=0.0,
    zeta_db=0.0,
    c_asa=0.0,
    c_zsa=0.0,
    delay_scaling=3.0,
    ray_offsets=None,
    asa_std=0.0,
):
    """Degenerate scenario table with zero-variance LSPs for closed-form tests."""
    means = {
        "SF_db": 0.0,
        "K_db": k_db,
        "lgDS": lg_ds,
        "lgASD": 0.0,
        "lgASA": lg_asa,
        "lgZSD": 0.0,
        "lgZSA": lg_zsa,
    }
    stds = {k: 0.0 for k in means}
    stds["SF_db"] = sf_std
    stds["lgASA"] = asa_std
    offsets = ray_offsets if ray_offsets is not None else np.zeros(rays_per_cluster)
    return ScenarioParams(
        environment=env,
        los=los,
        cluster_count=cluster_count,
        rays_per_cluster=rays_per_cluster,
        delay_scaling=delay_scaling,
        per_cluster_shadowing_db=zeta_db,
        c_asa_deg=c_asa,
        c_zsa_deg=c_zsa,
        lsp_means=means,
        lsp_stds=stds,
        cross_correlation=np.eye(7),
        ray_offsets=np.asarray(offsets, dtype=float),
        c_phi_nlos=1.0,
        c_theta_nlos=1.0,
    )


def indefinite_table():
    """Build a shipped table whose correlation matrix has smallest eigenvalue -0.8.

    Three LSPs pairwise correlated at 0.9, 0.9 and -0.9 cannot all hold, so
    building the table raises ``ValueError``.
    """
    m = np.eye(7)
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 0.9
    m[0, 2] = m[2, 0] = -0.9
    return replace(load_scenario_params(Environment.UMI, True), cross_correlation=m)


def with_tables(link, params):
    """``link`` drawing from the scenario table ``params`` in both LOS states."""
    return replace(link, params={True: params, False: params})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def forced_pool(monkeypatch):
    """``run_experiment`` hands every point after the first to its process pool.

    Two cores count as usable whatever the host's CPU affinity, so the pool
    sizes do not depend on the machine. Returns the list of the sizes of the
    pools started, one entry per pool.
    """
    from concurrent.futures import ProcessPoolExecutor

    from rissim import experiment

    sizes = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(experiment, "_POOL_MIN_SECONDS", 0.0)
    monkeypatch.setattr(experiment, "_usable_cores", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordedPool)
    return sizes
