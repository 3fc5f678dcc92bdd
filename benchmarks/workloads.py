"""The benchmark's workloads: figure presets cut to a size one run can repeat.

Every workload is a public ``figure_presets()`` entry with fewer trials (and,
for ``inh_small_panel``, one element count). The workload seed becomes the
config's ``master_seed``; nothing else depends on it. NOTES.md says why each
workload was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from rissim import ExperimentConfig, figure_presets


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    trials: int
    workers: int
    # Sweep indices recomputed through ``generate_realization`` on every run.
    cross_check_points: tuple
    n_elements: tuple | None = None

    def config(self, seed: int) -> ExperimentConfig:
        changes = dict(trials=self.trials, master_seed=seed)
        if self.n_elements is not None:
            changes["n_elements"] = self.n_elements
        return replace(figure_presets()[self.preset], **changes)

    def pool_workers(self) -> int:
        """Workers for ``run_experiment``: never more than the usable cores."""
        return max(1, min(self.workers, len(os.sched_getaffinity(0))))


WORKLOADS = {
    w.name: w
    for w in (
        # fig5a: 330 placements, UMi, forced far field, N=1024.
        Workload("farfield_n1024", "fig5a", trials=2, workers=1,
                 cross_check_points=(0, 164, 329)),
        # fig3a geometry at N=64, both heights, InH, forced near field.
        Workload("inh_small_panel", "fig3a", trials=500, workers=1,
                 cross_check_points=(0, 1), n_elements=(64,)),
        # fig4: N in {16..4096} with automatic regime plus the no-RIS point.
        Workload("nsweep_pool", "fig4", trials=20, workers=2,
                 cross_check_points=(0, 4, 5)),
    )
}

# Seeds with stored references: the presets' default and one held out.
REFERENCE_SEEDS = (2024, 99)
