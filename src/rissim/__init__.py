"""Link-level simulator for RIS-assisted SISO wireless links in sub-6 GHz bands.

Generates 3D geometry-based stochastic channels for the Tx-RIS, RIS-Rx
(far field and near field) and direct Tx-Rx links, configures the RIS phases
optimally and estimates achievable rate via Monte Carlo experiments.
"""

from .channel import (
    FieldRegime,
    ris_rx_farfield,
    ris_rx_nearfield,
    siso_channel,
    tx_ris_channel,
)
from .experiment import (
    ExperimentConfig,
    figure_presets,
    generate_realization,
    run_experiment,
)
from .geometry import CarrierConfig, PanelGeometry, Point3
from .largescale import Environment, load_scenario_params
from .link import LinkBudget, evaluate_link

__version__ = "0.1.0"
