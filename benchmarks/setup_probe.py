"""Print the seconds a fresh process needs to set up one workload.

Usage: python3 benchmarks/setup_probe.py <workload> <seed>

Set-up is importing rissim, building the workload's config and loading the
scenario tables (LOS and NLOS) of its environment. Interpreter start-up is
not included.
"""

import time

START = time.perf_counter()

if __name__ == "__main__":
    import sys

    from checkout import use_checkout_sources

    use_checkout_sources()
    from rissim import load_scenario_params
    from workloads import WORKLOADS

    config = WORKLOADS[sys.argv[1]].config(int(sys.argv[2]))
    for los in (True, False):
        load_scenario_params(config.environment, los)
    print(time.perf_counter() - START)
