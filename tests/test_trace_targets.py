"""The benchmark's layer tracer wraps attributes that exist in rissim."""

import importlib.util
import inspect
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in layertrace.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert layertrace.TRACED and not missing


def test_traced_functions_take_the_arguments_the_tracer_unpacks():
    # The tracer reads these arguments by position; a moved argument would
    # otherwise fail only a traced run, and only when it runs.
    from rissim import channel, experiment

    def leading(fn, count):
        return list(inspect.signature(fn).parameters)[:count]

    assert leading(experiment._run_sweep_point, 4) == ["config", "index", "point"]
    assert leading(experiment._trial_rngs, 4) == ["master_seed", "sweep_index", "trial"]
    assert leading(channel._assemble_panel_channel, 2) == ["panel", "cluster_set"]
