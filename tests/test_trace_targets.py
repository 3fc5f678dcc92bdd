"""The benchmark's layer tracer wraps attributes that exist in rissim."""

import importlib.util
import inspect
from dataclasses import replace
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


def test_a_traced_sweep_records_every_layer_and_gives_the_untraced_rows(tmp_path):
    # Runs the wrappers themselves, so a changed signature of a traced
    # function fails here and not only in a traced benchmark run.
    from rissim import experiment

    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    presets = experiment.figure_presets()
    sweeps = [
        replace(presets["fig3a"], n_elements=(64,), trials=2),
        replace(presets["fig5a"], ris_x_sweep=(40.0, 42.0), ris_y_sweep=(52.0,), trials=2),
    ]
    plain = [experiment.run_experiment(config).rows for config in sweeps]
    with layertrace.Tracer(tmp_path) as tracer:
        traced = [experiment.run_experiment(config).rows for config in sweeps]
        spans, _ = tracer.take()
    assert layertrace.installed_wrappers() == []
    assert [len(rows) for rows in traced] == [2, 2]
    assert traced == plain
    calls = {name: entry[0] for name, entry in layertrace.layer_times(spans).items()}
    for name in (
        "array_response.element_gain",
        "array_response.steering_phase_factors",
        "channel.assemble_panel_channel",
        "link.evaluate_link",
        "channel.ris_rx_nearfield",
    ):
        assert calls[name] >= 1, name
