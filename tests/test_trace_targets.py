"""The benchmark's layer tracer wraps attributes that exist in rissim."""

import importlib.util
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
