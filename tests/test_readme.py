"""README's library example and config example run against the package."""

import json
import math
import re
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

from rissim import ExperimentConfig, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    rate = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert rate > 0.0


def config_block() -> dict:
    section = README.read_text().split("## Config file schema", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_config_block_parses_and_names_every_field():
    raw = config_block()
    assert set(raw) == {f.name for f in fields(ExperimentConfig)}
    config = ExperimentConfig.from_dict(raw)
    assert config.to_dict() == raw
    # The text says which optional keys the example sets away from their defaults.
    kept = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    kept |= {"n_elements", "no_ris_baseline_extra_db"}
    assert ExperimentConfig.from_dict({key: raw[key] for key in kept}) == config


def test_config_block_runs_with_finite_rows():
    config = replace(ExperimentConfig.from_dict(config_block()), trials=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_experiment(config).rows
    assert len(rows) == 3
    assert all(row.error is None and math.isfinite(row.mean_rate_bps_hz) for row in rows)
