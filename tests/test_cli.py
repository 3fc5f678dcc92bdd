import json
import warnings

import pytest

from rissim.cli import main
from rissim.experiment import ExperimentConfig, figure_presets
from rissim.geometry import Point3
from rissim.largescale import Environment


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("RIS_SIM_SEED", raising=False)


@pytest.fixture(autouse=True)
def quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def tiny_config_dict():
    return ExperimentConfig(
        name="tiny",
        environment=Environment.INH,
        f_c_ghz=2.4,
        tx=Point3(0, 25, 3),
        rx=Point3(40, 48, 1.5),
        ris_center=Point3(38, 50, 3),
        n_elements=(16,),
        boresight="-y",
        trials=4,
        master_seed=5,
    ).to_dict()


class TestListPresets:
    def test_lists_five_names(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in figure_presets():
            assert name in out


class TestPresetCommand:
    def test_reduced_preset_runs_deterministically(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["preset", "fig3a", "--trials", "3", "--seed", "7"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_preset_exits_one(self, capsys):
        assert main(["preset", "fig9"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_json_format_to_stdout(self, capsys):
        assert main(["preset", "fig3a", "--trials", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["preset"] == "fig3a"

    def test_seed_env_variable_override(self, tmp_path, monkeypatch):
        base = tmp_path / "base.csv"
        enved = tmp_path / "env.csv"
        flagged = tmp_path / "flag.csv"
        main(["preset", "fig3a", "--trials", "3", "--output", str(base)])
        monkeypatch.setenv("RIS_SIM_SEED", "31")
        main(["preset", "fig3a", "--trials", "3", "--output", str(enved)])
        assert base.read_bytes() != enved.read_bytes()
        assert ",31\n" in enved.read_text()
        main(["preset", "fig3a", "--trials", "3", "--seed", "7", "--output", str(flagged)])
        assert ",7\n" in flagged.read_text()


class TestRunCommand:
    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()))
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("preset,")
        assert "tiny" in out

    def test_missing_config_exits_one(self, capsys):
        assert main(["run", "--config", "missing.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        assert main(["run", "--config", str(path)]) == 1

    def test_misspelled_key_exits_one(self, tmp_path, capsys):
        raw = tiny_config_dict()
        raw["trails"] = 5
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert "trails" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("f_c_ghz", 0),
            ("boresight", "+x"),
            ("n_elements", 64),
            ("f_c_ghz", [2.4]),
            ("trials", [5]),
            ("tx", [0, 25, "a"]),
        ],
    )
    def test_bad_value_exits_one_naming_the_key(self, tmp_path, capsys, key, value):
        raw = tiny_config_dict()
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("p_t_dbm", float("nan")), ("rx", [40, 48, float("inf")]), ("trials", 2.9),
         ("n_elements", [16.7])],
    )
    def test_non_finite_or_fractional_value_exits_one(self, tmp_path, capsys, key, value):
        raw = tiny_config_dict()
        raw[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()))
        assert main(["run", "--config", str(path), "--seed", "-1"]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_failed_points_reported_on_stderr(self, tmp_path, capsys):
        raw = tiny_config_dict()
        # The second placement puts the Rx behind the panel; the first is fine.
        raw.update(ris_y_sweep=[50.0, 40.0], regime_override="near_field")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert "1 of 2 sweep points failed" in captured.err
        assert "point 1: rx lies behind the panel" in captured.err
        assert len(captured.out.strip().split("\n")) == 3

    def test_trials_and_workers_flags(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()))
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(["run", "--config", str(path), "--trials", "6",
                     "--output", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--trials", "6",
                     "--workers", "2", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "PASS trial generators match their SeedSequence keys" in out


class TestBadUsage:
    def test_unknown_verb_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
