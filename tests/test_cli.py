import json
import warnings

import numpy as np
import pytest

from conftest import indefinite_table
from rissim import cli
from rissim.cli import main
from rissim.experiment import ExperimentConfig, figure_presets
from rissim.geometry import Point3
from rissim.largescale import Environment


@pytest.fixture(autouse=True)
def quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def no_sweep(config, workers):
    raise AssertionError("the sweep ran")


def tiny_config_dict():
    return ExperimentConfig(
        name="tiny",
        environment=Environment.INH,
        f_c_ghz=2.4,
        tx=Point3(0, 25, 3),
        rx=Point3(40, 48, 1.5),
        ris_center=Point3(38, 50, 3),
        n_elements=(16,),
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_holds_what_stdout_shows(self, tmp_path, capsys, fmt):
        args = ["preset", "fig3a", "--trials", "2", "--format", fmt]
        assert main(args) == 0
        shown = capsys.readouterr().out
        out = tmp_path / f"out.{fmt}"
        assert main(args + ["--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == shown.encode()

    def test_unwritable_output_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        out = tmp_path / "missing" / "out.csv"
        assert main(["preset", "fig3a", "--trials", "1", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: --output" in err and "does not exist" in err
        assert not out.parent.exists()

    def test_output_naming_a_directory_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        assert main(["preset", "fig3a", "--trials", "1", "--output", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error: --output" in err and "is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_sweep_leaves_the_output_file_untouched(self, tmp_path, capsys, monkeypatch):
        def broken_sweep(config, workers):
            raise RuntimeError("sweep broke")

        monkeypatch.setattr(cli, "run_experiment", broken_sweep)
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier,result\n")
        assert main(["preset", "fig3a", "--trials", "1", "--output", str(out)]) == 2
        assert "runtime error: sweep broke" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier,result\n"

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        base = tmp_path / "base.csv"
        flagged = tmp_path / "flag.csv"
        main(["preset", "fig3a", "--trials", "3", "--output", str(base)])
        main(["preset", "fig3a", "--trials", "3", "--seed", "7", "--output", str(flagged)])
        assert base.read_bytes() != flagged.read_bytes()
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
            ("n_elements", 64),
            pytest.param("f_c_ghz", [2.4], id="f_c_ghz-list"),
            pytest.param("trials", [5], id="trials-list"),
            pytest.param("tx", [0, 25, "a"], id="tx-string_coordinate"),
            ("trials", 2**32 + 1),
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

    @pytest.mark.parametrize(
        "key, value", [("trials", True), ("f_c_ghz", "2.4"), ("n_elements", [True, 4])]
    )
    def test_boolean_or_string_number_exits_one_naming_the_key(
        self, tmp_path, capsys, key, value
    ):
        raw = {**tiny_config_dict(), key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert f"{key} must be a number" in capsys.readouterr().err

    def test_negative_seed_flag_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()))
        assert main(["run", "--config", str(path), "--seed", "-1"]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_trials_flag_past_one_key_word_exits_one(self, capsys):
        assert main(["preset", "fig4", "--trials", str(2**32 + 1)]) == 1
        assert "trials" in capsys.readouterr().err

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

    def test_every_point_failed_exits_two_and_keeps_the_output(self, tmp_path, capsys):
        # The only placement puts the Rx behind the panel, which faces the Tx.
        raw = {**tiny_config_dict(), "ris_y_sweep": [40.0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out.csv"
        out.write_text("earlier run\n")
        assert main(["run", "--config", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "1 of 1 sweep points failed" in err
        assert "point 0: ris_rx: terminal lies behind the panel" in err
        assert out.read_text() == "earlier run\n"

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

    def test_workers_flag_with_the_pool_started(self, tmp_path, forced_pool):
        # At 40 trials no two points fit one chunk, so every point is a unit.
        raw = {**tiny_config_dict(), "ris_z_sweep": [2.0, 3.0, 2.5], "trials": 40}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        outputs = []
        for workers in ("1", "2", "3"):
            outputs.append(tmp_path / f"w{workers}.csv")
            assert main(["run", "--config", str(path), "--workers", workers,
                         "--output", str(outputs[-1])]) == 0
        assert forced_pool == [2, 2]
        assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_below_one_exits_one_naming_the_flag(self, tmp_path, capsys, workers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict()))
        assert main(["run", "--config", str(path), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert main(["preset", "fig4", "--trials", "1", "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("name", [1, 2])])
    def test_non_string_value_exits_one_naming_the_key(self, tmp_path, capsys, key, value):
        raw = {**tiny_config_dict(), key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert f"{key} must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("element_pattern_q", 0.285),
            ("steering_convention", "reference"),
            ("boresight", "-y"),
            ("spacing_m", 0.0625),
            ("n_0_dbm", -130.0),
        ],
    )
    def test_model_constant_key_exits_one_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        # The element pattern, the steering convention, the panel's facing and
        # spacing and the noise power are no config keys.
        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**tiny_config_dict(), key: value}))
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: unknown config keys: {key}\n" in capsys.readouterr().err

    def test_coincident_tx_and_rx_exits_one_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_experiment", no_sweep)
        raw = tiny_config_dict()
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "rx": raw["tx"]}))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(path), "--output", str(out)]) == 1
        assert "config error: tx and rx coincide\n" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # Every check by name, so a dropped or renamed check fails here.
        checks = [line.split(" (")[0] for line in out.splitlines()]
        assert checks == [
            "PASS shipped correlation matrices are PSD",
            "PASS float32 sign bits match integers(0, 2)",
            "PASS chunk state words match their SeedSequence keys",
        ]

    def test_indefinite_correlation_matrix_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_scenario_params", lambda env, los: indefinite_table())
        assert main(["validate"]) == 2
        out = capsys.readouterr().out
        assert "FAIL shipped correlation matrices are PSD" in out.splitlines()

    def test_wrong_sign_bits_fail(self, capsys, monkeypatch):
        make = np.random.default_rng

        class Mirrored:
            """A generator whose uniforms are mirrored, so their top bits flip."""

            def __init__(self, seed):
                self.rng = make(seed)

            def random(self, *args, **kwargs):
                return 1.0 - self.rng.random(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(np.random, "default_rng", Mirrored)
        assert main(["validate"]) == 2
        out = capsys.readouterr().out
        assert "FAIL float32 sign bits match integers(0, 2)" in out.splitlines()

    def test_wrong_state_words_fail(self, capsys, monkeypatch):
        derive = cli._stream_words

        def flipped(*args):
            words = derive(*args)
            words[0, 0, 0] ^= np.uint64(1)
            return words

        monkeypatch.setattr(cli, "_stream_words", flipped)
        assert main(["validate"]) == 2
        out = capsys.readouterr().out
        assert "FAIL chunk state words match their SeedSequence keys" in out.splitlines()


class TestBadUsage:
    def test_unknown_verb_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
