import csv
import json

import numpy as np
import pytest

from groupopt.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    GRIDS,
    METRIC_COLUMNS,
    _parse_grid,
    build_config,
    build_parser,
    main,
)
from groupopt import cli, training
from groupopt.model import load_checkpoint
from groupopt.training import ConfigError

TINY = {
    "data": {"num_fields": 3, "vocab_per_field": 20, "num_samples": 300, "seed": 1},
    "model": {"embed_dim": 4, "hidden_dims": [8]},
    "epochs": 1,
    "batch_size": 32,
}
# TINY's model given explicitly, as a libsvm file does not size it
TINY_MODEL = {"num_features": 60, "num_fields": 3, "embed_dim": 4, "hidden_dims": [8]}


def parse(argv):
    return build_parser().parse_args(argv)


def write_tiny_config(tmp_path, **extra):
    doc = {**TINY, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def train_without_data(tmp_path, monkeypatch, extra):
    """The exit code of train on TINY updated by extra, where loading or
    generating the data fails the test."""
    def never(*args, **kwargs):
        raise AssertionError("the data were loaded")

    monkeypatch.setattr(training, "load_dataset", never)
    monkeypatch.setattr(training, "generate", never)
    return main(["train", "--config", write_tiny_config(tmp_path, **extra)])


class TestBuildConfig:
    def test_preset_group_adam_dcn(self):
        config = build_config(parse(["train", "--preset", "group-adam-dcn"]))
        assert config.optimizer == "group-adam"
        assert config.lr == 1e-3
        assert config.reg.lambda1 == 4e-4
        assert config.reg.lambda21 == 5e-4
        assert config.reg.lambda2 == 1e-5

    def test_preset_adam_mlp(self):
        config = build_config(parse(["train", "--preset", "adam-mlp"]))
        assert config.optimizer == "adam"
        assert config.lr == 1e-4

    def test_flag_overrides_preset(self):
        args = parse(["train", "--preset", "group-adam-dcn", "--lr", "0.5",
                      "--lambda21", "0.125"])
        config = build_config(args)
        assert config.lr == 0.5
        assert config.reg.lambda21 == 0.125
        assert config.reg.lambda1 == 4e-4

    def test_default_lambda2_for_group_optimizers(self):
        config = build_config(parse(["train", "--optimizer", "group-adagrad"]))
        assert config.reg.lambda2 == 1e-5

    def test_no_default_lambda2_for_vanilla(self):
        config = build_config(parse(["train", "--optimizer", "adam"]))
        assert config.reg.lambda2 == 0.0

    def test_sweep_path_leaves_lambda2_alone(self):
        args = parse(["sweep", "--optimizer", "group-adam", "--grid", "0"])
        config = build_config(args, default_lambda2=False)
        assert config.reg.lambda2 == 0.0

    def test_explicit_lambda2_not_clobbered(self):
        args = parse(["train", "--optimizer", "group-adam", "--lambda2", "0.5"])
        assert build_config(args).reg.lambda2 == 0.5

    def test_model_sized_from_synthetic_vocab(self):
        config = build_config(parse(["train"]))
        assert config.model.num_features == config.data.vocab
        assert config.model.num_fields == config.data.num_fields

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown name"):
            build_config(parse(["train", "--preset", "nope"]))

    def test_config_file_unknown_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle: unknown field"):
            build_config(parse(["train", "--config", str(path)]))

    def test_config_file_nested_unknown_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"data": {"vocab": 5}}))
        with pytest.raises(ConfigError, match="data.vocab: unknown field"):
            build_config(parse(["train", "--config", str(path)]))


class TestParseGrid:
    def test_named_grids(self):
        for name, values in GRIDS.items():
            assert _parse_grid(name) == values

    def test_comma_list(self):
        assert _parse_grid("0,1e-3,5e-3") == [0.0, 1e-3, 5e-3]

    def test_trailing_comma(self):
        assert _parse_grid("0.1,0.2,") == [0.1, 0.2]

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            _parse_grid("0.1,abc")

    def test_empty(self):
        with pytest.raises(ConfigError):
            _parse_grid(",")


class TestTrainCommand:
    def test_writes_report_and_metrics(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "group-adam", "--lr", "1e-2",
                     "--lambda21", "1e-3", "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["config"]["optimizer"] == "group-adam"
        assert report["config"]["reg"]["lambda2"] == 1e-5
        assert len(report["runs"]) == 1
        assert set(report["summary"]) >= {"auc", "logloss", "sparsity"}
        with (out / "metrics.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRIC_COLUMNS
        assert len(rows) == 2

    def test_repeats_summary(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "adagrad", "--lr", "1e-2",
                     "--repeats", "2", "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["runs"]) == 2
        assert report["runs"][0]["final"]["seed"] != report["runs"][1]["final"]["seed"]
        summary = report["summary"]["auc"]
        assert summary["std"] >= 0.0
        with (out / "metrics.csv").open() as fh:
            assert len(list(csv.reader(fh))) == 3

    def test_vanilla_adagrad_at_epsilon_zero_trains(self, tmp_path, capsys):
        # rows of the table no batch has touched yet must not take 0/0
        code = main(["train", "--config", write_tiny_config(tmp_path, epsilon=0.0),
                     "--optimizer", "adagrad", "--lr", "1e-2"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["config"]["epsilon"] == 0.0

    def test_stdout_json_without_outdir(self, tmp_path, capsys):
        code = main(["train", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "sgd", "--lr", "1e-2"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["optimizer"] == "sgd"

    def test_save_checkpoint(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "group-adagrad", "--lr", "1e-2",
                     "--output-dir", str(out), "--save-checkpoint"])
        assert code == EXIT_OK
        model_config, blocks = load_checkpoint(out / "checkpoint.json")
        assert model_config.embed_dim == 4
        assert "embedding" in blocks

    def test_save_checkpoint_without_output_dir_exits_2_before_loading_data(
            self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("training entered")

        for module in (cli, training):
            monkeypatch.setattr(module, "load_dataset", never)
            monkeypatch.setattr(module, "train_model", never)
        code = main(["train", "--config", write_tiny_config(tmp_path), "--save-checkpoint"])
        assert code == EXIT_CONFIG
        assert "config error: save-checkpoint: needs --output-dir" in capsys.readouterr().err

    def test_bad_optimizer_exits_2(self, capsys):
        assert main(["train", "--optimizer", "adamw"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert main(["train", "--config", "/nonexistent/c.json"]) == EXIT_CONFIG

    def test_string_apply_to_exits_2(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path, reg={"lambda21": 0.1, "apply_to": "embedding"})
        assert main(["train", "--config", path]) == EXIT_CONFIG
        assert "reg: apply_to" in capsys.readouterr().err

    # a name that is no block of the model, a typo or a layer of a per-layer
    # layout, would train with no penalty at all
    @pytest.mark.parametrize("name", ["embeddings", "dense1_w"])
    def test_apply_to_unknown_block_exits_2(self, tmp_path, capsys, name):
        path = write_tiny_config(tmp_path, reg={"lambda21": 0.5, "apply_to": [name]})
        assert main(["train", "--config", path]) == EXIT_CONFIG
        assert (f"config error: reg: apply_to: no block named {name!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("body", ["2 0:1 20:1 40:1\n", "1 oops\n", "1 -3:1\n",
                                      "1 0:0.5 20:1 40:1\n", "1 0:1 20:1 40:1\n0 0:1\n", ""])
    def test_malformed_libsvm_exits_2(self, tmp_path, capsys, body):
        parser_message = {
            "2 0:1 20:1 40:1\n": "bad label '2' at line 1",
            "1 oops\n": "malformed pair 'oops' at line 1",
            "1 -3:1\n": "negative index at line 1",
            "1 0:0.5 20:1 40:1\n": "non-one-hot value at line 1",
            "1 0:1 20:1 40:1\n0 0:1\n": "1 fields at line 2, the first sample has 3",
            "": "no samples in",
        }[body]
        path = tmp_path / "d.libsvm"
        path.write_text(body)
        code = main(["train", "--config", write_tiny_config(tmp_path, model=TINY_MODEL),
                     "--data", str(path)])
        assert code == EXIT_CONFIG
        assert f"config error: {parser_message}" in capsys.readouterr().err

    @pytest.mark.parametrize("labels, split", [("1" * 20, "train"),
                                               ("01" * 9 + "11", "test")])
    def test_one_class_split_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                     labels, split):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        path = tmp_path / "d.libsvm"
        path.write_text("".join(f"{label} {i % 20}:1 {20 + i}:1 40:1\n"
                                for i, label in enumerate(labels)))
        code = main(["train", "--config", write_tiny_config(tmp_path, model=TINY_MODEL),
                     "--data", str(path)])
        assert code == EXIT_CONFIG
        assert f"config error: data: the {split} split" in capsys.readouterr().err

    def test_one_class_generated_split_exits_2_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        # ten samples leave one in the test split
        code = main(["train", "--config", write_tiny_config(
            tmp_path, data={**TINY["data"], "num_samples": 10})])
        assert code == EXIT_CONFIG
        assert ("config error: data: the test split (1 of 10 samples) holds fewer "
                "than two label classes") in capsys.readouterr().err

    def test_feature_id_out_of_range_exits_2_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        path = tmp_path / "d.libsvm"
        # id 60 is past TINY_MODEL's 60-row table, on the last (test) line only
        path.write_text("".join(f"{i % 2} {i % 20}:1 {20 + i}:1 {40 if i < 19 else 60}:1\n"
                                for i in range(20)))
        code = main(["train", "--config", write_tiny_config(tmp_path, model=TINY_MODEL),
                     "--data", str(path)])
        assert code == EXIT_CONFIG
        assert ("config error: data: feature id 60 is out of range for "
                "model.num_features 60") in capsys.readouterr().err

    @pytest.mark.parametrize("flags, unused", [
        (["--optimizer", "adam", "--lambda1", "0.1", "--lambda21", "0.5"], "'adam' applies no "
                                                                          "lambda1, lambda21"),
        (["--optimizer", "ftrl", "--lambda1", "0.1", "--lambda2", "1e-5"], "'ftrl' applies no "
                                                                          "lambda2"),
    ])
    def test_penalty_the_optimizer_does_not_apply_exits_2(self, tmp_path, capsys, flags,
                                                          unused):
        code = main(["train", "--config", write_tiny_config(tmp_path), *flags])
        assert code == EXIT_CONFIG
        assert f"config error: reg: {unused};" in capsys.readouterr().err

    # NaN passes a check written as x < 0; json writes and reads it as NaN
    @pytest.mark.parametrize("extra, message", [
        ({"lr": float("nan")}, "lr: must be > 0"),
        ({"reg": {"lambda1": float("nan")}}, "reg: penalties must be >= 0"),
        ({"reg": {"lambda21": float("nan")}}, "reg: penalties must be >= 0"),
        ({"reg": {"lambda2": float("nan")}}, "reg: penalties must be >= 0"),
        ({"epsilon": float("nan"), "optimizer": "group-adagrad"}, "epsilon must be >= 0"),
        # inf passes a check written as x > 0 or x >= 0 and would fail on the first step
        ({"lr": float("inf")}, "lr: must be > 0 and finite"),
        ({"epsilon": float("inf"), "optimizer": "group-adagrad"},
         "epsilon must be >= 0 and finite"),
    ])
    def test_nan_hyperparameter_exits_2(self, tmp_path, capsys, extra, message):
        code = main(["train", "--config", write_tiny_config(tmp_path, **extra)])
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    # a count that is not an integer, or a bool (which json writes as true),
    # is refused before any data is generated or read
    @pytest.mark.parametrize("extra, message", [
        ({"batch_size": 32.5}, "batch_size: must be an integer, got 32.5"),
        ({"epochs": 1.5}, "epochs: must be an integer, got 1.5"),
        ({"epochs": True}, "epochs: must be an integer, got True"),
        ({"repeats": 2.5}, "repeats: must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
        ({"model": {"embed_dim": 4.0, "hidden_dims": [8]}},
         "model: embed_dim: must be an integer, got 4.0"),
        ({"model": {"embed_dim": 4, "hidden_dims": [8.5]}},
         "model: hidden_dims: must be integers, got [8.5]"),
        ({"model": {**TINY_MODEL, "num_features": 60.0}},
         "model: num_features: must be an integer, got 60.0"),
        ({"model": {**TINY_MODEL, "num_fields": True}},
         "model: num_fields: must be an integer, got True"),
        ({"data": {**TINY["data"], "num_samples": 300.5}},
         "data: num_samples: must be an integer, got 300.5"),
    ])
    def test_non_integer_count_exits_2_before_loading_data(self, tmp_path, capsys,
                                                           monkeypatch, extra, message):
        assert train_without_data(tmp_path, monkeypatch, extra) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    # schedule fields, lr, the penalties and the data's real fields are
    # checked by name before any data are read: out of range, not a number
    # (a string, or a bool, which would read as 1), or infinite
    @pytest.mark.parametrize("extra, message", [
        ({"beta1": 1.5}, "beta1 must be in [0, 1), got 1.5"),
        ({"beta1": "0.9"}, "beta1 must be a real number, got '0.9'"),
        ({"gamma": None}, "gamma must be a real number, got None"),
        ({"beta2": True}, "beta2 must be a real number, got True"),
        ({"epsilon": float("inf")}, "epsilon must be >= 0 and finite, got inf"),
        ({"lr": float("inf")}, "lr: must be > 0 and finite, got inf"),
        ({"lr": "0.1"}, "lr must be a real number, got '0.1'"),
        ({"lr": True}, "lr must be a real number, got True"),
        ({"reg": {"lambda1": "0.1"}}, "reg: lambda1 must be a real number, got '0.1'"),
        ({"reg": {"lambda21": True}}, "reg: lambda21 must be a real number, got True"),
        ({"reg": {"lambda2": None}}, "reg: lambda2 must be a real number, got None"),
        ({"reg": {"lambda1": float("inf")}}, "reg: penalties must be >= 0 and finite"),
        ({"reg": {"lambda21": float("inf")}}, "reg: penalties must be >= 0 and finite"),
        ({"reg": {"lambda2": float("inf")}}, "reg: penalties must be >= 0 and finite"),
        ({"data": {**TINY["data"], "informative_fraction": "0.1"}},
         "data: informative_fraction must be a real number, got '0.1'"),
        ({"data": {**TINY["data"], "noise": True}},
         "data: noise must be a real number, got True"),
        ({"data": {**TINY["data"], "skew": [1.0]}},
         "data: skew must be a real number, got [1.0]"),
    ])
    def test_bad_schedule_field_exits_2_before_loading_data(self, tmp_path, capsys,
                                                            monkeypatch, extra, message):
        assert train_without_data(tmp_path, monkeypatch, extra) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"seed": -1}, "seed: must be >= 0, got -1"),
        ({"data": {**TINY["data"], "seed": -1}}, "data: seed: must be >= 0, got -1"),
    ])
    def test_negative_seed_exits_2_before_loading_data(self, tmp_path, capsys,
                                                       monkeypatch, extra, message):
        assert train_without_data(tmp_path, monkeypatch, extra) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    def test_model_seed_is_an_unknown_field(self, tmp_path, capsys, monkeypatch):
        # the parameters are drawn from the run seed; a model seed would be
        # reported, yet never used
        extra = {"model": {**TINY["model"], "seed": 1}}
        assert train_without_data(tmp_path, monkeypatch, extra) == EXIT_CONFIG
        assert "config error: model.seed: unknown field" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG


class TestSweepCommand:
    def test_writes_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "group-adam", "--lr", "1e-2",
                     "--grid", "0,2.5e-2", "--output-dir", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["grid"] == [0.0, 2.5e-2]
        assert [p["lambda21"] for p in payload["points"]] == [0.0, 2.5e-2]
        # the sweep never injects the default ridge term
        assert payload["config"]["reg"]["lambda2"] == 0.0
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda21", "logloss", "auc", "sparsity", "nonzero_groups"]
        assert len(rows) == 3

    def test_nonzero_grid_for_a_plain_optimizer_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        code = main(["sweep", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "adam", "--grid", "0,2.5e-2"])
        assert code == EXIT_CONFIG
        assert "config error: reg: 'adam' applies no lambda21;" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path):
        assert main(["sweep", "--config", write_tiny_config(tmp_path),
                     "--grid", "abc"]) == EXIT_CONFIG


class TestPruneBaselineCommand:
    def test_target_keep(self, tmp_path):
        out = tmp_path / "prune"
        code = main(["prune-baseline", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "adagrad", "--lr", "1e-2",
                     "--target-keep", "5", "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "prune_baseline.json").read_text())
        assert report["target_keep"] == 5
        assert {row["finetune_fraction"] for row in report["fractions"]} == {0.0, 0.1, 0.2, 0.3}
        assert report["best"]["auc"] == max(r["auc"] for r in report["fractions"])

    def test_target_sparsity(self, tmp_path):
        out = tmp_path / "prune"
        code = main(["prune-baseline", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "adagrad", "--lr", "1e-2",
                     "--target-sparsity", "0.1", "--output-dir", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "prune_baseline.json").read_text())
        assert report["target_keep"] > 0

    def test_missing_target_exits_2(self, tmp_path):
        assert main(["prune-baseline", "--config",
                     write_tiny_config(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, message", [
        ([], "pass --target-keep or --target-sparsity"),
        (["--target-keep", "-1"], "--target-keep must be >= 0"),
        (["--target-sparsity", "1.5"], "--target-sparsity must be in [0, 1]"),
        (["--target-sparsity", "-0.5"], "--target-sparsity must be in [0, 1]"),
        (["--target-keep", "5", "--target-sparsity", "2"], "--target-sparsity must be in"),
    ])
    def test_bad_target_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                flags, message):
        def never(*args, **kwargs):
            raise AssertionError("training entered")

        monkeypatch.setattr(cli, "load_dataset", never)
        monkeypatch.setattr(cli, "train_model", never)
        code = main(["prune-baseline", "--config", write_tiny_config(tmp_path), *flags])
        assert code == EXIT_CONFIG
        assert f"config error: target: {message}" in capsys.readouterr().err


class TestProxSelftestCommand:
    def test_exact_variant(self, capsys):
        assert main(["prox-selftest", "--cases", "60"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "certified-agree" in out
        assert "of 60)" in out

    def test_practical_variant(self, capsys):
        assert main(["prox-selftest", "--cases", "40",
                     "--variant", "practical"]) == EXIT_OK
        assert "certified-agree" in capsys.readouterr().out

    # a self-test of no case checks nothing, and a negative seed has no stream
    @pytest.mark.parametrize("flags, message", [
        (["--cases", "0"], "cases: --cases must be >= 1, got 0"),
        (["--cases", "-5"], "cases: --cases must be >= 1, got -5"),
        (["--seed", "-1"], "seed: --seed must be >= 0, got -1"),
    ])
    def test_bad_count_exits_2_before_any_case(self, monkeypatch, capsys, flags, message):
        def never(*args, **kwargs):
            raise AssertionError("a case was drawn")

        monkeypatch.setattr(cli, "random_problem", never)
        assert main(["prox-selftest", *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""


class TestRegretCommand:
    def test_writes_curve_and_bound(self, tmp_path):
        out = tmp_path / "regret"
        code = main(["regret", "--horizon", "256", "--optimizer", "adagrad",
                     "--output-dir", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "regret.json").read_text())
        assert payload["checkpoints"][-1] == 256
        assert payload["bound"]["condition_met"] is True
        with (out / "regret.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "regret"]
        assert len(rows) == len(payload["checkpoints"]) + 1

    def test_group_prefix_accepted(self, tmp_path, capsys):
        code = main(["regret", "--horizon", "64",
                     "--optimizer", "group-adagrad", "--lambda1", "0.01"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimizer"] == "adagrad"

    @pytest.mark.parametrize("flags, reg", [
        (["--optimizer", "adagrad"], {"lambda1": 0.0, "lambda21": 0.0, "lambda2": 0.0}),
        (["--optimizer", "group-adagrad", "--lambda21", "0.1"],
         {"lambda1": 0.0, "lambda21": 0.1, "lambda2": 0.0}),
    ], ids=["plain", "lambda21"])
    def test_report_shows_its_penalties(self, capsys, flags, reg):
        # both runs report "optimizer": "adagrad"; the penalties tell them apart
        assert main(["regret", "--horizon", "64", *flags]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimizer"] == "adagrad"
        assert payload["reg"] == {**reg, "variant": "practical"}

    def test_negative_seed_exits_2_before_the_run(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("run_regret entered")

        monkeypatch.setattr(cli, "run_regret", never)
        assert main(["regret", "--horizon", "64", "--seed", "-1"]) == EXIT_CONFIG
        assert "config error: seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_bad_optimizer_exits_2(self):
        assert main(["regret", "--horizon", "64",
                     "--optimizer", "rmsprop"]) == EXIT_CONFIG

    def test_ftrl_is_refused_with_the_choices(self, capsys):
        # ftrl is a training optimizer name, not one the regret lab runs
        assert main(["regret", "--horizon", "64", "--optimizer", "ftrl"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid choice: 'ftrl'" in err and "'group-adagrad'" in err

    def test_penalty_the_optimizer_does_not_apply_exits_2(self, capsys):
        # a plain name runs no penalty, so it must not run group-adam's
        code = main(["regret", "--horizon", "64", "--optimizer", "adam", "--lambda1", "0.1"])
        assert code == EXIT_CONFIG
        assert "config error: reg: 'adam' applies no lambda1;" in capsys.readouterr().err

    def test_reports_where_kappa_is_reached(self, capsys):
        assert main(["regret", "--horizon", "64"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        keys = ("kappa_step", "kappa_coord", "kappa_grad")
        assert [payload[k] for k in keys] == [payload["bound"][k] for k in keys]
        assert 2 <= payload["kappa_step"] <= 64 and 0 <= payload["kappa_coord"] < 8

    # the regret lab's lr reaches the optimizer step's own check
    @pytest.mark.parametrize("flag, message", [("--lr", "lr must be > 0"),
                                               ("--lambda21", "penalties must be >= 0")])
    def test_nan_hyperparameter_exits_2(self, capsys, flag, message):
        assert main(["regret", "--horizon", "64", flag, "nan"]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda21", "--lambda2"])
    def test_infinite_penalty_exits_2_before_the_run(self, monkeypatch, capsys, flag):
        # it used to run, and print a NaN bound_rhs
        def never(*args, **kwargs):
            raise AssertionError("run_regret entered")

        monkeypatch.setattr(cli, "run_regret", never)
        assert main(["regret", "--horizon", "64", "--optimizer", "group-adagrad",
                     flag, "inf"]) == EXIT_CONFIG
        assert ("config error: penalties must be >= 0 and finite"
                in capsys.readouterr().err)

    def test_infinite_lr_exits_2(self, capsys):
        # it used to exit 3, a numeric failure on the first step
        assert main(["regret", "--horizon", "64", "--lr", "inf"]) == EXIT_CONFIG
        assert "config error: lr must be > 0 and finite, got inf" in capsys.readouterr().err


class TestExitCodes:
    def test_prox_failure_mid_run_exits_3(self, tmp_path, monkeypatch, capsys):
        # a zero curvature diagonal under live dual mass is a numeric failure
        # of the run, not a config error
        import groupopt.optimizers as optimizers

        real = optimizers.group_shrink
        monkeypatch.setattr(
            optimizers, "group_shrink",
            lambda s, cum_diag, *args: real(s, np.zeros_like(cum_diag), *args))
        code = main(["train", "--config", write_tiny_config(tmp_path),
                     "--optimizer", "group-adagrad", "--lambda2", "0"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: nonpositive effective diagonal" in err
