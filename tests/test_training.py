import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupopt import blocks, training
from groupopt.blocks import make_rng
from groupopt.data import Dataset, SynthSpec, write_libsvm
from groupopt.metrics import nonzero_groups
from groupopt.model import DENSE, EMBEDDING, ModelConfig, init_params
from groupopt.optimizers import OPTIMIZER_NAMES, GroupOptimizer, RegConfig
from groupopt.training import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_dataset,
    prune_baseline,
    run_repeated,
    sweep,
    train_model,
)
from oracles import scatter_rows
from test_pruning_metrics import NON_INTEGER_KEEPS


def tiny_config(**overrides):
    base = dict(
        model=ModelConfig(num_features=60, embed_dim=4, num_fields=3,
                          hidden_dims=(8,)),
        data=SynthSpec(num_fields=3, vocab_per_field=20, num_samples=300, seed=1),
        optimizer="group-adam",
        lr=1e-2,
        reg=RegConfig(lambda21=1e-3, lambda2=1e-5, apply_to=frozenset({EMBEDDING})),
        epochs=1,
        batch_size=32,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_rejects_bad_fields(self):
        for field, value, message in (
                ("optimizer", "adamw", "optimizer: must be one of "
                 + ", ".join(map(repr, OPTIMIZER_NAMES)) + ", got 'adamw'"),
                ("lr", 0.0, "lr: must be a real number in (0, inf), got 0.0"),
                ("epochs", 0, "epochs: must be an integer >= 1, got 0"),
                ("repeats", 0, "repeats: must be an integer >= 1, got 0")):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "repeats", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
    def test_counts_must_be_integers(self, field, value):
        message = f"{field}: must be an integer >= {0 if field == 'seed' else 1}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            tiny_config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = tiny_config(epochs=np.int64(2), seed=np.int32(3))
        assert (config.epochs, config.seed) == (2, 3)

    @pytest.mark.parametrize("field, value, words", [
        ("model", {"num_features": 60}, "a ModelConfig"),
        ("model", None, "a ModelConfig"),
        ("data", {"num_fields": 3}, "a SynthSpec or a file path string"),
        ("data", 5, "a SynthSpec or a file path string"),
        ("reg", {"lambda21": 0.1}, "a RegConfig"),
        ("reg", None, "a RegConfig")])
    def test_sections_of_another_type_rejected_at_construction(self, field, value, words):
        # a dict used to construct, then fail in train_model with an AttributeError
        message = f"{field}: must be {words}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            tiny_config(**{field: value})

    def test_dict_round_trip(self):
        config = tiny_config()
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt == config

    @pytest.mark.parametrize("doc, data, size", [
        ({}, SynthSpec(), (5000, 10)),
        ({"data": {"num_fields": 3, "vocab_per_field": 20}, "model": {"embed_dim": 4}},
         SynthSpec(num_fields=3, vocab_per_field=20), (60, 3)),
        ({"data": {}, "model": {"num_features": 7, "num_fields": 2}}, SynthSpec(), (7, 2))])
    def test_synthetic_data_sizes_the_model(self, doc, data, size):
        # data defaults to SynthSpec's defaults, and the model's sizes to the
        # spec's, where the model leaves them out
        config = config_from_dict(doc)
        assert config.data == data
        assert (config.model.num_features, config.model.num_fields) == size

    @pytest.mark.parametrize("model, message", [
        (None, "model: required when data is a file path"),
        ({"embed_dim": 4, "num_fields": 3}, "model.num_features: required")])
    def test_file_path_needs_a_model_with_num_features(self, model, message):
        doc = {"data": "d.libsvm", **({"model": model} if model is not None else {})}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_string_apply_to_rejected(self):
        doc = tiny_config().to_dict()
        doc["reg"]["apply_to"] = "embedding"
        with pytest.raises(ConfigError, match=r"^reg: apply_to: must be a collection of block "
                                              r"names or None, got 'embedding'$"):
            config_from_dict(doc)

    # a section that is not an object used to escape as a bare TypeError, or
    # as a ValueError about dict's update sequence
    @pytest.mark.parametrize("section, value, message", [
        ("model", 5, "model: must be an object, got 5"),
        ("model", [1, 2], "model: must be an object, got [1, 2]"),
        ("reg", None, "reg: must be an object, got None"),
        ("reg", "ab", "reg: must be an object, got 'ab'"),
        ("reg", [1], "reg: must be an object, got [1]"),
        ("data", 5, "data: must be a spec object or a file path, got 5"),
    ], ids=["model-int", "model-list", "reg-none", "reg-str", "reg-list", "data-int"])
    def test_section_that_is_not_an_object_rejected(self, section, value, message):
        doc = {**tiny_config().to_dict(), section: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_config_error_is_the_one_in_blocks(self):
        assert ConfigError is blocks.ConfigError and issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("optimizer, penalties, unused", [
        ("adam", {"lambda1": 0.1, "lambda21": 0.5}, "lambda1, lambda21"),
        ("sgd", {"lambda2": 1e-5}, "lambda2"),
        ("ftrl", {"lambda1": 0.1, "lambda21": 0.5}, "lambda21"),
        ("ftrl", {"lambda2": 1e-5}, "lambda2"),
    ])
    def test_penalties_the_optimizer_does_not_apply_rejected(self, optimizer, penalties,
                                                             unused):
        with pytest.raises(ConfigError, match=f"^reg: '{optimizer}' applies no {unused}; "
                                              "set it to 0 or use a group- optimizer$"):
            tiny_config(optimizer=optimizer, reg=RegConfig(**penalties))

    def test_ftrl_takes_lambda1(self):
        assert tiny_config(optimizer="ftrl", reg=RegConfig(lambda1=0.1)).reg.lambda1 == 0.1

    def test_ftrl_config_reports_what_runs(self):
        # l1 on every block, at epsilon 0, whatever apply_to and epsilon say
        config = tiny_config(optimizer="ftrl", epsilon=1e-8,
                             reg=RegConfig(lambda1=0.1, apply_to=frozenset({EMBEDDING})))
        doc = config.to_dict()
        assert doc["reg"]["apply_to"] is None
        assert doc["epsilon"] == 0.0
        assert config_from_dict(doc) == config

    def test_schedule_args_carry_all_knobs(self):
        args = tiny_config(beta1=0.8, gamma=0.7).schedule_args()
        assert args == {"beta1": 0.8, "beta2": 0.999, "gamma": 0.7,
                        "epsilon": 1e-8}


class TestTrainModel:
    def test_deterministic(self):
        config = tiny_config()
        a, b = train_model(config), train_model(config)
        drop_wall = lambda d: {k: v for k, v in d.items() if k != "wall_ms"}
        assert drop_wall(a.final) == drop_wall(b.final)
        assert np.array_equal(a.blocks[EMBEDDING].values,
                              b.blocks[EMBEDDING].values)

    def test_seed_offset_changes_run(self):
        config = tiny_config()
        a = train_model(config)
        b = train_model(config, seed_offset=1)
        assert a.final["seed"] == 0 and b.final["seed"] == 1
        assert not np.array_equal(a.blocks[EMBEDDING].values,
                                  b.blocks[EMBEDDING].values)

    def test_report_shape(self):
        report = train_model(tiny_config(epochs=2))
        assert [row["epoch"] for row in report.epochs] == [1, 2]
        assert "epoch" not in report.final
        assert report.final["nonzero_groups"] == nonzero_groups(
            report.blocks[EMBEDDING])
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert set(doc) == {"schema_version", "config", "epochs", "final"}

    def test_features_seen_are_the_sorted_distinct_train_ids(self):
        # the data use ids 0..59 of an 80-row table, so some rows are never seen
        config = tiny_config(model=ModelConfig(num_features=80, embed_dim=4, num_fields=3,
                                               hidden_dims=(8,)))
        data = load_dataset(config)
        seen = train_model(config, dataset=data).features_seen
        expected = np.unique(data.train_ids)
        assert seen.dtype == expected.dtype and np.array_equal(seen, expected)
        assert expected.size < config.model.num_features

    @pytest.mark.parametrize("bad_id", [60, 1000, -1])
    def test_train_id_out_of_range_raises_forwards_error(self, bad_id):
        config = tiny_config()
        data = load_dataset(config)
        data.train_ids[-1, 0] = bad_id
        with pytest.raises(ValueError, match="^feature id out of range$"):
            train_model(config, dataset=data)

    def test_group_penalty_actually_prunes(self):
        dense = train_model(tiny_config(reg=RegConfig(apply_to=frozenset({EMBEDDING}),
                                                      lambda2=1e-5)))
        sparse = train_model(tiny_config(reg=RegConfig(lambda21=5e-2, lambda2=1e-5,
                                                       apply_to=frozenset({EMBEDDING}))))
        assert sparse.final["nonzero_groups"] < dense.final["nonzero_groups"]

    def test_group_adagrad_row_steps_match_dense_steps(self, monkeypatch):
        config = tiny_config(
            model=ModelConfig(num_features=600, embed_dim=4, num_fields=3, hidden_dims=(8,)),
            data=SynthSpec(num_fields=3, vocab_per_field=200, num_samples=600, skew=1.3, seed=1),
            optimizer="group-adagrad", lr=0.05, epochs=2,
            reg=RegConfig(lambda1=1e-3, lambda21=0.05, lambda2=1e-5, variant="exact",
                          apply_to=frozenset({EMBEDDING})))
        lazy = train_model(config)
        dense_step = GroupOptimizer.step
        # the rows' gradients scattered into the table: the dense step
        monkeypatch.setattr(GroupOptimizer, "step", lambda self, block, grad, rows=None: dense_step(
            self, block, grad if rows is None else scatter_rows(block, grad, rows)))
        dense = train_model(config)
        assert lazy.blocks.keys() == dense.blocks.keys()
        for name in lazy.blocks:
            assert lazy.blocks[name].values.tobytes() == dense.blocks[name].values.tobytes()
        assert 0 < lazy.final["nonzero_groups"] < 600


    @pytest.mark.parametrize("apply_to", [frozenset({EMBEDDING}), None],
                             ids=["embedding", "all"])
    def test_two_step_calls_per_batch(self, monkeypatch, apply_to):
        # the embedding, then the dense block, whatever the penalties cover
        counts = {"step": [], "batch": 0}
        real_step, real_backward = GroupOptimizer.step, training.backward

        def step(self, block, *args, **kwargs):
            counts["step"].append(block.name)
            return real_step(self, block, *args, **kwargs)

        def backward(*args):
            counts["batch"] += 1
            return real_backward(*args)

        monkeypatch.setattr(GroupOptimizer, "step", step)
        monkeypatch.setattr(training, "backward", backward)
        train_model(tiny_config(reg=RegConfig(lambda21=1e-3, apply_to=apply_to)))
        assert counts["batch"] == 9
        assert counts["step"] == [EMBEDDING, DENSE] * counts["batch"]


class TestOptimizerNames:
    @pytest.mark.parametrize("kind", ["sgd", "momentum", "adagrad", "adam", "amsgrad"])
    def test_plain_name_is_its_group_twin_without_penalties(self, kind):
        plain = train_model(tiny_config(optimizer=kind, reg=RegConfig()))
        group = train_model(tiny_config(optimizer=f"group-{kind}", reg=RegConfig()))
        for name in plain.blocks:
            assert plain.blocks[name].values.tobytes() == group.blocks[name].values.tobytes()

    def test_adagrad_at_epsilon_zero_is_ftrl_without_l1(self):
        adagrad = train_model(tiny_config(optimizer="adagrad", epsilon=0.0, reg=RegConfig()))
        ftrl = train_model(tiny_config(optimizer="ftrl", reg=RegConfig()))
        for name in adagrad.blocks:
            assert adagrad.blocks[name].values.tobytes() == ftrl.blocks[name].values.tobytes()


class TestRunRepeated:
    def test_summary_matches_reports(self):
        config = tiny_config(optimizer="adagrad", reg=RegConfig(), repeats=3)
        reports, summary = run_repeated(config)
        assert len(reports) == 3
        aucs = np.array([r.final["auc"] for r in reports])
        assert_allclose(summary["auc"]["mean"], aucs.mean())
        assert_allclose(summary["auc"]["std"], aucs.std(ddof=1))

    def test_single_repeat_std_zero(self):
        _, summary = run_repeated(tiny_config())
        assert summary["logloss"]["std"] == 0.0


class TestSweep:
    def test_monotone_pruning_across_grid(self):
        config = tiny_config()
        reports = sweep(config, [0.0, 0.25])
        assert len(reports) == 2
        counts = [r.final["nonzero_groups"] for r in reports]
        assert counts[1] < counts[0]
        assert reports[0].config["reg"]["lambda21"] == 0.0

    def test_shared_dataset_fixed_seed(self):
        # identical grid values must give bitwise identical runs
        config = tiny_config()
        a, b = sweep(config, [1e-3, 1e-3])
        assert np.array_equal(a.blocks[EMBEDDING].values,
                              b.blocks[EMBEDDING].values)

    def test_empty_grid(self):
        with pytest.raises(ConfigError,
                           match=r"^lambda21 grid: must be a nonempty sequence, got \[\]$"):
            sweep(tiny_config(), [])

    @pytest.mark.parametrize("grid", [[True, "0.001"], [1e-3, "0.001"], [False],
                                      [1e-3, -1e-3], [float("nan")], [float("inf")], [None]])
    def test_grid_value_that_is_no_penalty_rejected_before_data_are_read(self, monkeypatch,
                                                                          grid):
        # a bool or a string used to train as float(value): lambda21 1.0 and 0.001
        loaded = []
        monkeypatch.setattr(training, "load_dataset", lambda config: loaded.append(config))
        message = f"lambda21 grid: must be a sequence of real numbers in [0, inf), got {grid!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sweep(tiny_config(), grid)
        assert loaded == []

    def test_numpy_and_integer_grid_values_accepted(self):
        a, b = sweep(tiny_config(), np.array([0, 1e-3]))
        c, d = sweep(tiny_config(), [0, 1e-3])
        for x, y in ((a, c), (b, d)):
            assert x.blocks[EMBEDDING].values.tobytes() == y.blocks[EMBEDDING].values.tobytes()

    def test_nonzero_grid_for_a_plain_optimizer_rejected_before_training(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        with pytest.raises(ConfigError, match="^reg: 'adam' applies no lambda21; set it to 0 "
                                              "or use a group- optimizer$"):
            sweep(tiny_config(optimizer="adam", reg=RegConfig()), [0.0, 1e-3])


class TestLoadDataset:
    def test_synthetic(self):
        data = load_dataset(tiny_config())
        assert data.num_train == 270
        assert len(data.support) > 0

    def test_libsvm_path(self, tmp_path):
        from groupopt.data import generate
        raw = generate(SynthSpec(num_fields=3, vocab_per_field=20,
                                 num_samples=100, seed=2))
        path = tmp_path / "d.libsvm"
        all_ids = np.vstack([raw.train_ids, raw.test_ids])
        all_labels = np.concatenate([raw.train_labels, raw.test_labels])
        write_libsvm(path, all_ids, all_labels)
        config = tiny_config(data=str(path))
        data = load_dataset(config)
        assert data.num_train == 90
        assert data.support == frozenset()
        assert np.array_equal(data.train_ids, all_ids[:90])

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "d.libsvm"
        path.write_text("1 0:1 1:1\n0 2:1 3:1\n")
        with pytest.raises(ConfigError, match="^data: file has 2 fields, model expects 3$"):
            load_dataset(tiny_config(data=str(path)))


    def test_feature_id_out_of_range_rejected(self, tmp_path):
        # the largest id sits in the test split, which only evaluation reads
        path = tmp_path / "d.libsvm"
        ids = np.arange(60).reshape(20, 3)
        ids[-1, 2] = 75
        write_libsvm(path, ids, np.array([0, 1] * 10))
        with pytest.raises(ConfigError, match=r"^data: feature id 75 is out of range for "
                                              r"model\.num_features 60$"):
            load_dataset(tiny_config(data=str(path)))

    @pytest.mark.parametrize("labels, split", [([1] * 20, "train"),
                                               ([0, 1] * 9 + [1, 1], "test")])
    def test_one_class_split_rejected(self, tmp_path, labels, split):
        path = tmp_path / "d.libsvm"
        ids = np.arange(60).reshape(20, 3)
        write_libsvm(path, ids, np.array(labels))
        size = {"train": 18, "test": 2}[split]
        message = (f"data: the {split} split ({size} of 20 samples) holds fewer than two "
                   "label classes")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_dataset(tiny_config(data=str(path)))


class TestEvaluateMemory:
    def test_peak_does_not_grow_with_the_split_beyond_the_metric_vectors(self):
        # One forward call over the whole split held about 1.4 kB of
        # activations per test row of this model. In chunks, what grows
        # with the split is the logits and the sort and rank vectors of
        # auc and logloss: about 47 bytes a row, under eight 8-byte vectors
        model = ModelConfig(num_features=1000, embed_dim=8, num_fields=10,
                            hidden_dims=(32, 16))
        blocks = init_params(model)
        rng = make_rng(0)
        features_seen = np.arange(model.num_features)
        peaks = {}
        for rows in (5_000, 50_000):
            ids = rng.integers(0, model.num_features, (rows, model.num_fields))
            labels = rng.integers(0, 2, rows)
            dataset = Dataset(ids[:0], labels[:0], ids, labels, support=frozenset())
            training.evaluate(blocks, dataset, model, features_seen)  # lazy imports allocate too
            tracemalloc.start()
            try:
                training.evaluate(blocks, dataset, model, features_seen)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50_000] - peaks[5_000] <= 8 * 8 * 45_000


KEEP_REFUSED = "target_keep: must be an integer >= 0 or None, got "
FRACTIONS_REFUSED = "fractions: must be a nonempty sequence of real numbers in [0, 1], got "


# every refusal is a ConfigError: a fraction out of range used to be a plain
# ValueError, worded unlike the others
@pytest.mark.parametrize("target_keep, fractions, message", [
    (2.5, (0.0,), KEEP_REFUSED + "2.5"), (float("nan"), (0.0, 0.1), KEEP_REFUSED + "nan"),
    (3, (0.0, 1.5), FRACTIONS_REFUSED + "(0.0, 1.5)"), (3, (), FRACTIONS_REFUSED + "()"),
    (-1, (0.0,), KEEP_REFUSED + "-1"),
    (1, (1.5,), FRACTIONS_REFUSED + "(1.5,)"),
    (3, ("0.1",), FRACTIONS_REFUSED + "('0.1',)"),
    (3, (True,), FRACTIONS_REFUSED + "(True,)"),
    *[(keep, (0.0,), KEEP_REFUSED + repr(keep)) for keep in NON_INTEGER_KEEPS]])
def test_prune_baseline_refuses_bad_arguments_before_training(monkeypatch, target_keep,
                                                               fractions, message):
    def entered(*args, **kwargs):
        raise AssertionError("trained or loaded data")

    monkeypatch.setattr(training, "train_model", entered)
    monkeypatch.setattr(training, "load_dataset", entered)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        prune_baseline(tiny_config(optimizer="adagrad", reg=RegConfig()), target_keep,
                       fractions=fractions)


@pytest.mark.parametrize("targets, message", [
    ({}, "target: give one of target_keep and target_sparsity, got neither"),
    ({"target_keep": 5, "target_sparsity": 0.5},
     "target: give one of target_keep and target_sparsity, got both"),
    *(({"target_sparsity": value},
       f"target_sparsity: must be a real number in [0, 1] or None, got {value!r}")
      for value in (1.5, -0.1, float("nan"), "0.5", True))])
def test_prune_baseline_takes_one_target_before_training(monkeypatch, targets, message):
    def entered(*args, **kwargs):
        raise AssertionError("trained or loaded data")

    monkeypatch.setattr(training, "train_model", entered)
    monkeypatch.setattr(training, "load_dataset", entered)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        prune_baseline(tiny_config(optimizer="adagrad", reg=RegConfig()), **targets)


# a sweep point or a pruning baseline trains once, at config.seed; repeats
# used to be accepted and reported, yet never run
@pytest.mark.parametrize("run", [lambda config: sweep(config, [0.0, 1e-3]),
                                 lambda config: prune_baseline(config, 5)],
                         ids=["sweep", "prune_baseline"])
def test_repeats_refused_before_loading_data(monkeypatch, run):
    def entered(*args, **kwargs):
        raise AssertionError("trained or loaded data")

    monkeypatch.setattr(training, "train_model", entered)
    monkeypatch.setattr(training, "load_dataset", entered)
    with pytest.raises(ConfigError, match=r"^repeats: must be 1, as (sweep|prune_baseline) "
                                          r"trains each point once, got 3$"):
        run(tiny_config(optimizer="adagrad", reg=RegConfig(), repeats=3))


class TestPruneBaseline:
    def setup_method(self):
        self.config = tiny_config(optimizer="adagrad", reg=RegConfig())
        self.dataset = load_dataset(self.config)
        self.base = train_model(self.config, dataset=self.dataset)

    def test_prune_finetune_prune_respects_target(self):
        report = prune_baseline(self.config, 7, fractions=(0.2,), dataset=self.dataset)
        assert report["fractions"][0]["nonzero_groups"] <= 7
        # the input blocks are untouched
        assert nonzero_groups(self.base.blocks[EMBEDDING]) > 7

    def test_report_structure(self):
        report = prune_baseline(self.config, 10, dataset=self.dataset)
        assert report["target_keep"] == 10
        assert [row["finetune_fraction"] for row in report["fractions"]] == [
            0.0, 0.1, 0.2, 0.3]
        best_auc = max(row["auc"] for row in report["fractions"])
        assert report["best"]["auc"] == best_auc
        assert report["base"]["auc"] == self.base.final["auc"]

    def test_keep_zero_scores_constant(self):
        report = prune_baseline(self.config, 0, fractions=(0.0,), dataset=self.dataset)
        assert report["fractions"][0]["auc"] == 0.5
        assert report["fractions"][0]["nonzero_groups"] == 0

    def test_noop_prune_keeps_auc(self):
        keep = nonzero_groups(self.base.blocks[EMBEDDING])
        report = prune_baseline(self.config, keep, fractions=(0.0,), dataset=self.dataset)
        assert_allclose(report["fractions"][0]["auc"], self.base.final["auc"])

    def test_target_sparsity_keeps_that_share_of_the_seen_ids(self):
        seen = np.unique(self.dataset.train_ids)
        by_share = prune_baseline(self.config, dataset=self.dataset, target_sparsity=0.1)
        by_count = prune_baseline(self.config, round(0.1 * len(seen)), dataset=self.dataset)
        assert by_share["target_keep"] == round(0.1 * len(seen)) > 0
        for report in (by_share, by_count):
            report["base"].pop("wall_ms")
        assert by_share == by_count

    def test_finetune_trains_without_evaluating(self, monkeypatch):
        calls = []
        real = training.evaluate
        monkeypatch.setattr(training, "evaluate", lambda *args: calls.append(1) or real(*args))
        config = tiny_config(optimizer="adagrad", reg=RegConfig(), epochs=2)
        report = prune_baseline(config, 15)
        # one evaluation per training epoch and one per fine-tune fraction
        assert len(calls) == 2 + 4
        best = report["best"]
        assert (best["finetune_fraction"], best["nonzero_groups"]) == (0.3, 15)
        assert best["auc"] == 0.7638888888888888
        assert_allclose(best["logloss"], 0.6539972838479251, rtol=1e-12)
        # every fraction's row: fraction 0 is pruned once, the others fine-tuned
        pinned = [(0.0, 0.7407407407407407, 0.6656352022747302),
                  (0.1, 0.7407407407407407, 0.6611698272066249),
                  (0.2, 0.7361111111111112, 0.656655954464905),
                  (0.3, 0.7638888888888888, 0.6539972838479251)]
        for row, (fraction, auc_value, logloss_value) in zip(report["fractions"], pinned,
                                                             strict=True):
            assert (row["finetune_fraction"], row["nonzero_groups"]) == (fraction, 15)
            assert row["auc"] == auc_value
            assert_allclose(row["logloss"], logloss_value, rtol=1e-12)
