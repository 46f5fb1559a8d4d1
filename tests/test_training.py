import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupopt import training
from groupopt.data import SynthSpec, write_libsvm
from groupopt.metrics import nonzero_groups
from groupopt.model import EMBEDDING, ModelConfig
from groupopt.optimizers import GroupOptimizer, RegConfig
from groupopt.pruning import PruneSchedule
from groupopt.training import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_dataset,
    prune_baseline,
    prune_finetune_prune,
    run_repeated,
    sweep,
    train_model,
)


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
        with pytest.raises(ConfigError, match="unknown name"):
            tiny_config(optimizer="adamw")
        with pytest.raises(ConfigError, match="lr"):
            tiny_config(lr=0.0)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(repeats=0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "repeats", "seed"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer"):
            tiny_config(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = tiny_config(epochs=np.int64(2), seed=np.int32(3))
        assert (config.epochs, config.seed) == (2, 3)

    def test_dict_round_trip(self):
        config = tiny_config()
        rebuilt = config_from_dict(config.to_dict())
        assert rebuilt == config

    def test_string_apply_to_rejected(self):
        doc = tiny_config().to_dict()
        doc["reg"]["apply_to"] = "embedding"
        with pytest.raises(ConfigError, match="reg: apply_to"):
            config_from_dict(doc)

    @pytest.mark.parametrize("optimizer, penalties, unused", [
        ("adam", {"lambda1": 0.1, "lambda21": 0.5}, "lambda1, lambda21"),
        ("sgd", {"lambda2": 1e-5}, "lambda2"),
        ("ftrl", {"lambda1": 0.1, "lambda21": 0.5}, "lambda21"),
        ("ftrl", {"lambda2": 1e-5}, "lambda2"),
    ])
    def test_penalties_the_optimizer_does_not_apply_rejected(self, optimizer, penalties,
                                                             unused):
        with pytest.raises(ConfigError, match=f"reg: '{optimizer}' applies no {unused};"):
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
            self, block, grad if rows is None else block.scatter_rows(grad, rows)))
        dense = train_model(config)
        assert lazy.blocks.keys() == dense.blocks.keys()
        for name in lazy.blocks:
            assert lazy.blocks[name].values.tobytes() == dense.blocks[name].values.tobytes()
        assert 0 < lazy.final["nonzero_groups"] < 600


    @pytest.mark.parametrize("apply_to, calls", [({EMBEDDING}, 2),
                                                 ({EMBEDDING, "dense1_w"}, 3)])
    def test_one_step_per_grouped_block_and_pack(self, monkeypatch, apply_to, calls):
        # the embedding, plus one pack of dense blocks per penalty setting
        counts = {"step": 0, "batch": 0}
        real_step, real_backward = GroupOptimizer.step, training.backward

        def step(self, *args, **kwargs):
            counts["step"] += 1
            return real_step(self, *args, **kwargs)

        def backward(*args):
            counts["batch"] += 1
            return real_backward(*args)

        monkeypatch.setattr(GroupOptimizer, "step", step)
        monkeypatch.setattr(training, "backward", backward)
        train_model(tiny_config(reg=RegConfig(lambda21=1e-3, apply_to=frozenset(apply_to))))
        assert counts["batch"] == 9
        assert counts["step"] == calls * counts["batch"]


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
        with pytest.raises(ConfigError):
            sweep(tiny_config(), [])

    def test_nonzero_grid_for_a_plain_optimizer_rejected_before_training(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("train_model entered")

        monkeypatch.setattr(training, "train_model", never)
        with pytest.raises(ConfigError, match="reg: 'adam' applies no lambda21"):
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
        with pytest.raises(ConfigError, match="2 fields, model expects 3"):
            load_dataset(tiny_config(data=str(path)))


    def test_feature_id_out_of_range_rejected(self, tmp_path):
        # the largest id sits in the test split, which only evaluation reads
        path = tmp_path / "d.libsvm"
        ids = np.arange(60).reshape(20, 3)
        ids[-1, 2] = 75
        write_libsvm(path, ids, np.array([0, 1] * 10))
        with pytest.raises(ConfigError, match="data: feature id 75 is out of range for "
                                              "model.num_features 60"):
            load_dataset(tiny_config(data=str(path)))

    @pytest.mark.parametrize("labels, split", [([1] * 20, "train"),
                                               ([0, 1] * 9 + [1, 1], "test")])
    def test_one_class_split_rejected(self, tmp_path, labels, split):
        path = tmp_path / "d.libsvm"
        ids = np.arange(60).reshape(20, 3)
        write_libsvm(path, ids, np.array(labels))
        with pytest.raises(ConfigError, match=f"data: the {split} split"):
            load_dataset(tiny_config(data=str(path)))


class TestPruneBaseline:
    def setup_method(self):
        self.config = tiny_config(optimizer="adagrad", reg=RegConfig())
        self.dataset = load_dataset(self.config)
        self.base = train_model(self.config, dataset=self.dataset)

    def test_prune_finetune_prune_respects_target(self):
        schedule = PruneSchedule(target_keep=7, finetune_fraction=0.2)
        pruned = prune_finetune_prune(self.base.blocks, self.dataset,
                                      schedule, self.config)
        assert nonzero_groups(pruned[EMBEDDING]) <= 7
        # the input blocks are untouched
        assert nonzero_groups(self.base.blocks[EMBEDDING]) > 7

    def test_report_structure(self):
        report = prune_baseline(self.config, 10, dataset=self.dataset,
                                base_report=self.base)
        assert report["target_keep"] == 10
        assert [row["finetune_fraction"] for row in report["fractions"]] == [
            0.0, 0.1, 0.2, 0.3]
        best_auc = max(row["auc"] for row in report["fractions"])
        assert report["best"]["auc"] == best_auc
        assert report["base"]["auc"] == self.base.final["auc"]

    def test_keep_zero_scores_constant(self):
        report = prune_baseline(self.config, 0, fractions=(0.0,),
                                dataset=self.dataset, base_report=self.base)
        assert report["fractions"][0]["auc"] == 0.5
        assert report["fractions"][0]["nonzero_groups"] == 0

    def test_noop_prune_keeps_auc(self):
        keep = nonzero_groups(self.base.blocks[EMBEDDING])
        report = prune_baseline(self.config, keep, fractions=(0.0,),
                                dataset=self.dataset, base_report=self.base)
        assert_allclose(report["fractions"][0]["auc"], self.base.final["auc"])

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
