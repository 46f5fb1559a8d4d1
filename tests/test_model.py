import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from groupopt.blocks import ParamBlock, make_rng
from groupopt import model
from groupopt.model import (
    DENSE,
    EMBEDDING,
    EVAL_ROWS,
    ModelConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    logits,
    logloss,
    predict_proba,
    save_checkpoint,
    sigmoid,
)
from groupopt.optimizers import GroupOptimizer, MomentSchedule, RegConfig
from oracles import scatter_rows


def frozen_sigmoid(x):
    """The boolean-mask sigmoid that model.sigmoid replaced, frozen."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def numeric_gradient(blocks, name, ids, labels, config, h=1e-5):
    """Central finite differences of the mean logistic loss."""
    values = blocks[name].values
    grad = np.zeros_like(values)
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + h
        hi = logloss(forward(blocks, ids, config).logits, labels)
        values[i] = orig - h
        lo = logloss(forward(blocks, ids, config).logits, labels)
        values[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    return grad


def small_config():
    return ModelConfig(num_features=12, embed_dim=3, num_fields=2, hidden_dims=(5,))


def frozen_layers(blocks, config):
    """Each layer's (weights, biases), read from the flat dense block in
    its layout: w0, b0, w1, b1, ..., weights as (fan_in, fan_out)."""
    widths = [config.num_fields * config.embed_dim, *config.hidden_dims, 1]
    dense, lo, layers = blocks[DENSE].values, 0, []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = dense[lo:lo + fan_in * fan_out].reshape(fan_in, fan_out)
        lo += fan_in * fan_out
        layers.append((w, dense[lo:lo + fan_out]))
        lo += fan_out
    assert lo == dense.size
    return layers


def random_batch(rng, config, batch=6):
    ids = rng.integers(0, config.num_features, size=(batch, config.num_fields))
    labels = (rng.random(batch) < 0.5).astype(np.float64)
    return ids, labels


class TestForward:
    def test_zero_network_predicts_half(self):
        config = small_config()
        blocks = init_params(config)
        for block in blocks.values():
            block.values[:] = 0.0
        ids = np.zeros((4, config.num_fields), dtype=np.int64)
        assert_allclose(predict_proba(blocks, ids, config), np.full(4, 0.5))

    def test_hand_computed_logit(self):
        # one field, one-dim embedding, single linear layer, no hidden relu
        config = ModelConfig(num_features=2, embed_dim=1, num_fields=1,
                             hidden_dims=())
        blocks = {
            EMBEDDING: ParamBlock(EMBEDDING, np.array([0.5, -2.0]), group_size=1),
            DENSE: ParamBlock(DENSE, np.array([3.0, 0.25])),  # w0, b0
        }
        cache = forward(blocks, np.array([[0], [1]]), config)
        assert_allclose(cache.logits, [1.75, -5.75])

    def test_relu_masks_negative_preactivations(self):
        config = ModelConfig(num_features=2, embed_dim=1, num_fields=1,
                             hidden_dims=(1,))
        blocks = {
            EMBEDDING: ParamBlock(EMBEDDING, np.array([1.0, -1.0]), group_size=1),
            DENSE: ParamBlock(DENSE, np.array([2.0, 0.0, 5.0, 0.5])),  # w0, b0, w1, b1
        }
        cache = forward(blocks, np.array([[0], [1]]), config)
        assert_allclose(cache.logits, [10.5, 0.5])

    def test_id_out_of_range(self):
        config = small_config()
        blocks = init_params(config)
        with pytest.raises(ValueError):
            forward(blocks, np.array([[0, config.num_features]]), config)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 40))
    def test_logits_match_a_fancy_index_gather(self, seed, batch):
        # forward gathers with take; table[ids] is the gather it replaced.
        # Ids come from 4 rows of 12, so a batch repeats ids within and
        # across its samples
        config = small_config()
        blocks = init_params(config, seed % 1000)
        rng = make_rng(seed)
        ids = rng.choice(rng.choice(config.num_features, 4), size=(batch, config.num_fields))
        table = blocks[EMBEDDING].values.reshape(config.num_features, config.embed_dim)
        h = table[ids].reshape(batch, -1)
        cache = forward(blocks, ids, config)
        for i, (w, b) in enumerate(frozen_layers(blocks, config)):
            pre = h @ w + b  # forward adds b in place
            assert cache.pre_activations[i].tobytes() == pre.tobytes()
            h = pre if i == len(config.hidden_dims) else np.maximum(pre, 0.0)
        assert cache.logits.tobytes() == h[:, 0].tobytes()


class TestChunkedLogits:
    CONFIG = ModelConfig(num_features=200, embed_dim=4, num_fields=5, hidden_dims=(16, 8))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.one_of(st.integers(1, EVAL_ROWS),
                          st.tuples(st.integers(1, 3), st.integers(1, 8)).map(
                              lambda kt: kt[0] * EVAL_ROWS + kt[1]),
                          st.sampled_from([EVAL_ROWS + EVAL_ROWS // 8 - 1,
                                           EVAL_ROWS + EVAL_ROWS // 8, 3 * EVAL_ROWS])))
    def test_chunks_match_one_call(self, seed, size):
        # Only the order in which a matrix product sums can differ: aligned
        # chunks keep one call's bits unless a multithreaded BLAS splits
        # that call's rows elsewhere (1 ulp seen at 50,001 rows), so the
        # tolerance is a few ulps of a logit of order 1
        rng = make_rng(seed)
        blocks = init_params(self.CONFIG, seed % 1000)
        blocks[EMBEDDING].values[:] = rng.normal(size=blocks[EMBEDDING].values.size)
        ids = rng.integers(0, self.CONFIG.num_features, size=(size, self.CONFIG.num_fields))
        want = forward(blocks, ids, self.CONFIG).logits
        got = logits(blocks, ids, self.CONFIG)
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("size", [1, EVAL_ROWS - 1, EVAL_ROWS, EVAL_ROWS + 1,
                                      EVAL_ROWS + EVAL_ROWS // 8 - 1,
                                      EVAL_ROWS + EVAL_ROWS // 8, 5000])
    def test_chunks_are_aligned_and_none_is_tiny(self, monkeypatch, size):
        calls = []
        real = model.forward

        def spy(blocks, ids, config):
            calls.append(ids.shape[0])
            return real(blocks, ids, config)

        monkeypatch.setattr(model, "forward", spy)
        blocks = init_params(self.CONFIG)
        ids = np.zeros((size, self.CONFIG.num_fields), dtype=np.int64)
        assert logits(blocks, ids, self.CONFIG).shape == (size,)
        assert sum(calls) == size
        assert calls[:-1] == [EVAL_ROWS] * (len(calls) - 1)
        assert calls[-1] < EVAL_ROWS + EVAL_ROWS // 8
        assert len(calls) == 1 or calls[-1] >= EVAL_ROWS // 8


class TestLoss:
    def test_hand_value(self):
        # logit 0 -> log 2; label 1 with logit 0 -> log 2 as well
        val = logloss(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        assert_allclose(val, np.log(2.0), rtol=1e-12)

    def test_sigmoid_stability(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-800.0, 800.0),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                         709.8, -709.8, 710.0, -710.0, 745.2, -745.2, 1e308, -1e308])),
        max_size=40))
    def test_sigmoid_keeps_the_bits_of_its_masked_form(self, x):
        x = np.array(x, dtype=np.float64)
        assert sigmoid(x).tobytes() == frozen_sigmoid(x).tobytes()


class TestBackward:
    def test_matches_central_differences(self):
        rng = make_rng(5)
        for seed in range(3):
            config = small_config()
            blocks = init_params(config, seed)
            # move off init scale so relus have both signs active
            for block in blocks.values():
                block.values += rng.normal(scale=0.05, size=block.values.size)
            ids, labels = random_batch(rng, config)
            cache = forward(blocks, ids, config)
            grads = backward(cache, labels, blocks)
            # every row of the table, so a row the compact form drops fails
            # against its numeric derivative, and an untouched row must be 0
            grads[EMBEDDING] = scatter_rows(blocks[EMBEDDING], grads[EMBEDDING], cache.rows)
            for name in blocks:
                numeric = numeric_gradient(blocks, name, ids, labels, config)
                scale = np.maximum(np.abs(numeric), 1e-3)
                rel = np.max(np.abs(grads[name] - numeric) / scale)
                assert rel <= 1e-6, f"{name}: rel err {rel}"

    def test_duplicate_ids_accumulate(self):
        config = ModelConfig(num_features=3, embed_dim=1, num_fields=2,
                             hidden_dims=())
        blocks = {
            EMBEDDING: ParamBlock(EMBEDDING, np.array([0.1, 0.2, 0.3]), group_size=1),
            DENSE: ParamBlock(DENSE, np.array([1.0, 1.0, 0.0])),  # w0, b0
        }
        ids = np.array([[1, 1]])
        labels = np.array([0.0])
        cache = forward(blocks, ids, config)
        grads = backward(cache, labels, blocks)
        p = sigmoid(cache.logits)[0]
        assert cache.rows.tolist() == [1]
        assert_allclose(grads[EMBEDDING], [2.0 * p], rtol=1e-12)
        emb = scatter_rows(blocks[EMBEDDING], grads[EMBEDDING], cache.rows)
        assert_allclose(emb, [0.0, 2.0 * p, 0.0], rtol=1e-12)

    def test_labels_shape_checked(self):
        config = small_config()
        blocks = init_params(config)
        ids, labels = random_batch(make_rng(0), config)
        cache = forward(blocks, ids, config)
        with pytest.raises(ValueError):
            backward(cache, labels[:-1], blocks)


def frozen_dense_backward(cache, labels, blocks):
    """backward as it was before its embedding gradient went row-compact:
    np.add.at into a zeroed table-shaped array, one gradient per layer.
    Kept as the oracle that pins the compact form's bits; the layers'
    gradients are laid out as the dense block is."""
    labels = np.asarray(labels, dtype=np.float64)
    batch = cache.logits.size
    config = cache.config
    layers = frozen_layers(blocks, config)
    weights, biases = [None] * len(layers), [None] * len(layers)
    delta = ((sigmoid(cache.logits) - labels) / batch)[:, None]
    for i in range(len(layers) - 1, -1, -1):
        if i != len(layers) - 1:
            delta = delta * (cache.pre_activations[i] > 0.0)
        h = cache.layer_inputs[i]
        weights[i] = (h.T @ delta).ravel()
        biases[i] = delta.sum(axis=0)
        delta = delta @ layers[i][0].T
    emb_grad = np.zeros((config.num_features, config.embed_dim))
    slices = delta.reshape(batch, config.num_fields, config.embed_dim)
    np.add.at(emb_grad, cache.ids, slices)
    return {EMBEDDING: emb_grad.ravel(),
            DENSE: np.concatenate([g for pair in zip(weights, biases) for g in pair])}


class TestCompactBackward:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), num_features=st.integers(1, 8), embed_dim=st.integers(1, 4),
           num_fields=st.integers(1, 4), batch=st.integers(1, 6),
           hidden_dims=st.sampled_from([(), (3,), (4, 2)]),
           seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 10.0),
           layout=st.sampled_from(["drawn", "one id per sample", "one id"]))
    def test_scattered_gradient_matches_frozen_dense_bits(self, data, num_features, embed_dim,
                                                          num_fields, batch, hidden_dims, seed,
                                                          scale, layout):
        # repeated ids within a sample and across samples, every field on one
        # id, batch size 1, a table of one row; the parameters' scale and the
        # labels make delta random
        config = ModelConfig(num_features=num_features, embed_dim=embed_dim,
                             num_fields=num_fields, hidden_dims=hidden_dims)
        blocks = init_params(config, seed % 1000)
        rng = make_rng(seed)
        for block in blocks.values():
            block.values = rng.normal(scale=scale, size=block.values.size)
        ids = np.array(data.draw(st.lists(
            st.lists(st.integers(0, num_features - 1), min_size=num_fields,
                     max_size=num_fields), min_size=batch, max_size=batch)))
        if layout == "one id per sample":
            ids[:] = ids[:, :1]
        elif layout == "one id":
            ids[:] = ids[0, 0]
        labels = (rng.random(batch) < 0.5).astype(np.float64)
        cache = forward(blocks, ids, config)
        grads = backward(cache, labels, blocks)
        frozen = frozen_dense_backward(cache, labels, blocks)
        assert cache.rows.tolist() == sorted(set(ids.ravel().tolist()))
        assert grads[EMBEDDING].shape == (cache.rows.size * embed_dim,)
        dense = scatter_rows(blocks[EMBEDDING], grads[EMBEDDING], cache.rows)
        assert dense.tobytes() == frozen[EMBEDDING].tobytes()
        assert grads.keys() == frozen.keys()
        assert grads[DENSE].tobytes() == frozen[DENSE].tobytes()

    def test_dense_gradient_is_a_new_vector_that_aliases_nothing(self):
        # backward writes each layer's gradient through views of one new
        # vector: none may reach into the parameters, the cache or the
        # gradient of an earlier call
        config = ModelConfig(num_features=30, embed_dim=3, num_fields=4, hidden_dims=(5, 4))
        blocks = init_params(config, 2)
        rng = make_rng(2)
        previous = None
        for _ in range(3):
            ids, labels = random_batch(rng, config, batch=7)
            cache = forward(blocks, ids, config)
            grads = backward(cache, labels, blocks)
            dense = grads[DENSE]
            assert dense.base is None and dense.shape == blocks[DENSE].values.shape
            cached = [cache.ids, cache.logits, *cache.layer_inputs, *cache.pre_activations,
                      *(a for layer in cache.layers for a in layer)]
            for other in (blocks[DENSE].values, blocks[EMBEDDING].values, grads[EMBEDDING],
                          *cached, previous):
                assert other is None or not np.shares_memory(dense, other)
            previous = dense

    def test_a_batch_allocates_nothing_table_sized(self):
        # forward plus backward on 64 rows: the traced peak is the batch's,
        # whether the table has 10,000 rows or 400,000
        peaks = []
        for num_features in (10_000, 400_000):
            config = ModelConfig(num_features=num_features, embed_dim=2, num_fields=4,
                                 hidden_dims=(8,))
            blocks = init_params(config, 0)
            ids = make_rng(5).integers(0, 10_000, size=(64, 4))
            labels = np.arange(64) % 2
            backward(forward(blocks, ids, config), labels, blocks)  # warm caches
            tracemalloc.start()
            try:
                grads = backward(forward(blocks, ids, config), labels, blocks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert grads[EMBEDDING].size <= 64 * 4 * 2
        assert peaks[1] <= peaks[0] + 1024, peaks

    def test_rows_are_computed_only_when_asked(self):
        config = small_config()
        blocks = init_params(config)
        ids, labels = random_batch(make_rng(1), config)
        cache = forward(blocks, ids, config)
        assert "_unique_ids" not in vars(cache)
        backward(cache, labels, blocks)
        rows = cache.rows
        assert rows.tolist() == np.unique(ids).tolist()
        assert cache.rows is rows


class TestTrainingBehavior:
    def test_loss_decreases_over_an_epoch(self):
        rng = make_rng(13)
        config = ModelConfig(num_features=40, embed_dim=4, num_fields=3,
                             hidden_dims=(8,))
        blocks = init_params(config, 1)
        ids = rng.integers(0, config.num_features, size=(256, config.num_fields))
        weights = rng.normal(size=config.num_features)
        logits_true = weights[ids].sum(axis=1)
        labels = (rng.random(256) < sigmoid(logits_true)).astype(np.float64)

        opt = GroupOptimizer(MomentSchedule(kind="adam"), 0.01, RegConfig())
        before = logloss(forward(blocks, ids, config).logits, labels)
        for lo in range(0, 256, 32):
            batch = slice(lo, lo + 32)
            cache = forward(blocks, ids[batch], config)
            grads = backward(cache, labels[batch], blocks)
            rows = np.unique(ids[batch])
            for name, block in blocks.items():
                opt.step(block, grads[name], rows=rows if block.grouped else None)
        after = logloss(forward(blocks, ids, config).logits, labels)
        assert after < before

    def test_untouched_zeroed_rows_stay_exactly_zero(self):
        config = ModelConfig(num_features=10, embed_dim=2, num_fields=1,
                             hidden_dims=(4,))
        blocks = init_params(config, 3)
        table = blocks[EMBEDDING].values.reshape(config.num_features, config.embed_dim)
        table[5:] = 0.0
        reg = RegConfig(lambda21=1e-3, apply_to=frozenset({EMBEDDING}))
        opt = GroupOptimizer(MomentSchedule(kind="adam"), 0.01, reg)
        rng = make_rng(4)
        ids = rng.integers(0, 5, size=(64, 1))
        labels = (rng.random(64) < 0.5).astype(np.float64)
        for lo in range(0, 64, 16):
            batch = slice(lo, lo + 16)
            cache = forward(blocks, ids[batch], config)
            grads = backward(cache, labels[batch], blocks)
            rows = np.unique(ids[batch])
            for name, block in blocks.items():
                opt.step(block, grads[name], rows=rows if block.grouped else None)
        table = blocks[EMBEDDING].values.reshape(config.num_features, config.embed_dim)
        assert np.all(table[5:] == 0.0)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        config = small_config()
        blocks = init_params(config, 9)
        path = tmp_path / "model.json"
        save_checkpoint(path, config, blocks)
        loaded_config, loaded = load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(blocks)
        for name in blocks:
            assert np.array_equal(loaded[name].values, blocks[name].values)
            assert loaded[name].group_size == blocks[name].group_size

    def test_float_group_size_refused(self, tmp_path):
        # (size, 2.0) == (size, 2), so the layout check alone would take it
        config = small_config()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, init_params(config, 9))
        doc = json.loads(path.read_text())
        doc["blocks"][EMBEDDING]["group_size"] = float(config.embed_dim)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="group_size must be a positive integer"):
            load_checkpoint(path)

    def test_config_with_a_seed_refused(self, tmp_path):
        # a model config that names a seed, as files did when ModelConfig
        # carried one that training overwrote with the run seed
        config = small_config()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, init_params(config, 9))
        doc = json.loads(path.read_text())
        doc["config"]["seed"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="^checkpoint config: .*'seed'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layout", ["per-layer blocks", "short dense block"])
    def test_other_layout_refused(self, tmp_path, layout):
        # a file written when each layer was its own block (dense0_w,
        # dense0_b, ...), or with a dense block of the wrong size
        config = small_config()
        blocks = init_params(config, 9)
        if layout == "per-layer blocks":
            dense = blocks.pop(DENSE)
            for i, (w, b) in enumerate(frozen_layers({DENSE: dense}, config)):
                blocks[f"dense{i}_w"] = ParamBlock(f"dense{i}_w", w)
                blocks[f"dense{i}_b"] = ParamBlock(f"dense{i}_b", b)
        else:
            blocks[DENSE] = ParamBlock(DENSE, blocks[DENSE].values[:-1])
        path = tmp_path / "model.json"
        save_checkpoint(path, config, blocks)
        with pytest.raises(ValueError, match="^checkpoint block 'dense': "):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, key, message", [
        ((), "config", "^checkpoint: missing key 'config'$"),
        ((), "blocks", "^checkpoint: missing key 'blocks'$"),
        (("config",), "hidden_dims", "^checkpoint config: missing key 'hidden_dims'$"),
        (("blocks", EMBEDDING), "group_size",
         "^checkpoint block 'embedding': missing key 'group_size'$"),
        (("blocks", DENSE), "values", "^checkpoint block 'dense': missing key 'values'$")])
    def test_missing_key_refused_by_name(self, tmp_path, where, key, message):
        config = small_config()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, init_params(config, 9))
        doc = json.loads(path.read_text())
        entry = doc
        for name in where:
            entry = entry[name]
        del entry[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
