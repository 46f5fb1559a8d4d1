import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from groupopt.blocks import make_rng
from groupopt.data import (GUIDE, SynthSpec, _skewed_ids, draw_ranks, generate, guide_table,
                           load_libsvm, write_libsvm)
from groupopt.model import EVAL_ROWS

import oracles


class TestSynthSpec:
    def test_vocab(self):
        spec = SynthSpec(num_fields=4, vocab_per_field=100)
        assert spec.vocab == 400

    def test_validation(self):
        # NaN noise meant no noise, noise above 1 flips every label, and a
        # NaN skew failed only inside the draw, naming no field
        for field, bad, domain in (
                ("informative_fraction", 0.0, "a real number in (0, 1]"),
                ("noise", -0.5, "a real number in [0, 1]"),
                ("num_samples", 0, "an integer >= 1"),
                ("noise", float("nan"), "a real number in [0, 1]"),
                ("noise", 1.5, "a real number in [0, 1]"),
                ("skew", float("nan"), "a real number in [0, inf]")):
            with pytest.raises(ValueError) as info:
                SynthSpec(**{field: bad})
            assert str(info.value) == f"{field}: must be {domain}, got {bad!r}"
        assert SynthSpec(noise=1.0, skew=float("inf")).noise == 1.0


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(num_samples=500, seed=11)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.train_ids, b.train_ids)
        assert np.array_equal(a.train_labels, b.train_labels)
        assert a.support == b.support

    def test_split_sizes(self):
        spec = SynthSpec(num_samples=1000, seed=0)
        data = generate(spec)
        assert data.num_train == 900
        assert data.test_labels.size == 100

    def test_support_size(self):
        spec = SynthSpec(num_fields=3, vocab_per_field=50,
                         informative_fraction=0.1, num_samples=100)
        data = generate(spec)
        assert len(data.support) == math.ceil(0.1 * 150)

    def test_ids_respect_field_ranges(self):
        spec = SynthSpec(num_fields=3, vocab_per_field=10, num_samples=200, seed=2)
        data = generate(spec)
        for field in range(3):
            column = data.train_ids[:, field]
            assert column.min() >= field * 10
            assert column.max() < (field + 1) * 10

    def test_different_seeds_differ(self):
        base = SynthSpec(num_samples=300, seed=3)
        other = SynthSpec(num_samples=300, seed=4)
        assert not np.array_equal(generate(base).train_ids, generate(other).train_ids)

    def test_noise_flips_labels(self):
        clean = generate(SynthSpec(num_samples=2000, seed=5, noise=0.0))
        noisy = generate(SynthSpec(num_samples=2000, seed=5, noise=0.5))
        assert np.array_equal(clean.train_ids, noisy.train_ids)
        flipped = np.mean(clean.train_labels != noisy.train_labels)
        assert 0.4 < flipped < 0.6


class TestInPlaceGenerate:
    @settings(max_examples=40, deadline=None)
    @given(num_fields=st.integers(1, 6), vocab_per_field=st.integers(1, 60),
           informative_fraction=st.floats(0.01, 1.0),
           num_samples=st.one_of(st.integers(1, 3 * EVAL_ROWS + 9),
                                 st.sampled_from([EVAL_ROWS, 2 * EVAL_ROWS + 1])),
           noise=st.sampled_from([0.0, 0.1, 0.5]),
           skew=st.sampled_from([0.0, 0.7, 1.3]), seed=st.integers(0, 2**32 - 1))
    def test_bits_match_the_whole_array_generator(self, **fields):
        spec = SynthSpec(**fields)
        got, want = generate(spec), oracles.generate(spec)
        for name in ("train_ids", "train_labels", "test_ids", "test_labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert got.support == want.support

    @pytest.mark.parametrize("vocab_per_field", [100, 1000])
    @pytest.mark.parametrize("skew", [0.0, 1.3])
    def test_peak_memory_is_the_returned_arrays_plus_a_column(self, skew, vocab_per_field):
        # The returned ids and labels are 4.2 MiB here. A skewed field's
        # rank draw, before the labels exist, holds two 8-byte vectors of
        # num_samples (the uniforms and their ranks, or the ranks and their
        # permuted ids), the 128-KiB guide table and the search of the
        # uniforms in split buckets; the noise draw holds one vector and its
        # mask; the weights and one row chunk's gather are under 0.2 MiB.
        # Building whole (n, fields) arrays peaked at 12.2 MiB.
        spec = SynthSpec(num_fields=10, vocab_per_field=vocab_per_field, num_samples=50_000,
                         skew=skew, noise=0.1, seed=0)
        generate(SynthSpec(num_samples=10))  # lazy imports allocate too
        tracemalloc.start()
        try:
            data = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(data, name).nbytes for name in
                   ("train_ids", "train_labels", "test_ids", "test_labels"))
        assert peak <= kept + 2 * 8 * spec.num_samples + 0.25 * 2**20


SKEWS = [1e-3, 0.5, 1.3, 3.0, 60.0, math.inf]


def zipf_probs(vocab: int, skew: float) -> np.ndarray:
    probs = (np.arange(vocab) + 1.0) ** -skew  # skew 60 or inf: 0 past the head
    return probs / probs.sum()


class TestGuideTable:
    """The guide-table draw against the calls it replaces:
    cdf.searchsorted(u, side="right") and Generator.choice."""

    @settings(max_examples=60, deadline=None)
    @given(probs=st.one_of(
               st.builds(zipf_probs, st.integers(1, 5000), st.sampled_from(SKEWS)),
               # zeros make ties, tiny masses cdf values within a bucket
               st.lists(st.sampled_from([0.0, 1e-300, 1e-9, 1e-4, 0.3, 1.0]),
                        min_size=1, max_size=300)
               .filter(any).map(np.array)),
           seed=st.integers(0, 2**32 - 1))
    def test_ranks_are_the_search(self, probs, seed):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        inside = cdf[cdf < 1.0]
        u = np.concatenate([
            np.arange(GUIDE) / GUIDE,  # every bucket edge
            inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0),
            make_rng(seed).random(500)])
        u = u[u < 1.0]
        before = u.copy()
        ranks = draw_ranks(cdf, guide_table(cdf), u)
        want = cdf.searchsorted(u, side="right")
        assert ranks.dtype == want.dtype
        assert np.array_equal(ranks, want)
        assert np.array_equal(u, before)

    @settings(max_examples=60, deadline=None)
    @given(vocab=st.integers(1, 5000), skew=st.sampled_from(SKEWS),
           n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_generate_draws_the_ranks_of_choice(self, vocab, skew, n, seed):
        spec = SynthSpec(num_fields=1, vocab_per_field=vocab, num_samples=n, skew=skew)
        got_rng, want_rng = make_rng(seed), make_rng(seed)
        ids = _skewed_ids(got_rng, spec, np.zeros(1, dtype=np.int64))
        perm = want_rng.permutation(vocab)
        want = want_rng.choice(vocab, size=n, p=zipf_probs(vocab, skew))
        assert np.array_equal(np.argsort(perm).take(ids[:, 0]), want)
        assert got_rng.random() == want_rng.random()


class TestLibsvm:
    def test_round_trip(self, tmp_path):
        data = generate(SynthSpec(num_samples=50, seed=7))
        path = tmp_path / "train.libsvm"
        write_libsvm(path, data.train_ids, data.train_labels)
        ids, labels = load_libsvm(path)
        assert ids.dtype == labels.dtype == np.int64
        assert np.array_equal(ids, data.train_ids)
        assert np.array_equal(labels, data.train_labels)

    def test_label_conventions(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("+1 3:1\n-1 4:1\n1 5:1\n0 6:1\n")
        ids, labels = load_libsvm(path)
        assert labels.tolist() == [1, 0, 1, 0]
        assert ids.tolist() == [[3], [4], [5], [6]]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 1:1\n\n0 2:1\n")
        ids, labels = load_libsvm(path)
        assert ids.tolist() == [[1], [2]]
        assert labels.tolist() == [1, 0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.libsvm"
        for body in ("", "\n\n"):
            path.write_text(body)
            with pytest.raises(ValueError, match="^no samples$"):
                load_libsvm(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 1:1 2:1\n\n0 1:1\n")
        with pytest.raises(ValueError, match="^1 fields at line 3, the first sample has 2$"):
            load_libsvm(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 1:1\n2 1:1\n")
        with pytest.raises(ValueError, match="^bad label '2' at line 2$"):
            load_libsvm(path)

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 oops\n")
        with pytest.raises(ValueError, match="^malformed pair 'oops' at line 1$"):
            load_libsvm(path)

    def test_negative_index(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 -3:1\n")
        with pytest.raises(ValueError, match="^negative index at line 1$"):
            load_libsvm(path)

    def test_non_one_hot_value(self, tmp_path):
        path = tmp_path / "f.libsvm"
        path.write_text("1 3:0.5\n")
        with pytest.raises(ValueError, match="^non-one-hot value at line 1$"):
            load_libsvm(path)


class TestSkew:
    def test_ids_stay_in_field_slices(self):
        spec = SynthSpec(num_fields=3, vocab_per_field=20, num_samples=2000,
                         skew=1.5, seed=4)
        ds = generate(spec)
        ids = np.vstack([ds.train_ids, ds.test_ids])
        for f in range(3):
            assert ids[:, f].min() >= f * 20
            assert ids[:, f].max() < (f + 1) * 20

    def test_deterministic(self):
        spec = SynthSpec(num_samples=500, skew=1.2, seed=7)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.train_ids, b.train_ids)
        assert np.array_equal(a.train_labels, b.train_labels)

    def test_concentrates_frequencies(self):
        flat = generate(SynthSpec(num_fields=2, vocab_per_field=100,
                                  num_samples=20_000, seed=3))
        skewed = generate(SynthSpec(num_fields=2, vocab_per_field=100,
                                    num_samples=20_000, skew=1.3, seed=3))

        def top_decile_share(ds):
            counts = np.bincount(ds.train_ids.ravel(), minlength=200)
            top = np.sort(counts)[::-1][:20]
            return top.sum() / counts.sum()

        assert top_decile_share(flat) < 0.15
        assert top_decile_share(skewed) > 0.4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(skew=-0.1)
