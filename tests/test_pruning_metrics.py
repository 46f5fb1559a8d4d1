import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupopt.blocks import ParamBlock
from groupopt.metrics import auc, nonzero_groups, sparsity
from groupopt.pruning import magnitude_prune

# a row count written as a float, or no count at all (NaN < 0 is False)
NON_INTEGER_KEEPS = [2.5, 2.0, np.float64(1.0), float("nan")]


def pairwise_auc(labels, scores):
    """Literal Mann-Whitney definition: scan every (pos, neg) pair."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed_ranking(self):
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_all_ties(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_mixed_example(self):
        assert_allclose(auc([1, 0, 1, 0], [0.9, 0.8, 0.1, 0.3]), 0.5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantize so ties actually occur
            scores = np.round(rng.random(n), 1)
            assert_allclose(auc(labels, scores), pairwise_auc(labels, scores),
                            rtol=0, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        scores = rng.random(40)
        base = auc(labels, scores)
        assert_allclose(auc(labels, 3.0 * scores + 2.0), base, rtol=0, atol=1e-12)
        assert_allclose(auc(labels, np.exp(scores)), base, rtol=0, atol=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(ValueError, match="undefined AUC"):
            auc([1, 1, 1], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="undefined AUC"):
            auc([0, 0], [0.1, 0.2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc([0, 1], [0.1, 0.2, 0.3])

    def test_labels_other_than_0_and_1(self):
        # the one 0/1 pair ranks its negative above its positive: the label 2
        # must not turn that AUC of 0 into 1
        with pytest.raises(ValueError, match="^labels are not all 0 or 1$"):
            auc([2, 1, 0], [0.1, 0.2, 0.3])


class TestMagnitudePrune:
    def test_keeps_top_groups(self):
        block = ParamBlock("emb", np.array([3.0, 0.1, 2.0, 0.05]), group_size=1)
        pruned = magnitude_prune(block, keep=2)
        assert_allclose(pruned.values, [3.0, 0.0, 2.0, 0.0])

    def test_keep_zero(self):
        block = ParamBlock("emb", np.array([1.0, 2.0]), group_size=1)
        assert_allclose(magnitude_prune(block, 0).values, [0.0, 0.0])

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(2)
        block = ParamBlock("emb", rng.normal(size=12), group_size=3)
        for keep in (4, 7):
            assert np.array_equal(magnitude_prune(block, keep).values, block.values)

    def test_tie_keeps_lower_index(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]).ravel()
        block = ParamBlock("emb", values, group_size=2)
        pruned = magnitude_prune(block, keep=2)
        table = pruned.values.reshape(3, 2)
        assert np.count_nonzero(table[0]) and np.count_nonzero(table[1])
        assert not np.count_nonzero(table[2])

    def test_exact_group_count(self):
        rng = np.random.default_rng(3)
        block = ParamBlock("emb", rng.uniform(0.5, 1.5, 40), group_size=4)
        for keep in range(11):
            assert nonzero_groups(magnitude_prune(block, keep)) == min(keep, 10)

    def test_input_unchanged(self):
        values = np.array([3.0, 0.1, 2.0, 0.05])
        block = ParamBlock("emb", values.copy(), group_size=1)
        magnitude_prune(block, 1)
        assert np.array_equal(block.values, values)

    def test_rejects_bad_args(self):
        block = ParamBlock("emb", np.ones(4), group_size=2)
        with pytest.raises(ValueError, match="^keep: must be an integer >= 0, got -1$"):
            magnitude_prune(block, -1)
        with pytest.raises(ValueError, match="^block 'w' is not grouped$"):
            magnitude_prune(ParamBlock("w", np.ones(4)), 2)

    @pytest.mark.parametrize("keep", NON_INTEGER_KEEPS)
    def test_keep_must_be_an_integer(self, keep):
        block = ParamBlock("emb", np.ones(4), group_size=2)
        with pytest.raises(ValueError) as info:
            magnitude_prune(block, keep)
        assert str(info.value) == f"keep: must be an integer >= 0, got {keep!r}"

    def test_numpy_integer_keep_accepted(self):
        block = ParamBlock("emb", np.array([1.0, 3.0, 2.0]), group_size=1)
        assert_allclose(magnitude_prune(block, np.int64(1)).values, [0.0, 3.0, 0.0])


class TestSparsity:
    def test_fraction_of_seen(self):
        values = np.zeros(10)
        values[[1, 4, 7]] = 2.0
        block = ParamBlock("emb", values, group_size=1)
        assert sparsity(block, range(10)) == 0.3

    def test_unseen_groups_ignored(self):
        values = np.zeros(6)
        values[5] = 9.0
        block = ParamBlock("emb", values, group_size=1)
        assert sparsity(block, [0, 1, 2]) == 0.0

    def test_zero_table(self):
        block = ParamBlock("emb", np.zeros(8), group_size=2)
        assert sparsity(block, [0, 1, 2, 3]) == 0.0

    def test_empty_seen(self):
        block = ParamBlock("emb", np.ones(4), group_size=2)
        with pytest.raises(ValueError, match="empty"):
            sparsity(block, [])

    def test_ungrouped_rejected(self):
        with pytest.raises(ValueError):
            sparsity(ParamBlock("w", np.ones(4)), [0, 1])


class TestNonzeroGroups:
    def test_counts_groups_with_mass(self):
        values = np.array([[0.0, 0.0], [1e-12, 0.0], [0.0, 0.0]]).ravel()
        block = ParamBlock("emb", values, group_size=2)
        assert nonzero_groups(block) == 1

