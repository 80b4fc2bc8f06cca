"""Confusion matrix counting against an independent oracle, plus the derived
score arithmetic on worked examples."""
import numpy as np
import pytest

from heatseg.metrics import ConfusionMatrix, summarize


def counting_oracle(pred, label, n, ignore=None):
    counts = np.zeros((n, n), dtype=np.int64)
    for t, p in zip(label.ravel(), pred.ravel()):
        if ignore is not None and t == ignore:
            continue
        counts[t, p] += 1
    return counts


class TestCounting:
    def test_hundred_random_pairs_match_oracle_exactly(self):
        rng = np.random.default_rng(0)
        n = 5
        cm = ConfusionMatrix(n)
        expected = np.zeros((n, n), dtype=np.int64)
        for _ in range(100):
            pred = rng.integers(0, n, size=(32, 32))
            label = rng.integers(0, n, size=(32, 32))
            cm.accumulate(pred, label)
            expected += counting_oracle(pred, label, n)
        np.testing.assert_array_equal(cm.counts, expected)

    def test_ignore_index_matches_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 3, size=(16, 16))
        label = rng.integers(0, 3, size=(16, 16))
        label[label == 2] = 9
        label[0, 0] = 2
        cm = ConfusionMatrix(3).accumulate(pred, label, ignore_index=9)
        np.testing.assert_array_equal(cm.counts, counting_oracle(pred, label, 3, ignore=9))

    @pytest.mark.parametrize("ignore", [None, 255])
    def test_byte_labels_match_oracle_and_stay_untouched(self, ignore):
        # eval passes its uint8 masks and int64 argmax maps as they are
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 4, size=(2, 16, 16))
        label = rng.integers(0, 4, size=(2, 16, 16)).astype(np.uint8)
        label[:, 0] = 255 if ignore is not None else 3
        before = pred.copy(), label.copy()
        cm = ConfusionMatrix(4).accumulate(pred, label, ignore_index=ignore)
        want = counting_oracle(pred, label.astype(np.int64), 4, ignore=ignore)
        np.testing.assert_array_equal(cm.counts, want)
        np.testing.assert_array_equal(pred, before[0])
        np.testing.assert_array_equal(label, before[1])

    def test_merge_equals_joint_accumulation(self):
        rng = np.random.default_rng(2)
        pairs = [(rng.integers(0, 4, size=(8, 8)), rng.integers(0, 4, size=(8, 8)))
                 for _ in range(6)]
        joint = ConfusionMatrix(4)
        for p, t in pairs:
            joint.accumulate(p, t)
        a, b = ConfusionMatrix(4), ConfusionMatrix(4)
        for p, t in pairs[:3]:
            a.accumulate(p, t)
        for p, t in pairs[3:]:
            b.accumulate(p, t)
        # int64 counts add exactly, so shards merge by summing their matrices
        np.testing.assert_array_equal(a.counts + b.counts, joint.counts)

    def test_input_validation(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(ValueError, match="shape"):
            cm.accumulate(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="prediction value"):
            cm.accumulate(np.full((2, 2), 3), np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="label value"):
            cm.accumulate(np.zeros((2, 2), dtype=int), np.full((2, 2), -1))
        with pytest.raises(ValueError, match="at least 2"):
            ConfusionMatrix(1)

    def test_fully_ignored_input_is_a_no_op(self):
        cm = ConfusionMatrix(2)
        cm.accumulate(np.zeros((2, 2), dtype=int), np.full((2, 2), 7), ignore_index=7)
        assert cm.counts.sum() == 0


class TestSummarize:
    def test_worked_example(self):
        # true 0 predicted as (0,0,0,1), true 1 predicted as (1,1,1,0)
        pred = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        label = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cm = ConfusionMatrix(2).accumulate(pred, label)
        np.testing.assert_array_equal(cm.counts, [[3, 1], [1, 3]])
        result = summarize(cm)
        assert result["miou"] == 0.6
        assert result["oa"] == 0.75
        assert result["mf1"] == 0.75
        assert result["per_class"][0]["iou"] == 0.6
        assert result["per_class"][1]["f1"] == 0.75

    def test_perfect_prediction_scores_one(self):
        label = np.arange(4).repeat(5)
        cm = ConfusionMatrix(4).accumulate(label, label)
        result = summarize(cm)
        assert result["miou"] == 1.0 and result["oa"] == 1.0 and result["mf1"] == 1.0

    def test_unobserved_category_reported_as_none_and_skipped(self):
        pred = np.array([0, 0, 1, 1])
        label = np.array([0, 1, 0, 1])
        cm = ConfusionMatrix(3).accumulate(pred, label)
        result = summarize(cm)
        assert result["per_class"][2] == {"iou": None, "f1": None}
        # means run over the two observed categories only
        assert result["miou"] == pytest.approx(1.0 / 3.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize(ConfusionMatrix(2))

    def test_scores_match_hand_formulas_on_random_counts(self):
        rng = np.random.default_rng(3)
        cm = ConfusionMatrix(4)
        cm.counts += rng.integers(1, 50, size=(4, 4))
        result = summarize(cm)
        counts = cm.counts.astype(np.float64)
        tp = np.diag(counts)
        fp = counts.sum(axis=0) - tp
        fn = counts.sum(axis=1) - tp
        assert result["miou"] == pytest.approx(np.mean(tp / (tp + fp + fn)), abs=1e-12)
        assert result["oa"] == pytest.approx(tp.sum() / counts.sum(), abs=1e-12)
        assert result["mf1"] == pytest.approx(
            np.mean(2 * tp / (2 * tp + fp + fn)), abs=1e-12
        )
