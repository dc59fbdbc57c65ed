import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpde import (
    InvalidInputError,
    UndefinedMetricError,
    auc_roc,
    classification_rate,
    f1_score,
    multilabel_report,
)


def auc_brute_force(scores, true):
    """All positive-negative pairs, ties counted half."""
    pos = [s for s, t in zip(scores, true) if t > 0]
    neg = [s for s, t in zip(scores, true) if t < 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestClassificationRate:
    def test_identical_is_one(self):
        assert classification_rate([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half_matching(self):
        pred = [1] * 5 + [2] * 5
        true = [1] * 5 + [3] * 5
        assert classification_rate(pred, true) == 0.5

    def test_hand_count(self):
        assert classification_rate([1, 2, 2, 3], [1, 2, 3, 3]) == 0.75

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            classification_rate([1, 2], [1, 2, 3])


class TestF1:
    def test_perfect_prediction(self):
        y = np.array([1, -1, 1, 1, -1])
        assert f1_score(y, y) == 1.0

    def test_no_positives_anywhere_is_zero(self):
        y = -np.ones(6)
        assert f1_score(y, y) == 0.0

    def test_hand_count(self):
        # TP=2, FP=1, FN=1 -> 2*2 / (2*2 + 1 + 1) = 4/6
        pred = np.array([1, 1, 1, -1, -1])
        true = np.array([1, 1, -1, 1, -1])
        assert f1_score(pred, true) == pytest.approx(4.0 / 6.0, abs=1e-15)

    def test_rejects_values_outside_pm1(self):
        with pytest.raises(InvalidInputError):
            f1_score([1, 0], [1, -1])

    def test_permutation_invariant(self, rng):
        pred = rng.choice([-1.0, 1.0], size=30)
        true = rng.choice([-1.0, 1.0], size=30)
        perm = rng.permutation(30)
        assert f1_score(pred, true) == pytest.approx(f1_score(pred[perm], true[perm]), abs=1e-15)


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc_roc([0.5] * 6, [1, 1, 1, -1, -1, -1]) == 0.5

    def test_given_example(self):
        assert auc_roc([0.9, 0.4, 0.6, 0.1], [1, -1, 1, -1]) == 1.0

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 20))
            scores = np.round(rng.normal(size=n), 1)  # rounding makes ties likely
            true = rng.choice([-1.0, 1.0], size=n)
            if len(set(true)) < 2:
                continue
            assert auc_roc(scores, true) == pytest.approx(
                auc_brute_force(scores, true), abs=1e-12)

    @given(st.floats(0.01, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, a, b):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=20)
        true = np.array([1.0, -1.0] * 10)
        assert auc_roc(a * scores + b, true) == pytest.approx(auc_roc(scores, true), abs=1e-12)

    def test_complement_with_no_ties(self, rng):
        scores = rng.permutation(np.linspace(0, 1, 12))
        true = rng.choice([-1.0, 1.0], size=12)
        true[:2] = [1.0, -1.0]
        assert auc_roc(scores, true) + auc_roc(-scores, true) == pytest.approx(1.0, abs=1e-12)

    def test_equals_scipy_average_ranks(self, rng):
        """Ranks from ``np.unique`` give scipy ``rankdata``'s AUC bit for bit
        on ties and signed zeros."""
        from scipy.stats import rankdata
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.normal(size=n), int(rng.integers(0, 2)))
            zeros = rng.random(n) < 0.2
            scores[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            true = rng.choice([-1.0, 1.0], size=n)
            true[:2] = [1.0, -1.0]
            n_pos = int(np.sum(true == 1))
            rank_sum = float(np.sum(rankdata(scores)[true == 1]))
            assert auc_roc(scores, true) == \
                (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))

    def test_nan_score_gives_nan(self):
        assert np.isnan(auc_roc([0.9, np.nan, 0.2, 0.1], [1, 1, -1, -1]))


class TestMultilabelReport:
    def test_macro_is_arithmetic_mean(self, rng):
        true = rng.choice([-1.0, 1.0], size=(40, 3))
        pred = rng.choice([-1.0, 1.0], size=(40, 3))
        scores = rng.normal(size=(40, 3))
        rep = multilabel_report(true, pred, scores)
        assert rep.macro_f1 == pytest.approx(np.mean(rep.per_label_f1), abs=1e-12)
        assert rep.macro_auc == pytest.approx(np.nanmean(rep.per_label_auc), abs=1e-12)

    def test_single_class_column_gives_nan_auc(self, rng):
        true = np.column_stack([np.ones(10), rng.choice([-1.0, 1.0], size=10)])
        true[0, 1] = 1.0
        true[1, 1] = -1.0
        pred = np.sign(rng.normal(size=(10, 2))) + 0.0
        pred[pred == 0] = 1.0
        rep = multilabel_report(true, pred, rng.normal(size=(10, 2)))
        assert np.isnan(rep.per_label_auc[0])
        assert not np.isnan(rep.macro_auc)
