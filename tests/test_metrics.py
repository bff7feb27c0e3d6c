import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.metrics import NonFiniteScoreError, UndefinedMetricError, auc, precision, score_rows
from helpers import brute_force_auc, rankdata_auc, score_rows_reference


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_reversed(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_ties_count_half(self):
        # brute force: pair (0.5 vs 0.5) = 0.5, pair (0.5 vs 0.7) = 0 -> 0.25
        assert auc([0.5, 0.5, 0.7], [1, 0, 0]) == pytest.approx(0.25, abs=1e-15)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.5, 0.6], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auc([0.5, 0.6], [0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 200))
            scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n) if trial % 3 == 0 \
                else rng.random(n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        for f in (lambda s: 2 * s + 3, np.exp, lambda s: s ** 3):
            assert auc(f(scores), labels) == pytest.approx(base, abs=1e-12)


class TestPrecision:
    def test_all_correct(self):
        assert precision([0.9, 0.8], [1, 1]) == 1.0

    def test_half_correct(self):
        assert precision([0.9, 0.8], [1, 0]) == 0.5

    def test_no_predicted_positives(self):
        with pytest.raises(UndefinedMetricError):
            precision([0.4, 0.3], [1, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        scores[0] = 0.9  # at least one predicted positive
        base = precision(scores, labels)
        perm = rng.permutation(30)
        assert precision(scores[perm], labels[perm]) == base


class TestNonFiniteScores:
    # a NaN used to make the AUC NaN and to drop out of the precision
    # silently, which then read 0.5 here
    def test_auc_raises_naming_the_row(self):
        with pytest.raises(NonFiniteScoreError, match="row 0"):
            auc([0.9, np.nan, 0.7], [1, 0, 0])

    def test_precision_raises_naming_the_row(self):
        with pytest.raises(NonFiniteScoreError, match="row 0"):
            precision([0.9, np.nan, 0.7], [1, 0, 0])

    def test_score_rows_names_the_first_bad_row(self):
        scores = np.array([[0.2, 0.8], [0.3, 0.6], [np.inf, 0.1], [np.nan, 0.5]])
        with pytest.raises(NonFiniteScoreError, match="row 2") as info:
            score_rows(scores, np.array([[0, 1]] * 4), [2, 2, 2, 2])
        assert info.value.row == 2 and isinstance(info.value, ValueError)

    def test_padding_may_be_non_finite(self):
        rows = score_rows([[0.9, 0.1, np.nan]], [[1, 0, 1]], [2])
        assert rows.auc[0] == 1.0 and rows.precision[0] == 1.0


# three score values, 0.5 among them: heavy ties, and scores on the
# precision threshold
TIED = st.sampled_from([0.25, 0.5, 0.75])


@st.composite
def stacked_batches(draw):
    """(C, N) scores and labels with per-row valid counts from 0 to N; the
    padding draws from the same scores and labels as the valid entries."""
    C = draw(st.integers(1, 6))
    N = draw(st.integers(0, 12))
    scores = np.array(draw(st.lists(TIED, min_size=C * N, max_size=C * N))).reshape(C, N)
    labels = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=C * N, max_size=C * N)))
    counts = np.array(draw(st.lists(st.integers(0, N), min_size=C, max_size=C)))
    return scores, labels.reshape(C, N), counts


class TestScoreRows:
    @settings(max_examples=300, deadline=None)
    @given(stacked_batches())
    def test_equals_per_row_oracle_bit_for_bit(self, batch):
        scores, labels, counts = batch
        rows = score_rows(scores, labels, counts)
        for c, (want_auc, want_prec) in enumerate(score_rows_reference(scores, labels, counts)):
            assert rows.auc_defined[c] == (want_auc is not None)
            assert rows.precision_defined[c] == (want_prec is not None)
            got_auc, got_prec = rows.auc[c], rows.precision[c]
            assert np.isnan(got_auc) if want_auc is None else got_auc == want_auc
            assert np.isnan(got_prec) if want_prec is None else got_prec == want_prec

    def test_single_class_and_empty_rows_undefined(self):
        rows = score_rows([[0.9, 0.8], [0.1, 0.2], [0.7, 0.3]], [[1, 1], [0, 0], [1, 0]], [2, 2, 0])
        assert rows.auc_defined.tolist() == [False, False, False]
        assert rows.precision_defined.tolist() == [True, False, False]
        assert rows.precision[0] == 1.0

    def test_large_tied_batch_exact(self):
        # 60,000 entries on 7 score values: the half-integer credit sum stays
        # exact, so the AUC equals the rank-sum formula's to the last bit
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 7, 60_000) / 7.0
        labels = rng.integers(0, 2, 60_000)
        assert auc(scores, labels) == rankdata_auc(scores, labels)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            score_rows([0.1, 0.2], [0, 1], [2])
        with pytest.raises(ValueError):
            score_rows([[0.1, 0.2]], [[0, 1]], [3])
        with pytest.raises(ValueError):
            score_rows([[0.1, 0.2]], [[0, 1]], [1, 1])
