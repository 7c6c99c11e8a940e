"""Tests for overall ratio (Eq. 11) and recall (Eq. 12)."""
import numpy as np
import pytest

from repro.metrics import overall_ratio, recall, summarize


def test_overall_ratio_perfect():
    d = np.array([1.0, 2.0, 3.0])
    assert overall_ratio(d, d) == 1.0


def test_overall_ratio_worse_result():
    got = np.array([2.0, 4.0])
    ref = np.array([1.0, 2.0])
    assert overall_ratio(got, ref) == pytest.approx(2.0)


def test_overall_ratio_mixed():
    got = np.array([1.0, 3.0])
    ref = np.array([1.0, 2.0])
    assert overall_ratio(got, ref) == pytest.approx((1.0 + 1.5) / 2)


def test_overall_ratio_zero_reference_treated_as_exact():
    got = np.array([0.0, 2.0])
    ref = np.array([0.0, 2.0])
    assert overall_ratio(got, ref) == 1.0


def test_overall_ratio_longer_result_rejected():
    with pytest.raises(ValueError):
        overall_ratio(np.ones(4), np.ones(3))


def test_overall_ratio_short_result_uses_prefix():
    got = np.array([2.0])
    ref = np.array([1.0, 5.0, 9.0])
    assert overall_ratio(got, ref) == pytest.approx(2.0)


def test_overall_ratio_empty_result_is_nan():
    assert np.isnan(overall_ratio(np.array([]), np.array([1.0])))


def test_recall_full():
    assert recall(np.array([1, 2, 3]), np.array([3, 2, 1])) == 1.0


def test_recall_partial():
    assert recall(np.array([1, 9, 8]), np.array([1, 2, 3])) == pytest.approx(1 / 3)


def test_recall_empty_overlap():
    assert recall(np.array([7, 8]), np.array([1, 2])) == 0.0


def test_recall_tie_credit():
    # returned id 9 differs from true id 2 but has exactly the same
    # distance -> counts as a hit
    r = recall(
        np.array([1, 9]),
        np.array([1, 2]),
        result_dists=np.array([1.0, 2.0]),
        exact_dists=np.array([1.0, 2.0]),
    )
    assert r == 1.0


def test_recall_no_tie_credit_when_distances_differ():
    r = recall(
        np.array([1, 9]),
        np.array([1, 2]),
        result_dists=np.array([1.0, 2.5]),
        exact_dists=np.array([1.0, 2.0]),
    )
    assert r == 0.5


def test_recall_tie_credit_used_once_per_returned_point():
    # returned id 0 already matches exact id 0; its distance also ties
    # exact id 1, but one returned point credits at most one neighbour
    r = recall(
        np.array([0, 2]),
        np.array([0, 1]),
        result_dists=np.array([1.0, 5.0]),
        exact_dists=np.array([1.0, 1.0]),
    )
    assert r == 0.5


def test_summarize_averages():
    res = [(np.array([1, 2]), np.array([1.0, 2.0])),
           (np.array([5, 6]), np.array([2.0, 2.0]))]
    exact = [(np.array([1, 2]), np.array([1.0, 2.0])),
             (np.array([5, 9]), np.array([2.0, 1.0]))]
    out = summarize(res, exact)
    assert out["recall"] == pytest.approx((1.0 + 0.5) / 2)
    assert out["overall_ratio"] == pytest.approx((1.0 + 1.5) / 2)


def test_summarize_length_mismatch():
    with pytest.raises(ValueError):
        summarize([], [(np.array([1]), np.array([1.0]))])
