import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rbu import ParameterError, categorize_minority, dataset_stats, parse_csv

from oracles import make_task, random_task


def brute_force_categories(majority, minority, k, p):
    """Exhaustive neighbor-count oracle with (distance, index) sorting."""
    points = np.vstack([majority, minority])
    n_majority = len(majority)
    labels = [0] * n_majority + [1] * len(minority)
    out = []
    for j in range(len(minority)):
        me = n_majority + j
        order = sorted(
            (i for i in range(len(points)) if i != me),
            key=lambda i: (
                float((np.abs(points[i] - points[me]) ** p).sum() ** (1 / p)),
                i,
            ),
        )
        same = sum(1 for i in order[:k] if labels[i] == 1)
        if same in (4, 5):
            out.append("safe")
        elif same in (2, 3):
            out.append("borderline")
        elif same == 1:
            out.append("rare")
        else:
            out.append("outlier")
    return out


class TestCategorize:
    def test_all_minority_neighbors_is_safe(self):
        minority = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [0.2, 0.0], [0.0, 0.2]])
        majority = np.array([[50.0, 50.0]] * 6)
        report = categorize_minority(make_task(majority, minority))
        assert set(report.categories) == {"safe"}
        assert report.proportions["safe"] == 100.0

    def test_no_minority_neighbors_is_outlier(self):
        minority = np.array([[0.0, 0.0]])
        majority = np.array([[10.0, 10.0], [10.1, 10.0], [10.0, 10.1], [10.2, 10.0], [10.1, 10.1]])
        report = categorize_minority(make_task(majority, minority))
        assert report.categories == ("outlier",)
        assert report.proportions["outlier"] == 100.0

    def test_band_boundaries_at_k5(self):
        # place the query minority point with exactly c minority neighbors
        for count, expected in ((5, "safe"), (4, "safe"), (3, "borderline"),
                                (2, "borderline"), (1, "rare"), (0, "outlier")):
            ring = [[np.cos(a), np.sin(a)] for a in np.linspace(0, 2 * np.pi, 5, endpoint=False)]
            minority_rows = [[0.0, 0.0]] + ring[:count]
            majority_rows = ring[count:] + [[40.0, 40.0]] * 8
            report = categorize_minority(
                make_task(np.array(majority_rows), np.array(minority_rows))
            )
            assert report.categories[0] == expected

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for p in (1.0, 2.0, 3.0):
            task = random_task(rng, 25, 10, 3, spread=1.0)
            report = categorize_minority(task, k=5, p=p)
            expected = brute_force_categories(task.majority, task.minority, 5, p)
            assert list(report.categories) == expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        task = random_task(rng, 30, 12, 4, spread=1.0)
        before = categorize_minority(task).categories
        scaled = make_task(task.majority * 37.5, task.minority * 37.5)
        assert categorize_minority(scaled).categories == before

    def test_report_length_and_sum(self):
        rng = np.random.default_rng(23)
        task = random_task(rng, 40, 17, 3)
        report = categorize_minority(task)
        assert len(report.categories) == 17
        assert sum(report.proportions.values()) == pytest.approx(100.0, abs=1e-6)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, -np.inf])
    def test_p_not_positive_refused(self, p):
        task = random_task(np.random.default_rng(24), 12, 5, 2)
        with pytest.raises(ParameterError, match="p must be > 0"):
            categorize_minority(task, k=3, p=p)

    def test_fractional_and_chebyshev_p_accepted(self):
        rng = np.random.default_rng(25)
        task = random_task(rng, 25, 10, 3, spread=1.0)
        report = categorize_minority(task, k=5, p=0.5)
        assert list(report.categories) == brute_force_categories(
            task.majority, task.minority, 5, 0.5
        )
        everything = np.vstack([task.majority, task.minority])
        dist = cdist(task.minority, everything, "chebyshev")
        dist[np.arange(10), 25 + np.arange(10)] = np.inf
        same = (np.argsort(dist, axis=1, kind="stable")[:, :5] >= 25).sum(axis=1)
        expected = ["safe" if s >= 4 else "borderline" if s >= 2 else "rare" if s else "outlier"
                    for s in same]
        assert list(categorize_minority(task, k=5, p=np.inf).categories) == expected

    @pytest.mark.parametrize("k", [2.5, True, "3", float("nan")])
    def test_non_integer_k_refused(self, k):
        task = random_task(np.random.default_rng(24), 12, 5, 2)
        with pytest.raises(ParameterError, match="k must be an integer"):
            categorize_minority(task, k=k)

    def test_k_below_one_refused(self):
        task = random_task(np.random.default_rng(24), 12, 5, 2)
        with pytest.raises(ParameterError, match="k must be >= 1"):
            categorize_minority(task, k=0.0)

    def test_integral_float_k_runs_as_int(self):
        task = random_task(np.random.default_rng(26), 25, 10, 3, spread=1.0)
        report = categorize_minority(task, k=3.0)
        assert type(report.k) is int and report == categorize_minority(task, k=3)

    def test_too_small_dataset(self):
        task = make_task([[0.0], [1.0]], [[2.0]])
        with pytest.raises(ParameterError, match="at least"):
            categorize_minority(task, k=5)

    def test_distance_tie_breaks_by_lowest_index(self):
        # two neighbors exactly equidistant; the lower index is a majority point
        majority = np.array([[1.0, 0.0], [5.0, 5.0], [6.0, 6.0], [7.0, 7.0]])
        minority = np.array([[0.0, 0.0], [-1.0, 0.0]])
        report = categorize_minority(make_task(majority, minority), k=1)
        # for point (0,0): (1,0) at distance 1 (index 0) ties (-1,0) (index 5
        # in stacked order); lowest index wins -> majority neighbor
        assert report.categories[0] in ("outlier",)


class TestDatasetStats:
    def test_summary_row(self):
        text = "x,y,class\n" + "\n".join(
            f"{i},{i % 3},neg" for i in range(9)
        ) + "\n" + "\n".join(f"{i + 0.5},{i % 3},pos" for i in range(3)) + "\n"
        stats = dataset_stats(parse_csv(text))
        assert stats.ir == pytest.approx(3.0)
        assert stats.samples == 12 and stats.features == 2
        assert sum(stats.type_proportions.values()) == pytest.approx(100.0, abs=1e-6)

    def test_general_k_band_scaling(self):
        # k = 10: safe needs > 7 same-class neighbors of 10
        rng = np.random.default_rng(24)
        task = random_task(rng, 30, 15, 2, spread=1.0)
        report = categorize_minority(task, k=10)
        assert len(report.categories) == 15
        assert sum(report.proportions.values()) == pytest.approx(100.0, abs=1e-6)
