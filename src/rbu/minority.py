"""Minority-object typing from same-class counts in the k-neighborhood.

Each minority object is categorized by how many of its k nearest neighbors
(among all other points, Minkowski-p metric) share its class:
most of them -> safe, an even split -> borderline, exactly a sliver -> rare,
none -> outlier.  For the default k = 5 the bands are 4-5 / 2-3 / 1 / 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import BinaryTask, Dataset, DatasetStats, apply_standardizer, encode_categoricals, fit_standardizer, split_binary
from .errors import ParameterError
from .neighbors import nearest_neighbors

CATEGORIES = ("safe", "borderline", "rare", "outlier")


@dataclass(frozen=True)
class MinorityTypeReport:
    """Per-object categories and their percentages over the minority set."""

    categories: tuple[str, ...]
    proportions: dict[str, float]
    k: int
    p: float

    def __post_init__(self):
        total = sum(self.proportions.values())
        if abs(total - 100.0) > 1e-6:
            raise ValueError(f"proportions sum to {total}, expected 100")


def _category(same_class: int, k: int) -> str:
    # Thresholds are the k = 5 bands expressed as fractions of k, compared in
    # integer arithmetic: safe > 0.7k, borderline > 0.3k, rare >= 1.
    if same_class * 10 > 7 * k:
        return "safe"
    if same_class * 10 > 3 * k:
        return "borderline"
    if same_class >= 1:
        return "rare"
    return "outlier"


def categorize_minority(task: BinaryTask, k: int = 5, p: float = 2.0) -> MinorityTypeReport:
    """Categorize every minority object from its k-neighborhood vote.

    Neighbors are searched among all other points of both classes under the
    Minkowski-p metric (p > 0; p = inf is Chebyshev); distance ties go to the
    lowest index.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not p > 0:
        raise ParameterError(f"p must be > 0, got {p}")
    n_total = task.n_majority + task.n_minority
    if n_total < k + 1:
        raise ParameterError(f"need at least {k + 1} points, have {n_total}")

    neighbors = nearest_neighbors(
        task.minority, task.points, k, self_offset=task.n_majority, metric="minkowski", p=p
    )
    same_class = (neighbors >= task.n_majority).sum(axis=1)

    categories = tuple(_category(int(c), k) for c in same_class)
    proportions = {
        name: 100.0 * sum(c == name for c in categories) / task.n_minority
        for name in CATEGORIES
    }
    return MinorityTypeReport(categories=categories, proportions=proportions, k=k, p=p)


def dataset_stats(d: Dataset, minority_label="auto") -> DatasetStats:
    """Summary row: imbalance ratio, sizes, and minority-type percentages.

    Typing runs on the encoded and globally standardized feature matrix,
    with ``categorize_minority``'s default k and p.
    """
    encoded = encode_categoricals(d)
    standardized = apply_standardizer(fit_standardizer(encoded), encoded)
    task = split_binary(standardized, minority_label=minority_label)
    report = categorize_minority(task)
    return DatasetStats(
        ir=task.n_majority / task.n_minority,
        samples=d.n,
        features=d.m,
        type_proportions=report.proportions,
    )
