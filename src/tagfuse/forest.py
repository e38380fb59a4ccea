"""Random forest for binary relevance scoring.

A deliberately small CART ensemble: axis-aligned splits chosen by Gini
impurity over a random feature subset, bootstrap resampling per tree,
probability output as the mean of per-tree class-1 leaf frequencies, and
an out-of-bag accuracy estimate from the rows each bootstrap left out. The
point is a calibrated-enough ranking signal with fully reproducible
training, not a general-purpose learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: str | int = "sqrt"
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive when set")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be positive")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise ValueError("max_features must be 'sqrt', 'all', or an int")
        elif self.max_features < 1:
            raise ValueError("max_features must be positive")

    def resolve_max_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        return min(int(self.max_features), n_features)


class _Tree:
    """Flat-array decision tree. ``feature[i] < 0`` marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    def predict(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(len(x), dtype=np.int32)
        while True:
            f = self.feature[node]
            active = np.nonzero(f >= 0)[0]
            if active.size == 0:
                break
            cur = node[active]
            go_left = x[active, f[active]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]


def _best_split(x, y, idx, features, min_leaf):
    """Best (feature, threshold, score) over the candidate features.

    Score is the split's total child purity, sum over children of
    (count0^2 + count1^2) / size; higher is purer. Returns None when no
    feature admits a split that respects ``min_leaf``.
    """
    n = idx.size
    y_node = y[idx]
    best = None
    for f in features:
        xv = x[idx, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        lo, hi = min_leaf - 1, n - min_leaf - 1
        if lo > hi:
            break
        boundary = xs[lo : hi + 1] != xs[lo + 1 : hi + 2]
        if not boundary.any():
            continue
        cum1 = np.cumsum(y_node[order])
        total1 = cum1[-1]
        i = np.arange(lo, hi + 1)
        nl = (i + 1).astype(np.float64)
        nr = n - nl
        l1 = cum1[lo : hi + 1].astype(np.float64)
        l0 = nl - l1
        r1 = total1 - l1
        r0 = nr - r1
        score = (l0 * l0 + l1 * l1) / nl + (r0 * r0 + r1 * r1) / nr
        score[~boundary] = -np.inf
        j = int(np.argmax(score))
        if best is None or score[j] > best[2]:
            cut = lo + j
            threshold = (xs[cut] + xs[cut + 1]) / 2.0
            best = (int(f), float(threshold), float(score[j]))
    return best


def _grow_tree(x, y, rng, config: ForestConfig):
    n, n_features = x.shape
    mtry = config.resolve_max_features(n_features)
    max_depth = config.max_depth if config.max_depth is not None else np.inf
    min_leaf = config.min_samples_leaf

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ones = int(y[idx].sum())
        value[node] = ones / idx.size
        if (
            ones == 0
            or ones == idx.size
            or depth >= max_depth
            or idx.size < 2 * min_leaf
        ):
            continue
        candidates = rng.choice(n_features, size=mtry, replace=False)
        split = _best_split(x, y, idx, candidates, min_leaf)
        if split is None:
            continue
        f, thr, _ = split
        go_left = x[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], idx[go_left], depth + 1))
        stack.append((right[node], idx[~go_left], depth + 1))

    return _Tree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value),
    )


class RandomForest:
    """Bagged CART ensemble for binary labels."""

    def __init__(self, config: ForestConfig | None = None):
        self.config = config or ForestConfig()
        self.trees: list[_Tree] = []
        self.n_features = 0
        self.oob_accuracy = float("nan")

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "RandomForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be 2-D with one label per row")
        if x.shape[0] < 2:
            raise ValueError("need at least two training rows")
        classes = np.unique(y)
        if not np.array_equal(classes, [0, 1]):
            raise ValueError(f"labels must contain both classes 0 and 1, got {classes}")

        self.n_features = x.shape[1]
        self.trees = []
        n = x.shape[0]
        # Out-of-bag votes: each row is scored only by the trees whose
        # bootstrap sample left it out.
        votes = np.zeros(n)
        counts = np.zeros(n, dtype=np.int64)
        # One child sequence per tree: tree i is identical no matter how
        # many trees are grown or in which order.
        for child in np.random.SeedSequence(seed).spawn(self.config.n_trees):
            rng = np.random.default_rng(child)
            sample = rng.integers(0, n, size=n)
            tree = _grow_tree(x[sample], y[sample], rng, self.config)
            self.trees.append(tree)
            oob = np.bincount(sample, minlength=n) == 0
            votes[oob] += tree.predict(x[oob])
            counts[oob] += 1
        seen = counts > 0
        hits = (votes[seen] / counts[seen] >= 0.5) == y[seen]
        self.oob_accuracy = float(hits.mean()) if hits.size else float("nan")
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-1 probability per row: mean of per-tree leaf frequencies."""
        if not self.trees:
            raise ValueError("forest is not fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected shape (n, {self.n_features}), got {x.shape}"
            )
        total = np.zeros(len(x))
        for tree in self.trees:
            total += tree.predict(x)
        return total / len(self.trees)
