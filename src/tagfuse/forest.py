"""Random forest for binary relevance scoring.

A deliberately small CART ensemble: axis-aligned splits chosen by Gini
impurity over a random feature subset, bootstrap resampling per tree,
probability output as the mean of per-tree class-1 leaf frequencies, and
an out-of-bag accuracy estimate from the rows each bootstrap left out.
A tree predicts node by node, depth first: each split compares the rows
that reach it on its one feature (ties with the threshold go left) and
passes each child its share of them, and each leaf writes its value to
its rows. The point is a calibrated-enough ranking signal with fully
reproducible training, not a general-purpose learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported inside the functions that compute with it: the stages
# that never do (index, synset, fuse, eval) then start without loading it.
if TYPE_CHECKING:
    import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    max_features: str | int = "sqrt"
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError("classifier.n_trees must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("classifier.max_depth must be positive when set")
        if self.min_samples_leaf < 1:
            raise ConfigError("classifier.min_samples_leaf must be positive")
        if isinstance(self.max_features, str):
            if self.max_features not in ("sqrt", "all"):
                raise ConfigError(
                    "classifier.max_features must be 'sqrt', 'all', or an int"
                )
        elif self.max_features < 1:
            raise ConfigError("classifier.max_features must be positive")

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
        """Leaf value per row of ``x`` (see the module docstring)."""
        import numpy as np
        out = np.empty(len(x))
        stack = [(0, np.arange(len(x)))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = x[rows, f] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


def _best_split(x, y, w, order, features, min_leaf):
    """Best (feature, threshold) over the candidate features, or None.

    ``w`` weights each row by its multiplicity in the node (0 outside it)
    and ``order[f]`` lists the rows by value of feature f, sorted once per
    forest. Score is the split's total child purity, sum over children of
    (count0^2 + count1^2) / size; higher is purer. A cut lies between two
    distinct values, so its counts, score and midpoint do not depend on
    how equal values are ordered. Ties go to the first candidate feature,
    then to the lowest cut. Returns None when no feature admits a split
    that respects ``min_leaf``.
    """
    import numpy as np
    # Every candidate's column order holds the node's rows, so each keeps
    # the same number of them: one row per feature, in value order.
    rows = order[features]
    rows = rows[w[rows] > 0].reshape(len(features), -1)
    wv = w[rows]
    xv = x[rows, features[:, None]]
    nl = np.cumsum(wv, axis=1)
    c1 = np.cumsum(wv * y[rows], axis=1)
    n, total1 = nl[0, -1], c1[0, -1]
    nl = nl[:, :-1]
    valid = (xv[:, :-1] != xv[:, 1:]) & (nl >= min_leaf) & (nl <= n - min_leaf)
    if not valid.any():
        return None
    nl = nl.astype(np.float64)
    l1 = c1[:, :-1].astype(np.float64)
    l0 = nl - l1
    nr = n - nl
    r1 = total1 - l1
    r0 = nr - r1
    score = (l0 * l0 + l1 * l1) / nl + (r0 * r0 + r1 * r1) / nr
    score[~valid] = -np.inf
    i, cut = divmod(int(np.argmax(score)), score.shape[1])
    return int(features[i]), float((xv[i, cut] + xv[i, cut + 1]) / 2.0)


def _grow_tree(x, y, w, order, rng, config: ForestConfig):
    """Grow one tree on the rows of ``x``, each weighted by its bootstrap
    multiplicity ``w``; ``order[f]`` lists the rows by value of feature f."""
    import numpy as np
    n_features = x.shape[1]
    mtry = config.resolve_max_features(n_features)
    max_depth = config.max_depth if config.max_depth is not None else np.inf
    min_leaf = config.min_samples_leaf

    # A leaf holds at least one row, so a tree has at most 2n - 1 nodes.
    capacity = 2 * len(y) - 1
    feature = np.full(capacity, -1, dtype=np.int32)
    threshold = np.zeros(capacity)
    left = np.full(capacity, -1, dtype=np.int32)
    right = np.full(capacity, -1, dtype=np.int32)
    value = np.zeros(capacity)
    n_nodes = 1
    stack = [(0, w, 0)]
    while stack:
        node, w, depth = stack.pop()
        size = int(w.sum())
        ones = int(w @ y)
        value[node] = ones / size
        if ones == 0 or ones == size or depth >= max_depth or size < 2 * min_leaf:
            continue
        candidates = rng.choice(n_features, size=mtry, replace=False)
        split = _best_split(x, y, w, order, candidates, min_leaf)
        if split is None:
            continue
        f, thr = split
        feature[node], threshold[node] = f, thr
        go_left = x[:, f] <= thr
        left[node], right[node] = n_nodes, n_nodes + 1
        stack.append((n_nodes, np.where(go_left, w, 0), depth + 1))
        stack.append((n_nodes + 1, np.where(go_left, 0, w), depth + 1))
        n_nodes += 2
    return _Tree(*(a[:n_nodes].copy() for a in (feature, threshold, left, right, value)))


class RandomForest:
    """Bagged CART ensemble for binary labels."""

    def __init__(self, config: ForestConfig | None = None):
        self.config = config or ForestConfig()
        self.trees: list[_Tree] = []
        self.n_positives = self.n_negatives = 0  # training rows per class
        self.oob_accuracy = float("nan")

    def fit(self, x: np.ndarray, y: np.ndarray, seed: int = 0) -> "RandomForest":
        import numpy as np
        self.trees = []
        n = x.shape[0]
        self.n_positives, self.n_negatives = int(y.sum()), n - int(y.sum())
        # Out-of-bag votes: each row is scored only by the trees whose
        # bootstrap sample left it out.
        votes = np.zeros(n)
        counts = np.zeros(n, dtype=np.int64)
        # Each column is sorted once; every node of every tree filters
        # these orders to its own rows instead of sorting again.
        order = np.argsort(x.T, axis=1, kind="stable")
        # One child sequence per tree: tree i is identical no matter how
        # many trees are grown or in which order.
        for child in np.random.SeedSequence(seed).spawn(self.config.n_trees):
            rng = np.random.default_rng(child)
            w = np.bincount(rng.integers(0, n, size=n), minlength=n)
            tree = _grow_tree(x, y, w, order, rng, self.config)
            self.trees.append(tree)
            oob = w == 0
            votes[oob] += tree.predict(x[oob])
            counts[oob] += 1
        seen = counts > 0
        hits = (votes[seen] / counts[seen] >= 0.5) == y[seen]
        self.oob_accuracy = float(hits.mean()) if hits.size else float("nan")
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class-1 probability per row: mean of per-tree leaf frequencies."""
        import numpy as np
        total = np.zeros(len(x))
        for tree in self.trees:
            total += tree.predict(x)
        return total / len(self.trees)
