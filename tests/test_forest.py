import numpy as np
import pytest

from tagfuse.errors import ConfigError
from tagfuse.forest import ForestConfig, RandomForest, _grow_tree, _Tree


def two_blobs(n_per=120, gap=4.0, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n_per, dim))
    x1 = rng.standard_normal((n_per, dim))
    x1[:, 0] += gap
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    order = rng.permutation(len(y))
    return x[order], y[order]


def nearest_centroid_accuracy(x_train, y_train, x_test, y_test):
    c0 = x_train[y_train == 0].mean(axis=0)
    c1 = x_train[y_train == 1].mean(axis=0)
    d0 = np.linalg.norm(x_test - c0, axis=1)
    d1 = np.linalg.norm(x_test - c1, axis=1)
    return float(np.mean((d1 < d0).astype(int) == y_test))


class TestFit:
    def test_separable_blobs_classified_well(self):
        x, y = two_blobs(seed=1)
        x_train, y_train = x[:180], y[:180]
        x_test, y_test = x[180:], y[180:]
        forest = RandomForest(ForestConfig(n_trees=50)).fit(x_train, y_train, seed=3)
        accuracy = float(np.mean((forest.predict_proba(x_test) >= 0.5) == y_test))
        assert accuracy >= 0.95
        # Independent check that the problem really is this easy.
        assert nearest_centroid_accuracy(x_train, y_train, x_test, y_test) >= 0.95

    def test_records_training_rows_per_class(self):
        forest = RandomForest(ForestConfig(n_trees=2)).fit(
            np.arange(5.0).reshape(5, 1), np.array([1, 0, 1, 1, 0])
        )
        assert (forest.n_positives, forest.n_negatives) == (3, 2)


class TestProbabilities:
    def test_bounded_and_monotone_with_vote_share(self):
        x, y = two_blobs(seed=7)
        forest = RandomForest(ForestConfig(n_trees=30)).fit(x, y, seed=5)
        probs = forest.predict_proba(x)
        assert probs.shape == (len(x),)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        # Each probability is a mean of per-tree leaf frequencies.
        votes = np.mean([tree.predict(x) for tree in forest.trees], axis=0)
        assert np.array_equal(probs >= 0.5, votes >= 0.5)

    def test_probabilities_separate_the_blobs(self):
        x, y = two_blobs(seed=11)
        forest = RandomForest(ForestConfig(n_trees=50)).fit(x, y, seed=2)
        probs = forest.predict_proba(x)
        assert probs[y == 1].mean() > 0.9
        assert probs[y == 0].mean() < 0.1


def oob_oracle(forest, x, y, seed):
    """Out-of-bag accuracy rebuilt from the one-child-per-tree seed contract:
    each row is averaged over the trees whose bootstrap sample left it out."""
    n = len(y)
    correct = seen = 0
    children = np.random.SeedSequence(seed).spawn(len(forest.trees))
    samples = [set(np.random.default_rng(c).integers(0, n, size=n)) for c in children]
    for row in range(n):
        votes = [
            tree.predict(x[row : row + 1])[0]
            for tree, sample in zip(forest.trees, samples)
            if row not in sample
        ]
        if votes:
            seen += 1
            correct += int((np.mean(votes) >= 0.5) == y[row])
    return correct / seen if seen else float("nan")


class TestOutOfBag:
    @pytest.mark.parametrize(
        "n_per, n_trees, gap, seed",
        [(40, 15, 1.0, 0), (30, 10, 0.5, 7), (60, 25, 2.0, 123)],
    )
    def test_matches_per_row_oracle(self, n_per, n_trees, gap, seed):
        x, y = two_blobs(n_per=n_per, gap=gap, seed=seed)
        forest = RandomForest(ForestConfig(n_trees=n_trees)).fit(x, y, seed=seed)
        assert forest.oob_accuracy == pytest.approx(oob_oracle(forest, x, y, seed))
        assert 0.0 <= forest.oob_accuracy <= 1.0

    def test_rows_never_out_of_bag_are_left_out(self):
        # With two trees over twelve rows, some rows land in every
        # bootstrap sample and have no out-of-bag vote.
        x, y = two_blobs(n_per=6, gap=1.0, seed=5)
        n = len(y)
        for seed in range(50):
            children = np.random.SeedSequence(seed).spawn(2)
            samples = [
                set(np.random.default_rng(c).integers(0, n, size=n)) for c in children
            ]
            if set.intersection(*samples):
                break
        else:
            pytest.fail("no seed leaves a row in every bootstrap sample")
        forest = RandomForest(ForestConfig(n_trees=2)).fit(x, y, seed=seed)
        assert forest.oob_accuracy == pytest.approx(oob_oracle(forest, x, y, seed))

    def test_no_out_of_bag_row_gives_nan(self):
        # Two rows: a bootstrap of size two covers both with probability
        # 1/2, so some seed leaves no row out of bag for a single tree.
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        for seed in range(50):
            child = np.random.SeedSequence(seed).spawn(1)[0]
            if len(set(np.random.default_rng(child).integers(0, 2, size=2))) == 2:
                break
        forest = RandomForest(ForestConfig(n_trees=1)).fit(x, y, seed=seed)
        assert np.isnan(forest.oob_accuracy)


class TestDeterminism:
    def test_same_seed_same_model(self):
        x, y = two_blobs(n_per=60, seed=13)
        p1 = RandomForest(ForestConfig(n_trees=20)).fit(x, y, seed=9).predict_proba(x)
        p2 = RandomForest(ForestConfig(n_trees=20)).fit(x, y, seed=9).predict_proba(x)
        assert np.array_equal(p1, p2)

    def test_different_seed_usually_differs(self):
        x, y = two_blobs(n_per=60, gap=1.0, seed=13)
        p1 = RandomForest(ForestConfig(n_trees=10)).fit(x, y, seed=1).predict_proba(x)
        p2 = RandomForest(ForestConfig(n_trees=10)).fit(x, y, seed=2).predict_proba(x)
        assert not np.array_equal(p1, p2)

    def test_tree_prefix_is_stable_as_forest_grows(self):
        # Tree i must not depend on how many trees come after it.
        x, y = two_blobs(n_per=40, seed=17)
        small = RandomForest(ForestConfig(n_trees=4)).fit(x, y, seed=21)
        large = RandomForest(ForestConfig(n_trees=8)).fit(x, y, seed=21)
        for t_small, t_large in zip(small.trees, large.trees):
            assert np.array_equal(t_small.feature, t_large.feature)
            assert np.array_equal(t_small.threshold, t_large.threshold)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="classifier.n_trees"):
            ForestConfig(n_trees=0)
        with pytest.raises(ConfigError, match="classifier.max_depth"):
            ForestConfig(max_depth=0)
        with pytest.raises(ConfigError, match="classifier.min_samples_leaf"):
            ForestConfig(min_samples_leaf=0)
        with pytest.raises(ConfigError, match="classifier.max_features"):
            ForestConfig(max_features="half")

    def test_max_features_resolution(self):
        assert ForestConfig(max_features="sqrt").resolve_max_features(100) == 10
        assert ForestConfig(max_features="sqrt").resolve_max_features(150) == 12
        assert ForestConfig(max_features="all").resolve_max_features(7) == 7
        assert ForestConfig(max_features=3).resolve_max_features(7) == 3
        assert ForestConfig(max_features=30).resolve_max_features(7) == 7

    def test_depth_limit_is_respected(self):
        x, y = two_blobs(n_per=50, gap=1.0, seed=19)
        forest = RandomForest(ForestConfig(n_trees=5, max_depth=2)).fit(x, y, seed=4)
        for tree in forest.trees:
            depth = {0: 0}
            for node in range(len(tree.feature)):
                if tree.feature[node] >= 0:
                    assert depth[node] < 2
                    depth[tree.left[node]] = depth[node] + 1
                    depth[tree.right[node]] = depth[node] + 1

    def test_min_samples_leaf_is_respected(self):
        # Leaf sizes are counted over the rows the tree was grown on, here
        # every row once.
        x, y = two_blobs(n_per=50, gap=1.5, seed=23)
        config = ForestConfig(min_samples_leaf=10)
        w = np.ones(len(y), dtype=np.int64)
        order = np.argsort(x.T, axis=1)
        for seed in range(5):
            tree = _grow_tree(x, y, w, order, np.random.default_rng(seed), config)
            counts = _leaf_counts(tree, x)
            assert len(counts) > 1
            assert min(counts.values()) >= 10


def _leaf_counts(tree, x):
    node = np.zeros(len(x), dtype=np.int32)
    while True:
        f = tree.feature[node]
        active = np.nonzero(f >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = x[active, f[active]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    unique, counts = np.unique(node, return_counts=True)
    return dict(zip(unique.tolist(), counts.tolist()))


def reference_best_split(x, y, idx, features, min_leaf):
    """The split search as one stable argsort per candidate feature over
    the node's rows, duplicates included."""
    n = idx.size
    y_node = y[idx]
    best = None
    for f in features:
        xs = x[idx, f]
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        lo, hi = min_leaf - 1, n - min_leaf - 1
        boundary = xs[lo : hi + 1] != xs[lo + 1 : hi + 2]
        if not boundary.any():
            continue
        cum1 = np.cumsum(y_node[order])
        i = np.arange(lo, hi + 1)
        nl = (i + 1).astype(np.float64)
        nr = n - nl
        l1 = cum1[lo : hi + 1].astype(np.float64)
        l0 = nl - l1
        r1 = cum1[-1] - l1
        r0 = nr - r1
        score = (l0 * l0 + l1 * l1) / nl + (r0 * r0 + r1 * r1) / nr
        score[~boundary] = -np.inf
        j = int(np.argmax(score))
        if best is None or score[j] > best[2]:
            cut = lo + j
            best = (int(f), float((xs[cut] + xs[cut + 1]) / 2.0), float(score[j]))
    return best


def reference_grow_tree(x, y, rng, config):
    """A tree grown on the materialized bootstrap rows ``x``, ``y``."""
    n, n_features = x.shape
    mtry = config.resolve_max_features(n_features)
    max_depth = config.max_depth if config.max_depth is not None else np.inf
    min_leaf = config.min_samples_leaf
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ones = int(y[idx].sum())
        value[node] = ones / idx.size
        if ones in (0, idx.size) or depth >= max_depth or idx.size < 2 * min_leaf:
            continue
        candidates = rng.choice(n_features, size=mtry, replace=False)
        split = reference_best_split(x, y, idx, candidates, min_leaf)
        if split is None:
            continue
        f, thr, _ = split
        go_left = x[idx, f] <= thr
        feature[node], threshold[node] = f, thr
        for side in (left, right):
            side[node] = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
        stack.append((left[node], idx[go_left], depth + 1))
        stack.append((right[node], idx[~go_left], depth + 1))
    return feature, threshold, left, right, value


def reference_forest(x, y, config, seed):
    """Every tree's arrays and the out-of-bag accuracy, with each tree
    grown on ``x[sample]`` from the same per-tree seed contract."""
    n = len(y)
    trees = []
    votes = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for child in np.random.SeedSequence(seed).spawn(config.n_trees):
        rng = np.random.default_rng(child)
        sample = rng.integers(0, n, size=n)
        arrays = reference_grow_tree(x[sample], y[sample], rng, config)
        trees.append(arrays)
        feature, threshold, left, right, value = arrays
        oob = np.flatnonzero(np.bincount(sample, minlength=n) == 0)
        for row in oob:
            node = 0
            while feature[node] >= 0:
                go_left = x[row, feature[node]] <= threshold[node]
                node = left[node] if go_left else right[node]
            votes[row] += value[node]
            counts[row] += 1
    seen = counts > 0
    hits = (votes[seen] / counts[seen] >= 0.5) == y[seen]
    return trees, float(hits.mean()) if hits.size else float("nan")


def overlapping_blobs(seed):
    return two_blobs(n_per=60, gap=1.0, seed=seed)


def tied_blobs(seed):
    x, y = two_blobs(n_per=60, gap=1.0, dim=8, seed=seed)
    return np.round(x), y


def identical_rows(seed):
    x, y = two_blobs(n_per=40, gap=1.0, dim=5, seed=seed)
    x[:50] = x[0]
    return x, y


def random_labels(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((150, 6)), rng.integers(0, 2, size=150)


class TestPresortedSplitSearch:
    """The forest grown on presorted columns and bootstrap weights has the
    same trees, bit for bit, as one grown on the materialized sample with
    one sort per node and feature."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "data, config",
        [
            (tied_blobs, ForestConfig(n_trees=8)),
            (identical_rows, ForestConfig(n_trees=8)),
            (tied_blobs, ForestConfig(n_trees=8, min_samples_leaf=4)),
            (overlapping_blobs, ForestConfig(n_trees=8, max_depth=3)),
            (tied_blobs, ForestConfig(n_trees=6, max_features="all")),
            (random_labels, ForestConfig(n_trees=6)),
        ],
        ids=["ties", "identical-rows", "min-leaf-4", "depth-3", "all-features", "random-labels"],
    )
    def test_trees_and_oob_match_per_node_sort(self, data, config, seed):
        x, y = data(seed)
        forest = RandomForest(config).fit(x, y, seed=seed)
        trees, oob = reference_forest(x, y, config, seed)
        assert len(forest.trees) == len(trees)
        for tree, arrays in zip(forest.trees, trees):
            feature, threshold, left, right, value = arrays
            assert np.array_equal(tree.feature, np.asarray(feature, dtype=np.int32))
            assert np.array_equal(tree.threshold, np.asarray(threshold))
            assert np.array_equal(tree.left, np.asarray(left, dtype=np.int32))
            assert np.array_equal(tree.right, np.asarray(right, dtype=np.int32))
            assert np.array_equal(tree.value, np.asarray(value))
        assert forest.oob_accuracy == oob

    def test_random_labels_grow_deep_trees(self):
        # The random-label case above exercises many levels of splits.
        x, y = random_labels(0)
        forest = RandomForest(ForestConfig(n_trees=2)).fit(x, y, seed=0)
        assert max(len(tree.feature) for tree in forest.trees) > 50


def level_predict(tree, x):
    """The level-by-level walk: every row still at a split node moves down
    one level per step, until all rows sit at leaves."""
    node = np.zeros(len(x), dtype=np.int32)
    while True:
        f = tree.feature[node]
        active = np.nonzero(f >= 0)[0]
        if active.size == 0:
            break
        cur = node[active]
        go_left = x[active, f[active]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def on_thresholds(forest, x):
    """Copies of rows of ``x`` with one feature set exactly to the threshold
    of a split, one row per split node of every tree."""
    rows = []
    for i, tree in enumerate(forest.trees):
        for node in np.flatnonzero(tree.feature >= 0):
            row = x[(i + node) % len(x)].copy()
            row[tree.feature[node]] = tree.threshold[node]
            rows.append(row)
    return np.array(rows)


def constant_features(seed):
    rng = np.random.default_rng(seed)
    return np.ones((30, 4)), rng.permutation(np.arange(30) % 2)


class TestNodeWisePredict:
    """Walking a tree node by node gives, bit for bit, what the level-by-level
    walk gives, for each tree, for the forest and for the out-of-bag
    estimate."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "data, config",
        [
            (tied_blobs, ForestConfig(n_trees=10)),
            (tied_blobs, ForestConfig(n_trees=10, min_samples_leaf=4)),
            (random_labels, ForestConfig(n_trees=6, min_samples_leaf=2)),
            (constant_features, ForestConfig(n_trees=5)),
        ],
        ids=["ties", "min-leaf-4", "random-labels-min-leaf-2", "one-leaf"],
    )
    def test_matches_level_walk(self, data, config, seed, monkeypatch):
        x, y = data(seed)
        forest = RandomForest(config).fit(x, y, seed=seed)
        queries = np.vstack([x, np.round(x[::-1] * 0.5)])
        if forest.trees[0].feature[0] >= 0:
            queries = np.vstack([queries, on_thresholds(forest, x)])
        for tree in forest.trees:
            assert np.array_equal(tree.predict(queries), level_predict(tree, queries))
            assert tree.predict(x[:0]).shape == (0,)
        proba = forest.predict_proba(queries)

        monkeypatch.setattr(_Tree, "predict", level_predict)
        reference = RandomForest(config).fit(x, y, seed=seed)
        assert np.array_equal(proba, reference.predict_proba(queries))
        assert forest.oob_accuracy == reference.oob_accuracy
        assert reference.predict_proba(x[:0]).shape == (0,)

    def test_one_leaf_forest_comes_from_constant_features(self):
        x, y = constant_features(0)
        forest = RandomForest(ForestConfig(n_trees=5)).fit(x, y, seed=0)
        assert all(len(tree.feature) == 1 for tree in forest.trees)

    def test_row_on_the_threshold_goes_left(self):
        tree = _Tree(
            np.array([0, -1, -1], dtype=np.int32),
            np.array([0.5, 0.0, 0.0]),
            np.array([1, -1, -1], dtype=np.int32),
            np.array([2, -1, -1], dtype=np.int32),
            np.array([0.5, 0.25, 0.75]),
        )
        x = np.array([[0.5], [0.4], [0.6], [0.5]])
        assert tree.predict(x).tolist() == [0.25, 0.25, 0.75, 0.25]
        assert tree.predict(x[:0]).shape == (0,)

    def test_one_leaf_tree(self):
        tree = _Tree(*(np.array([v]) for v in (-1, 0.0, -1, -1, 0.3)))
        assert tree.predict(np.zeros((4, 2))).tolist() == [0.3] * 4
        assert tree.predict(np.zeros((0, 2))).shape == (0,)
