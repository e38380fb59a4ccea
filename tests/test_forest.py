import numpy as np
import pytest

from tagfuse.forest import ForestConfig, RandomForest, _grow_tree


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

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError, match="both classes"):
            RandomForest().fit(x, np.ones(10, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RandomForest().fit(np.zeros((4, 2)), np.array([0, 1, 0]))


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

    def test_unfitted_forest_raises(self):
        with pytest.raises(ValueError, match="not fitted"):
            RandomForest().predict_proba(np.zeros((1, 2)))

    def test_feature_count_mismatch_raises(self):
        x, y = two_blobs(n_per=20, seed=3)
        forest = RandomForest(ForestConfig(n_trees=3)).fit(x, y, seed=1)
        with pytest.raises(ValueError, match="expected shape"):
            forest.predict_proba(np.zeros((2, x.shape[1] + 1)))


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
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(max_depth=0)
        with pytest.raises(ValueError):
            ForestConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
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
        # Leaf sizes are counted over the rows the tree was grown on.
        x, y = two_blobs(n_per=50, gap=1.5, seed=23)
        config = ForestConfig(min_samples_leaf=10)
        for seed in range(5):
            tree = _grow_tree(x, y, np.random.default_rng(seed), config)
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
