import logging
import math

import numpy as np
import pytest

from tagfuse.classifier import ClassifierConfig, build_dataset, rank_corpus, train
from tagfuse.errors import ConfigError, UntrainableTopic
from tagfuse.forest import RandomForest
from tagfuse.index import build_index
from tagfuse.seeds import derive_seed
from tagfuse.semantic import SemanticMatrix

from conftest import entries, make_corpus


def labeled_corpus():
    """30 articles: 10 name the topic in title or abstract, 3 only in
    keywords, 17 never mention it."""
    rows = []
    for i in range(6):
        rows.append((f"t{i:02d}", f"Mycology report {i}", "Spores and hyphae."))
    for i in range(4):
        rows.append((f"b{i:02d}", f"Field notes {i}", f"A mycology survey, part {i}."))
    for i in range(3):
        rows.append(
            (f"k{i:02d}", f"Catalog {i}", "Uncategorized notes.", ["mycology"])
        )
    for i in range(17):
        rows.append((f"n{i:02d}", f"Plain article {i}", "Nothing relevant here."))
    return make_corpus(rows)


def small(**overrides):
    """Classifier config for the toy corpus, where one positive is enough."""
    return ClassifierConfig(min_positives=1, **overrides)


def embedding_for(corpus, dim=4, seed=0):
    """Synthetic embedding: positives cluster apart from the rest."""
    rng = np.random.default_rng(seed)
    ids = [rec.id for rec in corpus]
    rows = rng.standard_normal((len(ids), dim)) * 0.1
    for i, article_id in enumerate(ids):
        if article_id.startswith(("t", "b")):
            rows[i, 0] += 3.0
    return SemanticMatrix(matrix=rows, article_ids=list(ids), seed=seed)


class TestBuildDataset:
    def test_positives_are_title_and_abstract_phrase_matches(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        expected = sorted(f"t{i:02d}" for i in range(6)) + sorted(
            f"b{i:02d}" for i in range(4)
        )
        assert positives == sorted(expected)

    def test_keyword_only_mentions_are_in_neither_class(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        positives, negatives = build_dataset("mycology", index, small(neg_ratio=10.0))
        keyword_only = {f"k{i:02d}" for i in range(3)}
        assert not keyword_only & set(positives)
        assert not keyword_only & set(negatives)
        # Even asking for far more negatives than exist never pulls them in.
        assert set(negatives) == {f"n{i:02d}" for i in range(17)}

    def test_ratio_beyond_any_int_takes_the_whole_pool(self, caplog):
        index = build_index(labeled_corpus())
        with caplog.at_level(logging.WARNING, logger="tagfuse.classifier"):
            _, negatives = build_dataset("mycology", index, small(neg_ratio=1e308))
        assert negatives == [f"n{i:02d}" for i in range(17)]
        [warning] = [r.getMessage() for r in caplog.records]
        assert "wanted inf; using all" in warning

    def test_negative_count_is_ceil_of_ratio(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        for ratio in (0.25, 0.5, 1.0, 1.3):
            _, negatives = build_dataset("mycology", index, small(neg_ratio=ratio))
            assert len(negatives) == math.ceil(ratio * 10)

    def test_negatives_never_overlap_positives(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        assert not set(positives) & set(negatives)

    def test_too_few_positives_raises_with_counts(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        with pytest.raises(UntrainableTopic) as excinfo:
            build_dataset("mycology", index, ClassifierConfig(min_positives=50))
        assert excinfo.value.record == {"topic": "mycology", "positives": 10, "required": 50}
        assert str(excinfo.value) == "topic 'mycology': 10 positive examples, need at least 50"

    def test_empty_negative_pool_raises_with_counts(self):
        # Every article names the topic, if only in its keywords: no negative.
        corpus = [rec for rec in labeled_corpus() if not rec.id.startswith("n")]
        with pytest.raises(UntrainableTopic, match="10 positive examples, 0 negative") as excinfo:
            build_dataset("mycology", build_index(corpus), small())
        assert excinfo.value.record == {"topic": "mycology", "positives": 10, "negatives": 0}

    def test_negative_sampling_is_seed_deterministic(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        _, n1 = build_dataset("mycology", index, small(neg_ratio=0.5), seed=7)
        _, n2 = build_dataset("mycology", index, small(neg_ratio=0.5), seed=7)
        _, n3 = build_dataset("mycology", index, small(neg_ratio=0.5), seed=8)
        assert n1 == n2
        assert n1 != n3

    @pytest.mark.parametrize("ratio", [-0.1, 0, float("nan")])
    def test_negative_ratio_must_be_positive(self, ratio):
        with pytest.raises(ConfigError, match="classifier.neg_ratio must be positive"):
            ClassifierConfig(neg_ratio=ratio)

    def test_multiword_topic_name_uses_phrase_matching(self):
        corpus = make_corpus(
            [
                ("p1", "Notes on machine learning", "Models and data."),
                ("p2", "Learning machine operation", "Assembly line manual."),
                ("p3", "Other", "No match."),
            ]
        )
        index = build_index(corpus)
        positives, negatives = build_dataset("machine learning", index, small())
        assert positives == ["p1"]
        assert "p2" in negatives


class TestTrain:
    def test_separable_embedding_gives_high_oob_accuracy(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        sem = embedding_for(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        config = ClassifierConfig(n_trees=20)
        forest = train("mycology", positives, negatives, sem, config, seed=0)
        assert len(positives) == 10
        assert len(negatives) == 10
        assert (forest.n_positives, forest.n_negatives) == (10, 10)
        assert forest.oob_accuracy == 1.0

    def test_training_is_deterministic(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        sem = embedding_for(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        config = ClassifierConfig(n_trees=10)
        f1 = train("mycology", positives, negatives, sem, config, seed=3)
        f2 = train("mycology", positives, negatives, sem, config, seed=3)
        p1 = f1.predict_proba(sem.matrix)
        p2 = f2.predict_proba(sem.matrix)
        assert np.array_equal(p1, p2)
        assert f1.oob_accuracy == f2.oob_accuracy

    def test_fits_one_forest_per_topic(self, monkeypatch):
        corpus = labeled_corpus()
        index = build_index(corpus)
        sem = embedding_for(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        calls = []
        fit = RandomForest.fit

        def counting_fit(self, *args, **kwargs):
            calls.append(args)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(RandomForest, "fit", counting_fit)
        train("mycology", positives, negatives, sem, ClassifierConfig(n_trees=5), seed=0)
        assert len(calls) == 1

    def test_forest_keeps_the_topic_train_seed(self):
        corpus = labeled_corpus()
        index = build_index(corpus)
        sem = embedding_for(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        config = ClassifierConfig(n_trees=10)
        forest = train("mycology", positives, negatives, sem, config, seed=4)
        ids = positives + negatives
        x = np.stack([sem.row(a) for a in ids])
        y = np.array([1] * len(positives) + [0] * len(negatives))
        expected = RandomForest(config).fit(
            x, y, seed=derive_seed(4, "train", "mycology")
        )
        assert np.array_equal(
            forest.predict_proba(sem.matrix), expected.predict_proba(sem.matrix)
        )
        # The reported accuracy is the kept forest's own out-of-bag estimate.
        assert forest.oob_accuracy == expected.oob_accuracy


class TestRankCorpus:
    def fitted(self, seed=0):
        corpus = labeled_corpus()
        index = build_index(corpus)
        sem = embedding_for(corpus)
        positives, negatives = build_dataset("mycology", index, small())
        forest = train(
            "mycology", positives, negatives, sem, ClassifierConfig(n_trees=30), seed=seed
        )
        return forest, sem, corpus

    def test_every_article_is_scored_and_sorted(self):
        forest, sem, corpus = self.fitted()
        ranked = entries(rank_corpus(forest, sem))
        assert len(ranked) == len(corpus)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_positives_rank_above_the_unrelated(self):
        forest, sem, _ = self.fitted()
        ranked = entries(rank_corpus(forest, sem))
        top_ten = {article_id for article_id, _ in ranked[:10]}
        planted = {f"t{i:02d}" for i in range(6)} | {f"b{i:02d}" for i in range(4)}
        assert top_ten == planted

    def test_keyword_only_articles_can_still_be_reached(self):
        # They are excluded from training but share the positives' region
        # of the embedding, so scoring the whole corpus finds them.
        forest, sem, corpus = self.fitted()
        boosted = sem.matrix.copy()
        for i, article_id in enumerate(sem.article_ids):
            if article_id.startswith("k"):
                boosted[i, 0] += 3.0
        sem2 = SemanticMatrix(matrix=boosted, article_ids=sem.article_ids, seed=0)
        ranked = entries(rank_corpus(forest, sem2))
        top = {article_id for article_id, _ in ranked[:13]}
        assert {f"k{i:02d}" for i in range(3)} <= top

    def test_top_n_truncates(self):
        forest, sem, _ = self.fitted()
        ranked = entries(rank_corpus(forest, sem, ClassifierConfig(top_n=5)))
        assert len(ranked) == 5
        assert ranked == entries(rank_corpus(forest, sem))[:5]

    def test_ties_break_by_article_id(self):
        forest, sem, _ = self.fitted()
        ranked = entries(rank_corpus(forest, sem))
        by_score = {}
        for article_id, score in ranked:
            by_score.setdefault(score, []).append(article_id)
        for ids in by_score.values():
            assert ids == sorted(ids)

    def test_top_n_must_be_positive(self):
        with pytest.raises(ConfigError, match="top_n"):
            ClassifierConfig(top_n=0)
