import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfuse.errors import ConfigError, TagfuseError
from tagfuse.fusion import (
    FusionConfig,
    TagAssignment,
    combined_rank,
    fuse,
    invert,
    read_assignments,
    write_assignments,
)
from tagfuse.ranking import ORIGIN_CLASSIFIER, ORIGIN_FUSION, ORIGIN_SYNSET, RankedList


def ranked(topic, origin, ids, start=1.0, step=0.001):
    """Ranked list over the given ids, scored consistently with the origin:
    fusion lists carry ascending combined ranks, the rest descending scores."""
    if origin == ORIGIN_FUSION:
        entries = [(article_id, float(i + 1)) for i, article_id in enumerate(ids)]
    else:
        entries = [(article_id, start - i * step) for i, article_id in enumerate(ids)]
    return RankedList(topic=topic, origin=origin, entries=entries)


def random_instance(rng, max_universe=40):
    """A random (synset list, classifier list) pair over one id universe."""
    universe = [f"x{i:03d}" for i in range(rng.randint(1, max_universe))]
    synset_ids = rng.sample(universe, rng.randint(1, len(universe)))
    classifier_ids = rng.sample(universe, rng.randint(0, len(universe)))
    return (
        ranked("T", ORIGIN_SYNSET, synset_ids),
        ranked("T", ORIGIN_CLASSIFIER, classifier_ids),
    )


def brute_force_fusion(synset_list, classifier_list, a):
    """Re-derive the fused list from first principles, no shared code."""
    s_rank = {aid: i + 1 for i, (aid, _) in enumerate(synset_list.entries)}
    r_rank = {aid: i + 1 for i, (aid, _) in enumerate(classifier_list.entries)}
    size = len(s_rank)
    combined = []
    for aid in set(s_rank) | set(r_rank):
        if aid in s_rank and aid in r_rank:
            t = (s_rank[aid] + r_rank[aid]) / 2
        elif aid in r_rank:
            t = r_rank[aid] * size
        else:
            t = s_rank[aid] * size
        combined.append((t, aid))
    combined.sort()
    return [(aid, float(t)) for t, aid in combined[: a * size]]


class TestCombinedRank:
    def test_dual_membership_averages_the_ranks(self):
        assert combined_rank(3, 5, synset_size=50) == 4.0
        assert combined_rank(1, 1, synset_size=50) == 1.0
        assert combined_rank(2, 5, synset_size=50) == 3.5

    def test_single_route_scales_by_synset_size(self):
        assert combined_rank(None, 2, synset_size=100) == 200.0
        assert combined_rank(7, None, synset_size=100) == 700.0

    def test_dual_articles_never_trail_single_route_articles(self):
        # With the classifier list no longer than the synset list, a dual
        # article's combined rank is at most |S|, the single-route minimum.
        assert combined_rank(50, 50, synset_size=50) <= combined_rank(None, 1, 50)
        assert combined_rank(49, 50, synset_size=50) < combined_rank(None, 1, 50)
        assert combined_rank(49, 50, synset_size=50) < combined_rank(1, None, 50)

    def test_membership_in_neither_list_is_an_error(self):
        with pytest.raises(ValueError):
            combined_rank(None, None, synset_size=10)


class TestFuse:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240817)
        for _ in range(300):
            synset_list, classifier_list = random_instance(rng)
            a = rng.randint(1, 4)
            fused = fuse(synset_list, classifier_list, a=a)
            expected = brute_force_fusion(synset_list, classifier_list, a)
            assert fused.entries == expected
            assert fused.origin == ORIGIN_FUSION

    def test_length_budget_is_a_times_synset_size(self):
        synset_list = ranked("T", ORIGIN_SYNSET, [f"s{i}" for i in range(50)])
        classifier_list = ranked(
            "T", ORIGIN_CLASSIFIER, [f"c{i}" for i in range(500)]
        )
        fused = fuse(synset_list, classifier_list, a=2)
        assert len(fused) == 100

    def test_shorter_candidate_pool_than_budget_keeps_everything(self):
        synset_list = ranked("T", ORIGIN_SYNSET, ["s1", "s2", "s3"])
        classifier_list = ranked("T", ORIGIN_CLASSIFIER, ["s1"])
        fused = fuse(synset_list, classifier_list, a=4)
        assert set(fused.ids()) == {"s1", "s2", "s3"}

    def test_smaller_a_is_a_prefix_of_larger_a(self):
        rng = random.Random(99)
        for _ in range(50):
            synset_list, classifier_list = random_instance(rng)
            previous = None
            for a in (1, 2, 3, 4):
                fused = fuse(synset_list, classifier_list, a=a)
                if previous is not None:
                    assert fused.entries[: len(previous)] == previous
                previous = fused.entries

    def test_ties_break_by_article_id(self):
        # s: z1 at rank 1, a1 at rank 2; r: a1 rank 1, z1 rank 2.
        # Both average to 1.5; a1 must come first.
        synset_list = ranked("T", ORIGIN_SYNSET, ["z1", "a1"])
        classifier_list = ranked("T", ORIGIN_CLASSIFIER, ["a1", "z1"])
        fused = fuse(synset_list, classifier_list, a=1)
        assert fused.ids() == ["a1", "z1"]

    def test_empty_synset_list_warns_and_fuses_empty(self, caplog):
        synset_list = RankedList(topic="T", origin=ORIGIN_SYNSET, entries=[])
        classifier_list = ranked("T", ORIGIN_CLASSIFIER, ["c1", "c2"])
        with caplog.at_level(logging.WARNING):
            fused = fuse(synset_list, classifier_list, a=2)
        assert fused.entries == []
        assert any("empty synset list" in r.message for r in caplog.records)

    def test_empty_classifier_list_degrades_to_synset_order(self):
        synset_list = ranked("T", ORIGIN_SYNSET, ["s1", "s2", "s3"])
        classifier_list = RankedList(topic="T", origin=ORIGIN_CLASSIFIER, entries=[])
        fused = fuse(synset_list, classifier_list, a=1)
        assert fused.ids() == ["s1", "s2", "s3"]

    def test_origin_mismatch_rejected(self):
        synset_list = ranked("T", ORIGIN_SYNSET, ["s1"])
        classifier_list = ranked("T", ORIGIN_CLASSIFIER, ["c1"])
        with pytest.raises(TagfuseError, match="expected a synset list"):
            fuse(classifier_list, classifier_list, a=2)
        with pytest.raises(TagfuseError, match="expected a classifier list"):
            fuse(synset_list, synset_list, a=2)

    def test_topic_mismatch_rejected(self):
        synset_list = ranked("T", ORIGIN_SYNSET, ["s1"])
        classifier_list = ranked("U", ORIGIN_CLASSIFIER, ["c1"])
        with pytest.raises(TagfuseError, match="topic mismatch"):
            fuse(synset_list, classifier_list, a=2)

    def test_config_validation(self):
        for bad in ((), (0, 1), (2, 2)):
            with pytest.raises(ConfigError, match="a_values"):
                FusionConfig(a_values=bad)
        for bad in (1.5, -0.1):
            with pytest.raises(ConfigError, match="score_threshold"):
                FusionConfig(score_threshold=bad)

    @given(
        n_synset=st.integers(min_value=1, max_value=30),
        n_classifier=st.integers(min_value=0, max_value=30),
        overlap_seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_fused_size_never_exceeds_budget(
        self, n_synset, n_classifier, overlap_seed, a
    ):
        rng = random.Random(overlap_seed)
        universe = [f"u{i:03d}" for i in range(60)]
        synset_list = ranked("T", ORIGIN_SYNSET, rng.sample(universe, n_synset))
        classifier_list = ranked(
            "T", ORIGIN_CLASSIFIER, rng.sample(universe, n_classifier)
        )
        fused = fuse(synset_list, classifier_list, a=a)
        assert len(fused) <= a * n_synset
        assert len(set(fused.ids())) == len(fused)
        assert set(fused.ids()) <= set(synset_list.ids()) | set(classifier_list.ids())


class TestInvert:
    def test_top_of_list_scores_one(self):
        lst = ranked("T", ORIGIN_FUSION, [f"f{i}" for i in range(10)])
        assignments = invert({"T": lst})
        scores = {a.article_id: a.tags[0][1] for a in assignments}
        assert scores["f0"] == 1.0
        assert scores["f1"] == pytest.approx(0.9)
        assert scores["f9"] == pytest.approx(0.1)

    def test_scores_are_rank_normalized_per_list(self):
        short = ranked("A", ORIGIN_FUSION, ["x", "y"])
        long = ranked("B", ORIGIN_FUSION, [f"z{i}" for i in range(100)] + ["x"])
        assignments = invert({"A": short, "B": long})
        by_id = {a.article_id: dict(a.tags) for a in assignments}
        assert by_id["x"]["A"] == 1.0
        assert by_id["x"]["B"] == pytest.approx(1.0 - 100 / 101)
        assert by_id["y"]["A"] == pytest.approx(0.5)

    def test_articles_collect_tags_from_every_list(self):
        list_a = ranked("A", ORIGIN_FUSION, ["m", "n"])
        list_b = ranked("B", ORIGIN_FUSION, ["n", "m"])
        assignments = invert({"A": list_a, "B": list_b})
        assert [a.article_id for a in assignments] == ["m", "n"]
        assert assignments[0].topic_set() == {"A", "B"}
        assert assignments[1].topic_set() == {"A", "B"}

    def test_tags_are_sorted_best_first_then_by_topic(self):
        list_a = ranked("A", ORIGIN_FUSION, ["m", "n"])
        list_b = ranked("B", ORIGIN_FUSION, ["m", "n"])
        list_c = ranked("C", ORIGIN_FUSION, ["n", "m"])
        assignments = invert({"C": list_c, "B": list_b, "A": list_a})
        m = next(a for a in assignments if a.article_id == "m")
        assert m.tags == [("A", 1.0), ("B", 1.0), ("C", 0.5)]

    def test_threshold_drops_weak_tags(self):
        lst = ranked("T", ORIGIN_FUSION, [f"f{i}" for i in range(10)])
        assignments = invert({"T": lst}, score_threshold=0.75)
        kept = {a.article_id for a in assignments}
        assert kept == {"f0", "f1", "f2"}

    def test_threshold_zero_keeps_everything(self):
        lst = ranked("T", ORIGIN_FUSION, [f"f{i}" for i in range(10)])
        assert len(invert({"T": lst}, score_threshold=0.0)) == 10

    def test_synset_lists_invert_for_the_baseline(self):
        lst = ranked("T", ORIGIN_SYNSET, ["s1", "s2"])
        assignments = invert({"T": lst})
        assert [a.article_id for a in assignments] == ["s1", "s2"]

    def test_mixed_origins_rejected(self):
        fusion_list = ranked("A", ORIGIN_FUSION, ["x"])
        synset_list = ranked("B", ORIGIN_SYNSET, ["y"])
        with pytest.raises(TagfuseError, match="origins"):
            invert({"A": fusion_list, "B": synset_list})

    def test_classifier_lists_rejected(self):
        lst = ranked("T", ORIGIN_CLASSIFIER, ["x"])
        with pytest.raises(TagfuseError, match="origins"):
            invert({"T": lst})

    def test_mislabeled_key_rejected(self):
        lst = ranked("T", ORIGIN_FUSION, ["x"])
        with pytest.raises(TagfuseError, match="filed under"):
            invert({"U": lst})

    def test_empty_input_inverts_to_nothing(self):
        assert invert({}) == []


class TestAssignmentIO:
    def test_round_trip(self, tmp_path):
        assignments = [
            TagAssignment(article_id="a1", tags=[("A", 1.0), ("B", 0.25)]),
            TagAssignment(article_id="a2", tags=[("B", 0.5)]),
        ]
        path = str(tmp_path / "tags.jsonl")
        write_assignments(assignments, path)
        loaded = read_assignments(path)
        assert loaded == assignments

    def test_duplicate_topics_rejected(self):
        with pytest.raises(TagfuseError, match="duplicate topics"):
            TagAssignment(article_id="a1", tags=[("A", 1.0), ("A", 0.5)])

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "tags.jsonl"
        path.write_text('{"id": "a1", "tags": []}\nbroken\n', encoding="utf-8")
        with pytest.raises(TagfuseError, match=":2:"):
            read_assignments(str(path))
