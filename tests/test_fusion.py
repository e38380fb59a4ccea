import gc
import json
import logging
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfuse import cli
from tagfuse.config import RunConfig
from tagfuse.corpus import save_ground_truth
from tagfuse.errors import ConfigError
from tagfuse.fusion import (
    FusionConfig,
    fuse,
    invert,
    write_assignments,
)
from tagfuse.ranking import (
    ORIGIN_CLASSIFIER,
    ORIGIN_FUSION,
    ORIGIN_SYNSET,
    read_ranked_list,
    write_ranked_list,
)

from conftest import columns, entries, load_tags, vouch


def ranked(article_ids, origin=ORIGIN_SYNSET, start=1.0, step=0.001):
    """Entries over the given ids, scored consistently with the origin:
    fusion lists carry ascending combined ranks, the rest descending scores."""
    if origin == ORIGIN_FUSION:
        return [(article_id, float(i + 1)) for i, article_id in enumerate(article_ids)]
    return [(article_id, start - i * step) for i, article_id in enumerate(article_ids)]


def ids(pairs):
    return [article_id for article_id, _ in pairs]


def fused_entries(synset_list, classifier_list, a):
    """``fuse`` of two lists of (article id, score) pairs, as such pairs."""
    return entries(fuse(ids(synset_list), ids(classifier_list), a))


def random_instance(rng, max_universe=40):
    """A random (synset list, classifier list) pair over one id universe."""
    universe = [f"x{i:03d}" for i in range(rng.randint(1, max_universe))]
    synset_ids = rng.sample(universe, rng.randint(1, len(universe)))
    classifier_ids = rng.sample(universe, rng.randint(0, len(universe)))
    return ranked(synset_ids), ranked(classifier_ids)


def brute_force_fusion(synset_list, classifier_list, a):
    """Re-derive the fused list from first principles, no shared code."""
    s_rank = {aid: i + 1 for i, (aid, _) in enumerate(synset_list)}
    r_rank = {aid: i + 1 for i, (aid, _) in enumerate(classifier_list)}
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


def fused_ranks(synset_list, classifier_list):
    """Combined rank t_A of every candidate, from a fusion deep enough to
    keep them all."""
    depth = len(set(ids(synset_list)) | set(ids(classifier_list)))
    return dict(fused_entries(synset_list, classifier_list, a=depth))


class TestCombinedRank:
    def test_dual_membership_averages_the_ranks(self):
        synset_ids = [f"s{i}" for i in range(50)]
        synset_ids[2], synset_ids[0], synset_ids[1] = "p", "q", "m"
        classifier_ids = ["c1", "c2", "c3", "c4", "p", "q", "x", "m"]
        t = fused_ranks(ranked(synset_ids), ranked(classifier_ids))
        assert t["p"] == 4.0  # (3 + 5) / 2
        assert t["q"] == 3.5  # (1 + 6) / 2
        assert t["m"] == 5.0  # (2 + 8) / 2

    def test_single_route_scales_by_synset_size(self):
        synset_ids = [f"s{i}" for i in range(100)]
        t = fused_ranks(ranked(synset_ids), ranked(["c1", "c2", "s0"]))
        assert t["c2"] == 200.0 and type(t["c2"]) is float
        assert t["s6"] == 700.0 and type(t["s6"]) is float

    def test_dual_articles_never_trail_single_route_articles(self):
        # With the classifier list no longer than the synset list, a dual
        # article's combined rank is at most |S|, the single-route minimum.
        rng = random.Random(7)
        for _ in range(200):
            synset_list, classifier_list = random_instance(rng)
            if len(classifier_list) > len(synset_list):
                continue
            dual = set(ids(synset_list)) & set(ids(classifier_list))
            t = fused_ranks(synset_list, classifier_list)
            single = [rank for aid, rank in t.items() if aid not in dual]
            if dual and single:
                assert max(t[aid] for aid in dual) <= min(single)
        # The bound is reached: a dual article at ranks (|S|, |S|) ties the
        # top single-route articles at t = |S|, and ties go by article id.
        fused = fused_entries(ranked(["s1", "s2", "z"]), ranked(["a", "b", "z"]), a=1)
        assert fused == [("a", 3.0), ("s1", 3.0), ("z", 3.0)]


class TestFuse:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240817)
        for _ in range(300):
            synset_list, classifier_list = random_instance(rng)
            a = rng.randint(1, 4)
            fused = fused_entries(synset_list, classifier_list, a=a)
            expected = brute_force_fusion(synset_list, classifier_list, a)
            assert fused == expected
        # Candidates far beyond the budget a * |S|: the merge stops early.
        for _ in range(100):
            universe = [f"x{i:04d}" for i in range(rng.randint(200, 1000))]
            synset_list = ranked(rng.sample(universe, rng.randint(1, 12)))
            classifier_list = ranked(rng.sample(universe, rng.randint(100, len(universe))))
            a = rng.randint(1, 4)
            fused = fused_entries(synset_list, classifier_list, a=a)
            assert fused == brute_force_fusion(synset_list, classifier_list, a)

    def test_synset_only_and_classifier_only_tie_by_id(self):
        # "m" is synset-only at s = 2 and a classifier-only article is at
        # r = 2: both have t = 2 * |S| = 6, and the smaller id comes first.
        for other in ("c", "z"):
            synset_ids, classifier_ids = ["d", "m", "e"], ["d", other, "e"]
            fused = fused_entries(ranked(synset_ids), ranked(classifier_ids), a=3)
            tied = sorted(["m", other])
            assert fused == [("d", 1.0), ("e", 3.0), (tied[0], 6.0), (tied[1], 6.0)]

    def test_length_budget_is_a_times_synset_size(self):
        synset_list = ranked([f"s{i}" for i in range(50)])
        classifier_list = ranked([f"c{i}" for i in range(500)])
        fused = fused_entries(synset_list, classifier_list, a=2)
        assert len(fused) == 100

    def test_shorter_candidate_pool_than_budget_keeps_everything(self):
        synset_list = ranked(["s1", "s2", "s3"])
        classifier_list = ranked(["s1"])
        fused = fused_entries(synset_list, classifier_list, a=4)
        assert set(ids(fused)) == {"s1", "s2", "s3"}

    def test_smaller_a_is_a_prefix_of_larger_a(self):
        rng = random.Random(99)
        for _ in range(50):
            synset_list, classifier_list = random_instance(rng)
            previous = None
            for a in (1, 2, 3, 4):
                fused = fused_entries(synset_list, classifier_list, a=a)
                if previous is not None:
                    assert fused[: len(previous)] == previous
                previous = fused

    def test_ties_break_by_article_id(self):
        # s: z1 at rank 1, a1 at rank 2; r: a1 rank 1, z1 rank 2.
        # Both average to 1.5; a1 must come first.
        synset_list = ranked(["z1", "a1"])
        classifier_list = ranked(["a1", "z1"])
        fused = fused_entries(synset_list, classifier_list, a=1)
        assert ids(fused) == ["a1", "z1"]

    def test_empty_classifier_list_degrades_to_synset_order(self):
        synset_list = ranked(["s1", "s2", "s3"])
        fused = fused_entries(synset_list, [], a=1)
        assert ids(fused) == ["s1", "s2", "s3"]

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
        synset_list = ranked(rng.sample(universe, n_synset))
        classifier_list = ranked(rng.sample(universe, n_classifier))
        fused = fused_entries(synset_list, classifier_list, a=a)
        assert len(fused) <= a * n_synset
        assert len(set(ids(fused))) == len(fused)
        assert set(ids(fused)) <= set(ids(synset_list)) | set(ids(classifier_list))


class TestStageFuse:
    def fuse_stage(self, tmp_path, pairs, a_values):
        """Write each topic's (synset ids, classifier ids) pair as its two
        ranked lists, run ``stage_fuse`` and return its workspace."""
        ws = cli.Workspace(str(tmp_path / "out"), "fuse")
        os.makedirs(ws.path("ranked", "synset"))
        os.makedirs(ws.path("ranked", "classifier"))
        for topic, (synset_ids, classifier_ids) in pairs.items():
            write_ranked_list(
                columns(ranked(synset_ids)), topic, ORIGIN_SYNSET, ws.synset_list_path(topic)
            )
            write_ranked_list(
                columns(ranked(classifier_ids)), topic, ORIGIN_CLASSIFIER,
                ws.classifier_list_path(topic),
            )
        vouch(ws.root, "synset", map(ws.synset_list_path, pairs))
        vouch(ws.root, "train-rank", map(ws.classifier_list_path, pairs))
        cfg = RunConfig(
            output_dir=ws.root, topics=tuple(pairs), fusion=FusionConfig(a_values=a_values)
        )
        cli.stage_fuse(cfg)
        return ws

    def test_every_depth_matches_brute_force(self, tmp_path):
        rng = random.Random(11)
        universe = [f"x{i:03d}" for i in range(300)]
        pairs = {
            # a * |S| < candidates at every depth
            "wide": (rng.sample(universe, 20), rng.sample(universe, 200)),
            # 6 candidates, fewer than a * |S| at a = 3 and 6
            "narrow": (
                ["x001", "x002", "x003", "x004", "x005"],
                ["x005", "x009", "x001"],
            ),
            "random": (rng.sample(universe, 40), rng.sample(universe, 60)),
            # A skipped topic's classifier list is empty.
            "skipped": (rng.sample(universe, 10), []),
        }
        ws = self.fuse_stage(tmp_path, pairs, (3, 1, 6))

        for a in (1, 3, 6):
            expected = {}
            for topic, (synset_ids, classifier_ids) in pairs.items():
                expected[topic] = brute_force_fusion(
                    ranked(synset_ids), ranked(classifier_ids), a
                )
                written = read_ranked_list(ws.fusion_list_path(a, topic), topic, ORIGIN_FUSION)
                assert entries(written) == expected[topic]
            fused_ids = {topic: ids(fused) for topic, fused in expected.items()}
            assert load_tags(ws.tags_path(a)) == invert(fused_ids)
            assert len(expected["narrow"]) == min(6, a * 5)

    def test_empty_synset_list_warns_and_fuses_empty(self, tmp_path, caplog):
        pairs = {"T": ([], ["c1", "c2"]), "U": (["u1"], ["u1"])}
        with caplog.at_level(logging.WARNING):
            ws = self.fuse_stage(tmp_path, pairs, (2,))
        assert read_ranked_list(ws.fusion_list_path(2, "T"), "T", ORIGIN_FUSION) == ([], [])
        assert load_tags(ws.tags_path(2)) == {"u1": [("U", 1.0)]}
        warnings = [r.message for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["topic 'T': empty synset list, fusion is empty"]


class TestCyclicGc:
    def fuse_and_eval(self, tmp_path, n):
        """Run ``stage_fuse`` and ``stage_eval`` on three topics whose lists
        draw on n articles; return what ``gc.collect()`` finds afterwards.

        The collector stays off from the first stage to the count: once on,
        its next automatic run would take the cycles before they are counted."""
        rng = random.Random(n)
        universe = [f"x{i:05d}" for i in range(n)]
        topics = ("A", "B", "C")
        ws = cli.Workspace(str(tmp_path / f"n{n}"), "fuse")
        for kind, origin in (("synset", ORIGIN_SYNSET), ("classifier", ORIGIN_CLASSIFIER)):
            os.makedirs(ws.path("ranked", kind))
            paths = [ws.path("ranked", kind, f"{topic.lower()}.tsv") for topic in topics]
            for topic, path in zip(topics, paths):
                picked = rng.sample(universe, n // 10 if kind == "synset" else n)
                write_ranked_list(columns(ranked(picked, origin)), topic, origin, path)
            vouch(ws.root, "synset" if kind == "synset" else "train-rank", paths)
        truth_path = ws.path("truth.jsonl")
        save_ground_truth({aid: {rng.choice(topics)} for aid in universe}, truth_path)
        cfg = RunConfig(output_dir=ws.root, topics=topics, ground_truth_path=truth_path)
        gc.collect()
        gc.disable()
        try:
            cli.stage_fuse(cfg)
            cli.stage_eval(cfg)
            return gc.collect()
        finally:
            gc.enable()

    def test_fuse_and_eval_leave_no_cycles_that_grow_with_the_data(self, tmp_path, capsys):
        self.fuse_and_eval(tmp_path, 100)  # first calls fill caches
        assert self.fuse_and_eval(tmp_path, 500) == self.fuse_and_eval(tmp_path, 5000)

    def test_collector_state_restored_when_the_stage_fails(self, tmp_path):
        cfg = RunConfig(output_dir=str(tmp_path / "empty"), topics=("A",))
        try:
            for enabled in (True, False, True):
                gc.enable() if enabled else gc.disable()
                with pytest.raises(ConfigError, match="run 'tagfuse train-rank'"):
                    cli.stage_fuse(cfg)
                assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestInvert:
    def test_top_of_list_scores_one(self):
        lst = ids(ranked([f"f{i}" for i in range(10)], ORIGIN_FUSION))
        assignments = invert({"T": lst})
        scores = {a: tags[0][1] for a, tags in assignments.items()}
        assert scores["f0"] == 1.0
        assert scores["f1"] == pytest.approx(0.9)
        assert scores["f9"] == pytest.approx(0.1)

    def test_scores_are_rank_normalized_per_list(self):
        short = ids(ranked(["x", "y"], ORIGIN_FUSION))
        long = ids(ranked([f"z{i}" for i in range(100)] + ["x"], ORIGIN_FUSION))
        assignments = invert({"A": short, "B": long})
        by_id = {a: dict(tags) for a, tags in assignments.items()}
        assert by_id["x"]["A"] == 1.0
        assert by_id["x"]["B"] == pytest.approx(1.0 - 100 / 101)
        assert by_id["y"]["A"] == pytest.approx(0.5)

    def test_articles_collect_tags_from_every_list(self):
        list_a = ids(ranked(["m", "n"], ORIGIN_FUSION))
        list_b = ids(ranked(["n", "m"], ORIGIN_FUSION))
        assignments = invert({"A": list_a, "B": list_b})
        assert list(assignments) == ["m", "n"]
        assert {t for t, _ in assignments["m"]} == {"A", "B"}
        assert {t for t, _ in assignments["n"]} == {"A", "B"}

    def test_tags_are_sorted_best_first_then_by_topic(self):
        list_a = ids(ranked(["m", "n"], ORIGIN_FUSION))
        list_b = ids(ranked(["m", "n"], ORIGIN_FUSION))
        list_c = ids(ranked(["n", "m"], ORIGIN_FUSION))
        assignments = invert({"C": list_c, "B": list_b, "A": list_a})
        assert assignments["m"] == [("A", 1.0), ("B", 1.0), ("C", 0.5)]

    def test_ties_by_topic_whatever_the_topic_order_and_threshold(self):
        lists = {t: [f"f{i}" for i in range(4)] for t in ("D", "C", "B", "A")}
        lists["B"].reverse()
        for threshold in (None, 0.5):
            assignments = invert(lists, score_threshold=threshold)
            assert assignments["f0"][:3] == [("A", 1.0), ("C", 1.0), ("D", 1.0)]
            assert assignments["f3"][0] == ("B", 1.0)
        assert assignments["f1"] == [("A", 0.75), ("C", 0.75), ("D", 0.75), ("B", 0.5)]
        assert assignments["f0"] == [("A", 1.0), ("C", 1.0), ("D", 1.0)]

    def test_threshold_drops_weak_tags(self):
        lst = ids(ranked([f"f{i}" for i in range(10)], ORIGIN_FUSION))
        assignments = invert({"T": lst}, score_threshold=0.75)
        assert set(assignments) == {"f0", "f1", "f2"}

    def test_threshold_zero_keeps_everything(self):
        lst = ids(ranked([f"f{i}" for i in range(10)], ORIGIN_FUSION))
        assert len(invert({"T": lst}, score_threshold=0.0)) == 10

    def test_synset_lists_invert_for_the_baseline(self):
        lst = ids(ranked(["s1", "s2"]))
        assignments = invert({"T": lst})
        assert list(assignments) == ["s1", "s2"]

    def test_empty_input_inverts_to_nothing(self):
        assert invert({}) == {}


class TestAssignmentIO:
    def test_round_trip(self, tmp_path):
        assignments = {"a1": [("A", 1.0), ("B", 0.25)], "a2": [("B", 0.5)]}
        path = str(tmp_path / "tags.jsonl")
        write_assignments(assignments, path)
        assert list(load_tags(path).items()) == list(assignments.items())

    def test_lines_are_the_bytes_of_json_dumps(self, tmp_path):
        odd = ['q"uote', "back\\slash", "tab\there", "Zürich 東京", "line\u2028sep"]
        assignments = {
            article_id: [(topic, score) for topic, score in zip(odd, (1.0, 0.1, 1 / 3))]
            for article_id in odd
        }
        assignments["d1"] = [(odd[4], 2.5e-17)]
        path = tmp_path / "tags.jsonl"
        write_assignments(assignments, str(path))
        expected = "".join(
            json.dumps(
                {"id": a, "tags": [{"topic": t, "score": s} for t, s in tags]},
                ensure_ascii=False,
            )
            + "\n"
            for a, tags in assignments.items()
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert list(load_tags(path).items()) == list(assignments.items())
