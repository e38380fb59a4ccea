import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfuse.benchmark import BenchmarkSpec, generate
from tagfuse.corpus import (
    ingest_corpus,
    load_ground_truth,
    save_corpus,
    save_ground_truth,
)
from tagfuse.errors import TagfuseError
from tagfuse.index import build_ground_truth, build_index, default_fields
from tagfuse.text import tokenize

from conftest import make_corpus, record


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


GOOD = {
    "id": "a1",
    "title": "Mycology of forests",
    "abstract": "Spore data.",
    "keywords": ["fungi"],
    "subjects": ["Mycology"],
}


class TestIngest:
    def test_reads_all_fields(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [GOOD | {"categories:extra": ["Botany"]}])
        corpus = ingest_corpus(str(path))
        assert len(corpus) == 1
        rec = record(corpus, "a1")
        assert rec.title == "Mycology of forests"
        assert rec.keywords == ("fungi",)
        assert rec.subjects == ("Mycology",)
        assert rec.extra == {"categories:extra": ("Botany",)}
        assert default_fields(corpus)[-1] == "categories:extra"

    def test_skips_incomplete_records_with_warning(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(
            path,
            [
                GOOD,
                {"id": "a2", "title": "No abstract"},
                {"id": "", "title": "t", "abstract": "x"},
                {"id": "a3", "title": "   ", "abstract": "x"},
            ],
        )
        with caplog.at_level(logging.WARNING):
            corpus = ingest_corpus(str(path))
        assert [rec.id for rec in corpus] == ["a1"]
        skip_lines = [r for r in caplog.records if "skipping record" in r.message]
        assert len(skip_lines) == 3

    def test_duplicate_id_is_fatal(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [GOOD, GOOD])
        with pytest.raises(TagfuseError, match="duplicate"):
            ingest_corpus(str(path))

    @pytest.mark.parametrize("bad", ["\t", "\n", "\r", "\u2028", "\x00"])
    def test_unprintable_id_is_fatal_with_line_number(self, tmp_path, bad):
        # A ranked list is one TSV line per article: a tab or line break in
        # an id would break the list that carries it.
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [GOOD, GOOD | {"id": f"d00000{bad}x"}])
        with pytest.raises(TagfuseError, match="corpus.jsonl:2: article id .* is not printable"):
            ingest_corpus(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [("keywords", "fungi"), ("subjects", ["Mycology", 3]), ("keywords", {"a": "b"}),
         ("subjects", ""), ("keywords", False)],
    )
    def test_list_field_that_is_not_a_string_array_is_fatal(self, tmp_path, key, value):
        # Read as empty, it would silently drop the labels of ground_truth_fields.
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [GOOD | {"id": "a0"}, GOOD | {key: value}])
        with pytest.raises(TagfuseError, match=f"corpus.jsonl:2: {key} is not an array of strings"):
            ingest_corpus(str(path))

    def test_absent_or_null_list_field_is_empty_and_other_keys_are_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        bare = {k: GOOD[k] for k in ("id", "title", "abstract")}
        write_jsonl(path, [bare | {"subjects": None, "year": 2018, "categories:x": ["A", 1]}])
        [rec] = ingest_corpus(str(path))
        assert (rec.keywords, rec.subjects, rec.extra) == ((), (), {})

    def test_broken_json_is_fatal_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(GOOD) + "\nnot json\n")
        with pytest.raises(TagfuseError, match="corpus.jsonl:2"):
            ingest_corpus(str(path))

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n" + json.dumps(GOOD) + "\n\n")
        assert len(ingest_corpus(str(path))) == 1

    def test_round_trip(self, tmp_path, fungi_corpus):
        path = tmp_path / "corpus.jsonl"
        save_corpus(fungi_corpus, str(path))
        again = ingest_corpus(str(path))
        assert again == fungi_corpus


class TestCorpus:
    def test_lookup_and_ordinals(self, fungi_corpus):
        assert record(fungi_corpus, "a3").title == "Organ transplantation outcomes"
        assert [rec.id for rec in fungi_corpus] == ["a1", "a2", "a3", "a4", "a5"]


# Words, repeated tokens and punctuation-only pieces for generated entries.
WORDS = st.sampled_from(["alpha", "Alpha", "beta", "gamma", "--", "!!", "alpha-beta"])


def per_entry_scan(corpus, topics, fields):
    """Labels by the token scan that ground truth used before the index:
    a topic labels an article when its tokens occur contiguously within
    one entry of a named field."""
    phrases = {topic: tokenize(topic) for topic in topics}
    labels = {}
    for rec in corpus:
        matched = set()
        for name in fields:
            for entry in rec.field_values(name):
                tokens = tokenize(entry)
                for topic, phrase in phrases.items():
                    k = len(phrase)
                    starts = [i for i, tok in enumerate(tokens) if tok == phrase[0]]
                    if any(tokens[i : i + k] == phrase for i in starts):
                        matched.add(topic)
        if matched:
            labels[rec.id] = matched
    return labels


@pytest.fixture(scope="module")
def bench_corpus():
    """The default synthetic benchmark corpus (5k articles), its index and its topics."""
    corpus, _, synsets = generate(BenchmarkSpec())
    return corpus, build_index(corpus), list(synsets)


class TestBuildGroundTruth:
    def test_whole_phrase_matching_in_category_fields(self, fungi_corpus):
        index = build_index(fungi_corpus)
        truth = build_ground_truth(index, ["Mycology", "Transplantation"])
        assert truth == {
            "a1": {"Mycology"},
            "a2": {"Mycology"},
            "a3": {"Transplantation"},
            "a4": {"Mycology", "Transplantation"},
        }

    def test_word_prefix_in_keywords_does_not_label(self):
        corpus = make_corpus(
            [("b1", "t", "x", ("mycological methods",), ())]
        )
        truth = build_ground_truth(build_index(corpus), ["Mycology"], fields=("keywords",))
        assert "b1" not in truth

    def test_phrase_inside_entry_labels(self):
        corpus = make_corpus(
            [("b1", "t", "x", (), ("History of Mycology",))]
        )
        truth = build_ground_truth(build_index(corpus), ["Mycology"], fields=("subjects",))
        assert truth["b1"] == {"Mycology"}

    def test_matching_is_case_insensitive(self):
        corpus = make_corpus([("b1", "t", "x", ("MYCOLOGY",), ())])
        truth = build_ground_truth(build_index(corpus), ["mycology"], fields=("keywords",))
        assert truth["b1"] == {"mycology"}

    def test_zero_match_articles_are_left_out(self, fungi_corpus):
        truth = build_ground_truth(build_index(fungi_corpus), ["Mycology"])
        assert "a5" not in truth
        assert "a3" not in truth

    def test_contiguous_run_within_an_entry_labels(self):
        corpus = make_corpus([("b1", "t", "x", (), ("History of Mycology",))])
        topics = ["Mycology", "of mycology", "history of mycology"]
        truth = build_ground_truth(build_index(corpus), topics, fields=("subjects",))
        assert truth["b1"] == set(topics)

    def test_gap_or_reorder_does_not_label(self):
        corpus = make_corpus([("b1", "t", "x", (), ("History of Mycology",))])
        truth = build_ground_truth(
            build_index(corpus), ["history mycology", "mycology of"], fields=("subjects",)
        )
        assert "b1" not in truth

    def test_phrase_straddling_two_entries_does_not_label(self):
        corpus = make_corpus([("b1", "t", "x", ("deep learning", "systems biology"))])
        truth = build_ground_truth(
            build_index(corpus), ["learning systems", "systems biology"], fields=("keywords",)
        )
        assert truth["b1"] == {"systems biology"}

    def test_topic_that_tokenizes_to_nothing_raises(self, fungi_corpus):
        # RunConfig rejects such a topic; here it simply labels nothing.
        index = build_index(fungi_corpus)
        truth = build_ground_truth(index, ["Mycology", "—"])
        assert truth == build_ground_truth(index, ["Mycology"])

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.lists(st.lists(WORDS, max_size=4).map(" ".join), max_size=3),
                st.lists(st.lists(WORDS, max_size=4).map(" ".join), max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
        topics=st.lists(
            st.sampled_from(["alpha", "beta", "alpha beta", "beta alpha", "alpha alpha",
                             "Gamma-alpha"]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        fields=st.sampled_from([("keywords",), ("subjects",), ("keywords", "subjects")]),
    )
    def test_property_labels_equal_the_per_entry_scan(self, entries, topics, fields):
        corpus = make_corpus(
            [(f"d{i}", "t", "x", kw, subj) for i, (kw, subj) in enumerate(entries)]
        )
        truth = build_ground_truth(build_index(corpus), topics, fields)
        assert truth == per_entry_scan(corpus, topics, fields)

    @pytest.mark.parametrize(
        "fields", [("subjects",), ("keywords", "subjects"), ("title", "abstract")]
    )
    def test_labels_equal_the_per_entry_scan_on_the_bench_corpus(
        self, bench_corpus, fields
    ):
        corpus, index, topics = bench_corpus
        truth = build_ground_truth(index, topics, fields)
        assert truth == per_entry_scan(corpus, topics, fields)


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        truth = {"a1": {"X"}, "a2": {"X", "Y"}}
        path = tmp_path / "truth.jsonl"
        save_ground_truth(truth, str(path))
        again = load_ground_truth(str(path))
        assert again == truth

    def test_label_outside_topic_list_raises(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        write_jsonl(path, [{"id": "a1", "topics": ["X", "Zed"]}])
        with pytest.raises(TagfuseError, match="Zed"):
            load_ground_truth(str(path), topics=["X"])

    def test_empty_topics_raises(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        write_jsonl(path, [{"id": "a1", "topics": []}])
        with pytest.raises(TagfuseError, match="empty topic list"):
            load_ground_truth(str(path))

    def test_line_that_is_not_an_object_names_the_line(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"id": "a1", "topics": ["X"]}\n["a2", ["X"]]\n', encoding="utf-8")
        with pytest.raises(TagfuseError, match="truth.jsonl:2: record is not an object"):
            load_ground_truth(str(path))

    def test_duplicate_id_raises(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        write_jsonl(
            path,
            [{"id": "a1", "topics": ["X"]}, {"id": "a1", "topics": ["Y"]}],
        )
        with pytest.raises(TagfuseError, match="duplicate"):
            load_ground_truth(str(path))
