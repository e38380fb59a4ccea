import json

import pytest

from tagfuse.errors import TagfuseError
from tagfuse.index import build_index, search_any
from tagfuse.synsets import (
    SynsetConfig,
    load_synsets,
    make_synset,
    save_synsets,
    synset_rank,
)

from conftest import make_corpus

TOP_10 = SynsetConfig(limit=10)


def ids(ranked):
    return ranked[0]


def write_synsets(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path)


class TestMakeSynset:
    def test_keeps_first_spelling_on_case_clash(self):
        synset = make_synset("Mycology", ["Mycology", "Fungology", "fungology"])
        assert synset == ("Mycology", "Fungology")

    def test_prepends_missing_topic_name(self):
        synset = make_synset("Mycology", ["fungology"])
        assert synset == ("Mycology", "fungology")

    def test_blank_terms_are_dropped(self):
        synset = make_synset("Mycology", ["", "  ", "fungology"])
        assert synset == ("Mycology", "fungology")

    def test_topic_name_alone_is_valid(self):
        assert make_synset("Mycology", []) == ("Mycology",)


class TestLoadSynsets:
    def test_round_trip(self, tmp_path):
        synsets = {
            "Mycology": make_synset("Mycology", ["fungology", "fungal biology"]),
            "Transplantation": make_synset("Transplantation", ["graft"]),
        }
        path = str(tmp_path / "synsets.jsonl")
        save_synsets(synsets, path)
        loaded = load_synsets(path)
        assert loaded == synsets

    def test_missing_topics_are_listed(self, tmp_path):
        path = write_synsets(
            tmp_path / "s.jsonl", [{"topic": "Mycology", "terms": ["Mycology"]}]
        )
        with pytest.raises(TagfuseError, match=r"Botany.*Zoology|'Botany', 'Zoology'"):
            load_synsets(path, topics=["Mycology", "Botany", "Zoology"])

    def test_duplicate_topic_fatal(self, tmp_path):
        path = write_synsets(
            tmp_path / "s.jsonl",
            [
                {"topic": "Mycology", "terms": ["Mycology"]},
                {"topic": "Mycology", "terms": ["fungology"]},
            ],
        )
        with pytest.raises(TagfuseError, match="duplicate synset"):
            load_synsets(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"topic": "A", "terms": ["A"]}\nnot json\n', encoding="utf-8")
        with pytest.raises(TagfuseError, match=":2:"):
            load_synsets(str(path))

    def test_line_that_is_not_an_object_names_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"topic": "A", "terms": ["A"]}\n"A"\n', encoding="utf-8")
        with pytest.raises(TagfuseError, match="s.jsonl:2: record is not an object"):
            load_synsets(str(path))

    def test_wrong_shape_rejected(self, tmp_path):
        path = write_synsets(tmp_path / "s.jsonl", [{"topic": "A", "terms": "A"}])
        with pytest.raises(TagfuseError, match="terms array"):
            load_synsets(path)

    @pytest.mark.parametrize("term", [None, 5, ["x"]])
    def test_term_that_is_not_a_string_names_the_line(self, tmp_path, term):
        # Read as str(term), it would make "none", "5" or "x" search terms.
        path = write_synsets(
            tmp_path / "s.jsonl",
            [{"topic": "A", "terms": ["A"]}, {"topic": "Mycology", "terms": ["fungology", term]}],
        )
        with pytest.raises(TagfuseError, match="s.jsonl:2: expected topic and terms array"):
            load_synsets(path)

    def test_terms_are_normalized_on_load(self, tmp_path):
        path = write_synsets(
            tmp_path / "s.jsonl",
            [{"topic": "Mycology", "terms": ["fungology", "FUNGOLOGY"]}],
        )
        loaded = load_synsets(path)
        assert loaded["Mycology"] == ("Mycology", "fungology")


class TestSynsetRank:
    def test_synonym_reaches_articles_the_name_misses(self, fungi_corpus, fungi_index):
        name_only = synset_rank(make_synset("Mycology", []), fungi_index, TOP_10)
        with_synonym = synset_rank(
            make_synset("Mycology", ["fungology"]), fungi_index, TOP_10
        )
        assert "a2" not in ids(name_only)
        assert "a2" in ids(with_synonym)
        assert set(ids(name_only)) <= set(ids(with_synonym))

    def test_origin_and_ordering(self, fungi_index):
        ranked = synset_rank(
            make_synset("Mycology", ["fungology"]), fungi_index, TOP_10
        )
        _, scores = ranked
        assert scores == sorted(scores, reverse=True)

    def test_single_term_equals_phrase_search(self, fungi_index):
        ranked = synset_rank(make_synset("Mycology", []), fungi_index, TOP_10)
        direct = search_any(fungi_index, ["Mycology"], ("title", "abstract"), 10)
        assert ranked == direct

    def test_multiword_term_is_a_phrase(self):
        corpus = make_corpus(
            [
                ("c1", "Fungal biology overview", "Text."),
                ("c2", "Biology of a fungal agent", "Words in the wrong order."),
            ]
        )
        index = build_index(corpus)
        synset = make_synset("Fungal biology", [])
        assert ids(synset_rank(synset, index, TOP_10)) == ["c1"]

    def test_search_fields_default_excludes_keywords(self, fungi_corpus, fungi_index):
        # a4 carries "mycological methods" only as a keyword; a topic named
        # after it is found only when keywords are searched explicitly.
        synset = make_synset("Mycological methods", [])
        default = synset_rank(synset, fungi_index, TOP_10)
        with_keywords = synset_rank(
            synset, fungi_index, SynsetConfig(("title", "abstract", "keywords"), limit=10)
        )
        assert ids(default) == []
        assert ids(with_keywords) == ["a4"]

    def test_limit_truncates(self, fungi_index):
        synset = make_synset("Mycology", ["fungology"])
        full = synset_rank(synset, fungi_index, TOP_10)
        top_2 = synset_rank(synset, fungi_index, SynsetConfig(limit=2))
        assert top_2 == (full[0][:2], full[1][:2])

    def test_untokenizable_synset_raises(self, fungi_index):
        # RunConfig rejects such a topic; the search itself matches nothing.
        assert synset_rank(make_synset("...", []), fungi_index, TOP_10) == ([], [])
