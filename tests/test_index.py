import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagfuse.benchmark import BenchmarkSpec, generate
from tagfuse.errors import ConfigError, TagfuseError
from tagfuse.index import (
    BM25_B,
    BM25_K1,
    Index,
    IndexConfig,
    build_index,
    default_fields,
    has_any_match,
    search_any,
)
from tagfuse.text import tokenize

from conftest import entries, make_corpus


def search(*args):
    """``search_any``'s ranked list as (article id, score) pairs."""
    return entries(search_any(*args))


class TestBuild:
    def test_default_fields_cover_core_and_extra(self, fungi_corpus):
        assert default_fields(fungi_corpus) == (
            "title", "abstract", "keywords", "subjects",
        )

    def test_unknown_field_raises(self, fungi_corpus):
        with pytest.raises(ConfigError, match="wrong"):
            build_index(fungi_corpus, IndexConfig(("title", "wrong")))

    def test_duplicate_fields_raise(self):
        with pytest.raises(ConfigError, match="duplicate"):
            IndexConfig(("title", "title"))

    def test_save_load_round_trip(self, tmp_path, fungi_corpus, fungi_index):
        path = tmp_path / "index.pkl"
        fungi_index.save(str(path))
        loaded = Index.load(str(path))
        original = search(fungi_index, ["mycology"], ("title",), 10)
        again = search(loaded, ["mycology"], ("title",), 10)
        assert original == again


def saved(index, tmp_path):
    """``index`` saved under ``tmp_path``, and the file's path."""
    path = tmp_path / "index.pkl"
    index.save(str(path))
    return path


def with_version(data, version):
    """The saved bytes with the header's version replaced by a one-digit one."""
    n = int.from_bytes(data[:8], "little")
    header = data[8 : 8 + n].replace(b'"version": 2', f'"version": {version}'.encode())
    assert len(header) == n
    return data[:8] + header + data[8 + n :]


class TestSavedFormat:
    def test_reloaded_index_answers_every_query_alike(self, tmp_path, fungi_corpus):
        spec = BenchmarkSpec(n_topics=4, docs_per_topic=60, vocab_per_topic=8,
                             background_vocab_size=150, doc_length=30, seed=3)
        bench, _, synsets = generate(spec)
        bench_queries = [list(s) for s in synsets.values()]
        bench_queries += [[t] for s in synsets.values() for t in s]
        fungi_queries = [["mycology"], ["fungology", "graft"], ["machine learning"],
                         ["mycological methods"], ["Botany"]]
        # An extra category field, so that every kind of field is saved.
        fungi = [replace(rec, extra={"categories:wos": ("Botany", rec.title)})
                 for rec in fungi_corpus]
        for corpus, queries in ((bench, bench_queries), (fungi, fungi_queries)):
            built = build_index(corpus)
            loaded = Index.load(str(saved(built, tmp_path)))
            assert (loaded.fields, loaded.article_ids) == (built.fields, built.article_ids)
            for name in built.fields:
                for terms in queries:
                    args = (terms, (name,))
                    hits = search(built, *args, len(corpus))
                    assert search(loaded, *args, len(corpus)) == hits
                    assert has_any_match(loaded, *args) == has_any_match(built, *args)
        assert "categories:wos" in built.fields and hits

    def test_same_index_same_bytes(self, tmp_path, fungi_corpus):
        first = saved(build_index(fungi_corpus), tmp_path).read_bytes()
        assert saved(build_index(fungi_corpus), tmp_path).read_bytes() == first

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda data: pickle.dumps({"format": "tagfuse-index", "version": 1}, protocol=4),
             "not an index saved by this version of tagfuse"),
            (lambda data: data[:-1], "bytes, but its header describes"),
            (lambda data: data + b"\0", "bytes, but its header describes"),
            (lambda data: with_version(data, 3), "index version 3, not 2"),
            (lambda data: data[:5], "not an index saved by this version of tagfuse"),
        ],
        ids=["pickled", "truncated", "padded", "unknown-version", "shorter-than-the-length"],
    )
    def test_damaged_file_is_rejected_naming_it(self, tmp_path, fungi_index, damage, reason):
        path = saved(fungi_index, tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(TagfuseError) as excinfo:
            Index.load(str(path))
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ") and reason in message
        assert message.endswith("; re-run 'tagfuse index'")


class TestPhraseSearch:
    def test_phrase_requires_consecutive_tokens(self):
        corpus = make_corpus(
            [
                ("d1", "information retrieval systems", "x", (), ()),
                ("d2", "retrieval of information", "x", (), ()),
            ]
        )
        index = build_index(corpus, IndexConfig(("title",)))
        hits = search(index, ["information retrieval"], ("title",), 10)
        assert [a for a, _ in hits] == ["d1"]

    def test_phrase_cannot_span_list_entries(self):
        corpus = make_corpus(
            [("d1", "t", "x", ("deep learning", "systems biology"), ())]
        )
        index = build_index(corpus, IndexConfig(("keywords",)))
        assert search(index, ["learning systems"], ("keywords",), 10) == []
        assert len(search(index, ["deep learning"], ("keywords",), 10)) == 1

    def test_match_is_field_restricted(self, fungi_index):
        title_hits = search(fungi_index, ["surgery"], ("title", "abstract"), 10)
        assert title_hits == []
        keyword_hits = search(fungi_index, ["surgery"], ("keywords",), 10)
        assert [a for a, _ in keyword_hits] == ["a3"]

    def test_case_insensitive(self, fungi_index):
        hits = search(fungi_index, ["MYCOLOGY"], ("title",), 10)
        assert {a for a, _ in hits} == {"a1", "a4"}

    def test_limit_truncates(self, fungi_index):
        hits = search(fungi_index, ["mycology"], ("title",), 1)
        assert len(hits) == 1

    def test_empty_query_raises(self, fungi_index):
        # A query with no token matches nothing; it does not raise.
        assert search(fungi_index, ["!!!"], ("title",), 10) == []

    def test_scores_positive_and_sorted(self, fungi_index):
        hits = search(fungi_index, ["mycology"], ("title", "abstract"), 10)
        scores = [s for _, s in hits]
        assert all(s > 0 for s in scores)
        assert scores == sorted(scores, reverse=True)


class TestBM25Values:
    def test_single_field_scores_match_hand_formula(self):
        # Three one-field docs; tf of "spore": 2, 1, 0 and lengths 4, 2, 3.
        corpus = make_corpus(
            [
                ("d1", "t1", "spore spore count data", (), ()),
                ("d2", "t2", "spore biology", (), ()),
                ("d3", "t3", "unrelated text here", (), ()),
            ]
        )
        index = build_index(corpus, IndexConfig(("abstract",)))
        hits = search(index, ["spore"], ("abstract",), 10)

        n, df = 3, 2
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        avgdl = (4 + 2 + 3) / 3

        def bm25(tf, dl):
            return idf * tf * (BM25_K1 + 1) / (
                tf + BM25_K1 * (1 - BM25_B + BM25_B * dl / avgdl)
            )

        expected = {"d1": bm25(2, 4), "d2": bm25(1, 2)}
        assert {a for a, _ in hits} == set(expected)
        for article_id, score in hits:
            assert score == pytest.approx(expected[article_id], abs=1e-12)

    def test_phrase_score_sums_member_term_scores(self):
        corpus = make_corpus(
            [
                ("d1", "t", "alpha beta gamma", (), ()),
                ("d2", "t", "beta alpha gamma", (), ()),
            ]
        )
        index = build_index(corpus, IndexConfig(("abstract",)))
        phrase = search(index, ["alpha beta"], ("abstract",), 10)
        assert [a for a, _ in phrase] == ["d1"]
        alpha = search(index, ["alpha"], ("abstract",), 10)
        beta = search(index, ["beta"], ("abstract",), 10)
        parts = dict(alpha)
        for article_id, score in beta:
            parts[article_id] += score
        assert phrase[0][1] == pytest.approx(parts["d1"], abs=1e-12)

    def test_tie_breaks_by_article_id(self):
        corpus = make_corpus(
            [
                ("z9", "same words", "x", (), ()),
                ("a1", "same words", "x", (), ()),
            ]
        )
        index = build_index(corpus, IndexConfig(("title",)))
        hits = search(index, ["same words"], ("title",), 10)
        assert [a for a, _ in hits] == ["a1", "z9"]
        assert hits[0][1] == hits[1][1]


class TestSearchAny:
    def test_union_semantics_with_score_accumulation(self, fungi_index):
        fields = ("title", "abstract")
        both = search(fungi_index, ["mycology", "fungology"], fields, 10)
        ids = {a for a, _ in both}
        assert ids == {"a1", "a2", "a4"}
        only_fungology = dict(search(fungi_index, ["fungology"], fields, 10))
        only_mycology = dict(search(fungi_index, ["mycology"], fields, 10))
        for article_id, score in both:
            expected = only_mycology.get(article_id, 0.0) + only_fungology.get(
                article_id, 0.0
            )
            assert score == pytest.approx(expected, abs=1e-12)

    def test_unusable_terms_are_skipped_but_all_unusable_raises(self, fungi_index):
        hits = search(fungi_index, ["mycology", "..."], ("title",), 10)
        assert {a for a, _ in hits} == {"a1", "a4"}
        assert search(fungi_index, ["...", ""], ("title",), 10) == []


class TestHasAnyMatch:
    def test_subject_only_mention_is_found_when_field_included(self, fungi_index):
        no_subjects = has_any_match(
            fungi_index, ["Transplantation"], ("title", "abstract")
        )
        assert no_subjects == {"a3", "a4"}
        with_subjects = has_any_match(
            fungi_index, ["Transplantation"], ("title", "abstract", "subjects")
        )
        assert with_subjects == {"a3", "a4"}
        keywords_only = has_any_match(fungi_index, ["machine learning"], ("keywords",))
        assert keywords_only == {"a5"}

    def test_prefix_of_word_does_not_match(self, fungi_index):
        # a4 has keyword "mycological methods": not a hit for "mycology".
        assert "a4" not in has_any_match(fungi_index, ["mycology"], ("keywords",))

    def test_empty_phrase_never_matches(self, fungi_index):
        fields = ("title", "abstract")
        expected = has_any_match(fungi_index, ["fungology"], fields)
        assert has_any_match(fungi_index, ["", "...", "fungology"], fields) == expected
        assert has_any_match(fungi_index, ["", "—"], fields) == set()


def per_term_then_total(index, terms, fields):
    """Article scores summed in search's order: a term's fields first,
    then that term's total into the article's score."""
    scores = {}
    for term in terms:
        tokens = tokenize(term)
        if not tokens:
            continue
        term_total = {}
        for name in fields:
            field = index._fields[name]
            matched = index._phrase_ordinals(field, tokens)
            if not matched:
                continue
            per_term = [index._term_scores(field, t) for t in tokens]
            for ordinal in matched:
                s = sum(scores_of[ordinal] for scores_of in per_term)
                term_total[ordinal] = term_total.get(ordinal, 0.0) + s
        for ordinal, s in term_total.items():
            scores[ordinal] = scores.get(ordinal, 0.0) + s
    return {index.article_ids[o]: s for o, s in scores.items()}


class TestSummationOrder:
    def test_scores_equal_the_per_term_then_total_sum(self):
        # Synset terms occur in title, abstract and keywords; the topic
        # name also in subjects. Scores are compared exactly.
        spec = BenchmarkSpec(n_topics=4, docs_per_topic=60, vocab_per_topic=8,
                             background_vocab_size=150, doc_length=30, seed=3)
        corpus, _, synsets = generate(spec)
        index = build_index(corpus)
        fields = ("title", "abstract", "keywords", "subjects")
        for synset in synsets.values():
            hits = search(index, list(synset), fields, len(corpus))
            assert dict(hits) == per_term_then_total(index, synset, fields)


class TestDeterminism:
    def test_rebuild_gives_identical_results(self, fungi_corpus):
        first = build_index(fungi_corpus)
        second = build_index(fungi_corpus)
        q = ["mycology", "graft", "learning"]
        fields = ("title", "abstract", "keywords")
        assert search(first, q, fields, 50) == search(second, q, fields, 50)


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(
        st.lists(
            st.sampled_from(["alpha", "beta", "gamma", "delta", "nu"]),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=8,
    ),
    term=st.sampled_from(["alpha", "beta", "gamma"]),
)
def test_property_search_any_singleton_matches_phrase(docs, term):
    corpus = make_corpus(
        [(f"d{i}", "t", " ".join(words), (), ()) for i, words in enumerate(docs)]
    )
    index = build_index(corpus, IndexConfig(("abstract",)))
    hits = search(index, [term], ("abstract",), 100)
    matched = {a for a, _ in hits}
    expected = {f"d{i}" for i, words in enumerate(docs) if term in words}
    assert matched == expected
