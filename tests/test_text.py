import re

from hypothesis import given
from hypothesis import strategies as st

from tagfuse.index import build_index, has_any_match
from tagfuse.text import tokenize

from conftest import make_corpus


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Deep-Learning, for (Proteins)!") == [
            "deep", "learning", "for", "proteins",
        ]

    def test_digits_are_kept(self):
        assert tokenize("covid19 in 2020") == ["covid19", "in", "2020"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_unicode_words(self):
        assert tokenize("Ärzte für Müll") == ["ärzte", "für", "müll"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("--- !!! ---") == []


class TestContainsPhrase:
    """Phrase matching runs on whole tokens; the index holds the matcher."""

    def test_word_prefix_does_not_match(self):
        corpus = make_corpus(
            [("b1", "mycological methods", "x"), ("b2", "mycology methods", "x")]
        )
        index = build_index(corpus)
        assert has_any_match(index, ["mycology"], ("title",)) == {"b2"}


@given(st.text(max_size=200))
def test_tokens_are_lowercase_alphanumeric(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token.isalnum()


@given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "x9"]), max_size=12))
def test_tokenize_of_joined_tokens_round_trips(tokens):
    assert tokenize(" ".join(tokens)) == tokens


@given(st.text(max_size=200))
def test_matches_per_match_lowercasing(text):
    # Equal to lowercasing each regex match object's text in turn.
    assert tokenize(text) == [m.group().lower() for m in re.finditer(r"[^\W_]+", text)]
