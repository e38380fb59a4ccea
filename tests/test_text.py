import re

from hypothesis import given
from hypothesis import strategies as st

from tagfuse.text import contains_phrase, tokenize


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
    def test_contiguous_run_matches(self):
        tokens = ["history", "of", "mycology"]
        assert contains_phrase(tokens, ["mycology"])
        assert contains_phrase(tokens, ["of", "mycology"])
        assert contains_phrase(tokens, tokens)

    def test_gap_or_reorder_does_not_match(self):
        tokens = ["history", "of", "mycology"]
        assert not contains_phrase(tokens, ["history", "mycology"])
        assert not contains_phrase(tokens, ["mycology", "of"])

    def test_word_prefix_does_not_match(self):
        assert not contains_phrase(["mycological", "methods"], ["mycology"])

    def test_empty_phrase_never_matches(self):
        assert not contains_phrase(["a"], [])


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
