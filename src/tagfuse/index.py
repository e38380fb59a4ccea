"""Positional inverted index with BM25 ranking over metadata fields.

Each field is indexed separately and keeps its own collection statistics,
so a match in a short title weighs more than the same match buried in an
abstract. Multi-valued fields (keywords, subjects, extra categories) leave
a one-position gap between entries, which stops phrases from matching
across entry boundaries. That one phrase match decides synset-search hits,
the classifier's training sets and labels derived from category fields.
"""

from __future__ import annotations

import logging
import math
import pickle
from dataclasses import dataclass

from .corpus import CORE_LIST_FIELDS, TEXT_FIELDS, Corpus, GroundTruth
from .errors import ConfigError, TagfuseError
from .text import tokenize

logger = logging.getLogger(__name__)

# Okapi BM25 constants: k1 controls term-frequency saturation, b the
# document-length normalization.
BM25_K1 = 1.2
BM25_B = 0.75

_PICKLE_FORMAT = "tagfuse-index"
_PICKLE_VERSION = 1


@dataclass(frozen=True)
class IndexConfig:
    """The ``index`` config section: the fields to index, ``None`` for
    every text field of the corpus."""

    fields: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.fields is not None:
            if not self.fields:
                raise ConfigError("index.fields must not be empty")
            if len(set(self.fields)) != len(self.fields):
                raise ConfigError(f"index.fields has duplicate names: {list(self.fields)}")


class _FieldIndex:
    """Postings, document lengths, and frequency statistics for one field."""

    __slots__ = ("postings", "doc_length", "total_length")

    def __init__(self, n_docs: int):
        # term -> {doc ordinal -> tuple of token positions}
        self.postings: dict[str, dict[int, tuple[int, ...]]] = {}
        self.doc_length = [0] * n_docs
        self.total_length = 0

    def add(self, ordinal: int, entries: tuple[str, ...]) -> None:
        pos = 0
        by_term: dict[str, list[int]] = {}
        for entry in entries:
            tokens = tokenize(entry)
            for tok in tokens:
                by_term.setdefault(tok, []).append(pos)
                pos += 1
            pos += 1  # gap: no phrase can span two entries
        length = sum(len(ps) for ps in by_term.values())
        self.doc_length[ordinal] = length
        self.total_length += length
        for term, positions in by_term.items():
            self.postings.setdefault(term, {})[ordinal] = tuple(positions)

    def avg_length(self) -> float:
        n = len(self.doc_length)
        return self.total_length / n if n else 0.0


class Index:
    """Inverted index over a fixed corpus snapshot."""

    def __init__(self, fields: tuple[str, ...], article_ids: list[str]):
        self.fields = fields
        self.article_ids = article_ids
        self._fields: dict[str, _FieldIndex] = {
            name: _FieldIndex(len(article_ids)) for name in fields
        }

    def __len__(self) -> int:
        return len(self.article_ids)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, corpus: Corpus, fields: tuple[str, ...]) -> "Index":
        index = cls(fields, corpus.ids())
        for ordinal, rec in enumerate(corpus):
            for name in fields:
                index._fields[name].add(ordinal, rec.field_values(name))
        return index

    # -- scoring --------------------------------------------------------

    def _term_scores(self, field: "_FieldIndex", term: str) -> dict[int, float]:
        """BM25 scores of a term present in the field (so avgdl > 0)."""
        postings = field.postings[term]
        df = len(postings)
        n = len(self.article_ids)
        # Lucene-style BM25 idf; non-negative even for df > n/2.
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        avgdl = field.avg_length()
        scores: dict[int, float] = {}
        for ordinal, positions in postings.items():
            tf = len(positions)
            norm = 1.0 - BM25_B + BM25_B * field.doc_length[ordinal] / avgdl
            scores[ordinal] = idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        return scores

    def _phrase_ordinals(self, field: "_FieldIndex", tokens: list[str]) -> set[int]:
        """Ordinals whose field contains the tokens as a contiguous run."""
        first, *rest = [field.postings.get(tok, {}) for tok in tokens]
        if not rest:
            return set(first)
        matched: set[int] = set()
        for ordinal in set(first).intersection(*rest):
            later = [set(p[ordinal]) for p in rest]
            for start in first[ordinal]:
                if all(start + k + 1 in later[k] for k in range(len(later))):
                    matched.add(ordinal)
                    break
        return matched

    # -- persistence ------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "format": _PICKLE_FORMAT,
            "version": _PICKLE_VERSION,
            "fields": self.fields,
            "article_ids": self.article_ids,
            "field_data": {
                name: (fi.postings, fi.doc_length, fi.total_length)
                for name, fi in self._fields.items()
            },
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=4)

    @classmethod
    def load(cls, path: str) -> "Index":
        with open(path, "rb") as fh:
            try:
                payload = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise TagfuseError(f"{path}: truncated or corrupt index ({exc})") from exc
        if not isinstance(payload, dict) or payload.get("format") != _PICKLE_FORMAT:
            raise TagfuseError(f"{path} is not a serialized index")
        if payload.get("version") != _PICKLE_VERSION:
            raise TagfuseError(
                f"{path}: index version {payload.get('version')} not supported"
            )
        index = cls(tuple(payload["fields"]), list(payload["article_ids"]))
        for name, (postings, doc_length, total_length) in payload["field_data"].items():
            fi = index._fields[name]
            fi.postings = postings
            fi.doc_length = doc_length
            fi.total_length = total_length
        return index


def default_fields(corpus: Corpus) -> tuple[str, ...]:
    """All text fields present in the corpus, core fields first."""
    return (*TEXT_FIELDS, *CORE_LIST_FIELDS, *corpus.extra_field_names())


def check_corpus_fields(corpus: Corpus, fields, key: str) -> None:
    """Raise :class:`ConfigError` naming the config ``key`` when ``fields``
    lists a field the corpus does not have."""
    known = default_fields(corpus)
    unknown = [f for f in fields if f not in known]
    if unknown:
        raise ConfigError(
            f"{key} names fields not present in the corpus: {unknown} "
            f"(corpus fields: {list(known)})"
        )


def build_index(corpus: Corpus, config: IndexConfig = IndexConfig()) -> Index:
    """Index the corpus over the configured fields."""
    fields = default_fields(corpus) if config.fields is None else config.fields
    check_corpus_fields(corpus, fields, "index.fields")
    index = Index.build(corpus, tuple(fields))
    logger.info(
        "indexed %d article(s) over fields %s", len(index), ", ".join(fields)
    )
    return index


def _query(index: Index, terms: list[str], fields: tuple[str, ...]) -> list[list[str]]:
    """Tokenize the terms, dropping empty ones, and check the fields are indexed."""
    phrases = [tokens for tokens in map(tokenize, terms) if tokens]
    if not phrases:
        raise ValueError("no usable query terms")
    unknown = [f for f in fields if f not in index._fields]
    if unknown:
        raise ValueError(f"fields not in index: {unknown} (have {list(index.fields)})")
    return phrases


def search_any(
    index: Index, terms: list[str], fields: tuple[str, ...], limit: int
) -> list[tuple[str, float]]:
    """OR-query over phrases: ``(article_id, score)`` pairs of the articles
    matching at least one term, best first, at most ``limit`` of them.

    Each term is itself matched as a phrase, scored on each field where
    the phrase occurs by the sum of its terms' BM25 scores; article
    scores add up over fields and terms. Ties break by article id.
    """
    combined: dict[int, float] = {}
    for tokens in _query(index, terms, fields):
        # A term's fields are summed before the term joins the article's score.
        phrase: dict[int, float] = {}
        for name in fields:
            field = index._fields[name]
            matched = index._phrase_ordinals(field, tokens)
            if not matched:
                continue
            per_term = [index._term_scores(field, t) for t in tokens]
            for ordinal in matched:
                s = sum(scores[ordinal] for scores in per_term)
                phrase[ordinal] = phrase.get(ordinal, 0.0) + s
        for ordinal, score in phrase.items():
            combined[ordinal] = combined.get(ordinal, 0.0) + score
    ranked = sorted(combined.items(), key=lambda kv: (-kv[1], index.article_ids[kv[0]]))
    return [(index.article_ids[o], s) for o, s in ranked[:limit]]


def has_any_match(
    index: Index, terms: list[str], fields: tuple[str, ...]
) -> set[str]:
    """Ids of articles where at least one term occurs as a phrase."""
    matched: set[int] = set()
    for tokens in _query(index, terms, fields):
        for name in fields:
            matched |= index._phrase_ordinals(index._fields[name], tokens)
    return {index.article_ids[o] for o in matched}


def build_ground_truth(
    corpus: Corpus,
    topics: list[str],
    fields: tuple[str, ...] = CORE_LIST_FIELDS,
) -> GroundTruth:
    """Derive labels from category fields by whole-phrase topic matching.

    A topic labels an article when the topic's token sequence occurs
    contiguously in some entry of a selected field, case-insensitively:
    the phrase match of synset search, on an index of those fields.
    Matching runs on tokens, not raw substrings, so "mycological methods"
    does not label the topic "Mycology". Articles matching no topic are
    left out.
    """
    index = Index.build(corpus, fields)
    labels: dict[str, set[str]] = {}
    for topic in topics:
        for article_id in has_any_match(index, [topic], fields):
            labels.setdefault(article_id, set()).add(topic)
    return GroundTruth(labels)
