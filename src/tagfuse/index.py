"""Positional inverted index with BM25 ranking over metadata fields.

Each field is indexed separately and keeps its own collection statistics,
so a match in a short title weighs more than the same match buried in an
abstract. Multi-valued fields (keywords, subjects, extra categories) leave
a one-position gap between entries, which stops phrases from matching
across entry boundaries.
"""

from __future__ import annotations

import logging
import pickle
from dataclasses import dataclass

from .corpus import CORE_LIST_FIELDS, TEXT_FIELDS, Corpus
from .errors import ConfigError, CorpusError
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


@dataclass(frozen=True)
class SearchHit:
    article_id: str
    score: float


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

    def _idf(self, field: "_FieldIndex", term: str) -> float:
        import math

        df = len(field.postings.get(term, ()))
        n = len(self.article_ids)
        # Lucene-style BM25 idf; non-negative even for df > n/2.
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _term_scores(self, field: "_FieldIndex", term: str) -> dict[int, float]:
        postings = field.postings.get(term)
        if not postings:
            return {}
        idf = self._idf(field, term)
        avgdl = field.avg_length()
        scores: dict[int, float] = {}
        for ordinal, positions in postings.items():
            tf = len(positions)
            if avgdl > 0:
                norm = 1.0 - BM25_B + BM25_B * field.doc_length[ordinal] / avgdl
            else:
                norm = 1.0
            scores[ordinal] = idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        return scores

    def _phrase_ordinals(self, field: "_FieldIndex", tokens: list[str]) -> set[int]:
        """Ordinals whose field contains the tokens as a contiguous run."""
        first = field.postings.get(tokens[0])
        if first is None:
            return set()
        if len(tokens) == 1:
            return set(first)
        rest = []
        for tok in tokens[1:]:
            postings = field.postings.get(tok)
            if postings is None:
                return set()
            rest.append(postings)
        candidates = set(first)
        for postings in rest:
            candidates &= postings.keys()
        matched: set[int] = set()
        for ordinal in candidates:
            later = [set(p[ordinal]) for p in rest]
            for start in first[ordinal]:
                if all(start + k + 1 in later[k] for k in range(len(later))):
                    matched.add(ordinal)
                    break
        return matched

    def _phrase_scores(self, phrase: str, fields: tuple[str, ...]) -> dict[int, float]:
        """Summed per-field BM25 scores of the phrase's terms, on docs
        where the whole phrase occurs in that field."""
        tokens = tokenize(phrase)
        self._check_fields(fields)
        combined: dict[int, float] = {}
        for name in fields:
            field = self._fields[name]
            matched = self._phrase_ordinals(field, tokens)
            if not matched:
                continue
            per_term = [self._term_scores(field, t) for t in tokens]
            for ordinal in matched:
                s = sum(scores[ordinal] for scores in per_term)
                combined[ordinal] = combined.get(ordinal, 0.0) + s
        return combined

    def _check_fields(self, fields: tuple[str, ...]) -> None:
        if not fields:
            raise ValueError("no fields given")
        unknown = [f for f in fields if f not in self._fields]
        if unknown:
            raise ValueError(f"fields not in index: {unknown} (have {list(self.fields)})")

    def _to_hits(self, scores: dict[int, float], limit: int) -> list[SearchHit]:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        ranked = sorted(
            scores.items(), key=lambda kv: (-kv[1], self.article_ids[kv[0]])
        )
        return [
            SearchHit(self.article_ids[o], s) for o, s in ranked[:limit]
        ]

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
            payload = pickle.load(fh)
        if payload.get("format") != _PICKLE_FORMAT:
            raise CorpusError(f"{path} is not a serialized index")
        if payload.get("version") != _PICKLE_VERSION:
            raise CorpusError(
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


def build_index(corpus: Corpus, config: IndexConfig = IndexConfig()) -> Index:
    """Index the corpus over the configured fields."""
    known = default_fields(corpus)
    fields = known if config.fields is None else config.fields
    unknown = [f for f in fields if f not in known]
    if unknown:
        raise ConfigError(f"index.fields names fields not present in the corpus: {unknown}")
    index = Index.build(corpus, tuple(fields))
    logger.info(
        "indexed %d article(s) over fields %s", len(index), ", ".join(fields)
    )
    return index


def search_any(
    index: Index, terms: list[str], fields: tuple[str, ...], limit: int
) -> list[SearchHit]:
    """OR-query over phrases: articles matching at least one term.

    Each term is itself matched as a phrase, scored on each field where
    the phrase occurs by the sum of its terms' BM25 scores; article
    scores add up over fields and terms. Ties break by article id.
    """
    useful = [t for t in terms if tokenize(t)]
    if not useful:
        raise ValueError("no usable query terms")
    combined: dict[int, float] = {}
    for term in useful:
        for ordinal, score in index._phrase_scores(term, fields).items():
            combined[ordinal] = combined.get(ordinal, 0.0) + score
    return index._to_hits(combined, limit)


def has_any_match(
    index: Index, terms: list[str], fields: tuple[str, ...]
) -> set[str]:
    """Ids of articles where at least one term occurs as a phrase."""
    useful = [t for t in terms if tokenize(t)]
    if not useful:
        raise ValueError("no usable query terms")
    index._check_fields(fields)
    matched: set[int] = set()
    for term in useful:
        tokens = tokenize(term)
        for name in fields:
            matched |= index._phrase_ordinals(index._fields[name], tokens)
    return {index.article_ids[o] for o in matched}
