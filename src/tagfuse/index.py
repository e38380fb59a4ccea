"""Positional inverted index with BM25 ranking over metadata fields.

Each field is indexed separately and keeps its own collection statistics,
so a match in a short title weighs more than the same match buried in an
abstract. Multi-valued fields (keywords, subjects, extra categories) leave
a one-position gap between entries, which stops phrases from matching
across entry boundaries. That one phrase match decides synset-search hits,
the classifier's training sets and labels derived from category fields.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .corpus import CORE_LIST_FIELDS, TEXT_FIELDS, ArticleRecord
from .errors import ConfigError, TagfuseError
from .text import tokenize

logger = logging.getLogger(__name__)

# Okapi BM25 constants: k1 controls term-frequency saturation, b the
# document-length normalization.
BM25_K1 = 1.2
BM25_B = 0.75

_FORMAT = "tagfuse-index"
_VERSION = 2
# A field's arrays in file order, with their typecodes; the version fixes them.
_ARRAYS = (("term_ptr", "q"), ("docs", "i"), ("pos_ptr", "q"), ("positions", "i"),
           ("doc_length", "i"))


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
    """Postings of one field in flat arrays. ``terms`` is sorted; term
    ``t``'s postings are ``docs[term_ptr[t]:term_ptr[t + 1]]``, ascending
    document ordinals, and posting ``p``'s token positions are
    ``positions[pos_ptr[p]:pos_ptr[p + 1]]``; ``doc_length`` counts each
    document's tokens."""

    def __init__(self, terms: list[str], *arrays: array):
        self.terms = terms
        self.term_ptr, self.docs, self.pos_ptr, self.positions, self.doc_length = arrays
        self._postings: dict[str, dict[int, array]] = {}

    @classmethod
    def build(cls, entries_of_docs) -> "_FieldIndex":
        """Index each document's entries, leaving a one-position gap after
        each entry so that no phrase spans two of them."""
        # term -> (each posting's document ordinal and position count, positions)
        found: dict[str, tuple[array, array]] = {}
        doc_length = array("i")
        for ordinal, entries in enumerate(entries_of_docs):
            pos = 0
            by_term: dict[str, list[int]] = {}
            for entry in entries:
                tokens = tokenize(entry)
                for p, tok in enumerate(tokens, pos):
                    by_term.setdefault(tok, []).append(p)
                pos += len(tokens) + 1  # one position of gap
            doc_length.append(pos - len(entries))
            for term, positions in by_term.items():
                if term not in found:
                    found[term] = (array("i"), array("i"))
                postings, flat = found[term]
                postings.extend((ordinal, len(positions)))
                flat.extend(positions)
        terms = sorted(found)
        term_ptr, docs, counts, positions = array("q", [0]), array("i"), array("i"), array("i")
        for term in terms:
            postings, term_positions = found.pop(term)
            docs += postings[::2]
            counts += postings[1::2]
            positions += term_positions
            term_ptr.append(len(docs))
        pos_ptr = array("q", accumulate(counts, initial=0))
        return cls(terms, term_ptr, docs, pos_ptr, positions, doc_length)

    def postings(self, term: str) -> dict[int, array]:
        """``{doc ordinal: positions}`` of a term, empty when the field
        lacks it; built from the arrays the first time it is asked for."""
        if term not in self._postings:
            t = bisect_left(self.terms, term)
            if t == len(self.terms) or self.terms[t] != term:
                return {}
            ptr = self.pos_ptr
            self._postings[term] = {
                self.docs[p]: self.positions[ptr[p] : ptr[p + 1]]
                for p in range(self.term_ptr[t], self.term_ptr[t + 1])
            }
        return self._postings[term]


class Index:
    """Inverted index over a fixed corpus snapshot."""

    def __init__(self, article_ids: list[str], fields: dict[str, _FieldIndex]):
        self.article_ids = article_ids
        self.fields = tuple(fields)
        self._fields = fields

    def __len__(self) -> int:
        return len(self.article_ids)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, corpus: list[ArticleRecord], fields: tuple[str, ...]) -> "Index":
        return cls([rec.id for rec in corpus], {
            name: _FieldIndex.build(rec.field_values(name) for rec in corpus)
            for name in fields
        })

    # -- scoring --------------------------------------------------------

    def _term_scores(self, field: "_FieldIndex", term: str) -> dict[int, float]:
        """BM25 scores of a term present in the field (so avgdl > 0)."""
        postings = field.postings(term)
        df = len(postings)
        n = len(self.article_ids)
        # Lucene-style BM25 idf; non-negative even for df > n/2.
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        avgdl = len(field.positions) / n  # every token has one position
        scores: dict[int, float] = {}
        for ordinal, positions in postings.items():
            tf = len(positions)
            norm = 1.0 - BM25_B + BM25_B * field.doc_length[ordinal] / avgdl
            scores[ordinal] = idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        return scores

    def _phrase_ordinals(self, field: "_FieldIndex", tokens: list[str]) -> set[int]:
        """Ordinals whose field contains the tokens as a contiguous run."""
        first, *rest = [field.postings(tok) for tok in tokens]
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
        """Write the header's length as a little-endian u64, the JSON
        header, then each field's arrays in ``_ARRAYS`` order."""
        header = json.dumps({
            "format": _FORMAT,
            "version": _VERSION,
            "byteorder": sys.byteorder,
            "arrays": _ARRAYS,
            "article_ids": self.article_ids,
            "fields": {
                name: {"terms": fi.terms, "counts": [len(getattr(fi, a)) for a, _ in _ARRAYS]}
                for name, fi in self._fields.items()
            },
        }).encode("ascii")
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little") + header)
            for fi in self._fields.values():
                for name, _ in _ARRAYS:
                    getattr(fi, name).tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Index":
        """Read an index that ``save`` wrote. The header is JSON and the
        arrays are plain numbers, so loading runs nothing from the file,
        whose size must be exactly what the header describes."""
        def corrupt(why: str) -> TagfuseError:
            return TagfuseError(f"{path}: {why}; re-run 'tagfuse index'")

        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            n = int.from_bytes(fh.read(8), "little")
            try:
                if n > size - 8:  # read(n) would allocate n bytes first
                    raise ValueError("header longer than the file")
                header = json.loads(fh.read(n))
                if header["format"] != _FORMAT:
                    raise ValueError(f"format {header['format']!r}")
                if header["version"] != _VERSION:
                    raise corrupt(f"index version {header['version']}, not {_VERSION}")
                if header["byteorder"] != sys.byteorder:
                    raise ValueError(f"{header['byteorder']}-endian arrays")
                fields = {name: (f["terms"], f["counts"]) for name, f in header["fields"].items()}
                expected = 8 + n + sum(
                    array(code).itemsize * count
                    for _, counts in fields.values() for (_, code), count in zip(_ARRAYS, counts)
                )
                article_ids = header["article_ids"]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise corrupt(f"not an index saved by this version of tagfuse ({exc})") from exc
            if size != expected:
                raise corrupt(f"{size} bytes, but its header describes {expected}")
            for name, (terms, counts) in fields.items():
                arrays = [array(code) for _, code in _ARRAYS]
                for a, count in zip(arrays, counts):
                    a.fromfile(fh, count)
                fields[name] = _FieldIndex(terms, *arrays)
        return cls(article_ids, fields)


def default_fields(corpus: list[ArticleRecord]) -> tuple[str, ...]:
    """All text fields present in the corpus, core fields first, then the
    extra fields of any record, sorted."""
    return (*TEXT_FIELDS, *CORE_LIST_FIELDS, *sorted({k for rec in corpus for k in rec.extra}))


def check_fields(fields, known, key: str, kind: str) -> None:
    """Raise :class:`ConfigError` naming the config ``key`` when ``fields``
    lists one outside ``known``, the ``kind`` fields ("corpus", "indexed")."""
    unknown = [f for f in fields if f not in known]
    if unknown:
        raise ConfigError(f"{key} names {unknown}, not among the {kind} fields {list(known)}")


def build_index(corpus: list[ArticleRecord], config: IndexConfig = IndexConfig()) -> Index:
    """Index the corpus over the configured fields."""
    known = default_fields(corpus)
    fields = known if config.fields is None else config.fields
    check_fields(fields, known, "index.fields", "corpus")
    index = Index.build(corpus, tuple(fields))
    logger.info(
        "indexed %d article(s) over fields %s", len(index), ", ".join(fields)
    )
    return index


def search_any(
    index: Index, terms: list[str], fields: tuple[str, ...], limit: int
) -> tuple[list[str], list[float]]:
    """OR-query over phrases: the ids and scores of the articles matching
    at least one term, best first, at most ``limit`` of them.

    Each term is itself matched as a phrase, scored on each field where
    the phrase occurs by the sum of its terms' BM25 scores; article
    scores add up over fields and terms. Ties break by article id. The
    fields must be indexed; a term with no token matches nothing.
    """
    combined: dict[int, float] = {}
    for tokens in filter(None, map(tokenize, terms)):
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
    ranked = sorted(combined.items(), key=lambda kv: (-kv[1], index.article_ids[kv[0]]))[:limit]
    return [index.article_ids[o] for o, _ in ranked], [s for _, s in ranked]


def has_any_match(
    index: Index, terms: list[str], fields: tuple[str, ...]
) -> set[str]:
    """Ids of articles where at least one term occurs as a phrase."""
    matched: set[int] = set()
    for tokens in filter(None, map(tokenize, terms)):
        for name in fields:
            matched |= index._phrase_ordinals(index._fields[name], tokens)
    return {index.article_ids[o] for o in matched}


def build_ground_truth(
    index: Index,
    topics: list[str],
    fields: tuple[str, ...] = CORE_LIST_FIELDS,
) -> dict[str, set[str]]:
    """Derive labels from category fields by whole-phrase topic matching.

    A topic labels an article when the topic's token sequence occurs
    contiguously in some entry of a selected field, case-insensitively:
    the phrase match of synset search, which matches each field on its
    own. Matching runs on tokens, not raw substrings, so "mycological
    methods" does not label the topic "Mycology". Returns the label set of
    each article id; articles matching no topic are left out, so no set is
    empty.
    """
    labels: dict[str, set[str]] = {}
    for topic in topics:
        for article_id in has_any_match(index, [topic], fields):
            labels.setdefault(article_id, set()).add(topic)
    return labels
