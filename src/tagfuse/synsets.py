"""Synonym-set loading and search.

A synset extends a topic to its surface variants (synonyms, inflections,
frequent misspellings), so the full-text route retrieves articles phrased
in any of them. The synset file is line-delimited JSON:

    {"topic": "Mycology", "terms": ["Mycology", "fungology", ...]}
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import TEXT_FIELDS, read_jsonl, write_jsonl
from .errors import ConfigError, TagfuseError
from .index import Index, search_any
from .ranking import Ranked

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynsetConfig:
    """The ``synset_search`` config section: the fields searched and the
    per-topic result cap."""

    fields: tuple[str, ...] = TEXT_FIELDS
    limit: int = 100_000

    def __post_init__(self):
        if not self.fields:
            raise ConfigError("synset_search.fields must not be empty")
        if self.limit < 1:
            raise ConfigError("synset_search.limit must be positive")


def make_synset(topic: str, terms: list[str]) -> tuple[str, ...]:
    """Normalize a topic's raw terms into its synset: case-insensitive
    dedup, topic name guaranteed.

    The first spelling of each term wins; the topic name is prepended when
    the raw list omits it, so no two terms differ only in case.
    """
    seen: set[str] = set()
    kept: list[str] = []
    for term in terms:
        if not term.strip():
            continue
        key = term.lower()
        if key not in seen:
            seen.add(key)
            kept.append(term)
    if topic.lower() not in seen:
        kept.insert(0, topic)
    return tuple(kept)


def load_synsets(path: str, topics: list[str] | None = None) -> dict[str, tuple[str, ...]]:
    """Read each topic's synset, whose terms are strings; with ``topics``
    given, every topic must be covered."""
    synsets: dict[str, tuple[str, ...]] = {}
    for lineno, raw in read_jsonl(path):
        topic = raw.get("topic")
        terms = raw.get("terms")
        if not isinstance(topic, str) or not isinstance(terms, list) or not all(
            isinstance(t, str) for t in terms
        ):
            raise TagfuseError(f"{path}:{lineno}: expected topic and terms array")
        if topic in synsets:
            raise TagfuseError(f"{path}:{lineno}: duplicate synset for {topic!r}")
        synsets[topic] = make_synset(topic, terms)

    if topics is not None:
        missing = [t for t in topics if t not in synsets]
        if missing:
            raise TagfuseError(f"{path}: no synset for topic(s): {missing}")
    logger.info("%s: loaded %d synset(s)", path, len(synsets))
    return synsets


def save_synsets(synsets: dict[str, tuple[str, ...]], path: str) -> None:
    write_jsonl(({"topic": t, "terms": list(terms)} for t, terms in synsets.items()), path)


def synset_rank(
    terms: tuple[str, ...], index: Index, config: SynsetConfig = SynsetConfig()
) -> Ranked:
    """Rank articles matching any synset term as a phrase, best first.

    Multi-word terms must occur contiguously; an article matching several
    terms accumulates their scores. At most ``config.limit`` articles are
    kept.
    """
    return search_any(index, list(terms), config.fields, config.limit)
