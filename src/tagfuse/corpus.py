"""Corpus ingestion and ground-truth handling.

A corpus file is UTF-8, line-delimited JSON, one article per line:

    {"id": "...", "title": "...", "abstract": "...",
     "keywords": ["..."], "subjects": ["..."], "categories:wos": ["..."]}

``id``, ``title`` and ``abstract`` are required; ``keywords`` and
``subjects`` are arrays of strings, empty when absent or ``null``. Any
other key whose value is an array of strings is kept as an extra category
field under its own name; other extra keys are ignored.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import TagfuseError

logger = logging.getLogger(__name__)

# Title and abstract: the embedded text, the classifier's positives search
# and the default synonym-set search all read these two fields.
TEXT_FIELDS = ("title", "abstract")
CORE_LIST_FIELDS = ("keywords", "subjects")


@dataclass(frozen=True)
class ArticleRecord:
    """One article's identifier plus its textual metadata."""

    id: str
    title: str
    abstract: str
    keywords: tuple[str, ...] = ()
    subjects: tuple[str, ...] = ()
    extra: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def field_values(self, name: str) -> tuple[str, ...]:
        """Text entries for a named field; scalar fields yield one entry."""
        if name in TEXT_FIELDS:
            return (getattr(self, name),)
        if name in CORE_LIST_FIELDS:
            return getattr(self, name)
        return self.extra.get(name, ())


def _string_list(value) -> tuple[str, ...] | None:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    return None


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each non-blank line of a
    line-delimited JSON file; a line that is not UTF-8 or not a JSON object
    raises :class:`TagfuseError` naming ``path:lineno``."""
    decode = json.JSONDecoder().decode
    # Bytes are decoded line by line, so a decoding error knows its line.
    with open(path, "rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            try:
                line = data.decode("utf-8").strip()
                if not line:
                    continue
                raw = decode(line)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise TagfuseError(f"{path}:{lineno}: invalid record: {exc}") from exc
            if not isinstance(raw, dict):
                raise TagfuseError(f"{path}:{lineno}: record is not an object")
            yield lineno, raw


def write_jsonl(records: Iterable[dict], path: str) -> None:
    """Write each record as one line of UTF-8 JSON, the format ``read_jsonl`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def ingest_corpus(path: str) -> list[ArticleRecord]:
    """Read a line-delimited corpus file.

    Records missing an id, title, or abstract are skipped with a warning
    and counted; they never enter the corpus silently. A syntactically
    broken line is fatal, since it usually means the wrong file, and so
    are a ``keywords`` or ``subjects`` value that is not an array of
    strings and a repeated or unprintable id: the ids of the returned
    records are unique.
    """
    records: list[ArticleRecord] = []
    seen: set[str] = set()
    skipped = 0
    for lineno, raw in read_jsonl(path):
        required = [raw.get(key) for key in ("id", "title", "abstract")]
        if not all(isinstance(v, str) and v.strip() for v in required):
            skipped += 1
            logger.warning(
                "%s:%d: skipping record with missing id/title/abstract", path, lineno
            )
            continue
        article_id, title, abstract = required
        if not article_id.isprintable():  # a tab or line break would split a list's line
            raise TagfuseError(f"{path}:{lineno}: article id {article_id!r} is not printable")
        if article_id in seen:
            raise TagfuseError(f"{path}:{lineno}: duplicate article id {article_id!r}")
        seen.add(article_id)

        core = {}
        for key in CORE_LIST_FIELDS:
            value = raw.get(key)
            core[key] = () if value is None else _string_list(value)
            if core[key] is None:
                raise TagfuseError(f"{path}:{lineno}: {key} is not an array of strings")

        extra: dict[str, tuple[str, ...]] = {}
        for key, value in raw.items():
            if key in ("id", "title", "abstract", *CORE_LIST_FIELDS):
                continue
            values = _string_list(value)
            if values is not None:
                extra[key] = values

        records.append(ArticleRecord(article_id, title, abstract, **core, extra=extra))

    if skipped:
        logger.warning("%s: skipped %d incomplete record(s)", path, skipped)
    logger.info("%s: ingested %d article(s)", path, len(records))
    return records


def save_corpus(corpus: list[ArticleRecord], path: str) -> None:
    """Write the corpus in the same line-delimited format ``ingest_corpus`` reads."""
    write_jsonl(({
        "id": rec.id,
        "title": rec.title,
        "abstract": rec.abstract,
        "keywords": list(rec.keywords),
        "subjects": list(rec.subjects),
        **{name: list(rec.extra[name]) for name in sorted(rec.extra)},
    } for rec in corpus), path)


def load_ground_truth(path: str, topics: list[str] | None = None) -> dict[str, set[str]]:
    """Read the label set of each article id from a line-delimited file of
    ``{"id": ..., "topics": [...]}``.

    An empty topic list is an error, and so, when ``topics`` is given, is
    any label outside that list.
    """
    allowed = set(topics) if topics is not None else None
    labels: dict[str, set[str]] = {}
    for lineno, raw in read_jsonl(path):
        article_id = raw.get("id")
        names = raw.get("topics")
        if not isinstance(article_id, str) or _string_list(names) is None:
            raise TagfuseError(f"{path}:{lineno}: expected id and topics array")
        if article_id in labels:
            raise TagfuseError(f"{path}:{lineno}: duplicate article id {article_id!r}")
        if not names:
            raise TagfuseError(f"{path}:{lineno}: empty topic list for {article_id!r}")
        if allowed is not None:
            unknown = sorted(set(names) - allowed)
            if unknown:
                raise TagfuseError(
                    f"{path}:{lineno}: labels outside the topic list: {unknown}"
                )
        labels[article_id] = set(names)
    return labels


def save_ground_truth(truth: dict[str, set[str]], path: str) -> None:
    """Write labels in the same line-delimited format ``load_ground_truth`` reads."""
    write_jsonl(({"id": a, "topics": sorted(truth[a])} for a in sorted(truth)), path)
