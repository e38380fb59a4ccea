"""Ranked article lists, the common currency between pipeline stages.

A classifier or synset list is ordered by descending score (higher is
better); a fusion list is ordered by ascending combined rank (lower is
better). Either way rank 1 is the best article and ties are already
resolved: entry order is authoritative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

ORIGIN_CLASSIFIER = "classifier"
ORIGIN_SYNSET = "synset"
ORIGIN_FUSION = "fusion"

_ORIGINS = (ORIGIN_CLASSIFIER, ORIGIN_SYNSET, ORIGIN_FUSION)


@dataclass
class RankedList:
    """Per-topic ranking: entries are (article_id, score), best first."""

    topic: str
    origin: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self):
        if self.origin not in _ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        ids = self.ids()
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            first = next(a for a in ids if a in seen or seen.add(a))
            raise ValueError(
                f"duplicate article {first!r} in {self.origin} list "
                f"for topic {self.topic!r}"
            )
        scores = [s for _, s in self.entries]
        descending = self.origin in (ORIGIN_CLASSIFIER, ORIGIN_SYNSET)
        # Equal neighbours, and a NaN next to anything, are in order.
        out_of_order = operator.lt if descending else operator.gt
        if any(map(out_of_order, scores, scores[1:])):
            raise ValueError(
                f"{self.origin} list for topic {self.topic!r} is not "
                f"ordered ({'desc' if descending else 'asc'} expected)"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [article_id for article_id, _ in self.entries]

    def ranks(self) -> dict[str, int]:
        """Article id to 1-based rank."""
        return dict(zip(self.ids(), range(1, len(self.entries) + 1)))


def write_ranked_list(ranked: RankedList, path: str) -> None:
    """Serialize as tab-separated ``rank  article_id  score`` rows.

    The first line is a header comment naming the topic and origin. Scores
    are written with ``repr`` so they round-trip exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# topic={ranked.topic}\torigin={ranked.origin}\n")
        for rank, (article_id, score) in enumerate(ranked.entries, start=1):
            fh.write(f"{rank}\t{article_id}\t{score!r}\n")


def read_ranked_list(path: str) -> RankedList:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("# topic="):
            raise ValueError(f"{path}: missing ranked-list header")
        topic_part, _, origin_part = header[2:].partition("\t")
        topic = topic_part[len("topic="):]
        if not origin_part.startswith("origin="):
            raise ValueError(f"{path}: malformed ranked-list header")
        origin = origin_part[len("origin="):]
        entries: list[tuple[str, float]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns")
            rank, article_id, score = parts
            if int(rank) != len(entries) + 1:
                raise ValueError(f"{path}:{lineno}: rank out of sequence")
            entries.append((article_id, float(score)))
    return RankedList(topic=topic, origin=origin, entries=entries)
