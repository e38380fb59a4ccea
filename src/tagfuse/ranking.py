"""Ranked article lists, the common currency between pipeline stages.

A classifier or synset list is ordered by descending score (higher is
better); a fusion list is ordered by ascending combined rank (lower is
better). Either way rank 1 is the best article and ties are already
resolved: entry order is authoritative.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from .errors import TagfuseError

ORIGIN_CLASSIFIER = "classifier"
ORIGIN_SYNSET = "synset"
ORIGIN_FUSION = "fusion"

_ORIGINS = (ORIGIN_CLASSIFIER, ORIGIN_SYNSET, ORIGIN_FUSION)


class EntryError(ValueError):
    """A ranked list fails a check at entry ``position``, counted from 0."""

    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


@dataclass
class RankedList:
    """Per-topic ranking: entries are (article_id, score), best first."""

    topic: str
    origin: str
    entries: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self):
        ids = self.ids()
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            at = next(i for i, a in enumerate(ids) if a in seen or seen.add(a))
            raise EntryError(
                at,
                f"duplicate article {ids[at]!r} in {self.origin} list "
                f"for topic {self.topic!r}",
            )
        scores = [s for _, s in self.entries]
        descending = self.origin in (ORIGIN_CLASSIFIER, ORIGIN_SYNSET)
        # Equal neighbours, and a NaN next to anything, are in order.
        out_of_order = operator.lt if descending else operator.gt
        if any(map(out_of_order, scores, scores[1:])):
            faults = list(map(out_of_order, scores, scores[1:]))
            raise EntryError(
                faults.index(True) + 1,
                f"{self.origin} list for topic {self.topic!r} is not "
                f"ordered ({'desc' if descending else 'asc'} expected)",
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
    """Read a ``write_ranked_list`` file; a malformed line raises TagfuseError."""
    linenos = [1]  # the header's, then each entry's
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if not header.startswith("# topic="):
                raise ValueError("missing ranked-list header")
            topic_part, _, origin_part = header[2:].partition("\t")
            topic = topic_part[len("topic="):]
            origin = origin_part[len("origin="):]
            if not origin_part.startswith("origin=") or origin not in _ORIGINS:
                raise ValueError("malformed ranked-list header")
            entries: list[tuple[str, float]] = []
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                linenos.append(lineno)
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError("expected 3 columns")
                rank, article_id, score = parts
                if int(rank) != len(entries) + 1:
                    raise ValueError("rank out of sequence")
                entries.append((article_id, float(score)))
            return RankedList(topic=topic, origin=origin, entries=entries)
    except EntryError as exc:
        raise TagfuseError(f"{path}:{linenos[exc.position + 1]}: {exc}") from exc
    except ValueError as exc:  # names the line being read
        raise TagfuseError(f"{path}:{linenos[-1]}: {exc}") from exc
