"""Ranked article lists, the common currency between pipeline stages.

A list is its entries, ``(article_id, score)`` pairs best first; only its
file names the topic and origin, in its header. A classifier or synset
list is ordered by descending score (higher is better); a fusion list is
ordered by ascending combined rank (lower is better). Either way rank 1
is the best article and ties are already resolved: entry order is
authoritative. The lists the program builds are in order by
construction; only ``read_ranked_list`` checks a list.
"""

from __future__ import annotations

import operator

from .errors import TagfuseError

ORIGIN_CLASSIFIER = "classifier"
ORIGIN_SYNSET = "synset"
ORIGIN_FUSION = "fusion"

# One topic's list: (article_id, score) pairs, best first.
Entries = list[tuple[str, float]]


def write_ranked_list(entries: Entries, topic: str, origin: str, path: str) -> None:
    """Serialize as tab-separated ``rank  article_id  score`` rows.

    The first line is a header comment naming the topic and origin. Scores
    are written with ``repr`` so they round-trip exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# topic={topic}\torigin={origin}\n")
        for rank, (article_id, score) in enumerate(entries, start=1):
            fh.write(f"{rank}\t{article_id}\t{score!r}\n")


def read_ranked_list(path: str, topic: str, origin: str) -> Entries:
    """Read the entries of the ``write_ranked_list`` file of ``topic``'s
    ``origin`` list; a malformed line raises TagfuseError naming ``path:line``."""
    linenos = [1]  # the header's, then each entry's
    at = None  # the entry at fault, counted from 0, once every line is read
    try:
        with open(path, encoding="utf-8") as fh:
            header = f"# topic={topic}\torigin={origin}"
            if fh.readline().rstrip("\n") != header:
                raise ValueError(f"expected the header {header!r}")
            entries: Entries = []
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
                if not article_id:
                    raise ValueError("empty article id")
                entries.append((article_id, float(score)))
        ids = [article_id for article_id, _ in entries]
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            at = next(i for i, a in enumerate(ids) if a in seen or seen.add(a))
            raise ValueError(f"duplicate article {ids[at]!r}")
        scores = [s for _, s in entries]
        descending = origin != ORIGIN_FUSION
        # Equal neighbours, and a NaN next to anything, are in order.
        out_of_order = operator.lt if descending else operator.gt
        if any(map(out_of_order, scores, scores[1:])):
            at = list(map(out_of_order, scores, scores[1:])).index(True) + 1
            raise ValueError(f"not ordered ({'desc' if descending else 'asc'} expected)")
        return entries
    except ValueError as exc:  # names the line being read, or the entry at fault
        lineno = linenos[-1] if at is None else linenos[at + 1]
        raise TagfuseError(f"{path}:{lineno}: {exc}") from exc
