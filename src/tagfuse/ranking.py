"""Ranked article lists, the common currency between pipeline stages.

A list is two columns, ``(ids, scores)``: article ids and their scores,
best first. Only its file names the topic and origin, in its header. A
classifier or synset list is ordered by descending score (higher is
better); a fusion list is ordered by ascending combined rank (lower is
better). Either way rank 1 is the best article and ties are already
resolved: position is authoritative, so fusion and inversion need only
the id column. The program builds each list in order, and a stage reads
one only once the run manifest vouches for its bytes, so
``read_ranked_list`` checks the header alone.
"""

from __future__ import annotations

from .errors import TagfuseError

ORIGIN_CLASSIFIER = "classifier"
ORIGIN_SYNSET = "synset"
ORIGIN_FUSION = "fusion"

# One topic's list: article ids and their scores, best first.
Ranked = tuple[list[str], list[float]]


def write_ranked_list(ranked: Ranked, topic: str, origin: str, path: str) -> None:
    """Serialize as tab-separated ``rank  article_id  score`` rows.

    The first line is a header comment naming the topic and origin. Scores
    are written with ``repr`` so they round-trip exactly.
    """
    ids, scores = ranked
    rows = map("{}\t{}\t{!r}\n".format, range(1, len(ids) + 1), ids, scores)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# topic={topic}\torigin={origin}\n" + "".join(rows))


def read_ranked_list(path: str, topic: str, origin: str) -> Ranked:
    """The columns of the ``write_ranked_list`` file of ``topic``'s ``origin``
    list. A header naming another list raises TagfuseError naming ``path:1``;
    the rows are split as written, unchecked."""
    with open(path, encoding="utf-8", newline="") as fh:  # no CRLF translation
        header, body = fh.readline(), fh.read()
    expected = f"# topic={topic}\torigin={origin}\n"
    if header != expected:
        raise TagfuseError(f"{path}:1: expected the header {expected[:-1]!r}")
    # Every row ends in a newline, so the flat fields end in an empty rank.
    fields = body.replace("\n", "\t").split("\t")
    return fields[1::3], list(map(float, fields[2::3]))
