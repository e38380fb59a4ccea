"""Ranked article lists, the common currency between pipeline stages.

A list is two columns, ``(ids, scores)``: article ids and their scores,
best first. Only its file names the topic and origin, in its header. A
classifier or synset list is ordered by descending score (higher is
better); a fusion list is ordered by ascending combined rank (lower is
better). Either way rank 1 is the best article and ties are already
resolved: position is authoritative, so fusion and inversion need only
the id column. The lists the program builds are in order by
construction; only ``read_ranked_list`` checks a list.
"""

from __future__ import annotations

import functools
import operator
import re

from .errors import TagfuseError

ORIGIN_CLASSIFIER = "classifier"
ORIGIN_SYNSET = "synset"
ORIGIN_FUSION = "fusion"

# One topic's list: article ids and their scores, best first.
Ranked = tuple[list[str], list[float]]

# A body of ``rank  article_id  score`` rows: three tab-separated fields a
# line, the id not empty, the score in the characters ``repr(float)`` writes
# (``float()`` also reads underscores, blanks and non-ASCII digits).
_SCORE = "[-+.0-9aefin]*"
_ROWS = re.compile(rf"[^\t\n]*\t[^\t\n]+\t{_SCORE}(?:\n[^\t\n]*\t[^\t\n]+\t{_SCORE})*")


@functools.lru_cache(maxsize=2)  # a classifier list's length, and the last synset list's
def _rank_column(n: int) -> list[str]:
    return list(map(str, range(1, n + 1)))


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
    """Read the columns of the ``write_ranked_list`` file of ``topic``'s
    ``origin`` list; a malformed line raises TagfuseError naming ``path:line``.

    Every check runs on whole columns; the line at fault is looked up only
    once one fails."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # one read decodes the file whole: exact offset
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise TagfuseError(f"{path}:{lineno}: {exc}") from exc
    header, _, body = text.partition("\n")
    body = (re.sub("\n+", "\n", body) if "\n\n" in body else body).strip("\n")  # no blank line
    at = 0  # the line at fault: 0 for the header, i for the i-th entry
    try:
        expected = f"# topic={topic}\torigin={origin}"
        if header != expected:
            raise ValueError(f"expected the header {expected!r}")
        fields = body.replace("\n", "\t").split("\t") if body else []
        ranks, ids, scores = fields[0::3], fields[1::3], fields[2::3]
        try:
            if body and not _ROWS.fullmatch(body) or ranks != _rank_column(len(ids)):
                raise ValueError
            scores = list(map(float, scores))
        except ValueError:  # find the first faulty line, checking it as the writer writes it
            for at, parts in enumerate((line.split("\t") for line in body.split("\n")), start=1):
                if len(parts) != 3:
                    raise ValueError("expected 3 columns")
                if parts[0] != str(at):
                    raise ValueError("rank out of sequence")
                if not parts[1]:
                    raise ValueError("empty article id")
                float(parts[2])
                if not re.fullmatch(_SCORE, parts[2]):
                    raise ValueError(f"score {parts[2]!r} not spelled as written")
            raise
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            at = next(i for i, a in enumerate(ids, start=1) if a in seen or seen.add(a))
            raise ValueError(f"duplicate article {ids[at - 1]!r}")
        descending = origin != ORIGIN_FUSION
        # Equal neighbours, and a NaN next to anything, are in order.
        out_of_order = operator.lt if descending else operator.gt
        if any(map(out_of_order, scores, scores[1:])):
            at = list(map(out_of_order, scores, scores[1:])).index(True) + 2
            raise ValueError(f"not ordered ({'desc' if descending else 'asc'} expected)")
        return ids, scores
    except ValueError as exc:  # names the line at fault, past any blank line
        lineno = [n for n, line in enumerate(text.split("\n"), start=1) if line or n == 1][at]
        raise TagfuseError(f"{path}:{lineno}: {exc}") from exc
