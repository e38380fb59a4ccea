"""Rank fusion of the synset and classifier routes, and list inversion.

The two routes rank articles for a topic with incomparable scores (BM25
mass vs. forest probability), so fusion works on ranks alone. With
``s_A`` the article's rank in the synset list ``S`` and ``r_A`` its rank
in the classifier list ``R``:

    in both lists:        t_A = (s_A + r_A) / 2
    classifier-only:      t_A = r_A * |S|
    synset-only:          t_A = s_A * |S|

Articles found by both routes keep their averaged rank; articles found by
one route are pushed behind the last dual article by the |S| multiplier,
synset-only treated symmetrically to classifier-only. The fused list
keeps the ``a * |S|`` best combined ranks (ascending ``t_A``, ties by
article id), so ``a`` dials how far beyond the synset's reach the fusion
is allowed to grow.

Both functions take the id columns of ranked lists (``ranking.Ranked``)
and read positions only: the candidates of the synset list are sorted by
``t_A``, and the classifier-only ones, already ascending in ``t_A``, are
merged in until the budget is met. The caller knows which topic each
list ranks.
"""

from __future__ import annotations

import functools
import heapq
import json
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .errors import ConfigError
from .ranking import Ranked


@dataclass(frozen=True)
class FusionConfig:
    """The ``fusion`` config section. Each depth ``a`` in ``a_values``
    yields a fused list of at most ``a * |S|``; the optional score
    threshold filters inverted tags by normalized score."""

    a_values: tuple[int, ...] = (1, 2, 3, 4)
    score_threshold: float | None = None

    def __post_init__(self):
        if not self.a_values:
            raise ConfigError("fusion.a_values must not be empty")
        if any(a < 1 for a in self.a_values):
            raise ConfigError("fusion.a_values must be positive integers")
        if len(set(self.a_values)) != len(self.a_values):
            raise ConfigError("fusion.a_values must be unique")
        if self.score_threshold is not None and not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError("fusion.score_threshold must lie in [0, 1]")


def fuse(synset_ids: list[str], classifier_ids: list[str], a: int) -> Ranked:
    """Fuse one topic's two rankings, given as their id columns, into a
    list of at most ``a * |S|``, for a depth ``a >= 1`` as
    :class:`FusionConfig` checks it. An empty synset list yields an empty
    fusion: the length budget is a multiple of its size."""
    synset_size = len(synset_ids)
    s_ranks = dict(zip(synset_ids, range(1, synset_size + 1)))
    r_ranks = dict(zip(classifier_ids, range(1, len(classifier_ids) + 1)))
    # (t_A, article id) per candidate. Only the synset's candidates need a
    # sort: the classifier-only ones come in rank order, ascending in t_A.
    synset_side = sorted(
        ((s + r_ranks[aid]) / 2.0 if aid in r_ranks else float(s * synset_size), aid)
        for aid, s in s_ranks.items()
    )
    classifier_only = (
        (float(r * synset_size), aid) for aid, r in r_ranks.items() if aid not in s_ranks
    )
    kept = list(islice(heapq.merge(synset_side, classifier_only), a * synset_size))
    return [aid for _, aid in kept], [t for t, _ in kept]


# Tags per article id: (topic, normalized score) pairs, best first.
Assignments = dict[str, list[tuple[str, float]]]


def invert(per_topic: dict[str, list[str]], score_threshold: float | None = None) -> Assignments:
    """Turn per-topic lists, given as their id columns, into per-article
    tag assignments.

    A tag's score is its normalized rank, ``1 - (rank - 1) / |list|``:
    1.0 at the top, approaching 0 at the bottom, comparable across topics
    regardless of list length. Lists must all be fusion lists, or all
    synset lists when evaluating the search-only baseline; mixing origins
    would make the scores incomparable.

    With ``score_threshold`` set, tags scoring below it are dropped,
    which is the depth-free alternative to the ``a`` budget.

    Articles come back sorted by id; each article's tags are sorted best
    first, ties by topic.
    """
    floor = score_threshold or 0.0  # every score is above 0
    tags_by_article: Assignments = {}
    for topic in sorted(per_topic):  # topic order, which the stable sort keeps for ties
        ids = per_topic[topic]
        size = len(ids)
        for rank0, article_id in enumerate(ids):
            score = 1.0 - rank0 / size
            if score < floor:
                break  # scores fall along a list
            tags_by_article.setdefault(article_id, []).append((topic, score))

    for tags in tags_by_article.values():
        tags.sort(key=itemgetter(1), reverse=True)
    return {article_id: tags_by_article[article_id] for article_id in sorted(tags_by_article)}


def write_assignments(assignments: Assignments, path: str) -> None:
    """One JSON object per line: ``{"id": ..., "tags": [{topic, score}]}``,
    the bytes of ``json.dumps(record, ensure_ascii=False)``; scores are
    finite floats, which ``json`` writes as their ``repr``."""
    quote = json.JSONEncoder(ensure_ascii=False).encode
    quote_topic = functools.cache(quote)
    lines = [
        f'{{"id": {quote(article_id)}, "tags": ['
        + ", ".join(
            f'{{"topic": {quote_topic(topic)}, "score": {score!r}}}'
            for topic, score in tags
        )
        + "]}\n"
        for article_id, tags in assignments.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
