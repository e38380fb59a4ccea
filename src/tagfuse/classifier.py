"""One-vs-all topic classification over the semantic embedding.

For each topic, positives are articles whose title or abstract contains
the topic name as a phrase; negatives are sampled from articles that
mention the topic name nowhere at all. A random forest trained on the
embedding rows then scores the entire corpus, which reaches articles that
express the topic in a different vocabulary than the topic name.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

# numpy is imported inside the functions that compute with it: the stages
# that never do (index, synset, fuse, eval) then start without loading it.

from .corpus import TEXT_FIELDS
from .errors import ConfigError, UntrainableTopic
from .forest import ForestConfig, RandomForest
from .index import Index, has_any_match
from .ranking import Ranked
from .seeds import derive_seed
from .semantic import SemanticMatrix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassifierConfig(ForestConfig):
    """The ``classifier`` config section: the forest shape plus the
    dataset and ranking parameters."""

    neg_ratio: float = 1.0
    min_positives: int = 100
    top_n: int = 100_000

    def __post_init__(self):
        super().__post_init__()
        # ceil(neg_ratio * positives) is at least one negative exactly
        # when neg_ratio > 0, and training needs both classes; NaN fails too.
        if not self.neg_ratio > 0:
            raise ConfigError("classifier.neg_ratio must be positive")
        if self.min_positives < 1:
            raise ConfigError("classifier.min_positives must be positive")
        if self.top_n < 1:
            raise ConfigError("classifier.top_n must be positive")


def build_dataset(
    topic: str,
    index: Index,
    config: ClassifierConfig = ClassifierConfig(),
    seed: int = 0,
) -> tuple[list[str], list[str]]:
    """Assemble positives and sampled negatives for one topic, as two
    sorted, non-empty article id lists.

    Positives: topic name occurs as a phrase in the title or abstract;
    fewer than ``config.min_positives`` of them is too few.
    Negatives: drawn uniformly without replacement, count
    ``ceil(config.neg_ratio * positives)``, from the indexed articles where
    the topic name matches no indexed field, so an article mentioning the
    topic only in its keywords is neither a positive nor eligible as a negative.

    Sampling uses a seed derived from ``seed`` and the topic name, so
    per-topic results are independent of processing order. Raises
    :class:`UntrainableTopic` when there are too few positives or no
    article to draw negatives from; callers should skip the topic and say so.
    """
    import numpy as np
    positives = sorted(has_any_match(index, [topic], TEXT_FIELDS))
    found = f"topic {topic!r}: {len(positives)} positive examples"
    record = {"topic": topic, "positives": len(positives)}
    if len(positives) < (need := config.min_positives):
        raise UntrainableTopic(f"{found}, need at least {need}", {**record, "required": need})

    mentioned_anywhere = has_any_match(index, [topic], index.fields)
    pool = sorted(set(index.article_ids) - mentioned_anywhere)
    if not pool:
        reason = "0 negative examples: every indexed article mentions the topic"
        raise UntrainableTopic(f"{found}, {reason}", {**record, "negatives": 0})
    wanted = config.neg_ratio * len(positives)  # compared before ceil: may be inf
    n_wanted = len(pool) if wanted > len(pool) else math.ceil(wanted)
    if wanted > len(pool):
        logger.warning(
            "topic %r: negative pool has %d article(s), wanted %g; using all",
            topic,
            len(pool),
            wanted,
        )
    rng = np.random.default_rng(derive_seed(seed, "dataset", topic))
    chosen = rng.choice(len(pool), size=n_wanted, replace=False)
    negatives = sorted(pool[i] for i in chosen)
    logger.info(
        "topic %r: %d positives, %d negatives (pool %d)",
        topic,
        len(positives),
        len(negatives),
        len(pool),
    )
    return positives, negatives


def train(
    topic: str,
    positives: list[str],
    negatives: list[str],
    sem: SemanticMatrix,
    config: ClassifierConfig = ClassifierConfig(),
    seed: int = 0,
) -> RandomForest:
    """Fit a forest on the embedding rows of one topic's positive and
    negative articles and return it.

    Both lists are non-empty, as ``build_dataset`` returns them. Every
    labeled row trains the forest; its ``oob_accuracy`` measures
    generalization. Training is deterministic given the seed and dataset.
    """
    import numpy as np
    ids = positives + negatives
    x = np.stack([sem.row(a) for a in ids])
    y = np.concatenate(
        [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
    )

    forest = RandomForest(config).fit(x, y, seed=derive_seed(seed, "train", topic))
    logger.info(
        "topic %r: trained on %d rows, out-of-bag accuracy %.3f",
        topic,
        len(ids),
        forest.oob_accuracy,
    )
    return forest


def rank_corpus(
    forest: RandomForest,
    sem: SemanticMatrix,
    config: ClassifierConfig = ClassifierConfig(),
) -> Ranked:
    """Score every embedded article with the topic's fitted forest and
    keep the ``config.top_n`` most probable as its classifier list.

    Ordering is by descending probability with ties broken by article id,
    so the ranking is reproducible bit for bit.
    """
    probs = forest.predict_proba(sem.matrix)
    ids = sem.article_ids
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], ids[i]))[: config.top_n]
    return [ids[i] for i in order], probs[order].tolist()
