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

import numpy as np

from .corpus import TEXT_FIELDS, Corpus
from .errors import ConfigError, DatasetError, InsufficientPositives
from .forest import ForestConfig, RandomForest
from .index import Index, has_any_match
from .ranking import ORIGIN_CLASSIFIER, RankedList
from .seeds import derive_seed
from .semantic import SemanticMatrix

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassifierConfig(ForestConfig):
    """The ``classifier`` config section: the forest shape plus the
    dataset, holdout and ranking parameters."""

    neg_ratio: float = 1.0
    min_positives: int = 100
    top_n: int = 100_000
    holdout_fraction: float = 0.2

    def __post_init__(self):
        super().__post_init__()
        if self.neg_ratio < 0:
            raise ConfigError("classifier.neg_ratio must be non-negative")
        if self.min_positives < 1:
            raise ConfigError("classifier.min_positives must be positive")
        if self.top_n < 1:
            raise ConfigError("classifier.top_n must be positive")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("classifier.holdout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class TopicDataset:
    """Training examples for one topic, as article id lists."""

    topic: str
    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise DatasetError(
                f"topic {self.topic!r}: articles in both classes: {sorted(overlap)[:5]}"
            )


@dataclass
class TopicModel:
    """A fitted forest plus the context needed to audit it."""

    topic: str
    forest: RandomForest
    n_positives: int
    n_negatives: int
    holdout_accuracy: float
    seed: int


def build_dataset(
    topic: str,
    index: Index,
    corpus: Corpus,
    config: ClassifierConfig = ClassifierConfig(),
    seed: int = 0,
) -> TopicDataset:
    """Assemble positives and sampled negatives for one topic.

    Positives: topic name occurs as a phrase in the title or abstract;
    fewer than ``config.min_positives`` of them is too few.
    Negatives: drawn uniformly without replacement, count
    ``ceil(config.neg_ratio * positives)``, from articles where the topic name
    matches no indexed field, so an article mentioning the topic only in
    its keywords is neither a positive nor eligible as a negative.

    Sampling uses a seed derived from ``seed`` and the topic name, so
    per-topic results are independent of processing order. Raises
    :class:`InsufficientPositives` when the corpus cannot support the
    topic; callers should skip the topic and say so.
    """
    positives = sorted(has_any_match(index, [topic], TEXT_FIELDS))
    if len(positives) < config.min_positives:
        raise InsufficientPositives(topic, len(positives), config.min_positives)

    mentioned_anywhere = has_any_match(index, [topic], index.fields)
    pool = sorted(set(corpus.ids()) - mentioned_anywhere)
    n_wanted = math.ceil(config.neg_ratio * len(positives))
    if n_wanted > len(pool):
        logger.warning(
            "topic %r: negative pool has %d article(s), wanted %d; using all",
            topic,
            len(pool),
            n_wanted,
        )
        n_wanted = len(pool)
    rng = np.random.default_rng(derive_seed(seed, "dataset", topic))
    chosen = rng.choice(len(pool), size=n_wanted, replace=False) if n_wanted else []
    negatives = sorted(pool[i] for i in chosen)
    logger.info(
        "topic %r: %d positives, %d negatives (pool %d)",
        topic,
        len(positives),
        len(negatives),
        len(pool),
    )
    return TopicDataset(topic=topic, positives=tuple(positives), negatives=tuple(negatives))


def _stratified_split(labels: np.ndarray, holdout_fraction: float, rng) -> np.ndarray:
    """Boolean mask of held-out rows, sampled per class."""
    holdout = np.zeros(len(labels), dtype=bool)
    for cls in (0, 1):
        rows = np.nonzero(labels == cls)[0]
        if len(rows) < 2:
            continue
        n_hold = int(round(holdout_fraction * len(rows)))
        n_hold = min(max(n_hold, 1), len(rows) - 1)
        holdout[rng.choice(rows, size=n_hold, replace=False)] = True
    return holdout


def train(
    dataset: TopicDataset,
    sem: SemanticMatrix,
    config: ClassifierConfig = ClassifierConfig(),
    seed: int = 0,
) -> TopicModel:
    """Fit a forest on the embedding rows of the dataset's articles.

    A stratified holdout (``config.holdout_fraction`` of each class)
    measures generalization; the reported model is then refitted on all
    rows so no labeled example is wasted. Training is deterministic given
    the seed and dataset.
    """
    if not dataset.positives or not dataset.negatives:
        raise DatasetError(
            f"topic {dataset.topic!r}: need both classes to train "
            f"({len(dataset.positives)} positives, {len(dataset.negatives)} negatives)"
        )
    ids = list(dataset.positives) + list(dataset.negatives)
    x = np.stack([sem.row(a) for a in ids])
    y = np.concatenate(
        [np.ones(len(dataset.positives), dtype=np.int64),
         np.zeros(len(dataset.negatives), dtype=np.int64)]
    )

    topic_seed = derive_seed(seed, "train", dataset.topic)
    rng = np.random.default_rng(derive_seed(seed, "split", dataset.topic))
    holdout = _stratified_split(y, config.holdout_fraction, rng)
    if holdout.any() and np.unique(y[~holdout]).size == 2:
        probe = RandomForest(config).fit(x[~holdout], y[~holdout], seed=topic_seed)
        accuracy = float(np.mean(probe.predict(x[holdout]) == y[holdout]))
    else:
        accuracy = float("nan")

    forest = RandomForest(config).fit(x, y, seed=topic_seed)
    logger.info(
        "topic %r: trained on %d rows, holdout accuracy %.3f",
        dataset.topic,
        len(ids),
        accuracy,
    )
    return TopicModel(
        topic=dataset.topic,
        forest=forest,
        n_positives=len(dataset.positives),
        n_negatives=len(dataset.negatives),
        holdout_accuracy=accuracy,
        seed=topic_seed,
    )


def rank_corpus(
    model: TopicModel, sem: SemanticMatrix, config: ClassifierConfig = ClassifierConfig()
) -> RankedList:
    """Score every embedded article and keep the ``config.top_n`` most
    probable.

    Ordering is by descending probability with ties broken by article id,
    so the ranking is reproducible bit for bit.
    """
    probs = model.forest.predict_proba(sem.matrix)
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], sem.article_ids[i]))
    entries = [(sem.article_ids[i], float(probs[i])) for i in order[: config.top_n]]
    return RankedList(topic=model.topic, origin=ORIGIN_CLASSIFIER, entries=entries)
