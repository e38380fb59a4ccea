"""Synthetic corpora with planted topics and split vocabularies.

Every generated article belongs to exactly one topic, but each topic is
written by two communities with disjoint vocabularies: a primary
community that uses the topic name and the primary term pool, and an
alternate community that uses only the alternate pool. Synsets cover the
topic name and part of the primary pool, never the alternate pool, so a
synonym-set search structurally cannot reach the alternate community's
articles while the semantic route can, through mixed-vocabulary articles
in the primary community.

A tunable fraction of articles also name-drops another topic's shared
terminology (without being about it), which gives the search route false
positives, like real corpora do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

# numpy is imported inside the functions that compute with it: the stages
# that never do (index, synset, fuse, eval) then start without loading it.

from .corpus import ArticleRecord
from .errors import ConfigError
from .synsets import make_synset

logger = logging.getLogger(__name__)

# Abstract composition, as fractions of doc_length. Primary-community
# articles mix in alternate terms; that co-occurrence is the bridge the
# embedding uses to place both communities on the same latent directions.
_PRIMARY_MIX = {"primary": 0.40, "alternate": 0.15}
_ALTERNATE_MIX = {"alternate": 0.55}
_ZIPF_EXPONENT = 1.05
_NOISE_OCCURRENCES = 2


@dataclass(frozen=True)
class BenchmarkSpec:
    """Shape of a generated corpus.

    ``vocab_per_topic`` is the size of each of the two per-topic pools.
    ``alt_vocab_fraction`` is the share of each topic's articles written
    purely in the alternate vocabulary. ``cross_noise_fraction`` is the
    share of articles that mention one other topic's synset-covered
    terminology in passing.
    """

    n_topics: int = 10
    docs_per_topic: int = 500
    vocab_per_topic: int = 30
    alt_vocab_fraction: float = 0.5
    background_vocab_size: int = 2000
    doc_length: int = 120
    cross_noise_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name in ("n_topics", "docs_per_topic", "background_vocab_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"benchmark.{name} must be positive")
        if self.seed < 0:
            raise ConfigError("benchmark.seed must not be negative")
        if self.vocab_per_topic < 4:
            raise ConfigError("benchmark.vocab_per_topic must be at least 4")
        if self.doc_length < 8:
            raise ConfigError("benchmark.doc_length must be at least 8")
        for name in ("alt_vocab_fraction", "cross_noise_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"benchmark.{name} must lie in [0, 1]")


@dataclass(frozen=True)
class _Topic:
    name: str
    primary: tuple[str, ...]
    alternate: tuple[str, ...]
    synset_terms: tuple[str, ...]  # subset of primary, excluding the name


def _make_topics(spec: BenchmarkSpec) -> list[_Topic]:
    topics = []
    for i in range(spec.n_topics):
        # Alternate single-word and two-word names so phrase handling is
        # exercised end to end.
        name = f"domain{i:02d}" if i % 2 == 0 else f"domain{i:02d} studies"
        primary = tuple(f"pri{i:02d}term{j:02d}" for j in range(spec.vocab_per_topic))
        alternate = tuple(f"alt{i:02d}term{j:02d}" for j in range(spec.vocab_per_topic))
        topics.append(
            _Topic(
                name=name,
                primary=primary,
                alternate=alternate,
                synset_terms=primary[: spec.vocab_per_topic // 2],
            )
        )
    return topics


def generate(
    spec: BenchmarkSpec,
) -> tuple[list[ArticleRecord], dict[str, set[str]], dict[str, tuple[str, ...]]]:
    """Generate a corpus, its exact planted truth (the label set of each
    article id), and matching synsets (the terms of each topic).

    Deterministic: the same spec always yields byte-identical artifacts,
    and article ids count up, so they are unique. Guarantees by
    construction:

    * vocabulary pools, topic names, and background words are disjoint,
      since each kind has its own prefix (``domain``, ``pri..term``,
      ``alt..term``, ``bg``);
    * alternate-community articles contain no synset term of their own
      topic in title, abstract, or keywords, since synsets take words
      only from the primary pool (``subjects`` always names the topic,
      but the search routes do not read it);
    * every article carries its topic name in ``subjects``, which is what
      the planted ground truth records.

    The bytes stay fixed because the same calls draw in the same order,
    and because a search of the Zipf CDF, built once here, equals the
    ``Generator.choice(size, n, p=zipf_p)`` that builds it on every call.
    """
    import numpy as np
    rng = np.random.default_rng(spec.seed)
    random, integers, shuffle = rng.random, rng.integers, rng.shuffle
    topics = _make_topics(spec)
    background = [f"bg{j:04d}" for j in range(spec.background_vocab_size)]

    ranks = np.arange(1, spec.background_vocab_size + 1, dtype=np.float64)
    zipf = ranks ** -_ZIPF_EXPONENT
    cdf = (zipf / zipf.sum()).cumsum()
    cdf /= cdf[-1]

    def pool_words(pool: tuple[str, ...], n: int) -> list[str]:
        return [pool[j] for j in integers(0, len(pool), size=n).tolist()]

    n_alt = round(spec.alt_vocab_fraction * spec.docs_per_topic)
    records: list[ArticleRecord] = []
    labels: dict[str, set[str]] = {}

    # Per community (primary, alternate): its pool draws and its background count.
    plans = []
    for mix in (_PRIMARY_MIX, _ALTERNATE_MIX):
        counts = [(pool, round(f * spec.doc_length)) for pool, f in mix.items()]
        plans.append((counts, spec.doc_length - sum(n for _, n in counts)))

    for topic_i, topic in enumerate(topics):
        for doc_j in range(spec.docs_per_topic):
            alt_community = doc_j < n_alt
            counts, n_background = plans[alt_community]
            body: list[str] = []
            for pool, n in counts:
                body += pool_words(getattr(topic, pool), n)
            picks = cdf.searchsorted(random(n_background), side="right")
            body += [background[j] for j in picks.tolist()]

            if spec.n_topics > 1 and random() < spec.cross_noise_fraction:
                step = 1 + int(integers(0, spec.n_topics - 1))
                other = topics[(topic_i + step) % spec.n_topics]
                noise = other.synset_terms[int(integers(0, len(other.synset_terms)))]
                body.extend([noise] * _NOISE_OCCURRENCES)

            shuffle(body)
            own = topic.alternate if alt_community else topic.primary
            if alt_community:
                title_words = pool_words(own, 3)
            else:
                title_words = [topic.name] + pool_words(own, 2)

            article_id = f"d{len(records):05d}"
            records.append(
                ArticleRecord(
                    id=article_id,
                    title=" ".join(title_words),
                    abstract=" ".join(body),
                    keywords=tuple(pool_words(own, 2)),
                    subjects=(topic.name,),
                )
            )
            labels[article_id] = {topic.name}

    synsets = {
        t.name: make_synset(t.name, [t.name, *t.synset_terms]) for t in topics
    }
    logger.info(
        "generated %d article(s), %d topic(s), %d alternate-community per topic",
        len(records),
        spec.n_topics,
        n_alt,
    )
    return records, labels, synsets


def topic_names(spec: BenchmarkSpec) -> list[str]:
    """Topic names the generator will use for this spec, in order."""
    return [t.name for t in _make_topics(spec)]
