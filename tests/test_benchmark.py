import numpy as np
import pytest

from tagfuse.benchmark import _ZIPF_EXPONENT, BenchmarkSpec, _make_topics, generate, topic_names
from tagfuse.corpus import save_corpus, save_ground_truth
from tagfuse.errors import ConfigError
from tagfuse.index import build_index
from tagfuse.manifest import file_sha256
from tagfuse.synsets import SynsetConfig, save_synsets, synset_rank
from tagfuse.text import tokenize

SMALL = BenchmarkSpec(
    n_topics=4,
    docs_per_topic=40,
    vocab_per_topic=8,
    background_vocab_size=120,
    doc_length=30,
    seed=11,
)


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError, match="benchmark.n_topics"):
            BenchmarkSpec(n_topics=0)
        with pytest.raises(ConfigError, match="benchmark.docs_per_topic"):
            BenchmarkSpec(docs_per_topic=0)
        with pytest.raises(ConfigError, match="benchmark.vocab_per_topic"):
            BenchmarkSpec(vocab_per_topic=3)
        with pytest.raises(ConfigError, match="benchmark.doc_length"):
            BenchmarkSpec(doc_length=7)
        with pytest.raises(ConfigError, match="benchmark.background_vocab_size"):
            BenchmarkSpec(background_vocab_size=0)
        with pytest.raises(ConfigError, match="benchmark.alt_vocab_fraction"):
            BenchmarkSpec(alt_vocab_fraction=1.5)
        with pytest.raises(ConfigError, match="benchmark.cross_noise_fraction"):
            BenchmarkSpec(cross_noise_fraction=-0.1)
        with pytest.raises(ConfigError, match="benchmark.seed"):
            BenchmarkSpec(seed=-1)

    def test_topic_names_alternate_one_and_two_words(self):
        names = topic_names(BenchmarkSpec(n_topics=4))
        assert names == [
            "domain00",
            "domain01 studies",
            "domain02",
            "domain03 studies",
        ]


class TestShape:
    def test_sizes_and_planted_truth(self):
        corpus, truth, synsets = generate(SMALL)
        assert len(corpus) == SMALL.n_topics * SMALL.docs_per_topic
        assert len(truth) == len(corpus)
        assert set(synsets) == set(topic_names(SMALL))
        # Every article is labeled with exactly its subjects entry.
        for record in corpus:
            assert truth[record.id] == set(record.subjects)
            assert len(truth[record.id]) == 1

    def test_ids_are_stable_and_zero_padded(self):
        corpus, _, _ = generate(SMALL)
        ids = [record.id for record in corpus]
        assert ids[0] == "d00000"
        assert ids[-1] == f"d{len(ids) - 1:05d}"
        assert ids == sorted(ids)

    def test_documents_have_the_requested_length(self):
        corpus, _, _ = generate(SMALL)
        lengths = {len(tokenize(record.abstract)) for record in corpus}
        # Cross-topic noise appends a fixed number of extra tokens, but
        # two-word synset terms can add one more, so allow a small band.
        assert min(lengths) == SMALL.doc_length
        assert max(lengths) <= SMALL.doc_length + 4

    def test_synsets_cover_name_plus_half_the_primary_pool(self):
        _, _, synsets = generate(SMALL)
        synset = synsets["domain00"]
        assert synset[0] == "domain00"
        expected = tuple(f"pri00term{j:02d}" for j in range(SMALL.vocab_per_topic // 2))
        assert synset[1:] == expected


def assert_alternate_articles_avoid_their_own_synset(spec):
    """Alt-community docs are the first alt-fraction block of each topic's
    id range. Their text fields (everything but subjects) must contain no
    term the topic's synset could match."""
    corpus, truth, synsets = generate(spec)
    n_alt = round(spec.alt_vocab_fraction * spec.docs_per_topic)
    for topic_i, topic in enumerate(topic_names(spec)):
        synset_tokens = {
            token for term in synsets[topic] for token in tokenize(term)
        }
        for record in corpus[topic_i * spec.docs_per_topic:][:n_alt]:
            assert truth[record.id] == {topic}
            text_tokens = set(
                tokenize(" ".join([record.title, record.abstract, *record.keywords]))
            )
            assert not text_tokens & synset_tokens


class TestVocabularySplit:
    def test_pools_are_disjoint_across_topics(self):
        corpus, _, synsets = generate(SMALL)
        all_terms: set[str] = set()
        for synset in synsets.values():
            terms = {t.lower() for t in synset}
            assert not terms & all_terms
            all_terms |= terms

    def test_alternate_community_articles_avoid_their_own_synset(self):
        assert_alternate_articles_avoid_their_own_synset(SMALL)

    def test_wide_indices_keep_every_kind_of_word_apart(self):
        # Topic and pool indices reach 100 and background indices 10000,
        # so every index outgrows its zero-padding.
        spec = BenchmarkSpec(n_topics=101, docs_per_topic=4, vocab_per_topic=101,
                             background_vocab_size=10001, doc_length=40,
                             cross_noise_fraction=0.0, seed=2)
        topics = _make_topics(spec)
        names = [t.name for t in topics]
        name_words = {token for name in names for token in tokenize(name)}
        pools = [set(pool) for t in topics for pool in (t.primary, t.alternate)]
        pool_words = set().union(*pools)
        assert len(set(names)) == spec.n_topics
        assert len(pool_words) == len(pools) * spec.vocab_per_topic
        assert not name_words & pool_words
        # Without cross-topic noise, an alternate-community abstract is its
        # topic's alternate words plus background words.
        corpus, _, _ = generate(spec)
        n_alt = round(spec.alt_vocab_fraction * spec.docs_per_topic)
        background = set()
        for topic_i, topic in enumerate(topics):
            for record in corpus[topic_i * spec.docs_per_topic:][:n_alt]:
                background |= set(tokenize(record.abstract)) - set(topic.alternate)
        assert 0 < len(background) <= spec.background_vocab_size
        assert not background & (name_words | pool_words)
        assert_alternate_articles_avoid_their_own_synset(spec)

    def test_pure_alternate_articles_are_invisible_without_noise(self):
        spec = BenchmarkSpec(
            n_topics=3,
            docs_per_topic=30,
            vocab_per_topic=8,
            background_vocab_size=100,
            doc_length=30,
            cross_noise_fraction=0.0,
            seed=5,
        )
        corpus, truth, synsets = generate(spec)
        index = build_index(corpus)
        n_alt = round(spec.alt_vocab_fraction * spec.docs_per_topic)
        for topic, synset in synsets.items():
            hits = set(synset_rank(synset, index, SynsetConfig(limit=10_000))[0])
            members = {a for a, labels in truth.items() if topic in labels}
            # Exactly the primary community is reachable, never the
            # alternate community, and never another topic's articles.
            assert hits <= members
            assert len(hits) == spec.docs_per_topic - n_alt

    def test_cross_noise_makes_foreign_articles_reachable(self):
        noisy = BenchmarkSpec(
            n_topics=3,
            docs_per_topic=30,
            vocab_per_topic=8,
            background_vocab_size=100,
            doc_length=30,
            cross_noise_fraction=1.0,
            seed=5,
        )
        corpus, truth, synsets = generate(noisy)
        index = build_index(corpus)
        foreign = 0
        for topic, synset in synsets.items():
            hits = set(synset_rank(synset, index, SynsetConfig(limit=10_000))[0])
            members = {a for a, labels in truth.items() if topic in labels}
            foreign += len(hits - members)
        assert foreign > 0


# SHA-256 of the saved corpus, ground truth and synsets of each spec: a
# change to what or how the generator draws must keep these bytes.
PINNED = [
    (SMALL, (
        "10042492a263336479dfb3a4f78d6299e2f41bbd61b1b4077b5e6a819e6a5195",
        "acab0d700cc67748a633c037898eebbc37717699276878d4e8420d7d7d064217",
        "d030a7395b1decef5320f08aa0b34d3a2ae6120005b37c405f4401d5fb250920",
    )),
    (BenchmarkSpec(), (
        "6795b358efb67482dc80c6883a36511b9913d35470aef3a5075a8fb3f9f52eaa",
        "5a76d85439c1dcf8a7be54f26bef2779920fea1f3ec803d376ee45eaaf98c5ce",
        "f5da816b1fc94cc1ca023832e4eef5a8be5b43513d37c542c3bbd34544dd9ab7",
    )),
    # perfbench's many-topics-10k shape
    (BenchmarkSpec(n_topics=20, docs_per_topic=500, vocab_per_topic=12,
                   background_vocab_size=300, doc_length=30), (
        "22a139c4b0f0d7ac4bdd3bfa51b25740cc76f363e1c6c1a850600c8c6905507a",
        "83a06f28807d0cc4c6b37ad129b8653ae145fb16f3b16485d6ebdd266922cc1a",
        "6fce893441df60bbd713bc5b7842c5943a8a2714246e16fbb970d2ad8cdb7985",
    )),
]


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        corpus_path, truth_path, synsets_path = (
            str(tmp_path / name) for name in ("corpus.jsonl", "truth.jsonl", "synsets.jsonl")
        )
        for spec, digests in PINNED:
            corpus, truth, synsets = generate(spec)
            save_corpus(corpus, corpus_path)
            save_ground_truth(truth, truth_path)
            save_synsets(synsets, synsets_path)
            paths = (corpus_path, truth_path, synsets_path)
            assert tuple(map(file_sha256, paths)) == digests, spec

    def test_a_search_of_the_zipf_cdf_draws_as_choice_does(self):
        """``generate`` searches the Zipf CDF for background words where it
        once called ``Generator.choice``; the corpora keep their bytes only
        while the two draw the same words from the same stream."""
        for size, n in [(120, 13), (300, 6), (2000, 54), (2000, 10_000)]:
            zipf_p = np.arange(1, size + 1, dtype=np.float64) ** -_ZIPF_EXPONENT
            zipf_p /= zipf_p.sum()
            cdf = zipf_p.cumsum()
            cdf /= cdf[-1]
            searched, chosen = np.random.default_rng(size), np.random.default_rng(size)
            picks = cdf.searchsorted(searched.random(n), side="right")
            assert picks.tolist() == chosen.choice(size, n, p=zipf_p).tolist()
            assert searched.random() == chosen.random()  # as many draws taken

    def test_seed_changes_the_corpus(self):
        import dataclasses

        corpus_a, _, _ = generate(SMALL)
        corpus_b, _, _ = generate(dataclasses.replace(SMALL, seed=SMALL.seed + 1))
        texts_a = [record.abstract for record in corpus_a]
        texts_b = [record.abstract for record in corpus_b]
        assert texts_a != texts_b
