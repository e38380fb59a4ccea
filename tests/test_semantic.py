import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import tagfuse.semantic
from tagfuse.benchmark import BenchmarkSpec, generate
from tagfuse.corpus import text_repr
from tagfuse.errors import ConfigError, TagfuseError
from tagfuse.semantic import (
    SemanticConfig,
    SemanticMatrix,
    randomized_svd,
    truncated_svd,
    vectorize,
)
from tagfuse.text import tokenize

from conftest import make_corpus


def ngrams(tokens, n_min=1, n_max=2):
    """All n-grams of ``tokens`` for n in [n_min, n_max], space-joined."""
    out = []
    for n in range(n_min, n_max + 1):
        if n == 1:
            out.extend(tokens)
        else:
            out.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    return out


class TestNgrams:
    def test_unigrams_and_bigrams(self):
        assert ngrams(["a", "b", "c"]) == ["a", "b", "c", "a b", "b c"]

    def test_single_token_has_no_bigrams(self):
        assert ngrams(["a"]) == ["a"]

    def test_unigrams_only(self):
        assert ngrams(["a", "b"], 1, 1) == ["a", "b"]


# Vocabulary cutoffs that keep every term.
NO_CUTOFFS = SemanticConfig(min_df=1, max_df_fraction=1.0)


def tiny_corpus():
    return make_corpus(
        [
            ("d1", "fungal spore", "fungal spore data"),
            ("d2", "fungal biology", "spore dispersal data"),
            ("d3", "graft survival", "organ graft data"),
        ]
    )


class TestVocabulary:
    """The vocabulary rules, on the string reference that ``vectorize``
    matches bit for bit (``TestVectorizeMatchesStringReference``)."""

    def test_terms_are_unigrams_and_bigrams_with_df_bounds(self):
        config = SemanticConfig(min_df=2, max_df_fraction=0.99)
        _, columns, _ = reference_vectorize(tiny_corpus(), config)
        assert "fungal" in columns             # df 2
        assert "dispersal" not in columns      # df 1, below min_df
        assert "fungal spore" not in columns   # bigram df 1, below min_df
        assert "data" not in columns           # df 3 > 0.99 * 3
        assert vectorize(tiny_corpus(), config).matrix.shape == (3, len(columns))
        _, wide, _ = reference_vectorize(tiny_corpus(), NO_CUTOFFS)
        assert "fungal spore" in wide          # bigram kept once df allows

    def test_columns_are_lexicographic(self):
        _, columns, _ = reference_vectorize(tiny_corpus(), NO_CUTOFFS)
        terms = sorted(columns, key=columns.get)
        assert terms == sorted(terms)

    def test_document_frequency_counts_documents_not_occurrences(self):
        _, _, document_frequency = reference_vectorize(tiny_corpus(), NO_CUTOFFS)
        assert document_frequency["fungal"] == 2
        assert document_frequency["data"] == 3

    def test_all_terms_filtered_is_an_error(self):
        with pytest.raises(TagfuseError, match="empty"):
            vectorize(tiny_corpus(), SemanticConfig(min_df=4))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="min_df"):
            SemanticConfig(min_df=0)
        with pytest.raises(ConfigError, match="max_df_fraction"):
            SemanticConfig(max_df_fraction=0.0)


class TestVectorize:
    def test_matches_dense_reference_computation(self):
        corpus = tiny_corpus()
        got = vectorize(corpus, NO_CUTOFFS).matrix.toarray()
        _, columns, document_frequency = reference_vectorize(corpus, NO_CUTOFFS)

        m = len(corpus)
        dense = np.zeros((m, len(columns)))
        for i, rec in enumerate(corpus):
            terms = ngrams(tokenize(f"{rec.title} {rec.abstract}"))
            for term in terms:
                if term in columns:
                    dense[i, columns[term]] += 1.0
        for term, col in columns.items():
            idf = math.log((1 + m) / (1 + document_frequency[term])) + 1.0
            dense[:, col] *= idf
        for i in range(m):
            norm = np.linalg.norm(dense[i])
            if norm > 0:
                dense[i] /= norm

        np.testing.assert_allclose(got, dense, atol=1e-12)

    def test_rows_are_unit_norm(self):
        corpus = tiny_corpus()
        tfidf = vectorize(corpus, NO_CUTOFFS)
        norms = np.sqrt(np.asarray(tfidf.matrix.multiply(tfidf.matrix).sum(axis=1))).ravel()
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_document_with_no_vocabulary_terms_keeps_zero_row(self):
        corpus = make_corpus(
            [
                ("d1", "shared words", "shared words again"),
                ("d2", "shared words", "shared words too"),
                ("d3", "loner", "completely separate text"),
            ]
        )
        tfidf = vectorize(corpus, SemanticConfig(min_df=2, max_df_fraction=1.0))
        assert tfidf.matrix[2].nnz == 0

    def test_tokenizes_each_document_once(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(tagfuse.semantic, "tokenize", counting_tokenize)
        corpus = tiny_corpus()
        vectorize(corpus, NO_CUTOFFS)
        assert len(calls) == len(corpus)

    def test_term_outside_vocabulary_is_ignored(self):
        config = SemanticConfig(min_df=2, max_df_fraction=0.99)
        tfidf = vectorize(tiny_corpus(), config)
        _, columns, _ = reference_vectorize(tiny_corpus(), config)
        assert tfidf.matrix.shape == (3, len(columns))

    def test_result_has_canonical_format(self):
        """Sorted column indices and no duplicates in every row."""
        assert vectorize(small_bench_corpus(), SemanticConfig()).matrix.has_canonical_format

    def test_peak_memory_per_token(self):
        """Only the bigram codes go through ``np.unique``, no term becomes a
        string, and each whole-corpus temporary is freed once spent: the
        traced peak stays below 100 bytes per token."""
        corpus, _, _ = generate(BenchmarkSpec(n_topics=3, docs_per_topic=400))
        n_tokens = sum(len(tokenize(text_repr(rec))) for rec in corpus)
        tracemalloc.start()
        try:
            vectorize(corpus, SemanticConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n_tokens


def reference_vectorize(corpus, config):
    """The TF-IDF built from n-gram strings: provisional term ids in
    first-seen order, a duplicate-summed count matrix, then the kept
    columns in lexicographic term order, in canonical CSR form."""
    n_docs = len(corpus)
    term_id = {}
    indptr = [0]
    indices = []
    for rec in corpus:
        indices.extend(
            term_id.setdefault(t, len(term_id)) for t in ngrams(tokenize(text_repr(rec)))
        )
        indptr.append(len(indices))
    counts = sparse.csr_matrix(
        (np.ones(len(indices)), np.asarray(indices), np.asarray(indptr)),
        shape=(n_docs, len(term_id)),
    )
    counts.sum_duplicates()
    df = np.bincount(counts.indices, minlength=len(term_id))
    terms = list(term_id)
    in_range = (df >= config.min_df) & (df <= config.max_df_fraction * n_docs)
    kept = sorted((terms[i], i) for i in np.flatnonzero(in_range).tolist())
    columns = {t: col for col, (t, _) in enumerate(kept)}
    document_frequency = {t: int(df[i]) for t, i in kept}
    idf = np.array([math.log((1 + n_docs) / (1 + df[i])) + 1.0 for _, i in kept])
    matrix = counts[:, [i for _, i in kept]]
    matrix.sort_indices()
    matrix.data *= idf[matrix.indices]
    norms = sparse.linalg.norm(matrix, axis=1)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    matrix = (sparse.diags(scale) @ matrix).tocsr()
    matrix.sort_indices()
    return matrix, columns, document_frequency


def edge_case_corpus():
    return make_corpus(
        [
            ("d1", "straße straße İstanbul", "straße İstanbul 東京 大学 straße"),
            ("d2", "solo", ""),
            ("d3", "東京 大学", "İstanbul 東京 大学 zürich"),
            ("d4", "hapax words", "only here once"),
            ("d5", "zürich straße", "straße zürich 東京 大学 east east east"),
            ("d6", "east east", "the end"),
        ]
    )


def prefix_corpus():
    """Tokens that are prefixes of one another or hold digits. The space
    sorts below every letter and digit, so the string order is "a" < "a b"
    < "a0" and "data" < "data base" < "data basement" < "data2" < "data2
    base" < "database"."""
    return make_corpus(
        [
            ("p1", "data base", "database data basement data base a"),
            ("p2", "data2 base", "a0 database a b"),
            ("p3", "a0 a0", "data basement data2 base"),
            ("p4", "a b a b a b", "database database data data2 a0"),
        ]
    )


def small_bench_corpus():
    corpus, _, _ = generate(BenchmarkSpec(n_topics=3, docs_per_topic=40, doc_length=25))
    return corpus


class TestVectorizeMatchesStringReference:
    """The integer-coded n-gram counts give the TF-IDF of the string build
    bit for bit: the same shape, column order, CSR arrays and dtypes."""

    @pytest.mark.parametrize(
        "corpus, config",
        [
            (edge_case_corpus, NO_CUTOFFS),
            (edge_case_corpus, SemanticConfig(min_df=2, max_df_fraction=0.5)),
            (prefix_corpus, NO_CUTOFFS),
            (small_bench_corpus, SemanticConfig()),
        ],
        ids=["non-ascii-all-terms", "non-ascii-cutoffs", "prefixes", "bench"],
    )
    def test_bit_identical(self, corpus, config):
        corpus = corpus()
        tfidf = vectorize(corpus, config)
        matrix, _, _ = reference_vectorize(corpus, config)
        got = tfidf.matrix
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(matrix, name).dtype
            assert np.array_equal(getattr(got, name), getattr(matrix, name))
        assert got.shape == matrix.shape
        assert tfidf.article_ids == corpus.ids()

    def test_edge_cases_are_present(self):
        # The corpus above really holds what the comparison is meant to cover.
        corpus = edge_case_corpus()
        config = SemanticConfig(min_df=2, max_df_fraction=0.5)
        tfidf = vectorize(corpus, config)
        _, columns, _ = reference_vectorize(corpus, config)
        tokens = [tokenize(text_repr(rec)) for rec in corpus]
        assert "i̇stanbul" in columns and "東京 大学" in columns
        assert tokens[1] == ["solo"]
        assert tfidf.matrix[1].nnz == 0 and tfidf.matrix[3].nnz == 0
        assert ngrams(tokens[4]).count("east east") == 2
        # The bigram of token id 0 with itself has the smallest bigram code.
        assert "straße straße" in columns
        # Prefix and digit terms are columns, and no two of them are equal,
        # so putting any of them out of string order changes the matrix.
        matrix, columns, _ = reference_vectorize(prefix_corpus(), NO_CUTOFFS)
        terms = ["a", "a b", "a0", "data", "data base", "data basement", "data2",
                 "data2 base", "database"]
        assert [columns[t] for t in terms] == sorted(columns[t] for t in terms)
        dense = matrix.toarray()
        assert len({dense[:, columns[t]].tobytes() for t in terms}) == len(terms)


def two_sided_randomized_svd(a, k, oversample=10, power_iters=2, seed=0):
    """Reference: QR of both sides in each power iteration, then the SVD
    of the full width-by-n ``B = Q.T @ a``."""
    rng = np.random.default_rng(seed)
    width = min(k + oversample, min(a.shape))
    q, _ = np.linalg.qr(a @ rng.standard_normal((a.shape[1], width)))
    for _ in range(power_iters):
        w, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ w)
    u_small, s, _ = np.linalg.svd((a.T @ q).T, full_matrices=False)
    return (q @ u_small)[:, :k], s[:k]


def householder_randomized_svd(a, k, oversample=10, power_iters=2, seed=0):
    """Reference: the same range finder, with the small solve's R taken
    from a Householder QR of the n-by-width ``a.T @ Q`` instead of the
    Cholesky factor of its Gram."""
    rng = np.random.default_rng(seed)
    width = min(k + oversample, min(a.shape))
    q, _ = np.linalg.qr(a @ rng.standard_normal((a.shape[1], width)))
    for _ in range(power_iters):
        q, _ = np.linalg.qr(a @ (a.T @ q))
    r = np.linalg.qr(a.T @ q, mode="r")
    u_small, s, _ = np.linalg.svd(r.T)
    return q @ u_small[:, :k], s[:k]


def summed_randomized_svd(a, k, oversample=10, power_iters=2, seed=0):
    """Reference: the blocked SVD with each product summed by ``sum()``
    into a new array per block."""
    rng = np.random.default_rng(seed)
    m, n = a.shape
    width = min(k + oversample, min(m, n))
    at = sparse.csr_matrix(a.T)
    step = tagfuse.semantic._TERM_BLOCK

    def blocks():
        return (at[lo : lo + step] for lo in range(0, n, step))

    y = sum(b.T @ rng.standard_normal((b.shape[0], width)) for b in blocks())
    for _ in range(power_iters):
        q, _ = np.linalg.qr(y)
        y = sum(b.T @ (b @ q) for b in blocks())
    q, _ = np.linalg.qr(y)
    zs = [b @ q for b in blocks()]
    r = np.linalg.cholesky(sum(z.T @ z for z in zs)).T
    u_small, s, _ = np.linalg.svd(r.T)
    return q @ u_small[:, :k], s[:k]


# The last two shapes span several term blocks of the SVD, each with a
# ragged last block.
SHAPES = [
    (400, 3000, 40),
    (300, 2000, 25),
    (500, 100, 50),
    (200, 45, 20),
    (120, 3 * tagfuse.semantic._TERM_BLOCK + 17, 40),
    (300, 20000, 25),
]


def sparse_input(m, n):
    return lambda: sparse.random(m, n, density=0.05, format="csr", random_state=m + n)


def rank_deficient_input():
    """25 distinct rows repeated 10 times: with k=20 the width of 30 exceeds
    the rank, so the Gram is singular in exact arithmetic."""
    base = sparse.random(25, 500, density=0.1, format="csr", random_state=25)
    return sparse.vstack([base] * 10).tocsr()


SVD_INPUTS = [
    pytest.param(sparse_input(m, n), k, id=f"{m}x{n}-k{k}") for m, n, k in SHAPES
] + [pytest.param(rank_deficient_input, 20, id="rank25-k20")]


class TestRandomizedSvd:
    @pytest.mark.parametrize("m, n, k", SHAPES)
    def test_matches_two_sided_reference_without_sign_alignment(self, m, n, k):
        """Signs are pinned, not just the subspace: the forest breaks
        equal-score splits by order, so a flipped embedding column can
        change the rankings. The last two shapes have n < 2 * (k + 10),
        where LAPACK takes no LQ step on the wide ``B``."""
        a = sparse_input(m, n)()
        u, s = randomized_svd(a, k=k, oversample=10, power_iters=2, seed=3)
        u_ref, s_ref = two_sided_randomized_svd(a, k=k, seed=3)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m, n, k", SHAPES[-2:])
    def test_in_place_sums_equal_sum_bit_for_bit(self, m, n, k, seed):
        a = sparse_input(m, n)()
        u, s = randomized_svd(a, k=k, oversample=10, power_iters=2, seed=seed)
        u_ref, s_ref = summed_randomized_svd(a, k=k, seed=seed)
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)

    @pytest.mark.parametrize("make, k", SVD_INPUTS)
    def test_matches_householder_solve_without_sign_alignment(self, make, k):
        a = make()
        if make is rank_deficient_input:
            assert np.linalg.matrix_rank(a.toarray()) == 25
        u, s = randomized_svd(a, k=k, oversample=10, power_iters=2, seed=3)
        u_ref, s_ref = householder_randomized_svd(a, k=k, seed=3)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)

    @staticmethod
    def count_solves(monkeypatch):
        """Record each Cholesky factorization and each R-only QR."""
        calls = []
        cholesky, qr = np.linalg.cholesky, np.linalg.qr

        def counting_cholesky(x):
            calls.append("cholesky")
            return cholesky(x)

        def counting_qr(x, mode="reduced"):
            if mode == "r":
                calls.append("qr-r")
            return qr(x, mode=mode)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        return calls

    @pytest.mark.parametrize("make, k", SVD_INPUTS)
    def test_small_solve_takes_the_cholesky_branch(self, make, k, monkeypatch):
        calls = self.count_solves(monkeypatch)
        randomized_svd(make(), k=k, oversample=10, power_iters=2, seed=3)
        assert calls == ["cholesky"]

    def test_all_zero_input_falls_back_to_householder_bit_for_bit(self, monkeypatch):
        a = np.zeros((6, 5))
        u_ref, s_ref = householder_randomized_svd(a, k=2, seed=4)
        calls = self.count_solves(monkeypatch)
        u, s = randomized_svd(a, k=2, oversample=10, power_iters=2, seed=4)
        assert calls == ["cholesky", "qr-r"]
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)

    @staticmethod
    def svd_peak(n, m=300, k=40, nnz=120_000):
        a = sparse.random(m, n, density=nnz / (m * n), format="csr", random_state=1)
        tracemalloc.start()
        try:
            randomized_svd(a, k=k, oversample=10, power_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_does_not_grow_with_n(self):
        """The term side is only ever held one block at a time, so no
        n-by-width array exists. The transposed copy of the input grows with
        its nonzeros, which stay fixed here while n doubles."""
        width = 40 + 10
        peaks = {n: self.svd_peak(n) for n in (40000, 80000)}
        for n, peak in peaks.items():
            assert peak < 0.5 * n * width * 8
        assert peaks[80000] <= 1.1 * peaks[40000]

    def test_peak_memory_holds_few_m_by_width_arrays(self):
        """Each product is added into one array, and each spent m-by-width
        array is freed before the next is made: the traced peak stays
        below 4 such arrays."""
        m, width = 20000, 40 + 10
        a = sparse.random(m, 2000, density=0.01, format="csr", random_state=0)
        tracemalloc.start()
        try:
            randomized_svd(a, k=40, oversample=10, power_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * width * 8

    def test_zero_input_gives_zero_singular_values(self):
        u, s = randomized_svd(np.zeros((6, 5)), k=2, oversample=10, power_iters=2)
        assert u.shape == (6, 2) and np.array_equal(s, np.zeros(2))

    def test_exact_on_low_rank_matrices(self):
        rng = np.random.default_rng(5)
        left = rng.standard_normal((60, 8))
        right = rng.standard_normal((8, 40))
        a = left @ right
        u, s = randomized_svd(a, k=8, oversample=10, power_iters=2, seed=1)
        np.testing.assert_allclose(u @ (u.T @ a), a, atol=1e-8)
        s_exact = np.linalg.svd(a, compute_uv=False)[:8]
        np.testing.assert_allclose(s, s_exact, rtol=1e-10)

    def test_close_to_dense_oracle_on_full_rank_input(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((80, 50))
        _, s = randomized_svd(a, k=10, oversample=40, power_iters=8, seed=2)
        s_exact = np.linalg.svd(a, compute_uv=False)[:10]
        np.testing.assert_allclose(s, s_exact, rtol=1e-3)

    def test_singular_values_non_increasing_and_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 20))
        u1, s1 = randomized_svd(a, k=5, oversample=10, power_iters=2, seed=9)
        u2, s2 = randomized_svd(a, k=5, oversample=10, power_iters=2, seed=9)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2)
        assert all(s1[i] >= s1[i + 1] for i in range(len(s1) - 1))

    def test_different_seed_changes_nothing_material(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 10))
        _, s1 = randomized_svd(a, k=3, oversample=10, power_iters=4, seed=1)
        _, s2 = randomized_svd(a, k=3, oversample=10, power_iters=4, seed=2)
        np.testing.assert_allclose(s1, s2, rtol=1e-6)

    def test_k_larger_than_dimensions_raises(self):
        a = np.eye(4)
        with pytest.raises(ValueError, match="exceeds"):
            randomized_svd(a, k=5, oversample=10, power_iters=2)


class TestTruncatedSvd:
    @staticmethod
    def embed(k=2, seed=0):
        config = SemanticConfig(k=k, min_df=1, max_df_fraction=1.0)
        return truncated_svd(vectorize(tiny_corpus(), config), config, seed=seed)

    def test_shape_and_id_lookup(self):
        sem = self.embed()
        assert sem.matrix.shape == (3, 2)
        assert sem.k == 2
        assert "d2" in sem.article_ids
        np.testing.assert_array_equal(sem.row("d2"), sem.matrix[1])

    def test_gram_matrix_matches_dense_svd_oracle(self):
        # U*s is defined up to sign/rotation in degenerate cases; the Gram
        # matrix of the embedding is invariant and must match exactly.
        corpus = tiny_corpus()
        tfidf = vectorize(corpus, NO_CUTOFFS)
        sem = truncated_svd(tfidf, SemanticConfig(k=2), seed=0)
        u, s, _ = np.linalg.svd(tfidf.matrix.toarray(), full_matrices=False)
        exact = (u[:, :2] * s[:2]) @ (u[:, :2] * s[:2]).T
        np.testing.assert_allclose(sem.matrix @ sem.matrix.T, exact, atol=1e-9)

    def test_same_seed_bit_identical(self):
        a = self.embed(seed=123)
        b = self.embed(seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_save_load_round_trip(self, tmp_path):
        sem = self.embed()
        prefix = str(tmp_path / "embedding")
        sem.save(prefix)
        again = SemanticMatrix.load(prefix)
        assert np.array_equal(sem.matrix, again.matrix)
        assert again.article_ids == sem.article_ids
        assert again.seed == sem.seed

    @pytest.mark.parametrize(
        "change",
        [
            lambda meta, rows: meta["article_ids"].pop(),
            lambda meta, rows: meta["article_ids"].append("extra"),
            lambda meta, rows: meta.update(k=3),
            lambda meta, rows: np.save(rows, np.zeros(6)),
        ],
        ids=["missing-id", "extra-id", "wrong-k", "one-dimensional"],
    )
    def test_load_rejects_a_shape_mismatch(self, tmp_path, change):
        prefix = str(tmp_path / "embedding")
        self.embed().save(prefix)
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        change(meta, f"{prefix}.npy")
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(TagfuseError, match="embedding.npy: shape"):
            SemanticMatrix.load(prefix)

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            SemanticConfig(k=1)

    def test_unknown_article_raises(self):
        sem = self.embed()
        with pytest.raises(TagfuseError, match="zz"):
            sem.row("zz")
