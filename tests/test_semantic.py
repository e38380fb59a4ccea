import ctypes
import importlib.machinery
import json
import math
import sys
import tracemalloc
import types
from array import array

import numpy as np
import pytest
from scipy import sparse

import tagfuse.index
import tagfuse.semantic
from tagfuse.benchmark import BenchmarkSpec, generate
from tagfuse.corpus import TEXT_FIELDS
from tagfuse.errors import ConfigError, TagfuseError
from tagfuse.index import IndexConfig, build_index
from tagfuse.semantic import (
    CscArrays,
    SemanticConfig,
    SemanticMatrix,
    randomized_svd,
    truncated_svd,
    vectorize,
)
from tagfuse.text import tokenize

from conftest import csc_arrays, make_corpus, run_on_damaged_copy


def text_repr(record):
    """The embedded document: title and abstract joined by a space."""
    return f"{record.title} {record.abstract}"


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
        assert vectorize(build_index(tiny_corpus()), config).matrix.shape == (3, len(columns))
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
            vectorize(build_index(tiny_corpus()), SemanticConfig(min_df=4))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="min_df"):
            SemanticConfig(min_df=0)
        with pytest.raises(ConfigError, match="max_df_fraction"):
            SemanticConfig(max_df_fraction=0.0)


def as_scipy(tfidf):
    """The scipy matrix of ``vectorize``'s CSC arrays."""
    m = tfidf.matrix
    return sparse.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape)


class TestVectorize:
    def test_matches_dense_reference_computation(self):
        corpus = tiny_corpus()
        got = as_scipy(vectorize(build_index(corpus), NO_CUTOFFS)).toarray()
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
        matrix = as_scipy(vectorize(build_index(corpus), NO_CUTOFFS))
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_document_with_no_vocabulary_terms_keeps_zero_row(self):
        corpus = make_corpus(
            [
                ("d1", "shared words", "shared words again"),
                ("d2", "shared words", "shared words too"),
                ("d3", "loner", "completely separate text"),
            ]
        )
        tfidf = vectorize(build_index(corpus), SemanticConfig(min_df=2, max_df_fraction=1.0))
        assert as_scipy(tfidf)[2].nnz == 0

    def test_tokenizes_each_document_once(self, monkeypatch):
        """The index tokenizes each title and abstract once; ``vectorize``
        reads its positions and tokenizes nothing."""
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(tagfuse.index, "tokenize", counting_tokenize)
        corpus = tiny_corpus()
        index = build_index(corpus, IndexConfig(TEXT_FIELDS))
        assert len(calls) == 2 * len(corpus)
        matrix, _, _ = reference_vectorize(corpus, NO_CUTOFFS)
        assert (as_scipy(vectorize(index, NO_CUTOFFS)) != matrix).nnz == 0
        assert len(calls) == 2 * len(corpus)

    def test_reads_index_arrays_in_their_own_typecodes(self):
        """The index's arrays rebuilt in the narrowest unsigned typecode
        that holds them give the same TF-IDF bit for bit."""
        index = build_index(small_bench_corpus(), IndexConfig(TEXT_FIELDS))
        expected = vectorize(index, SemanticConfig()).matrix
        for field in index._fields.values():
            for name, code in tagfuse.index._ARRAYS:
                values = getattr(field, name)
                top = max(values, default=0)
                narrow = "B" if top < 1 << 8 else "H" if top < 1 << 16 else "I"
                assert array(narrow).itemsize < array(code).itemsize
                setattr(field, name, array(narrow, values))
        got = vectorize(index, SemanticConfig()).matrix
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        assert got.shape == expected.shape

    def test_term_outside_vocabulary_is_ignored(self):
        config = SemanticConfig(min_df=2, max_df_fraction=0.99)
        tfidf = vectorize(build_index(tiny_corpus()), config)
        _, columns, _ = reference_vectorize(tiny_corpus(), config)
        assert tfidf.matrix.shape == (3, len(columns))

    def test_result_has_canonical_format(self):
        """Sorted row indices and no duplicates in every column."""
        tfidf = vectorize(build_index(small_bench_corpus()), SemanticConfig())
        assert as_scipy(tfidf).has_canonical_format

    def test_peak_memory_per_token(self):
        """The bigrams are numbered by one argsort and written straight into
        the term array, the cells are counted in the sorted term array
        itself, no term becomes a string, and each whole-corpus temporary is
        freed once spent: the traced peak stays below 60 bytes per token,
        which numbering the bigrams by ``np.unique(..., return_inverse=True)``
        exceeds at about 69."""
        corpus, _, _ = generate(BenchmarkSpec(n_topics=3, docs_per_topic=400))
        n_tokens = sum(len(tokenize(text_repr(rec))) for rec in corpus)
        index = build_index(corpus)
        tracemalloc.start()
        try:
            vectorize(index, SemanticConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * n_tokens


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


def boundary_corpus():
    """Bigrams across the title/abstract boundary, a title and an abstract
    with no tokens, and a document boundary no bigram may cross."""
    return make_corpus(
        [
            ("b1", "deep", "learning works"),
            ("b2", "very deep", "learning"),
            ("b3", "—", "deep learning"),
            ("b4", "learning deep", "..."),
            ("b5", "works", "deep"),
        ]
    )


def one_token_corpus():
    """Documents of one token each: the vocabulary has no bigram."""
    return make_corpus([("o1", "spore", ""), ("o2", "", "graft"), ("o3", "spore", "—")])


def small_bench_corpus():
    corpus, _, _ = generate(BenchmarkSpec(n_topics=3, docs_per_topic=40, doc_length=25))
    return corpus


class TestVectorizeMatchesStringReference:
    """The integer-coded n-gram counts give the TF-IDF of the string build
    bit for bit: the same shape, column order, CSC arrays and dtypes."""

    @pytest.mark.parametrize(
        "corpus, config",
        [
            (edge_case_corpus, NO_CUTOFFS),
            (edge_case_corpus, SemanticConfig(min_df=2, max_df_fraction=0.5)),
            (prefix_corpus, NO_CUTOFFS),
            (boundary_corpus, NO_CUTOFFS),
            (boundary_corpus, SemanticConfig(min_df=2, max_df_fraction=1.0)),
            (one_token_corpus, NO_CUTOFFS),
            (small_bench_corpus, SemanticConfig()),
        ],
        ids=["non-ascii-all-terms", "non-ascii-cutoffs", "prefixes", "boundary-all-terms",
             "boundary-cutoffs", "one-token", "bench"],
    )
    def test_bit_identical(self, corpus, config):
        corpus = corpus()
        tfidf = vectorize(build_index(corpus), config)
        matrix = reference_vectorize(corpus, config)[0].tocsc()
        got = tfidf.matrix
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(matrix, name).dtype
            assert np.array_equal(getattr(got, name), getattr(matrix, name))
        assert got.shape == matrix.shape
        assert tfidf.article_ids == [rec.id for rec in corpus]

    def test_edge_cases_are_present(self):
        # The corpus above really holds what the comparison is meant to cover.
        corpus = edge_case_corpus()
        config = SemanticConfig(min_df=2, max_df_fraction=0.5)
        tfidf = vectorize(build_index(corpus), config)
        _, columns, _ = reference_vectorize(corpus, config)
        tokens = [tokenize(text_repr(rec)) for rec in corpus]
        assert "i̇stanbul" in columns and "東京 大学" in columns
        assert tokens[1] == ["solo"]
        assert as_scipy(tfidf)[1].nnz == 0 and as_scipy(tfidf)[3].nnz == 0
        assert ngrams(tokens[4]).count("east east") == 2
        # Token ids are string ranks, so the bigram of the first token with
        # itself has the smallest bigram code.
        assert "east east" in columns and "straße straße" in columns
        # Prefix and digit terms are columns, and no two of them are equal,
        # so putting any of them out of string order changes the matrix.
        matrix, columns, _ = reference_vectorize(prefix_corpus(), NO_CUTOFFS)
        terms = ["a", "a b", "a0", "data", "data base", "data basement", "data2",
                 "data2 base", "database"]
        assert [columns[t] for t in terms] == sorted(columns[t] for t in terms)
        dense = matrix.toarray()
        assert len({dense[:, columns[t]].tobytes() for t in terms}) == len(terms)

    def test_boundary_cases_are_present(self):
        corpus = boundary_corpus()
        assert [tokenize(rec.title) for rec in corpus][2] == []
        assert [tokenize(rec.abstract) for rec in corpus][3] == []
        _, _, df = reference_vectorize(corpus, NO_CUTOFFS)
        # Two of the three "deep learning" span the boundary; "works deep"
        # only does; "learning deep" would gain a df if b2 ran into b3.
        assert df["deep learning"] == 3 and df["works deep"] == 1
        assert df["learning deep"] == 1
        tfidf = vectorize(build_index(corpus), SemanticConfig(min_df=2, max_df_fraction=1.0))
        assert all(as_scipy(tfidf)[i].nnz for i in range(len(corpus)))
        # In one-token documents, a bigram could only cross a document boundary.
        _, columns, _ = reference_vectorize(one_token_corpus(), NO_CUTOFFS)
        assert sorted(columns) == ["graft", "spore"]


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


def whole_randomized_svd(a, k, oversample=10, power_iters=2, seed=0):
    """Reference: the SVD unblocked, each product with the CSC ``a`` whole
    through scipy's public ``@`` and the test matrix drawn whole; its power
    iterations orthonormalize as the module does, and its small solve sums
    the Gram per term block as the module does. It runs on one BLAS thread,
    as the module does, since LAPACK rounds by the thread count."""
    with tagfuse.semantic._one_blas_thread():
        rng = np.random.default_rng(seed)
        a = sparse.csc_matrix(a)
        m, n = a.shape
        width = min(k + oversample, min(m, n))
        y = a @ rng.standard_normal((n, width))
        for _ in range(power_iters):
            q = tagfuse.semantic._orthonormalize(y)
            y = a @ (a.T @ q)
        q, _ = np.linalg.qr(y)
        z = a.T @ q
        step = tagfuse.semantic._TERM_BLOCK
        r = np.linalg.cholesky(sum(z[lo : lo + step].T @ z[lo : lo + step]
                                   for lo in range(0, n, step))).T
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


def assert_block_kernels_equal_public_products():
    """``_term_side`` and ``_add_doc_side`` through the kernels that
    ``_kernels()`` returns, block by block and summed, against scipy's ``@``."""
    step, m, width = tagfuse.semantic._TERM_BLOCK, 120, 50
    n = 3 * step + 17
    at = sparse.random(n, m, density=0.05, format="csr", random_state=0)
    a = CscArrays(at.data, at.indices, at.indptr, (m, n))
    q = np.random.default_rng(0).standard_normal((m, width))
    y = np.zeros((m, width))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        z = tagfuse.semantic._term_side(a, lo, hi, q, np.full((hi - lo, width), np.nan))
        assert np.array_equal(z, at[lo:hi] @ q)
        y_block = np.zeros((m, width))
        tagfuse.semantic._add_doc_side(a, lo, hi, z, y_block)
        assert np.array_equal(y_block, at[lo:hi].T @ z)
        tagfuse.semantic._add_doc_side(a, lo, hi, z, y)
    assert np.array_equal(y, at.T @ (at @ q))


class TestRandomizedSvd:
    @pytest.mark.parametrize("m, n, k", SHAPES)
    def test_matches_two_sided_reference_without_sign_alignment(self, m, n, k):
        """Signs are pinned, not just the subspace: the forest breaks
        equal-score splits by order, so a flipped embedding column can
        change the rankings. The last two shapes have n < 2 * (k + 10),
        where LAPACK takes no LQ step on the wide ``B``."""
        a = sparse_input(m, n)()
        u, s = randomized_svd(csc_arrays(a), k=k, oversample=10, power_iters=2, seed=3)
        u_ref, s_ref = two_sided_randomized_svd(a, k=k, seed=3)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m, n, k", SHAPES[-2:])
    def test_in_place_sums_equal_sum_bit_for_bit(self, m, n, k, seed):
        a = sparse_input(m, n)()
        u, s = randomized_svd(csc_arrays(a), k=k, oversample=10, power_iters=2, seed=seed)
        u_ref, s_ref = whole_randomized_svd(a, k=k, seed=seed)
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)

    def test_block_kernels_equal_public_products_bit_for_bit(self):
        """The SVD's products run through ``scipy.sparse._sparsetools``, a
        private module, on blocks whose ``indptr`` slice keeps absolute
        offsets: each block's ``csr_matvecs`` and ``csc_matvecs`` must give
        the public products' bytes, and the in-place sum over the blocks
        those of the whole product. A SciPy release that changes them fails
        here, not in the pipeline."""
        assert_block_kernels_equal_public_products()

    @pytest.mark.parametrize("make, k", SVD_INPUTS)
    def test_matches_householder_solve_without_sign_alignment(self, make, k):
        a = make()
        if make is rank_deficient_input:
            assert np.linalg.matrix_rank(a.toarray()) == 25
        u, s = randomized_svd(csc_arrays(a), k=k, oversample=10, power_iters=2, seed=3)
        u_ref, s_ref = householder_randomized_svd(a, k=k, seed=3)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)

    @staticmethod
    def count_solves(monkeypatch):
        """Record each Cholesky factorization, each reduced QR ("qr", numpy's
        or the final Q's ``_householder_q``) and each R-only QR ("qr-r")."""
        calls = []
        cholesky, qr = np.linalg.cholesky, np.linalg.qr
        householder_q = tagfuse.semantic._householder_q

        def counting_householder_q(yt):
            calls.append("qr")
            return householder_q(yt)

        def counting_cholesky(x):
            calls.append("cholesky")
            return cholesky(x)

        def counting_qr(x, mode="reduced"):
            calls.append("qr-r" if mode == "r" else "qr")
            return qr(x, mode=mode)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(tagfuse.semantic, "_householder_q", counting_householder_q)
        return calls

    @pytest.mark.parametrize("make, k", SVD_INPUTS)
    def test_small_solve_takes_the_cholesky_branch(self, make, k, monkeypatch):
        """Each power iteration takes CholeskyQR2's two factorizations, the
        final Q a Householder QR and the small solve one factorization. At
        rank 25 the width of 30 exceeds the rank, so each power iteration
        falls back to Householder after its first factorization."""
        calls = self.count_solves(monkeypatch)
        power_iters = 2
        randomized_svd(csc_arrays(make()), k=k, oversample=10, power_iters=power_iters, seed=3)
        if make is rank_deficient_input:
            assert calls == ["cholesky", "qr", "cholesky", "qr", "qr", "cholesky"]
        else:
            assert calls == ["cholesky"] * (2 * power_iters) + ["qr", "cholesky"]

    def test_all_zero_input_falls_back_to_householder_bit_for_bit(self, monkeypatch):
        a = np.zeros((6, 5))
        u_ref, s_ref = householder_randomized_svd(a, k=2, seed=4)
        calls = self.count_solves(monkeypatch)
        u, s = randomized_svd(csc_arrays(a), k=2, oversample=10, power_iters=2, seed=4)
        assert calls == ["cholesky", "qr"] * 2 + ["qr", "cholesky", "qr-r"]
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)

    @staticmethod
    def svd_peak(n, m=300, k=40, nnz=120_000):
        a = sparse.random(m, n, density=nnz / (m * n), format="csr", random_state=1)
        tracemalloc.start()
        try:
            randomized_svd(csc_arrays(a), k=k, oversample=10, power_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_does_not_grow_with_n(self):
        """The term side is only ever held one block at a time, so no
        n-by-width array exists. The CSR copy of the input's transpose that
        ``csc_arrays`` makes grows with its nonzeros, which stay fixed here
        while n doubles."""
        width = 40 + 10
        peaks = {n: self.svd_peak(n) for n in (40000, 80000)}
        for n, peak in peaks.items():
            assert peak < 0.5 * n * width * 8
        assert peaks[80000] <= 1.1 * peaks[40000]

    def test_peak_memory_holds_few_m_by_width_arrays(self):
        """Each product is added in place into ``y``, each spent m-by-width
        array is freed before the next is made, and the final QR factors
        ``y`` in place: the SVD's traced peak, its input converted before,
        stays below 2.5 such arrays, where ``np.linalg.qr(y)`` would hold
        ``y``, its copy and ``q``."""
        m, width = 20000, 40 + 10
        a = csc_arrays(sparse.random(m, 2000, density=0.01, format="csr", random_state=0))
        tracemalloc.start()
        try:
            randomized_svd(a, k=40, oversample=10, power_iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m * width * 8

    def test_power_iterations_hold_no_product_temporary(self, monkeypatch):
        """A 5k-like shape, CSC input and n >> m: the range finder and the
        power iterations hold ``q``, the ``y`` they add into and the one
        ``_PRODUCT_BLOCK``-term buffer, and no product of either side; a
        quarter of an m-by-width array is the slack. Summed products would
        add at least one m-by-width and one block-sized array. That peak is
        read when the final QR starts, since the small solve's larger
        ``_TERM_BLOCK`` buffer comes after; the whole SVD's peak, the final
        QR and the small solve with it, is bounded by that buffer."""
        m, n, width, nnz = 4000, 60000, 40 + 10, 300_000
        rng = np.random.default_rng(0)
        a = sparse.csc_matrix(
            (rng.random(nnz), (rng.integers(0, m, nnz), rng.integers(0, n, nnz))), shape=(m, n))
        householder_q = tagfuse.semantic._householder_q
        peaks = []

        def reading_peak(yt):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return householder_q(yt)

        monkeypatch.setattr(tagfuse.semantic, "_householder_q", reading_peak)
        tracemalloc.start()
        try:
            randomized_svd(csc_arrays(a), k=40, oversample=10, power_iters=2)
            _, svd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        [peak] = peaks
        assert peak < (2.25 * m + tagfuse.semantic._PRODUCT_BLOCK) * width * 8
        assert svd_peak < (2.25 * m + tagfuse.semantic._TERM_BLOCK) * width * 8

    def test_zero_input_gives_zero_singular_values(self):
        u, s = randomized_svd(csc_arrays(np.zeros((6, 5))), k=2, oversample=10, power_iters=2)
        assert u.shape == (6, 2) and np.array_equal(s, np.zeros(2))

    def test_exact_on_low_rank_matrices(self):
        rng = np.random.default_rng(5)
        left = rng.standard_normal((60, 8))
        right = rng.standard_normal((8, 40))
        a = left @ right
        u, s = randomized_svd(csc_arrays(a), k=8, oversample=10, power_iters=2, seed=1)
        np.testing.assert_allclose(u @ (u.T @ a), a, atol=1e-8)
        s_exact = np.linalg.svd(a, compute_uv=False)[:8]
        np.testing.assert_allclose(s, s_exact, rtol=1e-10)

    def test_close_to_dense_oracle_on_full_rank_input(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((80, 50))
        _, s = randomized_svd(csc_arrays(a), k=10, oversample=40, power_iters=8, seed=2)
        s_exact = np.linalg.svd(a, compute_uv=False)[:10]
        np.testing.assert_allclose(s, s_exact, rtol=1e-3)

    def test_singular_values_non_increasing_and_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((30, 20))
        u1, s1 = randomized_svd(csc_arrays(a), k=5, oversample=10, power_iters=2, seed=9)
        u2, s2 = randomized_svd(csc_arrays(a), k=5, oversample=10, power_iters=2, seed=9)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2)
        assert all(s1[i] >= s1[i + 1] for i in range(len(s1) - 1))

    def test_different_seed_changes_nothing_material(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 10))
        _, s1 = randomized_svd(csc_arrays(a), k=3, oversample=10, power_iters=4, seed=1)
        _, s2 = randomized_svd(csc_arrays(a), k=3, oversample=10, power_iters=4, seed=2)
        np.testing.assert_allclose(s1, s2, rtol=1e-6)


class TestOrthonormalize:
    def test_ill_conditioned_input_takes_householder_bit_for_bit(self):
        """A column 1e-9 the size of the others still has a Cholesky factor,
        but its diagonal flags the Gram as too ill-conditioned."""
        y = np.random.default_rng(0).standard_normal((2000, 40))
        y[:, 7] *= 1e-9
        q_ref, _ = np.linalg.qr(y)
        assert np.array_equal(tagfuse.semantic._orthonormalize(y), q_ref)

    def test_cholesky_qr2_is_orthonormal_and_spans_the_input(self):
        """Condition number 1e5: one CholeskyQR pass would leave q.T @ q
        about 6e-8 from the identity; the second pass restores it."""
        rng = np.random.default_rng(0)
        rotation, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        y = (rng.standard_normal((3000, 50)) * np.logspace(0, -5, 50)) @ rotation
        y_in = y.copy()
        q = tagfuse.semantic._orthonormalize(y)
        np.testing.assert_allclose(q.T @ q, np.eye(50), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q @ (q.T @ y_in), y_in, rtol=0, atol=1e-12)


def householder_inputs():
    """A tall ``y`` at each ``SHAPES`` width, one wider than tall, one of
    rank 5 at width 30 and one all zero."""
    rng = np.random.default_rng(0)
    ys = {f"{m}x{min(k + 10, m, n)}": rng.standard_normal((m, min(k + 10, m, n)))
          for m, n, k in SHAPES}
    ys["50x60"] = rng.standard_normal((50, 60))
    ys["rank5"] = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 30))
    ys["zero"] = np.zeros((40, 12))
    return ys


class TestHouseholderQ:
    @pytest.mark.parametrize("name", householder_inputs())
    def test_in_place_q_equals_numpy_qr_bit_for_bit(self, name):
        """The final Q runs LAPACK through numpy's private ``lapack_lite``:
        it must give ``np.linalg.qr``'s bytes on the SVD's one BLAS thread,
        in C order. A numpy release that changes either fails here."""
        y = householder_inputs()[name]
        with tagfuse.semantic._one_blas_thread():
            expected = np.linalg.qr(y)[0]
            got = tagfuse.semantic._householder_q(y.T.copy())
        assert got.flags.c_contiguous
        assert got.shape == expected.shape and np.array_equal(got, expected)

    def test_a_lapack_error_raises(self, monkeypatch):
        """A nonzero ``info`` from either call stops the SVD: numpy's
        ``qr`` raises where LAPACK fails, and so must the in-place Q."""
        def failing(*args):
            return {"info": -4}

        monkeypatch.setattr(np.linalg.lapack_lite, "dorgqr", failing)
        with pytest.raises(np.linalg.LinAlgError, match="returned info -4"):
            tagfuse.semantic._householder_q(np.ones((3, 8)))


KERNELS = "scipy.sparse._sparsetools"


@pytest.fixture
def kernel_cache():
    """``_kernels()`` loads anew in the test, and again after it."""
    tagfuse.semantic._kernels.cache_clear()
    yield
    tagfuse.semantic._kernels.cache_clear()


@pytest.fixture(params=["imported", "from-file"])
def kernels(request, kernel_cache, monkeypatch):
    """What ``_kernels()`` returns: the ``scipy.sparse._sparsetools`` this
    process imported, or the module loaded from its file, as in an
    ``embed`` process that never imports ``scipy.sparse``."""
    if request.param == "from-file":
        monkeypatch.delitem(sys.modules, KERNELS)
    module = tagfuse.semantic._kernels()
    assert (module is sparse._sparsetools) == (request.param == "imported")
    assert module.__file__ == sparse._sparsetools.__file__
    return module


class TestKernels:
    def test_sort_and_transpose_equal_public_methods_bit_for_bit(self, kernels):
        """``vectorize`` sorts each CSR row and transposes the rows to CSC
        by two private kernels: they must give the bytes of scipy's public
        ``sort_indices()`` and ``tocsc()``."""
        m, n = 300, 5000
        a = sparse.random(m, n, density=0.02, format="csr", random_state=0)
        rng = np.random.default_rng(0)
        order = np.concatenate(
            [lo + rng.permutation(hi - lo) for lo, hi in zip(a.indptr[:-1], a.indptr[1:])])
        indptr, indices, data = a.indptr.copy(), a.indices[order], a.data[order]
        expected = sparse.csr_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(m, n))
        assert not expected.has_sorted_indices
        expected.sort_indices()
        kernels.csr_sort_indices(m, indptr, indices, data)
        for name, got in (("indptr", indptr), ("indices", indices), ("data", data)):
            assert np.array_equal(got, getattr(expected, name)), name
        expected = expected.tocsc()
        csc = (np.empty(n + 1, indptr.dtype), np.empty(indices.size, indices.dtype),
               np.empty(data.size))
        kernels.csr_tocsc(m, n, indptr, indices, data, *csc)
        for name, got in zip(("indptr", "indices", "data"), csc):
            assert got.dtype == getattr(expected, name).dtype, name
            assert np.array_equal(got, getattr(expected, name)), name

    @pytest.mark.parametrize("kernels", ["from-file"], indirect=True)
    def test_file_loaded_block_kernels_equal_public_products_bit_for_bit(self, kernels):
        """The pins of ``TestRandomizedSvd``, on the kernels loaded from their file."""
        assert_block_kernels_equal_public_products()

    def test_an_imported_module_is_reused(self, kernel_cache, monkeypatch):
        imported = types.ModuleType(KERNELS)
        monkeypatch.setitem(sys.modules, KERNELS, imported)
        assert tagfuse.semantic._kernels() is imported

    def test_no_extension_file_falls_back_to_the_import(self, kernel_cache, monkeypatch):
        monkeypatch.delitem(sys.modules, KERNELS)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        assert tagfuse.semantic._kernels() is sparse._sparsetools


class TestUnmapFreedArrays:
    def test_a_c_library_without_mallopt_is_left_alone(self, monkeypatch):
        """macOS and musl have no ``mallopt``: the helper returns quietly."""
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert tagfuse.semantic.unmap_freed_arrays() is None


class TestOneBlasThread:
    def test_a_blas_library_without_thread_calls_is_left_alone(self, monkeypatch):
        """Another BLAS has no OpenBLAS thread calls: the SVD runs unpinned."""
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert tagfuse.semantic._blas_thread_calls() is None
        u, s = randomized_svd(csc_arrays(np.eye(6, 5)), k=2, oversample=1, power_iters=1)
        assert u.shape == (6, 2) and s.shape == (2,)

    def test_previous_thread_count_is_restored_after_the_svd(self, monkeypatch):
        calls = tagfuse.semantic._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is not the OpenBLAS of its wheels")
        get, set_to = calls
        during = []
        orthonormalize = tagfuse.semantic._orthonormalize

        def recording(y):
            during.append(get())
            return orthonormalize(y)

        monkeypatch.setattr(tagfuse.semantic, "_orthonormalize", recording)
        previous = get()
        set_to(2)
        try:
            a = csc_arrays(sparse_input(300, 2000)())
            randomized_svd(a, k=25, oversample=10, power_iters=2)
            assert during == [1, 1] and get() == 2
        finally:
            set_to(previous)


class TestTruncatedSvd:
    @staticmethod
    def embed(k=2, seed=0):
        config = SemanticConfig(k=k, min_df=1, max_df_fraction=1.0)
        return truncated_svd(vectorize(build_index(tiny_corpus()), config), config, seed=seed)

    def test_shape_and_id_lookup(self):
        sem = self.embed()
        assert sem.matrix.shape == (3, 2)
        assert "d2" in sem.article_ids
        np.testing.assert_array_equal(sem.row("d2"), sem.matrix[1])

    def test_gram_matrix_matches_dense_svd_oracle(self):
        # U*s is defined up to sign/rotation in degenerate cases; the Gram
        # matrix of the embedding is invariant and must match exactly.
        corpus = tiny_corpus()
        tfidf = vectorize(build_index(corpus), NO_CUTOFFS)
        sem = truncated_svd(tfidf, SemanticConfig(k=2), seed=0)
        u, s, _ = np.linalg.svd(as_scipy(tfidf).toarray(), full_matrices=False)
        exact = (u[:, :2] * s[:2]) @ (u[:, :2] * s[:2]).T
        np.testing.assert_allclose(sem.matrix @ sem.matrix.T, exact, atol=1e-9)

    def test_same_seed_bit_identical(self):
        a = self.embed(seed=123)
        b = self.embed(seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_save_load_round_trip(self, tmp_path):
        sem = self.embed()
        paths = str(tmp_path / "embedding.npy"), str(tmp_path / "embedding.json")
        sem.save(*paths)
        again = SemanticMatrix.load(*paths)
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
    def test_load_rejects_a_shape_mismatch(self, spec_run, tmp_path, caplog, change):
        # ``load`` checks nothing: the manifest's digests catch the change
        # before train-rank loads the embedding.
        def damage(out):
            meta_path, npy = out / "embedding.json", str(out / "embedding.npy")
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            change(meta, npy)
            meta_path.write_text(json.dumps(meta), encoding="utf-8")

        code, errors = run_on_damaged_copy(spec_run, tmp_path, caplog, ".", damage, "train-rank")
        assert code == 3 and len(errors) == 1
        assert errors[0].endswith("changed since 'tagfuse embed' wrote it; re-run 'tagfuse embed'")

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            SemanticConfig(k=1)

