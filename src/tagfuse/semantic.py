"""Latent semantic document embeddings.

Articles are represented as TF-IDF weighted bags of unigrams and bigrams
over title plus abstract, then projected to a low-dimensional space with a
randomized truncated SVD. Articles sharing vocabulary communities end up
near each other even when they share no literal term with a query, which
is what lets the classifier route reach articles the synonym-set search
cannot.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Corpus, GroundTruth, text_repr
from .errors import TagfuseError
from .text import ngrams, tokenize

logger = logging.getLogger(__name__)

# Working range of the latent dimension for real corpora. Smaller values
# are legal (tiny test corpora cannot support 100 dimensions), just noisy.
RECOMMENDED_K = (100, 600)


@dataclass(frozen=True)
class Vocabulary:
    """Term-to-column map over unigrams and bigrams, with frequencies.

    Columns are assigned in lexicographic term order, so a vocabulary is
    fully determined by the corpus and the frequency cutoffs.
    """

    columns: dict[str, int]
    document_frequency: dict[str, int]
    n_docs: int

    def __len__(self) -> int:
        return len(self.columns)


@dataclass
class TfIdfMatrix:
    """Sparse article-by-term matrix with L2-normalized rows."""

    matrix: sparse.csr_matrix
    vocab: Vocabulary
    article_ids: list[str]


@dataclass
class SemanticMatrix:
    """Dense article embeddings: left singular vectors scaled by the
    singular values, one row per article."""

    matrix: np.ndarray
    article_ids: list[str]
    seed: int

    def __post_init__(self):
        self._row_of = {a: i for i, a in enumerate(self.article_ids)}

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def row(self, article_id: str) -> np.ndarray:
        try:
            return self.matrix[self._row_of[article_id]]
        except KeyError:
            raise TagfuseError(f"article {article_id!r} has no embedding") from None

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._row_of

    def save(self, path_prefix: str) -> None:
        """Write ``<prefix>.npy`` (rows) and ``<prefix>.json`` (metadata)."""
        np.save(f"{path_prefix}.npy", self.matrix)
        meta = {
            "format": "tagfuse-embedding",
            "version": 1,
            "k": int(self.k),
            "seed": int(self.seed),
            "article_ids": self.article_ids,
        }
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, path_prefix: str) -> "SemanticMatrix":
        with open(f"{path_prefix}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("format") != "tagfuse-embedding" or meta.get("version") != 1:
            raise TagfuseError(f"{path_prefix}.json: not a saved embedding")
        matrix = np.load(f"{path_prefix}.npy")
        return cls(matrix=matrix, article_ids=meta["article_ids"], seed=meta["seed"])


def vectorize(
    corpus: Corpus, min_df: int = 2, max_df_fraction: float = 0.5
) -> TfIdfMatrix:
    """TF-IDF of the unigrams and bigrams of title+abstract, rows
    L2-normalized, from one tokenization of each document.

    Terms kept satisfy ``min_df <= df <= max_df_fraction * len(corpus)``.
    The lower cutoff drops hapax noise; the upper cutoff drops terms so
    common they carry no topical signal. Columns are the kept terms in
    lexicographic order. Weights use the smoothed
    idf(t) = ln((1 + M) / (1 + df(t))) + 1 with M the corpus size. A
    document whose terms were all filtered away keeps an all-zero row.
    """
    if min_df < 1:
        raise ValueError("min_df must be at least 1")
    if not 0.0 < max_df_fraction <= 1.0:
        raise ValueError("max_df_fraction must be in (0, 1]")
    n_docs = len(corpus)
    if n_docs == 0:
        raise TagfuseError("cannot fit a vocabulary on an empty corpus")

    # One row per document over provisional term ids in first-seen order.
    term_id: dict[str, int] = {}
    indptr = [0]
    indices: list[int] = []
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
    in_range = (df >= min_df) & (df <= max_df_fraction * n_docs)
    kept = sorted((terms[i], i) for i in np.flatnonzero(in_range).tolist())
    if not kept:
        raise TagfuseError(
            f"vocabulary is empty after frequency filtering "
            f"(min_df={min_df}, max_df_fraction={max_df_fraction})"
        )
    vocab = Vocabulary(
        columns={t: col for col, (t, _) in enumerate(kept)},
        document_frequency={t: int(df[i]) for t, i in kept},
        n_docs=n_docs,
    )
    # math.log per term: np.log's SIMD paths can differ in the last bit by CPU.
    idf = np.array([math.log((1 + n_docs) / (1 + df[i])) + 1.0 for _, i in kept])

    matrix = counts[:, [i for _, i in kept]]
    matrix.sort_indices()
    matrix.data *= idf[matrix.indices]
    norms = sparse.linalg.norm(matrix, axis=1)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    matrix = sparse.diags(scale) @ matrix
    return TfIdfMatrix(matrix=matrix.tocsr(), vocab=vocab, article_ids=corpus.ids())


def randomized_svd(
    a,
    k: int,
    oversample: int = 10,
    power_iters: int = 2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD by randomized range finding (Halko, Martinsson and
    Tropp, *Finding structure with randomness*, arXiv:0909.4061, §4.3-4.5).

    ``Q`` is the orthonormalized product of ``a`` and a Gaussian test
    matrix with ``width = k + oversample`` columns, sharpened by
    ``power_iters`` rounds of ``Q <- qr(a @ (a.T @ Q))``. Only this
    m-by-width side is orthonormalized: a Householder Q does not change
    when its input is multiplied on the right by an upper-triangular
    matrix, so a QR of the n-by-width ``a.T @ Q`` would change only
    rounding. The small solve takes just the R factor of ``a.T @ Q`` and
    the SVD ``R.T = U_R S V_R^T``; it forms neither an orthonormal basis
    of the n side nor the width-by-n ``B = Q.T @ a``. Then
    ``u = Q @ U_R`` and ``vt = (a.T @ u).T / s``, with zero rows where
    ``s`` is zero. Accuracy improves with both parameters; for matrices of
    rank at most ``width`` the result is exact to rounding.

    Column signs are part of the contract: they match ``np.linalg.svd(B)``
    to rounding (``R.T`` is the L factor of the LQ step that ``gesdd``
    takes when ``B`` is wide; tests pin narrower shapes too). The forest
    breaks equal-score splits by order, so a flipped column can change
    the rankings.

    Returns ``(u, s, vt)`` with ``u`` of shape (m, k), ``s`` of shape (k,)
    in non-increasing order, and ``vt`` of shape (k, n). Deterministic for
    a fixed seed.
    """
    m, n = a.shape
    if k < 1:
        raise ValueError("k must be positive")
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")
    if oversample < 0 or power_iters < 0:
        raise ValueError("oversample and power_iters must be non-negative")

    rng = np.random.default_rng(seed)
    width = min(k + oversample, min(m, n))
    q, _ = np.linalg.qr(a @ rng.standard_normal((n, width)))
    for _ in range(power_iters):
        q, _ = np.linalg.qr(a @ (a.T @ q))
    r = np.linalg.qr(a.T @ q, mode="r")
    u_small, s, _ = np.linalg.svd(r.T)
    u = q @ u_small[:, :k]
    s = s[:k]
    vt = (a.T @ u).T / np.where(s > 0, s, np.inf)[:, None]
    return u, s, vt


def truncated_svd(
    tfidf: TfIdfMatrix,
    k: int = 150,
    oversample: int = 10,
    power_iters: int = 2,
    seed: int = 0,
) -> SemanticMatrix:
    """Embed every article as its row of ``U[:, :k] * s[:k]``."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if not RECOMMENDED_K[0] <= k <= RECOMMENDED_K[1]:
        logger.warning(
            "latent dimension k=%d outside the usual range %s", k, RECOMMENDED_K
        )
    u, s, _ = randomized_svd(
        tfidf.matrix, k, oversample=oversample, power_iters=power_iters, seed=seed
    )
    return SemanticMatrix(
        matrix=u * s, article_ids=list(tfidf.article_ids), seed=seed
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero-norm input is an error."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine is undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


@dataclass(frozen=True)
class QualityReport:
    """Separation of labeled articles in the embedding."""

    mean_intra_topic: float
    mean_random_pair: float
    n_intra_pairs: int
    n_random_pairs: int

    @property
    def gap(self) -> float:
        return self.mean_intra_topic - self.mean_random_pair


def embedding_quality(
    sem: SemanticMatrix,
    truth: GroundTruth,
    seed: int = 0,
    max_intra_pairs: int = 50_000,
    n_random_pairs: int = 2_000,
) -> QualityReport:
    """Mean within-topic cosine against mean random-pair cosine.

    A healthy embedding separates: articles sharing a true topic should be
    more similar than arbitrary pairs, so the gap should be clearly
    positive. Needs at least two topics with two or more embedded,
    labeled articles each.
    """
    rng = np.random.default_rng(seed)
    by_topic: dict[str, list[int]] = {}
    for article_id, topics in truth.labels.items():
        if article_id in sem:
            row = sem._row_of[article_id]
            for t in topics:
                by_topic.setdefault(t, []).append(row)

    eligible = {t: sorted(rows) for t, rows in by_topic.items() if len(rows) >= 2}
    if len(eligible) < 2:
        raise TagfuseError(
            "embedding quality needs at least two topics with two or more "
            f"labeled articles (found {len(eligible)})"
        )

    pairs: list[tuple[int, int]] = []
    for t in sorted(eligible):
        rows = eligible[t]
        pairs.extend(
            (rows[i], rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )
    if len(pairs) > max_intra_pairs:
        chosen = rng.choice(len(pairs), size=max_intra_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]

    def mean_cosine(pair_list: list[tuple[int, int]]) -> float:
        total = 0.0
        for i, j in pair_list:
            total += cosine(sem.matrix[i], sem.matrix[j])
        return total / len(pair_list)

    m = len(sem.article_ids)
    random_pairs: list[tuple[int, int]] = []
    while len(random_pairs) < n_random_pairs:
        i, j = rng.integers(0, m, size=2)
        if i != j:
            random_pairs.append((int(i), int(j)))

    return QualityReport(
        mean_intra_topic=mean_cosine(pairs),
        mean_random_pair=mean_cosine(random_pairs),
        n_intra_pairs=len(pairs),
        n_random_pairs=len(random_pairs),
    )
