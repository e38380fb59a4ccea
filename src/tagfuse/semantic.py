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
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import iadd
from typing import TYPE_CHECKING

# numpy is imported inside the functions that compute with it, and scipy
# inside ``vectorize``: the stages that never do (index, synset, fuse,
# eval) then start without loading either.
if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

from .corpus import Corpus, text_repr
from .errors import ConfigError, TagfuseError
from .text import tokenize

logger = logging.getLogger(__name__)

# Working range of the latent dimension for real corpora. Smaller values
# are legal (tiny test corpora cannot support 100 dimensions), just noisy.
RECOMMENDED_K = (100, 600)


@dataclass(frozen=True)
class SemanticConfig:
    """The ``semantic`` config section: the vocabulary cutoffs, the latent
    dimension ``k`` and the accuracy knobs of the randomized SVD."""

    k: int = 150
    min_df: int = 2
    max_df_fraction: float = 0.5
    oversample: int = 10
    power_iters: int = 2

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("semantic.k must be at least 2")
        if self.min_df < 1:
            raise ConfigError("semantic.min_df must be at least 1")
        if not 0.0 < self.max_df_fraction <= 1.0:
            raise ConfigError("semantic.max_df_fraction must be in (0, 1]")
        if self.oversample < 0 or self.power_iters < 0:
            raise ConfigError("semantic.oversample and power_iters must be >= 0")


@dataclass
class TfIdfMatrix:
    """Sparse article-by-term matrix with L2-normalized rows, one column per
    vocabulary term."""

    matrix: sparse.csr_matrix
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

    def save(self, path_prefix: str) -> None:
        """Write ``<prefix>.npy`` (rows) and ``<prefix>.json`` (metadata)."""
        import numpy as np
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
        import numpy as np
        try:
            with open(f"{path_prefix}.json", encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:  # truncated, or not JSON
            raise TagfuseError(f"{path_prefix}.json: {exc}") from exc
        saved = isinstance(meta, dict) and {"k", "seed", "article_ids"} <= meta.keys()
        saved = saved and meta.get("format") == "tagfuse-embedding"
        if not saved or meta.get("version") != 1:
            raise TagfuseError(f"{path_prefix}.json: not a saved embedding")
        try:
            matrix = np.load(f"{path_prefix}.npy")
        except (EOFError, ValueError) as exc:  # truncated, or not an array file
            raise TagfuseError(f"{path_prefix}.npy: {exc}") from exc
        if matrix.shape != (len(meta["article_ids"]), meta["k"]):
            raise TagfuseError(
                f"{path_prefix}.npy: shape {matrix.shape}, but its .json has "
                f"{len(meta['article_ids'])} article ids and k={meta.get('k')}"
            )
        return cls(matrix=matrix, article_ids=meta["article_ids"], seed=meta["seed"])


def vectorize(corpus: Corpus, config: SemanticConfig = SemanticConfig()) -> TfIdfMatrix:
    """TF-IDF of the unigrams and bigrams of title+abstract, rows
    L2-normalized, from one tokenization of each document.

    Terms kept satisfy ``min_df <= df <= max_df_fraction * len(corpus)``
    (both from ``config``). The lower cutoff drops hapax noise; the upper
    cutoff drops terms so common they carry no topical signal. Columns
    are the kept terms in lexicographic order. Weights use the smoothed
    idf(t) = ln((1 + M) / (1 + df(t))) + 1 with M the corpus size. A
    document whose terms were all filtered away keeps an all-zero row.
    Terms are counted and ordered as integer codes; no term becomes a string.
    """
    import numpy as np
    from scipy import sparse

    n_docs = len(corpus)
    if n_docs == 0:
        raise TagfuseError("cannot fit a vocabulary on an empty corpus")

    # Token ids in first-seen order, one tokenization per document.
    token_id: defaultdict[str, int] = defaultdict()
    token_id.default_factory = token_id.__len__
    ids: list[int] = []
    lengths: list[int] = []
    for rec in corpus:
        words = tokenize(text_repr(rec))
        ids.extend(map(token_id.__getitem__, words))
        lengths.append(len(words))
    # The large temporaries are deleted as soon as they are spent: the
    # freed heap they would leave behind adds to the SVD's peak RSS.
    token = np.asarray(ids, dtype=np.int64)
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    # Term codes: every token occurs, so the unigram codes are 0..u-1; the
    # bigram (a, b) is u + the rank of a*u + b among the bigrams (u < 3e9
    # tokens, so int64 cannot wrap); no bigram crosses a document boundary.
    u = len(token_id)
    within = doc[:-1] == doc[1:]
    bigrams, term = np.unique(token[:-1][within] * u + token[1:][within], return_inverse=True)
    n_terms = u + bigrams.size
    term = np.concatenate([token, term + u])
    # One cell per (document, term), in row-major order, with its count.
    term += np.concatenate([doc, doc[:-1][within]]) * n_terms
    del token, ids, doc, within
    cells, tf = np.unique(term, return_counts=True)
    del term
    cell_doc, cell_term = np.divmod(cells, n_terms)
    del cells
    df = np.bincount(cell_term, minlength=n_terms)
    counts = sparse.csr_matrix(
        (tf.astype(np.float64), cell_term, np.searchsorted(cell_doc, np.arange(n_docs + 1))),
        shape=(n_docs, n_terms),
    )
    del cell_doc, cell_term, tf

    kept = np.flatnonzero((df >= config.min_df) & (df <= config.max_df_fraction * n_docs))
    if not kept.size:
        raise TagfuseError(
            f"vocabulary is empty after frequency filtering "
            f"(min_df={config.min_df}, max_df_fraction={config.max_df_fraction})"
        )
    # Columns in the string order of the terms, "a" or "a b", with no string
    # built: by the first token's rank among the sorted tokens (argsort
    # inverts the sorted order), then the second's, -1 for none. No token
    # holds a space or a character below it, so "a b" < "ab" as a < ab.
    rank = np.argsort([i for _, i in sorted(token_id.items())])
    n_unigrams = np.searchsorted(kept, u)
    first, second = np.divmod(bigrams[kept[n_unigrams:] - u], u)
    second = np.concatenate([np.full(n_unigrams, -1), rank[second]])
    kept = kept[np.lexsort((second, rank[np.concatenate([kept[:n_unigrams], first])]))]
    # math.log per term: np.log's SIMD paths can differ in the last bit by CPU.
    idf = np.array([math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df[kept].tolist()])

    matrix = counts[:, kept]
    del counts
    matrix.sort_indices()
    matrix.data *= idf[matrix.indices]
    # Rows scaled to unit length in place; a row with no kept term stays empty.
    row_nnz = np.diff(matrix.indptr)
    rows = np.flatnonzero(row_nnz)
    norms = np.sqrt(np.add.reduceat(matrix.data**2, matrix.indptr[rows]))
    matrix.data *= np.repeat(1.0 / norms, row_nnz[rows])
    return TfIdfMatrix(matrix=matrix, article_ids=corpus.ids())


# Terms per block of the SVD's term-side products: no n-by-width array is
# ever whole, so the SVD's dense memory does not grow with the vocabulary.
_TERM_BLOCK = 8192


def randomized_svd(
    a, k: int, oversample: int, power_iters: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated SVD by randomized range finding (Halko, Martinsson and
    Tropp, arXiv:0909.4061, §4.3-4.5).

    ``Q`` orthonormalizes ``a`` times a Gaussian test matrix of ``width =
    k + oversample`` columns, then ``power_iters`` rounds of ``Q <- qr(a @
    (a.T @ Q))``; only this m side is orthonormalized. Every product with
    ``a`` is summed over blocks of ``_TERM_BLOCK`` terms (rows of ``a.T``),
    and the test matrix is drawn block by block from one generator, so its
    numbers are those of one whole draw. The small solve takes R from the
    Cholesky factor of the Gram of ``Z = a.T @ Q``, summed from the blocks'
    Grams (CholeskyQR, Fukaya et al. 2014); only a singular Gram builds
    ``Z`` whole, for its Householder R. With ``R.T = U_R S V_R^T``, ``u = Q
    @ U_R``. ``U_R`` ignores R's row signs, so the column signs match
    ``svd(Q.T @ a)`` to rounding; tests pin them, since the forest breaks
    ties by order. Returns ``(u, s)`` of shapes (m, k) and (k,), ``s``
    non-increasing; deterministic for a fixed seed.
    """
    import numpy as np
    from scipy import sparse
    m, n = a.shape
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds min(m, n)={min(m, n)}")

    rng = np.random.default_rng(seed)
    width = min(k + oversample, min(m, n))
    at = sparse.csr_matrix(a.T)

    def blocks():
        return (at[lo : lo + _TERM_BLOCK] for lo in range(0, n, _TERM_BLOCK))

    def gram(b):  # a block's share of Z.T @ Z; its z is freed on return
        z = b @ q
        return z.T @ z

    # reduce(iadd, ..., 0) adds as sum() does, 0 + p1 + p2 + ..., into one
    # array, and each spent m-by-width array is freed before the next.
    y = reduce(iadd, (b.T @ rng.standard_normal((b.shape[0], width)) for b in blocks()), 0)
    for _ in range(power_iters):
        q, _ = np.linalg.qr(y)
        del y
        y = reduce(iadd, (b.T @ (b @ q) for b in blocks()), 0)
        del q
    q, _ = np.linalg.qr(y)
    del y
    try:
        r = np.linalg.cholesky(reduce(iadd, map(gram, blocks()), 0)).T
    except np.linalg.LinAlgError:  # singular Gram, e.g. an all-zero ``a``
        r = np.linalg.qr(at @ q, mode="r")
    u_small, s, _ = np.linalg.svd(r.T)
    return q @ u_small[:, :k], s[:k]


def truncated_svd(
    tfidf: TfIdfMatrix, config: SemanticConfig = SemanticConfig(), seed: int = 0
) -> SemanticMatrix:
    """Embed every article as its row of ``U[:, :k] * s[:k]``."""
    k = config.k
    bound = min(tfidf.matrix.shape)
    if k > bound:
        raise TagfuseError(
            f"semantic.k={k} exceeds min(articles, vocabulary terms)={bound}; "
            "lower semantic.k"
        )
    if not RECOMMENDED_K[0] <= k <= RECOMMENDED_K[1]:
        logger.warning(
            "latent dimension k=%d outside the usual range %s", k, RECOMMENDED_K
        )
    u, s = randomized_svd(tfidf.matrix, k, config.oversample, config.power_iters, seed)
    return SemanticMatrix(
        matrix=u * s, article_ids=list(tfidf.article_ids), seed=seed
    )
