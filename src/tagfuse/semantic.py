"""Latent semantic document embeddings.

Articles are represented as TF-IDF weighted bags of unigrams and bigrams
over title plus abstract, then projected to a low-dimensional space with a
randomized truncated SVD. Articles sharing vocabulary communities end up
near each other even when they share no literal term with a query, which
is what lets the classifier route reach articles the synonym-set search
cannot.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported inside the functions that compute with it: the stages
# that never do (index, synset, fuse, eval) then start without loading it.
# ``embed`` runs scipy's compiled sparse kernels (``_kernels``) and never
# imports ``scipy.sparse``.
if TYPE_CHECKING:
    import numpy as np

from .corpus import TEXT_FIELDS
from .errors import ConfigError, TagfuseError
from .index import Index

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


@dataclass(frozen=True)
class CscArrays:
    """An m-by-n sparse matrix as the arrays of its compressed sparse
    columns, those of scipy's ``csc_matrix((data, indices, indptr), shape)``:
    column j holds ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``. They are also the compressed
    sparse rows of the n-by-m transpose."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size


@dataclass
class TfIdfMatrix:
    """Sparse article-by-term matrix with L2-normalized rows, one column per
    vocabulary term; each column's rows ascend."""

    matrix: CscArrays
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

    def row(self, article_id: str) -> np.ndarray:
        return self.matrix[self._row_of[article_id]]

    def save(self, npy_path: str, json_path: str) -> None:
        """Write the rows to ``npy_path`` and the metadata to ``json_path``."""
        import numpy as np
        with open(npy_path, "wb") as fh:  # np.save would append ".npy" to a path
            np.save(fh, self.matrix)
        meta = {
            "format": "tagfuse-embedding",
            "version": 1,
            "k": int(self.matrix.shape[1]),
            "seed": int(self.seed),
            "article_ids": self.article_ids,
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, npy_path: str, json_path: str) -> "SemanticMatrix":
        """What ``save`` wrote, unchecked: the run manifest vouches for it. No pickle is read."""
        import numpy as np
        with open(json_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        return cls(matrix=np.load(npy_path), article_ids=meta["article_ids"], seed=meta["seed"])


def vectorize(index: Index, config: SemanticConfig = SemanticConfig()) -> TfIdfMatrix:
    """TF-IDF of the unigrams and bigrams of title+abstract, rows
    L2-normalized, from the token positions of the index: a document's
    title and abstract tokens form one stream, so a bigram may join them.

    Terms kept satisfy ``min_df <= df <= max_df_fraction * len(index)``
    (both from ``config``). The lower cutoff drops hapax noise; the upper
    cutoff drops terms so common they carry no topical signal. Columns
    are the kept terms in lexicographic order. Weights use the smoothed
    idf(t) = ln((1 + M) / (1 + df(t))) + 1 with M the corpus size. A
    document whose terms were all filtered away keeps an all-zero row.
    Terms are counted and ordered as integer codes; no term becomes a string.
    ``index`` is dropped once its token stream is read, so it is freed
    then unless the caller holds it.
    """
    import numpy as np

    n_docs = len(index)
    if n_docs == 0:
        raise TagfuseError("cannot fit a vocabulary on an empty corpus")

    def read(a):  # an index array, in the typecode the index gave it
        return np.frombuffer(a, a.typecode)

    def run_starts(a):  # True where the sorted ``a`` first holds each value
        first = np.empty(a.size, dtype=bool)
        first[:1] = True
        np.not_equal(a[1:], a[:-1], out=first[1:])
        return first

    # Token ids are string ranks over both fields' terms, so ordering ids
    # orders terms. Each field's positions go into the stream at their
    # document's start, the abstract's after the title's tokens.
    fields = [index._fields[name] for name in TEXT_FIELDS]
    rank = {t: i for i, t in enumerate(sorted(set().union(*(f.terms for f in fields))))}
    u = len(rank)
    lengths = sum(read(f.doc_length).astype(np.int64) for f in fields)
    start = np.cumsum(lengths) - lengths
    token = np.empty(lengths.sum(), dtype=np.int64)
    for f in fields:
        ids = np.fromiter(map(rank.__getitem__, f.terms), np.int64, len(f.terms))
        per_posting = np.diff(read(f.pos_ptr))
        at = np.repeat(start[read(f.docs)], per_posting)
        at += read(f.positions)
        ids = np.repeat(ids, np.diff(read(f.term_ptr)))
        token[at] = np.repeat(ids, per_posting)
        del at, ids, per_posting
        start += read(f.doc_length)
    article_ids = list(index.article_ids)
    # The large temporaries are deleted as soon as they are spent.
    del index, fields, f, rank
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    # Term codes: every token occurs, so the unigram codes are 0..u-1; the
    # bigram (a, b) is u + the rank of its key a*(u+1) + b+1 (u < 3e9 tokens,
    # so int64 cannot wrap); no bigram crosses a document boundary. Each
    # bigram's code goes through the keys' argsort into ``term``'s tail.
    within = doc[:-1] == doc[1:]
    keys = token[:-1][within]
    keys *= u + 1
    keys += token[1:][within]
    keys += 1
    order = keys.argsort()
    keys = keys[order]
    first = run_starts(keys)
    bigrams = keys[first]
    n_terms = u + bigrams.size
    term = np.empty(token.size + keys.size, dtype=np.int64)
    term[: token.size] = token
    del token
    np.cumsum(first, out=keys)
    del first
    keys += u - 1
    term[doc.size :][order] = keys
    del keys, order
    # One cell per (document, term), in row-major order, with its count.
    doc *= n_terms
    term[: doc.size] += doc
    term[doc.size :] += doc[:-1][within]
    del doc, within
    # Counted in place: np.unique(term, return_counts=True) sorts a copy.
    term.sort()
    first = run_starts(term)
    cells = term[first]
    n_codes = term.size
    del term
    # The cells' counts, documents and terms in int32 unless one could
    # overflow it: none exceeds the number of term codes or of documents.
    cell_type = np.int32 if max(n_codes, n_docs) < 2**31 else np.int64
    # Each cell's count, the distance from its first code to the next cell's.
    starts = np.flatnonzero(first)
    del first
    tf = np.empty(cells.size, dtype=cell_type)
    np.subtract(starts[1:], starts[:-1], out=tf[:-1], casting="unsafe")
    tf[-1:] = n_codes - starts[-1:]
    del starts
    cell_doc, cell_term = (np.empty(cells.size, dtype=cell_type) for _ in range(2))
    np.divmod(cells, n_terms, out=(cell_doc, cell_term), casting="unsafe")
    del cells
    df = np.bincount(cell_term, minlength=n_terms)

    kept = np.flatnonzero((df >= config.min_df) & (df <= config.max_df_fraction * n_docs))
    if not kept.size:
        raise TagfuseError(
            f"vocabulary is empty after frequency filtering "
            f"(min_df={config.min_df}, max_df_fraction={config.max_df_fraction})"
        )
    # Columns in the string order of the terms, "a" or "a b", with no string
    # built: by key, a*(u+1) for the unigram a. No token holds a space or a
    # character below it, so "a" < "a b" < "ab" as a*(u+1) < a*(u+1) + b+1
    # < (a+1)*(u+1). The kept codes ascend, so their unigrams come first.
    split = np.searchsorted(kept, u)
    kept = kept[np.argsort(np.concatenate([kept[:split] * (u + 1), bigrams[kept[split:] - u]]))]
    del bigrams  # held into the SVD, it raised embed's peak at 10k by 7 MB
    # math.log per term: np.log's SIMD paths can differ in the last bit by CPU.
    idf = np.array([math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df[kept].tolist()])

    # The kept cells as CSR arrays, each cell's column its term's place in
    # ``kept`` (-1 for a dropped term), then each row sorted by column. The
    # index type is scipy's: int32 unless a count would overflow it.
    index_type = np.int32 if max(cell_term.size, n_terms) < 2**31 else np.int64
    column = np.full(n_terms, -1, dtype=index_type)
    column[kept] = np.arange(kept.size, dtype=index_type)
    indices = column[cell_term]
    del cell_term, column
    keep = indices >= 0
    indices = indices[keep]
    data = tf[keep].astype(np.float64)
    indptr = np.zeros(n_docs + 1, dtype=index_type)
    np.cumsum(np.bincount(cell_doc[keep], minlength=n_docs), out=indptr[1:])
    del cell_doc, tf, keep
    kernels = _kernels()
    kernels.csr_sort_indices(n_docs, indptr, indices, data)
    data *= idf[indices]
    # Rows scaled to unit length in place; a row with no kept term stays empty.
    row_nnz = np.diff(indptr)
    rows = np.flatnonzero(row_nnz)
    norms = np.sqrt(np.add.reduceat(data**2, indptr[rows]))
    data *= np.repeat(1.0 / norms, row_nnz[rows])
    # Transposed to compressed columns, the layout the SVD reads.
    csc = CscArrays(np.empty(data.size), np.empty(data.size, dtype=index_type),
                    np.empty(kept.size + 1, dtype=index_type), (n_docs, kept.size))
    kernels.csr_tocsc(n_docs, kept.size, indptr, indices, data, csc.indptr, csc.indices, csc.data)
    return TfIdfMatrix(matrix=csc, article_ids=article_ids)


def unmap_freed_arrays() -> None:
    """Fix glibc's ``M_MMAP_THRESHOLD`` at its default, 128 KiB, by
    ``mallopt``, for the rest of the process; nothing where the C library
    has no such call (macOS, musl). Left to itself, glibc raises the
    threshold as mapped arrays are freed, and later ones come from the heap,
    whose freed pages stay resident. Fixed, each array of 128 KiB or more
    is unmapped when freed. ``ctypes`` is imported here, so that the CLI
    loads it only in the stages that load numpy, which imports it anyway."""
    import ctypes
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD is -3


@functools.cache
def _kernels():
    """scipy's compiled sparse kernels, ``scipy.sparse._sparsetools``,
    loaded from their extension file: ``import scipy.sparse`` would run the
    package's ``__init__``, which loads numpy's f2py, testing and masked
    arrays and costs about 17 MB of RSS that ``embed`` would hold to its
    peak. ``find_spec`` finds scipy without importing it. The module is
    reused if it is already imported, and imported as usual where no file
    is found: the same kernels, with only the memory lost."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    home = os.path.dirname(importlib.util.find_spec("scipy").origin)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(home, "sparse", "_sparsetools" + suffix)
        if os.path.exists(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.sparse import _sparsetools
    return _sparsetools


def _blas_thread_calls():
    """The calls that get and set the thread count of numpy's OpenBLAS, or
    None where numpy's BLAS is not the OpenBLAS its wheels bundle (a system
    BLAS, MKL, Accelerate): no such library is found, or none with these
    calls. ``ctypes`` is imported here, as in ``unmap_freed_arrays``."""
    import ctypes
    import glob
    import os

    import numpy as np
    home = os.path.dirname(np.__file__)
    found = glob.glob(os.path.join(home + ".libs", "*openblas*"))
    found += glob.glob(os.path.join(home, ".dylibs", "*openblas*"))
    lib = ctypes.CDLL(found[0]) if found else None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_"):
        get, set_to = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and set_to is not None:
            return get, set_to
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the previous count
    after it; nothing where ``_blas_thread_calls`` finds no calls. A
    threaded LAPACK ``potrf`` or ``geqrf`` rounds by its thread count,
    which OpenBLAS takes from the CPU count, so the embedding would differ
    between machines. ``OPENBLAS_NUM_THREADS`` acts only if it is set
    before numpy loads."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_to = calls
    previous = get()
    set_to(1)
    try:
        yield
    finally:
        set_to(previous)


# Terms per block of the SVD's term side: no n-by-width array is ever
# whole, so the SVD's dense memory does not grow with the vocabulary. The
# small solve sums its Gram by ``_TERM_BLOCK`` terms, which rounds by block,
# so that size is part of the embedding's bits. The range finder and the
# power iterations run their products by ``_PRODUCT_BLOCK`` terms, through a
# buffer a quarter the size: there each term-side row is summed alone and
# the document side adds into ``y`` in order, so the block size changes no bit.
_TERM_BLOCK = 8192
_PRODUCT_BLOCK = _TERM_BLOCK // 4


# The SVD's products run through the kernels that scipy's ``@`` calls, on
# the term block ``lo:hi`` of ``a``'s CSC arrays, which are the CSR arrays of
# ``a.T``. The ``indptr`` slice keeps absolute offsets into the whole
# ``indices`` and ``data``, so a block is a view, and the kernels add into a
# C-contiguous array the caller owns (of any other, ``ravel`` would pass a
# copy). Their module is private: a test pins these calls to the public
# products' bytes.


def _term_side(a: CscArrays, lo: int, hi: int, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = a[:, lo:hi].T @ q``, the block's rows of ``a.T @ q``, as ``@`` sums them."""
    out.fill(0.0)
    _kernels().csr_matvecs(hi - lo, a.shape[0], q.shape[1], a.indptr[lo : hi + 1], a.indices,
                           a.data, q.ravel(), out.ravel())
    return out


def _add_doc_side(a: CscArrays, lo: int, hi: int, z: np.ndarray, y: np.ndarray) -> None:
    """``y += a[:, lo:hi] @ z``, each product added straight into ``y``."""
    _kernels().csc_matvecs(a.shape[0], hi - lo, z.shape[1], a.indptr[lo : hi + 1], a.indices,
                           a.data, z.ravel(), y.ravel())


def _householder_q(yt: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(yt.T)[0]``, bit for bit, in ``yt``'s own memory:
    ``yt`` holds the tall matrix in column-major order, as LAPACK reads it,
    and is overwritten. numpy's ``qr`` copies the matrix once by ``astype``
    and once into each of its two LAPACK steps; here ``dgeqrf`` and
    ``dorgqr`` run in place, through numpy's private ``lapack_lite``, which
    links the OpenBLAS of ``np.linalg``, each with the work size it asks
    for, and only the C-order Q is copied out. A test pins the bytes."""
    import numpy as np
    from numpy.linalg import lapack_lite
    n, m = yt.shape
    mn = min(m, n)
    tau, size = np.empty(mn), np.empty(1)

    def run(call, *args):
        info = call(*args, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK {call.__name__} returned info {info}")

    for call, dims in ((lapack_lite.dgeqrf, (m, n)), (lapack_lite.dorgqr, (m, mn, mn))):
        run(call, *dims, yt, max(1, m), tau, size, -1)  # the work size query
        work = np.empty(max(1, n, int(size[0])))
        run(call, *dims, yt, max(1, m), tau, work, work.size)
    return np.ascontiguousarray(yt[:mn].T)


def _orthonormalize(y: np.ndarray) -> np.ndarray:
    """Orthonormalize the tall ``y`` in place by CholeskyQR2 (Fukaya et al.
    2014): twice ``y <- y @ inv(R)``, R the Cholesky factor of ``y.T @ y``,
    over 512-row blocks. A singular or ill-conditioned Gram takes numpy's
    Householder QR (``scipy.linalg`` would load a second OpenBLAS)."""
    import numpy as np
    for _ in range(2):
        try:
            r = np.linalg.cholesky(y.T @ y).T
        except np.linalg.LinAlgError:
            return np.linalg.qr(y)[0]
        if np.diag(r).min() < 1e-7 * np.diag(r).max():
            return np.linalg.qr(y)[0]
        r_inv = np.linalg.inv(r)
        for lo in range(0, len(y), 512):
            y[lo : lo + 512] = y[lo : lo + 512] @ r_inv
    return y


@_one_blas_thread()
def randomized_svd(
    a: CscArrays, k: int, oversample: int, power_iters: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated SVD by randomized range finding (Halko, Martinsson and
    Tropp, arXiv:0909.4061, §4.3-4.5), on one BLAS thread.

    ``Q`` orthonormalizes ``a`` times a Gaussian test matrix of ``width =
    k + oversample`` columns, then ``power_iters`` rounds of ``Q <- qr(a @
    (a.T @ Q))``; only this m side is orthonormalized, in the power
    iterations by CholeskyQR2 with a Householder fallback, and at the end
    by Householder, whose column signs the embedding keeps, run in place on
    ``y`` in column-major order (``_householder_q``). Every product with
    ``a`` goes block by block over ``_PRODUCT_BLOCK`` terms, columns of
    ``a``, the ``CscArrays`` that ``vectorize`` returns. The term side goes
    into one reused block buffer, the document side is added in place into
    ``y``, in the order and with the rounding of the whole ``a @ (a.T @
    Q)``. The test matrix is drawn block by block from one generator, so
    its numbers are those of one whole draw. The small solve takes R from
    the Cholesky factor of the Gram of ``Z = a.T @ Q``, summed from the
    Grams of ``_TERM_BLOCK``-term blocks (CholeskyQR, Fukaya et al. 2014);
    only a singular Gram builds ``Z`` whole, for its Householder R. With
    ``R.T = U_R S V_R^T``, ``u = Q @ U_R``. ``U_R`` ignores R's row signs,
    so the column signs match ``svd(Q.T @ a)`` to rounding; tests pin them,
    since the forest breaks ties by order. Returns ``(u, s)`` of shapes (m,
    k) and (k,), ``s`` non-increasing; deterministic for a fixed seed.
    """
    import numpy as np
    m, n = a.shape

    rng = np.random.default_rng(seed)
    width = min(k + oversample, min(m, n))

    def spans(step):
        return [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    block = np.empty((min(_PRODUCT_BLOCK, n), width))
    y = np.zeros((m, width))
    for lo, hi in spans(_PRODUCT_BLOCK):
        _add_doc_side(a, lo, hi, rng.standard_normal(out=block[: hi - lo]), y)
    for _ in range(power_iters):
        q = _orthonormalize(y)
        del y
        y = np.zeros((m, width))
        for lo, hi in spans(_PRODUCT_BLOCK):
            _add_doc_side(a, lo, hi, _term_side(a, lo, hi, q, block[: hi - lo]), y)
        del q
    # The final QR holds two m-by-width arrays: ``y`` in column-major order,
    # factored in place, and the Q copied out of it.
    del block
    yt = y.T.copy()
    del y
    q = _householder_q(yt)
    del yt
    block = np.empty((min(_TERM_BLOCK, n), width))
    gram = np.zeros((width, width))
    for lo, hi in spans(_TERM_BLOCK):
        z = _term_side(a, lo, hi, q, block[: hi - lo])
        gram += z.T @ z
    del block, z
    try:
        r = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:  # singular Gram, e.g. an all-zero ``a``
        r = np.linalg.qr(_term_side(a, 0, n, q, np.empty((n, width))), mode="r")
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
