"""Masked k-means clustering (Section 4.4, the paper's key algorithm).

Both steps of Lloyd's algorithm are modified so that pruned weights cannot
drag codewords towards zero:

* **Masked assignment** (Eq. 2): the distance between a subvector and a
  codeword only sums the unpruned coordinates,
  ``||w_j - c o bm_j||^2``.
* **Masked update** (Eq. 3/4): each codeword coordinate becomes the mean of
  that coordinate over *unpruned* occurrences only,
  ``c_i = sum_p v_p / sum_p n_p`` (elementwise).

The paper implements the masked distance with a broadcast ``[L, k, d]``
tensor; since the subvectors are already zero at pruned positions, the same
quantity expands to ``||w||^2 - 2 w.c + bm . c^2`` which we evaluate with a
single fused matrix product — no (L, k, d) intermediate is ever
materialised, so the GPU batching trick in the paper becomes unnecessary on
CPU.

Performance notes (shared with :mod:`repro.core.kmeans`):

* Assignment is one blocked GEMM ``[w, bm] @ [-2c, c^2]^T`` scored in
  cache-sized row blocks into one reused buffer; the global distance budget
  caps the block.
* The masked update uses flattened ``np.bincount`` segment sums instead of
  ``np.add.at`` scatter-adds (float64 accumulation built in).
* Dense math runs in :func:`repro.core.precision.compute_dtype`; the
  reported SSE always accumulates in float64.
* ``init="kmeans++"`` seeds by masked-distance D^2 sampling and
  ``minibatch=<batch>`` enables streaming updates for very large layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import precision
from repro.core.kmeans import (
    KMeansResult,
    _blocked_argmin,
    _choose_init,
    segment_sums,
)


def _augment_mask(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``[w, bm]`` rows for the fused masked-assignment GEMM."""
    n, d = data.shape
    aug = np.empty((n, 2 * d), dtype=data.dtype)
    aug[:, :d] = data
    aug[:, d:] = mask
    return aug


def _scorer_mask(codewords: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Fused ``[-2c, c^2]^T`` codeword matrix for ``[w, bm]`` rows."""
    k, d = codewords.shape
    scorer = np.empty((2 * d, k), dtype=dtype)
    scorer[:d] = -2.0 * codewords.T
    scorer[d:] = (codewords ** 2).T
    return scorer


def masked_assign(data: np.ndarray, mask: np.ndarray, codewords: np.ndarray,
                  block_bytes: Optional[int] = None) -> np.ndarray:
    """Nearest codeword per subvector under the masked distance (Eq. 2).

    ``data`` is assumed pre-masked (zero at pruned positions).  The score
    ``bm.c^2 - 2 w.c`` is produced by one fused GEMM evaluated in row blocks
    bounded by the distance budget — chunked and unchunked paths compute the
    same per-row arithmetic, so their argmins are identical.
    """
    dt = np.result_type(data, codewords)
    data = np.ascontiguousarray(data, dtype=dt)
    mask = np.asarray(mask)
    return _blocked_argmin(_augment_mask(data, mask.astype(dt)),
                           _scorer_mask(codewords, dt), block_bytes)


def masked_distances(data: np.ndarray, mask: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Full masked squared-distance matrix (N_G, k); used by tests/analysis."""
    data_norm = np.einsum("nd,nd->n", data, data)
    cross = data @ codewords.T
    masked_c_norm = mask @ (codewords**2).T
    return data_norm[:, None] - 2.0 * cross + masked_c_norm


def masked_update(data: np.ndarray, mask: np.ndarray, assignments: np.ndarray,
                  k: int, previous: np.ndarray) -> np.ndarray:
    """Masked codeword update (Eq. 4): per-coordinate mean over unpruned entries.

    Coordinates with no unpruned occurrence in a cluster (including entirely
    empty clusters) keep their previous value.
    """
    sums = segment_sums(assignments, data, k)
    counts = segment_sums(assignments, mask.astype(data.dtype), k)
    updated = np.where(counts > 0, sums / np.maximum(counts, 1.0), previous)
    return updated.astype(data.dtype)


def masked_kmeans(
    data: np.ndarray,
    mask: np.ndarray,
    k: int,
    max_iterations: int = 100,
    change_threshold: float = 1e-3,
    seed: int = 0,
    init_codewords: Optional[np.ndarray] = None,
    init: str = "random",
    minibatch: Optional[int] = None,
    block_bytes: Optional[int] = None,
) -> KMeansResult:
    """Masked k-means over pre-pruned subvectors.

    ``data`` is the (N_G, d) matrix of pruned subvectors (zeros at pruned
    positions), ``mask`` the matching boolean keep-mask.  The returned SSE is
    the masked clustering error ``sum_j ||w_j - q(w_j) o bm_j||^2`` — the
    quantity the algorithm minimises and the paper reports as "Mask SSE".

    ``max_iterations=0`` performs no update step: the result is the masked
    assignment of the data to the *initial* codewords (``iterations == 0``).
    ``init``/``minibatch``/``block_bytes`` behave as in
    :func:`repro.core.kmeans.kmeans`; the k-means++ variant samples by
    masked distance.
    """
    data = precision.as_compute(data)
    mask = np.asarray(mask, dtype=bool)
    if data.shape != mask.shape:
        raise ValueError("data and mask must have the same shape")
    if data.ndim != 2:
        raise ValueError("data must be a 2D (N_G, d) matrix")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")

    data = data * mask  # enforce the pruning invariant
    dt = data.dtype
    rng = np.random.default_rng(seed)
    codewords = (
        np.array(init_codewords, dtype=dt, copy=True)
        if init_codewords is not None
        else _choose_init(data, k, rng, init, mask=mask)
    )
    if codewords.shape != (k, data.shape[1]):
        raise ValueError(f"initial codewords must have shape {(k, data.shape[1])}")

    maskf = mask.astype(dt)
    aug = _augment_mask(data, maskf)

    iterations = 0
    if minibatch is not None and max_iterations > 0:
        codewords = _minibatch_masked(data, maskf, codewords, k, minibatch,
                                      max_iterations, rng, block_bytes)
        iterations = max_iterations
        assignments = _blocked_argmin(aug, _scorer_mask(codewords, dt), block_bytes)
    else:
        assignments = _blocked_argmin(aug, _scorer_mask(codewords, dt), block_bytes)
        for iterations in range(1, max_iterations + 1):
            codewords = masked_update(data, mask, assignments, k, codewords)
            new_assignments = _blocked_argmin(aug, _scorer_mask(codewords, dt),
                                              block_bytes)
            changed = np.count_nonzero(new_assignments != assignments)
            assignments = new_assignments
            if changed <= change_threshold * data.shape[0]:
                break

    residual = ((data - codewords[assignments]) * mask).astype(np.float64, copy=False)
    sse = float(np.einsum("nd,nd->", residual, residual))
    return KMeansResult(codewords=codewords, assignments=assignments,
                        sse=sse, iterations=iterations)


def _minibatch_masked(data: np.ndarray, maskf: np.ndarray, codewords: np.ndarray,
                      k: int, batch: int, max_iterations: int,
                      rng: np.random.Generator,
                      block_bytes: Optional[int]) -> np.ndarray:
    """Streaming masked mini-batch updates: per-coordinate running means over
    every unpruned occurrence seen so far."""
    n, d = data.shape
    batch = min(batch, n)
    dt = data.dtype
    sums = np.zeros((k, d), dtype=np.float64)
    counts = np.zeros((k, d), dtype=np.float64)
    for _ in range(max_iterations):
        idx = rng.integers(0, n, size=batch)
        rows, row_mask = data[idx], maskf[idx]
        assignments = _blocked_argmin(_augment_mask(rows, row_mask),
                                      _scorer_mask(codewords, dt), block_bytes)
        sums += segment_sums(assignments, rows, k)
        counts += segment_sums(assignments, row_mask, k)
        seen = counts > 0
        codewords[seen] = (sums[seen] / counts[seen]).astype(dt)
    return codewords
