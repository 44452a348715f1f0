"""Storage accounting: compression ratio (Eq. 7) and mask LUT encoding.

The compressed representation has three parts:

* assignments  — ``ceil(log2 k)`` bits per subvector;
* masks        — an N:M block admits only ``C(M, N)`` keep patterns, so a
  look-up table reduces mask storage from 1 bit/weight to
  ``ceil(log2 C(M, N)) / M`` bits per weight (Section 5);
* codebook     — ``k * d * q_c`` bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


def assignment_bits(num_subvectors: int, k: int) -> int:
    """b_a = ceil(log2 k) * N_G."""
    if k < 1 or num_subvectors < 0:
        raise ValueError("invalid assignment parameters")
    return int(math.ceil(math.log2(max(k, 2)))) * num_subvectors


def codebook_bits(k: int, d: int, qc: int = 8) -> int:
    """b_c = k * d * q_c."""
    return k * d * qc


def mask_bits_per_weight(n_keep: int, m: int) -> float:
    """ceil(log2 C(M, N)) / M bits per weight for LUT-encoded N:M masks."""
    combos = math.comb(m, n_keep)
    return math.ceil(math.log2(max(combos, 2))) / m


def mask_bits(num_weights: int, n_keep: int, m: int) -> int:
    """Total LUT-encoded mask storage in bits for ``num_weights`` weights."""
    return int(math.ceil(mask_bits_per_weight(n_keep, m) * num_weights))


@dataclass(frozen=True)
class CompressionSpec:
    """Parameters that define one compressed weight block."""

    k: int                    # codewords
    d: int                    # subvector length
    n_keep: int               # N of N:M (kept weights per group)
    m: int                    # M of N:M
    codebook_bits: int = 8    # q_c
    weight_bits: int = 32     # b_f, bits of the original full-precision weight

    def __post_init__(self):
        if self.d % self.m != 0:
            raise ValueError(f"d={self.d} must be a multiple of M={self.m}")
        if not 0 < self.n_keep <= self.m:
            raise ValueError("need 0 < N <= M")

    @property
    def sparsity(self) -> float:
        return 1.0 - self.n_keep / self.m

    def bits_per_weight(self, num_subvectors: int, store_mask: bool = True,
                        count_codebook: bool = True) -> float:
        total = self.total_bits(num_subvectors, store_mask, count_codebook)
        return total / (num_subvectors * self.d)

    def total_bits(self, num_subvectors: int, store_mask: bool = True,
                   count_codebook: bool = True) -> float:
        num_weights = num_subvectors * self.d
        total = assignment_bits(num_subvectors, self.k)
        if store_mask:
            total += mask_bits(num_weights, self.n_keep, self.m)
        if count_codebook:
            total += codebook_bits(self.k, self.d, self.codebook_bits)
        return total


def compression_ratio(spec: CompressionSpec, num_subvectors: int,
                      store_mask: bool = True, count_codebook: bool = True) -> float:
    """Eq. 7: (N_G * d * b_f) / (b_a + b_m + b_c)."""
    uncompressed = num_subvectors * spec.d * spec.weight_bits
    compressed = spec.total_bits(num_subvectors, store_mask, count_codebook)
    return uncompressed / compressed


class MaskLUT:
    """Look-up table between N:M block masks and compact indices.

    The accelerator's weight loader stores ``ceil(log2 C(M,N))`` bits per
    M-element block and expands them to a d-bit sparse mask with this LUT
    before the AND-gate weight reconstruction (Section 5.2).  Index ``i`` is
    the ``i``-th keep pattern in ``itertools.combinations(range(M), N)``
    (lexicographic) order.
    """

    def __init__(self, n_keep: int, m: int):
        if not 0 < n_keep <= m:
            raise ValueError("need 0 < N <= M")
        self.n_keep = n_keep
        self.m = m
        kept = np.array(list(itertools.combinations(range(m), n_keep)),
                        dtype=np.intp)
        #: (num_patterns, M) boolean keep-mask of every index
        self.patterns = np.zeros((len(kept), m), dtype=bool)
        self.patterns[np.arange(len(kept))[:, None], kept] = True
        self.patterns.setflags(write=False)
        # _skipped[j, left] = C(M-1-j, left-1): how many patterns rank before
        # this one when bit j is clear with ``left`` kept bits still to place
        self._skipped = np.array(
            [[math.comb(m - 1 - j, left - 1) if left else 0
              for left in range(n_keep + 1)] for j in range(m)],
            dtype=np.int64)

    @property
    def num_patterns(self) -> int:
        return self.patterns.shape[0]

    @property
    def index_bits(self) -> int:
        return int(math.ceil(math.log2(max(self.num_patterns, 2))))

    def encode_block(self, mask_block: np.ndarray) -> int:
        """Compact index of one M-element boolean keep-mask."""
        mask_block = np.asarray(mask_block, dtype=bool)
        if mask_block.shape != (self.m,):
            raise ValueError(f"expected a mask of length {self.m}")
        return int(self.encode_mask(mask_block[None, :])[0, 0])

    def decode_block(self, index: int) -> np.ndarray:
        """Boolean keep-mask for a compact index."""
        if not 0 <= index < self.num_patterns:
            raise ValueError(f"index {index} out of range [0, {self.num_patterns})")
        return self.patterns[index].copy()

    def encode_mask(self, mask: np.ndarray) -> np.ndarray:
        """Encode a (N_G, d) keep-mask into per-block indices (N_G, d/M).

        Ranks every block at once with a column-wise combinadic: M vectorised
        steps, each adding ``C(M-1-j, left-1)`` wherever bit ``j`` is clear.
        """
        mask = np.asarray(mask, dtype=bool)
        n_groups, d = mask.shape
        if d % self.m != 0:
            raise ValueError("mask width must be a multiple of M")
        blocks = mask.reshape(-1, self.m)
        kept = np.count_nonzero(blocks, axis=1)
        wrong = np.flatnonzero(kept != self.n_keep)
        if wrong.size:
            raise ValueError(f"mask keeps {kept[wrong[0]]} weights, "
                             f"expected exactly {self.n_keep}")
        codes = np.zeros(blocks.shape[0], dtype=np.int64)
        left = np.full(blocks.shape[0], self.n_keep, dtype=np.intp)
        for j in range(self.m):
            bit = blocks[:, j]
            codes += np.where(bit, 0, self._skipped[j, left])
            left -= bit
        return codes.reshape(n_groups, d // self.m)

    def decode_mask(self, indices: np.ndarray, d: int) -> np.ndarray:
        """Expand per-block indices back into a (N_G, d) boolean keep-mask."""
        indices = np.asarray(indices)
        n_groups, blocks_per_vec = indices.shape
        if blocks_per_vec * self.m != d:
            raise ValueError("index matrix incompatible with requested width d")
        return self.patterns[indices].reshape(n_groups, d)
