"""Frozen copies of replaced hot loops, kept as fixed comparators.

* The seed (pre-optimisation) clustering loops — the ``np.add.at`` /
  full-distance-matrix implementation the repo shipped with — so the perf
  suite can report a stable before/after speedup for the optimised kernels
  in :mod:`repro.core.masked_kmeans`; likewise the seed loop-based im2col.
* The fancy-index centroid kernels of :class:`repro.nn.compressed.
  CentroidEngine`, which the LUT kernels replaced: the LUT path must stay
  bit-identical to them, and ``speedup_lut_vs_centroid`` times the two.

Kept verbatim; not used by the library itself.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.precision import distance_block_bytes


def legacy_masked_assign(data: np.ndarray, mask: np.ndarray,
                         codewords: np.ndarray) -> np.ndarray:
    cross = data @ codewords.T                     # (N_G, k)
    masked_c_norm = mask @ (codewords**2).T        # (N_G, k)
    return np.argmin(masked_c_norm - 2.0 * cross, axis=1)


def legacy_masked_update(data: np.ndarray, mask: np.ndarray, assignments: np.ndarray,
                         k: int, previous: np.ndarray) -> np.ndarray:
    d = data.shape[1]
    sums = np.zeros((k, d))
    counts = np.zeros((k, d))
    np.add.at(sums, assignments, data)
    np.add.at(counts, assignments, mask.astype(float))
    updated = np.where(counts > 0, sums / np.maximum(counts, 1.0), previous)
    return updated


def legacy_masked_kmeans(data: np.ndarray, mask: np.ndarray, k: int,
                         max_iterations: int, init_codewords: np.ndarray,
                         change_threshold: float = 0.0):
    """The seed Lloyd loop (float64, unfused assignment, scatter-add update)."""
    data = np.asarray(data, dtype=np.float64) * mask
    codewords = np.array(init_codewords, dtype=np.float64, copy=True)
    assignments = legacy_masked_assign(data, mask, codewords)
    for _ in range(max_iterations):
        codewords = legacy_masked_update(data, mask, assignments, k, codewords)
        new_assignments = legacy_masked_assign(data, mask, codewords)
        changed = np.count_nonzero(new_assignments != assignments)
        assignments = new_assignments
        if changed <= change_threshold * data.shape[0]:
            break
    residual = (data - codewords[assignments]) * mask
    return codewords, assignments, float(np.sum(residual**2))


def legacy_im2col(x: np.ndarray, kernel, stride: int, padding: int) -> np.ndarray:
    """The seed im2col: one strided-slice copy per kernel tap (kh*kw loop
    iterations) before the layout transpose, replaced by the single
    ``sliding_window_view`` copy in :func:`repro.nn.functional.im2col`."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1

    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )

    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]

    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def legacy_conv2d_forward(x: np.ndarray, weight: np.ndarray, bias, stride: int,
                          padding: int):
    """Conv forward on the loop-based im2col (GEMM unchanged)."""
    n, _, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    cols = legacy_im2col(x, (kh, kw), stride, padding)
    out = cols @ weight.reshape(c_out, -1).T
    if bias is not None:
        out += bias
    return out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2), cols


class CentroidReference:
    """The decode-free centroid kernels ``CentroidEngine`` ran before its
    LUT kernels replaced them, bound to one live engine.

    Attribute reads fall through to the engine (its effective-codeword
    table, routing index, chunking and block-layout helpers), so the method
    bodies below are the former library code verbatim.
    """

    def __init__(self, engine):
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self.engine, name)

    # Forward and backward are the same two primitives with the roles of
    # the block and output dimensions swapped, so one gather core and one
    # scatter core serve all four directions:
    #
    # * gather: subvector-shaped operands meet the table once per
    #   (row, codeword), then a fused segment-gather routes partial sums —
    #   ``route`` maps (row, output) to the table entry to pick up.
    # * scatter: flat operands are segment-summed per (row, codeword)
    #   first (``route`` maps (row, operand) to the segment), then one
    #   small GEMM against the table expands each segment to d outputs.

    def _gather_core(self, rows3: np.ndarray, route: np.ndarray,
                     out_width: int) -> np.ndarray:
        """``(bc, R, d)`` operands x table -> routed ``(bc, out_width)``."""
        table = self._table_as(rows3.dtype)
        u = table.shape[0]
        bc, r, _ = rows3.shape
        prod = (rows3.reshape(bc * r, self.d) @ table.T).reshape(bc, r, u)
        # (R, U, bc) layout makes each routed read a contiguous bc-vector
        prod = np.ascontiguousarray(prod.transpose(1, 2, 0))
        acc = np.zeros((out_width, bc), dtype=rows3.dtype)
        chunk = max(1, distance_block_bytes() //
                    max(1, out_width * bc * rows3.itemsize))
        for lo in range(0, r, chunk):
            rr = np.arange(lo, min(lo + chunk, r))
            acc += prod[rr[:, None], route[rr]].sum(axis=0)
        return acc.T

    def _scatter_core(self, values: np.ndarray, route: np.ndarray) -> np.ndarray:
        """``(bc, M)`` operands segment-summed by ``route`` (R, M), then
        expanded through the table -> ``(bc, R, d)``."""
        table = self._table_as(values.dtype)
        u = table.shape[0]
        bc = values.shape[0]
        r = route.shape[0]
        seg = np.zeros((r, u, bc), dtype=values.dtype)
        np.add.at(seg, (np.arange(r)[:, None], route), values.T[None, :, :])
        expanded = seg.transpose(0, 2, 1).reshape(r * bc, u) @ table
        return np.ascontiguousarray(
            expanded.reshape(r, bc, self.d).transpose(1, 0, 2))

    # -- centroid-domain forward ----------------------------------------------
    def _forward_gather(self, cols: np.ndarray) -> np.ndarray:
        """Gather-form: skinny table GEMM, then fused segment-gather."""
        out = np.empty((cols.shape[0], self.c_out), dtype=cols.dtype)
        for lo, hi in self._centroid_chunks(cols.shape[0], cols.itemsize):
            out[lo:hi] = self._gather_core(
                self._to_blocks(cols[lo:hi]), self._assign2d.T, self.c_out)
        return out

    def _forward_scatter(self, cols: np.ndarray) -> np.ndarray:
        """Scatter-form (OUTPUT grouping): segment-sum activations per
        codeword and output group, then one small GEMM against the table."""
        out = np.empty((cols.shape[0], self.c_out), dtype=cols.dtype)
        for lo, hi in self._centroid_chunks(cols.shape[0], cols.itemsize):
            partial = self._scatter_core(cols[lo:hi], self._assign2d)
            out[lo:hi] = partial.reshape(hi - lo, self.c_out)
        return out

    # -- centroid-domain backward (w.r.t. activations) ------------------------
    def _backward_gather(self, grad_out: np.ndarray) -> np.ndarray:
        """OUTPUT grouping: the transpose product is gather-form."""
        n_go = self.c_out // self.d
        grad_cols = np.empty((grad_out.shape[0], self.n_in), dtype=grad_out.dtype)
        for lo, hi in self._centroid_chunks(grad_out.shape[0], grad_out.itemsize):
            rows3 = grad_out[lo:hi].reshape(hi - lo, n_go, self.d)
            grad_cols[lo:hi] = self._gather_core(rows3, self._assign2d, self.n_in)
        return grad_cols

    def _backward_scatter(self, grad_out: np.ndarray) -> np.ndarray:
        """INPUT/KERNEL grouping: scatter grad_out per codeword, then GEMM."""
        grad_cols = np.empty((grad_out.shape[0], self.n_in), dtype=grad_out.dtype)
        for lo, hi in self._centroid_chunks(grad_out.shape[0], grad_out.itemsize):
            blocks3 = self._scatter_core(grad_out[lo:hi], self._assign2d.T)
            grad_cols[lo:hi] = self._from_blocks(blocks3)
        return grad_cols

    def forward(self, cols: np.ndarray) -> np.ndarray:
        if self.gather_forward:
            return self._forward_gather(cols)
        return self._forward_scatter(cols)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.gather_forward:          # forward gathered -> backward scatters
            return self._backward_scatter(grad_out)
        return self._backward_gather(grad_out)


@contextmanager
def centroid_reference(model):
    """Within the scope, every compressed engine in ``model`` (which may be
    a single compressed module) runs forward and backward through the
    frozen centroid kernels, whatever its mode."""
    engines = [module.engine for _, module in model.named_modules()
               if hasattr(module, "engine")]
    for engine in engines:
        reference = CentroidReference(engine)
        engine.forward, engine.backward = reference.forward, reference.backward
    try:
        yield
    finally:
        for engine in engines:
            del engine.forward, engine.backward
