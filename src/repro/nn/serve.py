"""Batched inference serving on top of the compressed-domain engine.

:func:`predict_batched` is the steady-state serving loop: it slices a
request stream into fixed-size batches and pushes them through the model in
eval mode.  :func:`forward_padded` is the one-batch primitive it shares with
the ``repro.serve`` model server's workers.  Every forward it runs obeys one
rule: a batch of ``r`` real rows out of at most ``batch_size`` is
zero-padded to a fixed shape, the model runs at that shape, and the padding
outputs are dropped.  Fixed shapes are what make dynamic batching
*bit-exact*: a request served alone produces the same bits as the same
request coalesced with fifteen strangers.

The shape is the *row granule* shape :func:`padded_rows`: the smallest
multiple of :data:`ROW_GRANULE` (4) that holds ``r``, capped at
``batch_size``.  With a 16-row maximum a lone request then runs a 4-row
forward (~6 ms for a compressed ResNet-18 on a 2-CPU host) instead of a
16-row one (~31 ms).  Whether a 4-, 8- or 12-row forward reproduces the
rows of the ``batch_size``-row forward bit for bit depends on the BLAS and
the layer shapes.  On that host (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
thread) a compressed ResNet-18 matches at every multiple of 4 and at no
other row count: its convolutions match at any row count, and its dense
``Linear`` head's GEMM (``M = rows``) drifts by up to 8.9e-16 off
multiples of 4.  A compressed 4-to-8-channel 3x3 convolution on 6x6
inputs, on the same host, differs at 4 rows but not at 8 or 12.  So the
rule is checked, not assumed (:class:`GranuleCheck`): the first batch
that needs a granule shape first forwards a fixed input at that shape and
compares it with the same input's ``batch_size``-row forward, which
:func:`prepare_for_serving` keeps from its warm-up.  A batch runs at the
smallest shape that holds it and passed -- ``batch_size`` (one shape,
bit-exact on any host) if none did.  Full batches never check.

Compressed convolutions keep one im2col buffer at the largest row count
they have seen and hand out prefix views of it, so switching between
granule shapes never reallocates.  :func:`prepare_for_serving` warms a
model at ``batch_size`` rows and pins ``auto`` engine modes so
steady-state serving never re-runs the cost model (or changes its mind)
mid-traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.module import Module

#: serving forwards run at a multiple of this many rows (see module docstring)
ROW_GRANULE = 4


def padded_rows(rows: int, batch_size: int) -> int:
    """The granule shape of ``rows`` real rows: the smallest multiple of
    :data:`ROW_GRANULE` that holds them, capped at ``batch_size``."""
    return min(batch_size, -(-rows // ROW_GRANULE) * ROW_GRANULE)


def probe_input(batch_size: int, row_shape: Tuple[int, ...],
                dtype) -> np.ndarray:
    """The fixed input granule checks run: ``batch_size`` seeded normal rows."""
    return (np.random.default_rng(0)
            .standard_normal((batch_size, *row_shape)).astype(dtype))


class GranuleCheck:
    """Which granule shapes reproduce one model's full-shape bits.

    Holds the model's ``batch_size``-row forward of :func:`probe_input` and,
    per granule shape asked about, whether forwarding the probe's first rows
    at that shape reproduced those rows bit for bit.  Each shape is checked
    the first time a batch needs it, at the cost of one extra forward at
    that shape.  Which kernels a BLAS runs depends on the shapes, not on the
    values, so one probe answers for every batch.
    """

    def __init__(self, probe: np.ndarray, full):
        self.probe = probe
        # tuple outputs are never compared: they run at the full shape
        self.full = full.copy() if isinstance(full, np.ndarray) else None
        self.exact: Dict[int, bool] = {}

    def is_exact(self, model: Module, rows: int) -> bool:
        if rows not in self.exact:
            self.exact[rows] = self.full is not None and np.array_equal(
                model.forward(self.probe[:rows]), self.full[:rows])
        return self.exact[rows]


def _check_key(batch_size: int, row_shape, dtype) -> tuple:
    return batch_size, tuple(row_shape), np.dtype(dtype).str


def serving_rows(model: Module, batch: np.ndarray, batch_size: int) -> int:
    """Rows :func:`forward_padded` runs ``batch`` at on ``model``.

    The granule shape :func:`padded_rows` if it passes ``model``'s
    :class:`GranuleCheck`, else the next granule shape that does, else
    ``batch_size``.  The check is kept on the model, seeded by
    :func:`prepare_for_serving` (or built on the first short batch of a
    model that was not prepared); see :func:`forget_granule_check`.
    """
    rows = padded_rows(batch.shape[0], batch_size)
    if rows == batch_size:
        return rows
    checks = model.__dict__.setdefault("_granule_checks", {})
    key = _check_key(batch_size, batch.shape[1:], batch.dtype)
    check = checks.get(key)
    if check is None:
        probe = probe_input(batch_size, batch.shape[1:], batch.dtype)
        check = checks[key] = GranuleCheck(probe, model.forward(probe))
    while rows < batch_size and not check.is_exact(model, rows):
        rows = padded_rows(rows + 1, batch_size)
    return rows


def forget_granule_check(model: Module) -> None:
    """Drop ``model``'s granule checks; call it after changing which kernels
    the model runs (e.g. engine modes), so granule shapes are checked anew."""
    model.__dict__.pop("_granule_checks", None)


def pad_batch(batch: np.ndarray, batch_size: int) -> Tuple[np.ndarray, int]:
    """Zero-pad ``batch`` up to ``batch_size`` rows; returns ``(padded, valid)``.

    ``valid`` is the original row count; rows past it are zeros.  A batch
    already at (or above) ``batch_size`` is returned as-is.
    """
    valid = batch.shape[0]
    if valid >= batch_size:
        return batch, valid
    padded = np.zeros((batch_size, *batch.shape[1:]), dtype=batch.dtype)
    padded[:valid] = batch
    return padded, valid


def forward_padded(model: Module, batch: np.ndarray, batch_size: int) -> np.ndarray:
    """Forward one batch of at most ``batch_size`` rows at a fixed shape.

    Pads with zero rows up to :func:`serving_rows` — the granule shape
    where ``model``'s kernels reproduce the full shape's bits there, a
    larger checked shape where they do not — forwards, and drops the
    padding outputs.  The outputs are bit-identical however the rows were
    coalesced, while a short batch on a model whose granule shapes all
    passed pays for at most 3 padding rows.
    """
    batch = np.asarray(batch)
    if batch.shape[0] > batch_size:
        raise ValueError(f"batch of {batch.shape[0]} rows exceeds "
                         f"batch_size={batch_size}")
    padded, valid = pad_batch(batch, serving_rows(model, batch, batch_size))
    return np.asarray(model.forward(padded))[:valid]


def prepare_for_serving(model: Module, input_shape: Tuple[int, ...],
                        batch_size: int, dtype=np.float64) -> Module:
    """Warm ``model`` for steady-state serving of batches up to ``batch_size``.

    Puts the model in eval mode and forwards :func:`probe_input`, one batch
    of shape ``(batch_size, *input_shape)``, so every compressed module
    builds its effective-codeword table / cached dense weight / im2col
    buffer *before* the first real request — and the buffer is already as
    large as any serving forward needs.  Compressed engines left in ``"auto"`` mode are
    then pinned to whatever the cost model chose at this shape: mode
    selection depends on the batch row count, and pinning it keeps every
    granule shape on the identical code path (a prerequisite for passing
    the :class:`GranuleCheck`, whose full-shape reference this forward
    becomes).  Returns the model for chaining.
    """
    model.eval()
    probe = probe_input(batch_size, input_shape, dtype)
    full = model.forward(probe)
    pinned = False
    for _, module in model.named_modules():
        engine = getattr(module, "engine", None)
        if engine is None or engine.mode != "auto":
            continue
        pinned = True
        cache = getattr(module, "_cache", None)
        if (isinstance(cache, tuple) and len(cache) == 2
                and isinstance(cache[0], np.ndarray)):        # Conv2d: (cols, x.shape)
            rows = cache[0].shape[0]
        elif isinstance(cache, tuple):                        # Linear: x.shape
            rows = int(np.prod(cache[:-1])) if len(cache) > 1 else 1
        else:
            rows = batch_size
        engine.pin_mode(rows, np.dtype(dtype))
    # pinning changes kernels, so earlier answers no longer hold; a model
    # prepared again with its modes already fixed keeps them.  The warm
    # forward ran the kernels the pinned modes run: it is the full-shape
    # reference of a new check.
    if pinned:
        forget_granule_check(model)
    model.__dict__.setdefault("_granule_checks", {}).setdefault(
        _check_key(batch_size, input_shape, dtype), GranuleCheck(probe, full))
    return model


def predict_batched(model: Module, inputs: np.ndarray,
                    batch_size: int = 32) -> np.ndarray:
    """Forward ``inputs`` through ``model`` in fixed-size batches.

    Every batch runs through :func:`forward_padded` (padding rows are
    discarded from the output), so the outputs are bit-identical to the
    model server's.

    Parameters
    ----------
    inputs:
        Stacked requests, shape ``(num_samples, ...)``.
    batch_size:
        Most rows per forward call.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    inputs = np.asarray(inputs)
    n = inputs.shape[0]
    was_training = model.training
    model.eval()
    try:
        outputs: Optional[np.ndarray] = None
        for lo in range(0, n, batch_size):
            out = forward_padded(model, inputs[lo:lo + batch_size], batch_size)
            if outputs is None:
                outputs = np.empty((n, *out.shape[1:]), dtype=out.dtype)
            outputs[lo:lo + out.shape[0]] = out
        if outputs is None:
            raise ValueError("predict_batched needs at least one input row")
        return outputs
    finally:
        model.train(was_training)
