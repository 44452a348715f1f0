"""Batched serving: output equivalence, buffer reuse, partial batches."""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.nn import Conv2d, Sequential, predict_batched
from repro.nn.compressed import CompressedConv2d
from repro.nn.module import Module
from repro.nn.serve import (
    ROW_GRANULE,
    forget_granule_check,
    forward_padded,
    padded_rows,
    prepare_for_serving,
    serving_rows,
)


def _compressed_stack():
    model = Sequential(
        Conv2d(4, 8, 3, padding=1, rng=np.random.default_rng(0)),
        Conv2d(8, 8, 3, padding=1, rng=np.random.default_rng(1)),
    )
    cfg = LayerCompressionConfig(k=8, d=8, max_kmeans_iterations=5)
    MVQCompressor(cfg).export_compressed_model(model)
    return model


class _RowCountSensitive(Module):
    """Rows come out shifted by a hair unless the forward ran 16 rows: a
    stand-in for a BLAS whose GEMM bits depend on the row count."""

    def __init__(self, exact_rows=(16,)):
        super().__init__()
        self.exact_rows = exact_rows
        self.rows = []

    def forward(self, x):
        self.rows.append(x.shape[0])
        return x * 2.0 + (0.0 if x.shape[0] in self.exact_rows else 1e-9)


class TestPredictBatched:
    def test_matches_single_forward(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(10, 4, 6, 6))
        model.eval()
        expected = model.forward(x)
        for batch_size in (3, 4, 10, 32):
            out = predict_batched(model, x, batch_size=batch_size)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_reuses_im2col_buffer_across_batches(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(12, 4, 6, 6))
        predict_batched(model, x, batch_size=4)
        first = model.layers[0]
        assert isinstance(first, CompressedConv2d)
        buffer_id = id(first._col_buffer)
        predict_batched(model, x, batch_size=4)
        assert id(first._col_buffer) == buffer_id

    def test_partial_batch_padding_keeps_buffer_shape(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(7, 4, 6, 6))
        model.eval()
        expected = model.forward(x)
        out = predict_batched(model, x, batch_size=4)  # 4 + 3-row tail
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # the 3-row tail executed padded to the 4-row granule
        cols, x_shape = model.layers[0]._cache
        assert x_shape == (4, 4, 6, 6)
        assert cols.shape == (4 * 6 * 6, 4 * 3 * 3)

    def test_tail_pads_to_row_granule_not_batch_size(self, rng):
        model = _compressed_stack()
        x = rng.normal(size=(5, 4, 6, 6))
        model.eval()
        expected = model.forward(x)
        prepare_for_serving(model, (4, 6, 6), batch_size=16)
        full = predict_batched(model, np.concatenate([x] * 4)[:16],
                               batch_size=16)
        out = predict_batched(model, x, batch_size=16)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.array_equal(out, full[:5])
        assert ROW_GRANULE == 4
        assert [padded_rows(r, 16) for r in (1, 4, 5, 12, 13, 16)] == [
            4, 4, 8, 12, 16, 16]
        assert [padded_rows(r, 6) for r in (1, 4, 5, 6)] == [4, 4, 6, 6]
        # 5 rows ran at the smallest checked shape holding them: 8 where
        # this stack's 8-row forward reproduces the 16-row bits
        _, x_shape = model.layers[0]._cache
        assert x_shape[0] == serving_rows(model, x, 16) in (8, 12, 16)

    def test_im2col_buffer_reused_across_granule_shapes(self, rng):
        model = _compressed_stack()
        prepare_for_serving(model, (4, 6, 6), batch_size=16)
        first = model.layers[0]
        buffer = first._col_buffer
        assert buffer.shape[0] == 16 * 6 * 6  # warmed at the largest shape
        for rows in (4, 8, 12, 16, 1, 7):
            forward_padded(model, rng.normal(size=(rows, 4, 6, 6)), 16)
            assert first._col_buffer is buffer
            cols, _ = first._cache
            batch = np.zeros((rows, 4, 6, 6))
            assert cols.shape[0] == serving_rows(model, batch, 16) * 6 * 6
            assert np.shares_memory(cols, buffer)

    def test_each_granule_shape_checked_once_when_first_needed(self, rng):
        model = _RowCountSensitive(exact_rows=(4, 8, 12, 16))
        forward_padded(model, rng.normal(size=(16, 3)), 16)
        assert model.rows == [16]  # full batches never check
        forward_padded(model, rng.normal(size=(1, 3)), 16)
        # the probe's full-shape reference, its 4-row check, the batch
        assert model.rows == [16, 16, 4, 4]
        forward_padded(model, rng.normal(size=(5, 3)), 16)
        assert model.rows[4:] == [8, 8]
        forward_padded(model, rng.normal(size=(3, 3)), 16)
        forward_padded(model, rng.normal(size=(6, 3)), 16)
        assert model.rows[6:] == [4, 8]  # the answers are kept

    def test_prepared_model_reuses_its_warm_forward_as_reference(self, rng):
        model = _RowCountSensitive(exact_rows=(4, 8, 12, 16))
        prepare_for_serving(model, (3,), batch_size=16)
        assert model.rows == [16]
        assert serving_rows(model, rng.normal(size=(2, 3)), 16) == 4
        assert model.rows == [16, 4]  # no second full-shape forward
        # prepared again with no mode to pin: the answers still hold
        prepare_for_serving(model, (3,), batch_size=16)
        assert serving_rows(model, rng.normal(size=(2, 3)), 16) == 4
        assert model.rows == [16, 4, 16]

    def test_pinning_engine_modes_restarts_the_check(self, rng):
        model = _compressed_stack()
        prepare_for_serving(model, (4, 6, 6), batch_size=16)
        serving_rows(model, rng.normal(size=(1, 4, 6, 6)), 16)
        (check,) = model._granule_checks.values()
        assert check.exact  # answered
        for layer in model.layers:
            layer.engine.mode = "auto"
        prepare_for_serving(model, (4, 6, 6), batch_size=16)
        (fresh,) = model._granule_checks.values()
        assert fresh is not check and not fresh.exact

    def test_granule_falls_back_to_batch_size_when_bits_differ(self, rng):
        model = _RowCountSensitive()
        x = rng.normal(size=(16, 3))
        full = forward_padded(model, x, 16)
        for count in range(1, 17):
            assert serving_rows(model, x[:count], 16) == 16
            assert np.array_equal(forward_padded(model, x[:count], 16),
                                  full[:count]), count
        assert set(model.rows) == {16, 4, 8, 12}
        assert model.rows[5:] == [16] * 16  # after the check, always 16

    def test_runs_at_smallest_exact_shape_holding_the_batch(self, rng):
        model = _RowCountSensitive(exact_rows=(8, 16))
        x = rng.normal(size=(16, 3))
        full = forward_padded(model, x, 16)
        expected = {1: 8, 4: 8, 5: 8, 8: 8, 9: 16, 12: 16, 16: 16}
        for count, rows in expected.items():
            assert serving_rows(model, x[:count], 16) == rows, count
            assert np.array_equal(forward_padded(model, x[:count], 16),
                                  full[:count]), count

    def test_changing_kernels_forgets_the_check(self, rng):
        model = _RowCountSensitive(exact_rows=(4, 8, 12, 16))
        assert serving_rows(model, rng.normal(size=(1, 3)), 16) == 4
        model.exact_rows = (16,)
        assert serving_rows(model, rng.normal(size=(1, 3)), 16) == 4
        forget_granule_check(model)
        assert serving_rows(model, rng.normal(size=(1, 3)), 16) == 16

    def test_forward_padded_rejects_oversized_batch(self, rng):
        model = _compressed_stack()
        model.eval()
        with pytest.raises(ValueError, match="exceeds"):
            forward_padded(model, rng.normal(size=(5, 4, 6, 6)), 4)

    def test_restores_training_mode(self, rng):
        model = _compressed_stack()
        model.train(True)
        predict_batched(model, rng.normal(size=(2, 4, 6, 6)), batch_size=2)
        assert model.training

    def test_invalid_inputs(self, rng):
        model = _compressed_stack()
        with pytest.raises(ValueError):
            predict_batched(model, rng.normal(size=(2, 4, 6, 6)), batch_size=0)
        with pytest.raises(ValueError):
            predict_batched(model, np.zeros((0, 4, 6, 6)), batch_size=2)
