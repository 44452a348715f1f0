"""Integer/LUT path of the decode-free engine.

Exact-LUT mode must be *bit-identical* to the frozen centroid kernels it
replaced (same table GEMM, same accumulation order — only the routing is
precomputed), and so must the deprecated ``"centroid"`` alias that now runs
it; the quantized-activation mode must stay inside a bounded relative
error, the cost model must price the mode, and the narrow-width assignment
state that feeds the tables must survive sharing/adoption.
"""

import numpy as np
import pytest

from benchmarks.perf._legacy import centroid_reference
from repro.core import LayerCompressionConfig, MVQCompressor, precision
from repro.core.codebook import assignment_dtype
from repro.core.grouping import GroupingStrategy
from repro.nn import Conv2d, Sequential
from repro.nn.compressed import (
    DEFAULT_ACT_LEVELS,
    InferenceCostModel,
    compress_module,
)
from repro.nn.models import resnet18_mini

#: (strategy, d, n_keep, m) combinations valid for a 16x32x3x3 convolution
STRATEGY_CONFIGS = [
    (GroupingStrategy.OUTPUT, 8, 2, 8),
    (GroupingStrategy.INPUT, 8, 2, 8),
    (GroupingStrategy.KERNEL, 9, 1, 3),
]


def _compressed_conv(strategy, d, n_keep, m, store_mask, mode="lut", k=12):
    model = Sequential(Conv2d(16, 32, 3, padding=1,
                              rng=np.random.default_rng(1)))
    cfg = LayerCompressionConfig(
        k=k, d=d, n_keep=n_keep, m=m, strategy=strategy,
        max_kmeans_iterations=8, store_mask=store_mask,
        prune=store_mask, use_masked_kmeans=store_mask)
    state = next(iter(MVQCompressor(cfg).compress(model)))
    return compress_module(model.layers[0], state, mode=mode)


def _rel_err(out, ref):
    return (float(np.linalg.norm(out - ref))
            / max(float(np.linalg.norm(ref)), 1e-12))


def _assert_matches_reference(module, rng):
    """Forward and backward of ``module`` as configured equal the frozen
    centroid kernels' bits."""
    x = rng.normal(size=(2, 16, 6, 6))
    with centroid_reference(module):
        ref_out = module.forward(x)
        grad = rng.normal(size=ref_out.shape)
        ref_grad = module.backward(grad)
    out = module.forward(x)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(module.backward(grad), ref_grad)


class TestLutBitExactness:
    """Exact LUT vs the frozen centroid reference: same bits, every
    strategy, both directions."""

    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    @pytest.mark.parametrize("store_mask", [True, False],
                             ids=["masked", "unmasked"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_forward_backward_bit_identical(self, strategy, d, n_keep, m,
                                            store_mask, dtype, rng):
        with precision.precision(dtype):
            module = _compressed_conv(strategy, d, n_keep, m, store_mask)
            _assert_matches_reference(module, rng)
            assert module.engine.last_mode == "lut"

    def test_reference_runs_the_centroid_kernels(self, rng):
        """The comparator is not the LUT path: within the scope the engine's
        own kernels never run (no routing LUT gets built)."""
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True)
        with centroid_reference(module):
            module.forward(rng.normal(size=(2, 16, 6, 6)))
        assert module.engine.last_mode is None
        assert not module.engine._lut


class TestCentroidAlias:
    """``"centroid"`` is a deprecated alias: it resolves to ``"lut"`` and
    gives the frozen centroid kernels' bits."""

    @pytest.mark.parametrize("strategy,d,n_keep,m", STRATEGY_CONFIGS,
                             ids=[s.value for s, *_ in STRATEGY_CONFIGS])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_constructor_alias_runs_lut(self, strategy, d, n_keep, m, dtype,
                                        rng):
        with precision.precision(dtype):
            module = _compressed_conv(strategy, d, n_keep, m, True,
                                      mode="centroid")
            assert module.engine.mode == "lut"
            _assert_matches_reference(module, rng)
            assert module.engine.last_mode == "lut"

    def test_assignment_alias_runs_lut(self, rng):
        module = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                                  mode="dense")
        module.engine.mode = "centroid"
        assert module.engine.mode == "lut"
        _assert_matches_reference(module, rng)
        assert module.engine.serving_stats()["last_mode"] == "lut"

    def test_invalid_assignment_rejected(self):
        engine = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True).engine
        with pytest.raises(ValueError, match="mode must be one of"):
            engine.mode = "fastest"
        assert engine.mode == "lut"

    def test_select_never_returns_centroid(self):
        rates = [InferenceCostModel(),
                 InferenceCostModel(gemm_flops_per_s=1e6),
                 InferenceCostModel(lut_gather_elems_per_s=1e15,
                                    lut_scatter_elems_per_s=1e15,
                                    scatter_elems_per_s=1e15,
                                    skinny_gemm_flops_per_s=1e15,
                                    copy_elems_per_s=1e15)]
        chosen = {model.select(batch, 512, 256, 8, u, gather_form, dtype)
                  for model in rates for batch in (1, 64)
                  for u in (1, 64, 2048) for gather_form in (True, False)
                  for dtype in (np.float64, np.float32)}
        assert chosen == {"dense", "lut"}

    def test_lut_builds_routing_tables_once(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  mode="lut")
        x = rng.normal(size=(2, 16, 5, 5))
        module.forward(x)
        assert module.engine.lut_table_bytes() > 0
        flat = module.engine._lut["flat"]
        module.forward(x)
        assert module.engine._lut["flat"] is flat  # cached, not rebuilt


class TestQuantMode:
    def test_rel_err_bounded_on_model_zoo(self, rng):
        model = resnet18_mini(num_classes=5, seed=3)
        cfg = LayerCompressionConfig(k=16, d=8, max_kmeans_iterations=6)
        MVQCompressor(cfg).export_compressed_model(model)
        model.eval()
        engines = [m.engine for _, m in model.named_modules()
                   if getattr(m, "engine", None) is not None]
        assert engines
        x = rng.normal(size=(4, 3, 16, 16))
        for engine in engines:
            engine.mode = "lut"
        ref = model.forward(x)
        for engine in engines:
            engine.mode = "lut_quant"
        out = model.forward(x)
        assert 0.0 < _rel_err(out, ref) < 0.05
        assert all(engine.last_mode == "lut_quant" for engine in engines)

    def test_finer_alphabet_shrinks_error(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True)
        x = rng.normal(size=(2, 16, 6, 6))
        ref = module.forward(x)
        module.engine.mode = "lut_quant"
        errors = []
        for levels in (15, DEFAULT_ACT_LEVELS, 4095):
            module.engine.act_levels = levels
            errors.append(_rel_err(module.forward(x), ref))
        assert errors[0] > errors[1] > errors[2]

    def test_quant_backward_runs(self, rng):
        module = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                                  mode="lut_quant")
        x = rng.normal(size=(2, 16, 6, 6))
        out = module.forward(x)
        grad_in = module.backward(rng.normal(size=out.shape))
        assert grad_in.shape == x.shape
        assert np.all(np.isfinite(grad_in))


class TestCostModelLut:
    def test_fast_lut_rates_select_lut(self):
        # small table (high reuse) + fast routing: lut beats the dense GEMM
        fast = InferenceCostModel(lut_gather_elems_per_s=1e15,
                                  lut_scatter_elems_per_s=1e15)
        assert fast.select(1, 512, 512, 8, 8, gather_form=True) == "lut"

    def test_slow_lut_rates_never_select_lut(self):
        slow = InferenceCostModel(lut_gather_elems_per_s=1.0,
                                  lut_scatter_elems_per_s=1.0)
        for u in (1, 64, 2048):
            assert slow.select(8, 512, 256, 8, u, gather_form=True) == "dense"

    def test_auto_resolves_to_concrete_mode(self):
        engine = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                                  mode="auto").engine
        # free table GEMM + free LUT routing: only the dense GEMM still
        # costs anything
        engine.cost_model = InferenceCostModel(skinny_gemm_flops_per_s=1e15,
                                               copy_elems_per_s=1e15,
                                               lut_gather_elems_per_s=1e15,
                                               lut_scatter_elems_per_s=1e15)
        assert engine.choose_mode(batch=64, dtype=np.float64) == "lut"
        # auto never resolves to the approximate mode — that is opt-in only
        assert engine.choose_mode(batch=64, dtype=np.float64) != "lut_quant"

    def test_lut_seconds_prices_both_forms(self):
        model = InferenceCostModel()
        gather = model.lut_seconds(8, 512, 256, 8, 64, gather_form=True)
        scatter = model.lut_seconds(8, 512, 256, 8, 64, gather_form=False)
        assert gather > 0.0 and scatter > 0.0


class TestNarrowAssignments:
    def test_assignment_dtype_boundaries(self):
        assert assignment_dtype(2) == np.uint8
        assert assignment_dtype(256) == np.uint8
        assert assignment_dtype(257) == np.uint16
        assert assignment_dtype(2 ** 16) == np.uint16
        assert assignment_dtype(2 ** 16 + 1) == np.int64

    def test_engine_downcasts_assignments(self):
        engine = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  k=12).engine
        assert engine.assignments.dtype == np.uint8

    def test_caches_keyed_by_assignment_width(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  mode="dense")
        module.forward(rng.normal(size=(1, 16, 5, 5)))
        assert all(key.endswith("/uint8")
                   for key in module.engine._dense_cache)

    def test_serving_stats_surface_lut_state(self, rng):
        module = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                                  mode="lut")
        module.forward(rng.normal(size=(1, 16, 5, 5)))
        stats = module.engine.serving_stats()
        assert stats["last_mode"] == "lut"
        assert stats["assignments_dtype"] == "uint8"
        assert stats["act_levels"] == DEFAULT_ACT_LEVELS
        assert stats["lut_table_bytes"] > 0


class TestSharingAndAdoption:
    def test_share_tables_shares_assignments_and_lut(self, rng):
        a = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                             mode="lut")
        b = _compressed_conv(GroupingStrategy.INPUT, 8, 2, 8, True,
                             mode="lut")
        x = rng.normal(size=(2, 16, 6, 6))
        ref = a.forward(x)
        b.engine.share_tables_with(a.engine)
        assert b.engine.assignments is a.engine.assignments
        assert b.engine._lut is a.engine._lut
        np.testing.assert_array_equal(b.forward(x), ref)

    def test_adopt_derived_roundtrip(self, rng):
        a = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                             mode="lut")
        x = rng.normal(size=(2, 16, 6, 6))
        ref = a.forward(x)  # warms LUT + caches
        b = _compressed_conv(GroupingStrategy.OUTPUT, 8, 2, 8, True,
                             mode="lut")
        b.engine.adopt_derived(a.engine.derived_arrays())
        assert b.engine._lut["flat"] is a.engine._lut["flat"]
        np.testing.assert_array_equal(b.forward(x), ref)
