"""Tests for mixed layer-wise N:M search and compressed-model serialization."""

import numpy as np
import pytest

from repro.core import LayerCompressionConfig, MVQCompressor
from repro.core.mixed_sparsity import (
    LayerSparsityChoice,
    MixedSparsitySearch,
    layer_pruning_error,
    overall_sparsity,
)
from repro.core.serialization import (
    compressed_file_size_bytes,
    load_compressed_model,
    save_compressed_model,
)
from repro.nn.models import resnet18_mini
from repro.serve import verify_npz


class TestLayerPruningError:
    def test_zero_for_already_sparse_layer(self, rng):
        weight = rng.normal(size=(16, 4, 3, 3))
        # prune to 4:16 first; re-pruning with the same pattern removes nothing
        from repro.core.pruning import asp_prune
        sparse = asp_prune(weight, 4, 16, d=16)
        assert layer_pruning_error(sparse, 4, 16, 16) < 1e-12

    def test_increases_with_sparsity(self, rng):
        weight = rng.normal(size=(16, 4, 3, 3))
        errors = [layer_pruning_error(weight, n, 16, 16) for n in (8, 4, 2)]
        assert errors[0] < errors[1] < errors[2]

    def test_bounded_between_zero_and_one(self, rng):
        weight = rng.normal(size=(16, 2, 3, 3))
        err = layer_pruning_error(weight, 4, 16, 16)
        assert 0.0 <= err <= 1.0

    def test_zero_weight_layer(self):
        assert layer_pruning_error(np.zeros((16, 2, 3, 3)), 4, 16, 16) == 0.0


class TestMixedSparsitySearch:
    def test_all_layers_assigned(self):
        model = resnet18_mini(num_classes=5, seed=0)
        search = MixedSparsitySearch(candidates=(8, 6, 4), m=16, d=16)
        choices = search.search(model)
        assert len(choices) > 0
        assert all(isinstance(c, LayerSparsityChoice) for c in choices.values())
        assert all(c.n_keep in (8, 6, 4) for c in choices.values())

    def test_target_sparsity_respected(self):
        model = resnet18_mini(num_classes=5, seed=0)
        search = MixedSparsitySearch(candidates=(8, 6, 4, 2), m=16, d=16,
                                     error_tolerance=1.0, target_sparsity=0.6)
        choices = search.search(model)
        assert overall_sparsity(choices) >= 0.5   # at or just past the target step

    def test_tight_tolerance_keeps_densest(self):
        model = resnet18_mini(num_classes=5, seed=0)
        search = MixedSparsitySearch(candidates=(8, 4), m=16, d=16, error_tolerance=1e-9)
        choices = search.search(model)
        assert all(c.n_keep == 8 for c in choices.values())

    def test_loose_tolerance_reaches_sparsest(self):
        model = resnet18_mini(num_classes=5, seed=0)
        search = MixedSparsitySearch(candidates=(8, 4), m=16, d=16, error_tolerance=1.0)
        choices = search.search(model)
        assert all(c.n_keep == 4 for c in choices.values())

    def test_overrides_feed_compressor(self):
        model = resnet18_mini(num_classes=5, seed=0)
        search = MixedSparsitySearch(candidates=(8, 4), m=16, d=16, error_tolerance=1.0)
        choices = search.search(model)
        base = LayerCompressionConfig(k=16, d=16, n_keep=8, m=16, max_kmeans_iterations=10)
        overrides = search.to_layer_overrides(choices, base)
        compressed = MVQCompressor(base, per_layer_overrides=overrides).compress(model)
        assert np.isclose(compressed.sparsity(), 0.75, atol=0.05)

    def test_invalid_candidates(self):
        with pytest.raises(ValueError):
            MixedSparsitySearch(candidates=(), m=16)
        with pytest.raises(ValueError):
            MixedSparsitySearch(candidates=(20,), m=16)


class TestSerialization:
    def _compressed(self, crosslayer=False):
        model = resnet18_mini(num_classes=5, seed=0)
        cfg = LayerCompressionConfig(k=16, d=8, n_keep=2, m=8, max_kmeans_iterations=10)
        return model, MVQCompressor(cfg, crosslayer=crosslayer).compress(model)

    def test_roundtrip_reconstruction_identical(self, tmp_path):
        model, compressed = self._compressed()
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        restored = load_compressed_model(model, path)
        for name, state in compressed.layers.items():
            assert np.allclose(state.reconstruct_weight(),
                               restored.layers[name].reconstruct_weight())
        assert np.isclose(restored.compression_ratio(), compressed.compression_ratio(), rtol=0.01)

    def test_crosslayer_roundtrip_shares_codebook(self, tmp_path):
        model, compressed = self._compressed(crosslayer=True)
        path = tmp_path / "crosslayer.npz"
        save_compressed_model(compressed, path)
        restored = load_compressed_model(model, path)
        ids = {id(state.codebook) for state in restored}
        assert len(ids) == 1
        assert restored.crosslayer

    def test_file_is_actually_small(self, tmp_path):
        model, compressed = self._compressed()
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        dense_bytes = sum(
            dict(model.named_modules())[name].weight.value.size * 4
            for name in compressed.layers
        )
        assert compressed_file_size_bytes(path) < dense_bytes / 3

    def test_wrong_model_raises(self, tmp_path):
        from repro.nn.models import mobilenet_v1_mini

        model, compressed = self._compressed()
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        with pytest.raises(KeyError):
            load_compressed_model(mobilenet_v1_mini(num_classes=5), path)

    def test_apply_restored_model(self, tmp_path):
        model, compressed = self._compressed()
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        fresh = resnet18_mini(num_classes=5, seed=0)
        restored = load_compressed_model(fresh, path)
        restored.apply_to_model()
        modules = dict(fresh.named_modules())
        for name, state in restored.layers.items():
            assert np.allclose(modules[name].weight.value, state.reconstruct_weight())


class TestArchiveDtypes:
    """Archives store narrow index arrays; older int32 archives still load."""

    def _saved(self, tmp_path, **cfg):
        model = resnet18_mini(num_classes=5, seed=0)
        config = LayerCompressionConfig(max_kmeans_iterations=3, **cfg)
        compressed = MVQCompressor(config).compress(model)
        path = tmp_path / "model.npz"
        save_compressed_model(compressed, path)
        return model, compressed, path

    def _index_dtypes(self, path):
        with np.load(path) as data:
            return {(name.rsplit("__", 1)[-1], data[name].dtype.type)
                    for name in data.files
                    if name.endswith(("__assignments", "__mask_codes"))}

    def test_uint8_when_codebook_and_patterns_fit_a_byte(self, tmp_path):
        _, _, path = self._saved(tmp_path, k=256, d=8, n_keep=2, m=8)
        assert self._index_dtypes(path) == {("assignments", np.uint8),
                                            ("mask_codes", np.uint8)}

    def test_uint16_above_a_byte(self, tmp_path):
        # k = 257 codewords and C(16, 4) = 1820 mask patterns
        _, _, path = self._saved(tmp_path, k=257, d=16, n_keep=4, m=16)
        assert self._index_dtypes(path) == {("assignments", np.uint16),
                                            ("mask_codes", np.uint16)}

    def test_int32_archive_still_loads_bit_identically(self, tmp_path):
        model, compressed, path = self._saved(tmp_path, k=16, d=8, n_keep=2, m=8)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        for name in arrays:
            if name.endswith(("__assignments", "__mask_codes")):
                arrays[name] = arrays[name].astype(np.int32)
        old = tmp_path / "int32.npz"
        np.savez_compressed(old, **arrays)

        assert self._index_dtypes(old) == {("assignments", np.int32),
                                           ("mask_codes", np.int32)}
        assert verify_npz(old)["layers"].keys() == compressed.layers.keys()
        restored = load_compressed_model(model, old)
        for name, state in compressed.layers.items():
            assert np.array_equal(state.reconstruct_weight(),
                                  restored.layers[name].reconstruct_weight())
        assert restored.compression_ratio() == compressed.compression_ratio()
