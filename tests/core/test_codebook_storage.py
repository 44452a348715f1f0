"""Tests for codebook quantization and storage/compression-ratio accounting."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codebook import (
    Codebook,
    LSQScale,
    fit_scale_mse,
    quantize_symmetric,
    quantize_to_int,
)
from repro.core.storage import (
    CompressionSpec,
    MaskLUT,
    assignment_bits,
    codebook_bits,
    compression_ratio,
    mask_bits,
    mask_bits_per_weight,
)
from repro.core.pruning import nm_prune_mask


class TestSymmetricQuantization:
    def test_levels_within_range(self, rng):
        values = rng.normal(size=1000) * 3
        scale = fit_scale_mse(values, bits=8)
        levels = quantize_to_int(values, scale, bits=8)
        assert levels.max() <= 127 and levels.min() >= -128

    def test_quantize_dequantize_error_bounded(self, rng):
        values = rng.normal(size=500)
        scale = fit_scale_mse(values, bits=8)
        quantized = quantize_symmetric(values, scale, bits=8)
        # clipped tails aside, error is at most half a step
        inside = np.abs(values / scale) < 127
        assert np.max(np.abs(values[inside] - quantized[inside])) <= scale / 2 + 1e-12

    def test_more_bits_lower_error(self, rng):
        values = rng.normal(size=2000)
        errs = []
        for bits in (2, 4, 8):
            scale = fit_scale_mse(values, bits=bits)
            errs.append(np.mean((values - quantize_symmetric(values, scale, bits)) ** 2))
        assert errs[0] > errs[1] > errs[2]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 1.0, bits=1)
        with pytest.raises(ValueError):
            quantize_to_int(np.ones(3), -1.0)

    def test_all_zero_values(self):
        assert fit_scale_mse(np.zeros(10)) == 1.0

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_quantization_idempotent_property(self, bits):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200)
        scale = fit_scale_mse(values, bits=bits)
        once = quantize_symmetric(values, scale, bits)
        twice = quantize_symmetric(once, scale, bits)
        assert np.allclose(once, twice)


class TestLSQ:
    def test_initial_scale_positive(self, rng):
        lsq = LSQScale(rng.normal(size=(64, 8)))
        assert lsq.scale > 0

    def test_gradient_moves_scale_to_reduce_error(self, rng):
        values = rng.normal(size=(128, 8))
        lsq = LSQScale(values)
        lsq.scale *= 3.0  # deliberately too coarse
        for _ in range(200):
            err_grad = 2 * (lsq.quantize(values) - values)
            lsq.step(values, err_grad, lr=1e-3)
        coarse_err = np.mean((quantize_symmetric(values, 3.0 * LSQScale(values).scale) - values) ** 2)
        tuned_err = np.mean((lsq.quantize(values) - values) ** 2)
        assert tuned_err < coarse_err

    def test_scale_never_nonpositive(self, rng):
        values = rng.normal(size=(16, 4))
        lsq = LSQScale(values)
        lsq.step(values, np.full_like(values, 1e6), lr=10.0)
        assert lsq.scale > 0


class TestCodebook:
    def test_lookup(self, rng):
        codewords = rng.normal(size=(8, 4))
        codebook = Codebook(codewords)
        assignments = np.array([0, 3, 7])
        assert np.allclose(codebook.lookup(assignments), codewords[[0, 3, 7]])

    def test_quantize_in_place(self, rng):
        codebook = Codebook(rng.normal(size=(16, 8)))
        original = codebook.codewords.copy()
        codebook.quantize_(bits=8)
        assert codebook.bits == 8
        assert not np.allclose(codebook.codewords, original) or True  # quantized grid
        levels = np.unique(np.round(codebook.codewords / codebook.lsq.scale))
        assert levels.size <= 256

    def test_storage_bits(self):
        codebook = Codebook(np.zeros((512, 16)))
        assert codebook.storage_bits(8) == 512 * 16 * 8
        assert codebook.storage_bits() == 512 * 16 * 32  # unquantized default

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros(8))


class TestStorageAccounting:
    def test_assignment_and_codebook_bits(self):
        assert assignment_bits(100, 512) == 9 * 100
        assert assignment_bits(10, 1) == 10      # degenerate k=1 still 1 bit
        assert codebook_bits(512, 16, 8) == 512 * 16 * 8

    def test_mask_bits_lut_smaller_than_bitmask(self):
        # 4:16 -> C(16,4)=1820 -> 11 bits per 16 weights < 16 bits
        assert mask_bits_per_weight(4, 16) == pytest.approx(11 / 16)
        assert mask_bits(160, 4, 16) == 110

    def test_paper_compression_ratios(self):
        """The k/d/N:M pairs of Section 7.1 both land near ~22x."""
        cm = CompressionSpec(k=512, d=16, n_keep=4, m=16, codebook_bits=8)
        c = CompressionSpec(k=1024, d=8, n_keep=8, m=8, codebook_bits=8)
        num_subvectors = 11_000_000 // 16
        ratio_cm = compression_ratio(cm, num_subvectors)
        ratio_c = compression_ratio(c, num_subvectors * 2, store_mask=False)
        assert 20 < ratio_cm < 28
        assert 20 < ratio_c < 28

    def test_ratio_improves_without_mask(self):
        spec = CompressionSpec(k=256, d=8, n_keep=2, m=8)
        with_mask = compression_ratio(spec, 10_000)
        without = compression_ratio(spec, 10_000, store_mask=False)
        assert without > with_mask

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CompressionSpec(k=16, d=8, n_keep=2, m=3)
        with pytest.raises(ValueError):
            CompressionSpec(k=16, d=8, n_keep=0, m=8)

    def test_sparsity_property(self):
        assert CompressionSpec(k=2, d=16, n_keep=4, m=16).sparsity == 0.75
        assert CompressionSpec(k=2, d=8, n_keep=1, m=2).sparsity == 0.5

    @given(k=st.sampled_from([64, 256, 1024]), d=st.sampled_from([8, 16]),
           n_keep=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_compression_ratio_positive_and_monotone_in_k(self, k, d, n_keep):
        spec_small = CompressionSpec(k=k, d=d, n_keep=n_keep, m=8 if d == 8 else 16)
        spec_big = CompressionSpec(k=k * 2, d=d, n_keep=n_keep, m=8 if d == 8 else 16)
        n_sub = 50_000
        r_small = compression_ratio(spec_small, n_sub)
        r_big = compression_ratio(spec_big, n_sub)
        assert r_small > 0 and r_big > 0
        assert r_big <= r_small  # more codewords cost more bits


class TestMaskLUT:
    def test_roundtrip_single_block(self):
        lut = MaskLUT(2, 4)
        mask = np.array([True, False, True, False])
        assert np.array_equal(lut.decode_block(lut.encode_block(mask)), mask)

    def test_index_bits_match_formula(self):
        lut = MaskLUT(4, 16)
        assert lut.num_patterns == math.comb(16, 4)
        assert lut.index_bits == 11

    def test_encode_decode_full_mask(self, rng):
        lut = MaskLUT(2, 4)
        grouped = rng.normal(size=(30, 8))
        mask = nm_prune_mask(grouped, 2, 4)
        codes = lut.encode_mask(mask)
        assert codes.shape == (30, 2)
        assert np.array_equal(lut.decode_mask(codes, 8), mask)

    def test_wrong_popcount_raises(self):
        lut = MaskLUT(2, 4)
        with pytest.raises(ValueError):
            lut.encode_block(np.array([True, True, True, False]))

    def test_out_of_range_index_raises(self):
        lut = MaskLUT(1, 2)
        with pytest.raises(ValueError):
            lut.decode_block(5)

    @given(n_keep=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_all_patterns_unique_property(self, n_keep):
        lut = MaskLUT(n_keep, 4)
        decoded = {tuple(lut.decode_block(i)) for i in range(lut.num_patterns)}
        assert len(decoded) == lut.num_patterns


@functools.lru_cache(maxsize=None)
def _lut_and_ranks(n_keep, m):
    """A LUT and the reference rank of every keep pattern: its position in
    ``itertools.combinations(range(m), n_keep)``."""
    combos = itertools.combinations(range(m), n_keep)
    return MaskLUT(n_keep, m), {kept: i for i, kept in enumerate(combos)}


NM_PAIRS = [(n_keep, m) for m in range(1, 17) for n_keep in range(1, m + 1)]


class TestMaskLUTEncodeProperty:
    @pytest.mark.parametrize("n_keep,m", NM_PAIRS)
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_encode_mask_ranks_in_combinations_order(self, n_keep, m, data):
        lut, ranks = _lut_and_ranks(n_keep, m)
        rows = data.draw(st.integers(1, 4), label="rows")
        per_row = data.draw(st.integers(1, 3), label="blocks per row")
        block = st.permutations(range(m)).map(lambda p: tuple(sorted(p[:n_keep])))
        kept = data.draw(st.lists(block, min_size=rows * per_row,
                                  max_size=rows * per_row), label="kept")
        mask = np.zeros((rows * per_row, m), dtype=bool)
        for i, positions in enumerate(kept):
            mask[i, list(positions)] = True
        mask = mask.reshape(rows, per_row * m)

        codes = lut.encode_mask(mask)
        assert codes.shape == (rows, per_row)
        assert codes.ravel().tolist() == [ranks[positions] for positions in kept]
        assert np.array_equal(lut.decode_mask(codes, per_row * m), mask)

        # one block with a bit flipped keeps n_keep +- 1 weights
        bad_block = data.draw(st.integers(0, rows * per_row - 1), label="bad block")
        bit = data.draw(st.integers(0, m - 1), label="flipped bit")
        broken = mask.reshape(-1, m).copy()
        broken[bad_block, bit] ^= True
        with pytest.raises(ValueError, match="expected exactly"):
            lut.encode_mask(broken.reshape(rows, per_row * m))

    @pytest.mark.parametrize("n_keep,m", NM_PAIRS)
    def test_every_pattern_encodes_to_its_index(self, n_keep, m):
        lut, ranks = _lut_and_ranks(n_keep, m)
        assert lut.num_patterns == math.comb(m, n_keep) == len(ranks)
        assert np.array_equal(lut.encode_mask(lut.patterns),
                              np.arange(lut.num_patterns)[:, None])
