"""Tests for common and masked k-means clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import precision
from repro.core.kmeans import (
    ASSIGN_BLOCK_BYTES,
    _blocked_argmin,
    assign_to_nearest,
    kmeans,
    update_codewords,
)
from repro.core.masked_kmeans import (
    _augment_mask,
    _scorer_mask,
    masked_assign,
    masked_distances,
    masked_kmeans,
    masked_update,
)
from repro.core.metrics import masked_sse, total_sse
from repro.core.pruning import nm_prune_mask


def well_separated_clusters(rng, k=4, per_cluster=50, d=8, spread=0.05):
    centers = rng.normal(size=(k, d)) * 5
    data = np.concatenate([
        centers[i] + rng.normal(scale=spread, size=(per_cluster, d)) for i in range(k)
    ])
    return data, centers


class TestKMeans:
    def test_recovers_separated_clusters(self, rng):
        data, centers = well_separated_clusters(rng)
        # start Lloyd's iterations from perturbed true centers: it must converge
        # onto the real ones and reach near-zero clustering error
        init = centers + rng.normal(scale=0.2, size=centers.shape)
        result = kmeans(data, k=4, seed=0, init_codewords=init)
        recon = result.codewords[result.assignments]
        assert np.mean((data - recon) ** 2) < 0.01

    def test_sse_decreases_with_more_codewords(self, rng):
        data = rng.normal(size=(300, 8))
        sse = [kmeans(data, k=k, seed=0).sse for k in (2, 8, 32, 128)]
        assert all(a >= b for a, b in zip(sse, sse[1:]))

    def test_k_greater_than_points(self, rng):
        data = rng.normal(size=(5, 4))
        result = kmeans(data, k=8, seed=0)
        assert result.codewords.shape == (8, 4)
        assert result.sse < 1e-20

    def test_assignments_are_nearest(self, rng):
        data = rng.normal(size=(100, 6))
        result = kmeans(data, k=10, seed=1)
        assert np.array_equal(result.assignments, assign_to_nearest(data, result.codewords))

    def test_empty_cluster_keeps_previous_codeword(self, rng):
        data = rng.normal(size=(10, 3))
        previous = rng.normal(size=(4, 3))
        assignments = np.zeros(10, dtype=int)  # clusters 1..3 empty
        updated = update_codewords(data, assignments, 4, previous)
        assert np.allclose(updated[1:], previous[1:])
        assert np.allclose(updated[0], data.mean(axis=0))

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(10,)), 2)
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(10, 4)), 0)
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(10, 4)), 2, init_codewords=np.zeros((3, 4)))

    def test_deterministic_given_seed(self, rng):
        data = rng.normal(size=(200, 8))
        a = kmeans(data, 16, seed=5)
        b = kmeans(data, 16, seed=5)
        assert np.allclose(a.codewords, b.codewords)
        assert np.array_equal(a.assignments, b.assignments)

    def test_zero_iterations_returns_init_assignment(self, rng):
        """max_iterations=0 performs no update: the result is the data
        assigned to the *initial* codewords, with iterations == 0."""
        data = rng.normal(size=(50, 4))
        init = rng.normal(size=(6, 4))
        result = kmeans(data, 6, max_iterations=0, init_codewords=init)
        assert result.iterations == 0
        assert np.allclose(result.codewords, init)
        assert np.array_equal(result.assignments, assign_to_nearest(data, init))
        with pytest.raises(ValueError):
            kmeans(data, 6, max_iterations=-1)

    def test_chunked_assignment_matches_unchunked(self, rng):
        data = rng.normal(size=(333, 8))
        codewords = rng.normal(size=(16, 8))
        full = assign_to_nearest(data, codewords)
        # a tiny budget forces many row blocks; per-row arithmetic is the same
        chunked = assign_to_nearest(data, codewords, block_bytes=1024)
        assert np.array_equal(full, chunked)

    def test_kmeanspp_init_runs_and_clusters(self, rng):
        data, _ = well_separated_clusters(rng)
        result = kmeans(data, 4, seed=0, init="kmeans++")
        recon = result.codewords[result.assignments]
        assert np.mean((data - recon) ** 2) < 0.01
        a = kmeans(data, 4, seed=3, init="kmeans++")
        b = kmeans(data, 4, seed=3, init="kmeans++")
        assert np.allclose(a.codewords, b.codewords)
        with pytest.raises(ValueError):
            kmeans(data, 4, init="warmstart")

    def test_minibatch_mode_approximates_full(self, rng):
        data, _ = well_separated_clusters(rng, per_cluster=100)
        full = kmeans(data, 4, seed=0)
        mb = kmeans(data, 4, seed=0, minibatch=64, max_iterations=50)
        assert mb.iterations == 50
        assert mb.sse <= full.sse * 2.0 + 1.0


class TestBlockedArgmin:
    """The cache-sized blocked assignment equals the one-shot argmin."""

    K = 256

    def _operands(self, rng, n, dtype, d=8):
        data = rng.normal(size=(n, d))
        mask = nm_prune_mask(data, 2, d)
        aug = _augment_mask((data * mask).astype(dtype), mask.astype(dtype))
        return aug, _scorer_mask(rng.normal(size=(self.K, d)).astype(dtype), dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rows_to_n", [
        lambda rows: rows - 1,          # below one block: the single GEMM
        lambda rows: rows,              # exactly one block
        lambda rows: 3 * rows,          # a multiple of the block rows
        lambda rows: 3 * rows + 37,     # a short tail
        lambda rows: 2 * rows + 1,      # a one-row tail (a gemv if run alone)
    ], ids=["below", "equal", "multiple", "tail", "one-row-tail"])
    def test_default_block_matches_one_shot(self, rng, dtype, rows_to_n):
        rows = ASSIGN_BLOCK_BYTES // (self.K * np.dtype(dtype).itemsize)
        aug, scorer = self._operands(rng, rows_to_n(rows), dtype)
        blocked = _blocked_argmin(aug, scorer, None)
        assert np.array_equal(blocked, np.argmin(aug @ scorer, axis=1))

    def test_tail_block_has_full_rows(self, rng, monkeypatch):
        """A short tail could reach a BLAS kernel that rounds differently
        (one row goes to gemv), so the tail overlaps its neighbour instead."""
        block_rows = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            block_rows.append(a.shape[0])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rows = ASSIGN_BLOCK_BYTES // (self.K * 8)
        aug, scorer = self._operands(rng, 2 * rows + 1, np.float64)
        blocked = _blocked_argmin(aug, scorer, None)
        assert block_rows == [rows] * 3
        assert np.array_equal(blocked, np.argmin(aug @ scorer, axis=1))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scoped_budget_caps_block_rows(self, rng, dtype, monkeypatch):
        budgets = []
        block_rows = precision.block_rows

        def spy(k, itemsize, budget=None):
            budgets.append(budget)
            return block_rows(k, itemsize, budget)

        monkeypatch.setattr(precision, "block_rows", spy)
        aug, scorer = self._operands(rng, 1000, dtype)
        with precision.precision(block_bytes=1 << 16):
            blocked = _blocked_argmin(aug, scorer, None)
        assert budgets == [1 << 16]
        assert np.array_equal(blocked, np.argmin(aug @ scorer, axis=1))
        # a budget above the block target is only a ceiling
        _blocked_argmin(aug, scorer, 64 << 20)
        assert budgets[-1] == ASSIGN_BLOCK_BYTES


class TestMaskedKMeans:
    def test_matches_plain_kmeans_with_full_mask(self, rng):
        data = rng.normal(size=(200, 8))
        mask = np.ones_like(data, dtype=bool)
        init = data[:16].copy()
        plain = kmeans(data, 16, seed=0, init_codewords=init)
        masked = masked_kmeans(data, mask, 16, seed=0, init_codewords=init)
        assert np.allclose(plain.codewords, masked.codewords)
        assert np.array_equal(plain.assignments, masked.assignments)
        assert np.isclose(plain.sse, masked.sse)

    def test_masked_distance_ignores_pruned_positions(self, rng):
        data = np.array([[1.0, 0.0], [1.0, 0.0]])
        mask = np.array([[True, False], [True, True]])
        codewords = np.array([[1.0, 100.0]])
        dist = masked_distances(data, mask, codewords)
        assert np.isclose(dist[0, 0], 0.0)          # pruned position excluded
        assert np.isclose(dist[1, 0], 100.0**2)     # unpruned position counted

    def test_masked_assign_brute_force_equivalence(self, rng):
        """Vectorised masked assignment equals the explicit per-pair distance."""
        data = rng.normal(size=(40, 8))
        mask = nm_prune_mask(data, 2, 4)
        data = data * mask
        codewords = rng.normal(size=(6, 8))
        fast = masked_assign(data, mask, codewords)
        brute = np.array([
            np.argmin([np.sum((data[j] - c * mask[j]) ** 2) for c in codewords])
            for j in range(data.shape[0])
        ])
        assert np.array_equal(fast, brute)

    def test_masked_update_is_elementwise_mean_of_kept(self):
        data = np.array([[2.0, 0.0], [4.0, 6.0]])
        mask = np.array([[True, False], [True, True]])
        assignments = np.array([0, 0])
        updated = masked_update(data, mask, assignments, 1, np.zeros((1, 2)))
        assert np.allclose(updated[0], [3.0, 6.0])   # second coord averages one value

    def test_masked_update_empty_coordinate_keeps_previous(self):
        data = np.array([[1.0, 0.0]])
        mask = np.array([[True, False]])
        previous = np.array([[9.0, 9.0]])
        updated = masked_update(data, mask, np.array([0]), 1, previous)
        assert updated[0, 1] == 9.0

    def test_lower_masked_sse_than_common_kmeans(self, rng):
        """The paper's core claim: masked k-means approximates kept weights better."""
        data = rng.normal(size=(600, 16))
        mask = nm_prune_mask(data, 4, 16)
        sparse = data * mask
        k = 32
        init = sparse[:k].copy()
        common = kmeans(sparse, k, seed=0, init_codewords=init)
        masked = masked_kmeans(sparse, mask, k, seed=0, init_codewords=init)
        common_recon = common.codewords[common.assignments] * mask
        masked_recon = masked.codewords[masked.assignments] * mask
        assert masked_sse(sparse, masked_recon, mask) < masked_sse(sparse, common_recon, mask)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            masked_kmeans(rng.normal(size=(10, 4)), np.ones((10, 8), dtype=bool), 2)

    @given(k=st.sampled_from([2, 4, 8]), n=st.integers(20, 60))
    @settings(max_examples=15, deadline=None)
    def test_masked_sse_nonincreasing_in_k_property(self, k, n):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(n, 8))
        mask = nm_prune_mask(data, 2, 4)
        small = masked_kmeans(data * mask, mask, k, seed=3)
        large = masked_kmeans(data * mask, mask, k * 2, seed=3)
        # more codewords should not make the clustering error much worse
        assert large.sse <= small.sse * 1.05

    def test_zero_iterations_returns_init_assignment(self, rng):
        data = rng.normal(size=(60, 8))
        mask = nm_prune_mask(data, 2, 8)
        init = rng.normal(size=(8, 8))
        result = masked_kmeans(data * mask, mask, 8, max_iterations=0,
                               init_codewords=init)
        assert result.iterations == 0
        assert np.allclose(result.codewords, init)
        assert np.array_equal(result.assignments,
                              masked_assign(data * mask, mask, init))
        with pytest.raises(ValueError):
            masked_kmeans(data * mask, mask, 8, max_iterations=-1)

    def test_fully_masked_coordinate_keeps_init_value(self, rng):
        """A coordinate pruned in every subvector never moves any codeword
        coordinate away from its initial value."""
        data = rng.normal(size=(80, 4))
        mask = np.ones_like(data, dtype=bool)
        mask[:, 2] = False  # coordinate 2 pruned everywhere
        init = rng.normal(size=(5, 4))
        result = masked_kmeans(data * mask, mask, 5, max_iterations=20,
                               init_codewords=init)
        assert np.allclose(result.codewords[:, 2], init[:, 2])
        # and the masked SSE ignores that coordinate entirely
        recon = result.codewords[result.assignments]
        assert np.isclose(result.sse, masked_sse(data * mask, recon, mask))

    def test_empty_cluster_keeps_previous_codeword_full_run(self, rng):
        """With far more codewords than occupied clusters, the empty clusters
        survive a full run holding their initial codewords."""
        base = rng.normal(size=(2, 4))
        data = np.repeat(base, 20, axis=0)          # only 2 distinct points
        mask = np.ones_like(data, dtype=bool)
        init = rng.normal(size=(6, 4)) + 100.0      # far away: most stay empty
        init[0], init[1] = base[0], base[1]
        result = masked_kmeans(data, mask, 6, max_iterations=10,
                               init_codewords=init)
        occupied = np.unique(result.assignments)
        empty = np.setdiff1d(np.arange(6), occupied)
        assert empty.size > 0
        assert np.allclose(result.codewords[empty], init[empty])

    def test_chunked_vs_unchunked_distance_paths(self, rng):
        """masked_assign under a tiny block budget == argmin of the full
        masked_distances matrix == unchunked masked_assign."""
        data = rng.normal(size=(257, 8))
        mask = nm_prune_mask(data, 2, 8)
        data = data * mask
        codewords = rng.normal(size=(12, 8))
        unchunked = masked_assign(data, mask, codewords)
        chunked = masked_assign(data, mask, codewords, block_bytes=1024)
        reference = np.argmin(masked_distances(data, mask, codewords), axis=1)
        assert np.array_equal(unchunked, chunked)
        assert np.array_equal(unchunked, reference)

    def test_masked_kmeanspp_and_minibatch(self, rng):
        data = rng.normal(size=(400, 8))
        mask = nm_prune_mask(data, 2, 8)
        kpp = masked_kmeans(data * mask, mask, 16, seed=0, init="kmeans++")
        assert np.isfinite(kpp.sse)
        mb = masked_kmeans(data * mask, mask, 16, seed=0, minibatch=128,
                           max_iterations=30)
        full = masked_kmeans(data * mask, mask, 16, seed=0)
        assert mb.sse <= full.sse * 2.0 + 1.0

    def test_reported_sse_is_masked_sse(self, rng):
        data = rng.normal(size=(100, 8))
        mask = nm_prune_mask(data, 2, 8)
        result = masked_kmeans(data * mask, mask, 8, seed=0)
        recon = result.codewords[result.assignments]
        assert np.isclose(result.sse, masked_sse(data * mask, recon, mask))


class TestMetrics:
    def test_total_and_masked_sse(self, rng):
        original = rng.normal(size=(10, 4))
        recon = original + 1.0
        mask = np.zeros_like(original, dtype=bool)
        mask[:, 0] = True
        assert np.isclose(total_sse(original, recon), original.size)
        assert np.isclose(masked_sse(original, recon, mask), 10)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            total_sse(rng.normal(size=(3, 3)), rng.normal(size=(3, 4)))
        with pytest.raises(ValueError):
            masked_sse(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((3, 3), dtype=bool))
