from itertools import combinations

import numpy as np
import pytest

from arelax import models, tensor
from arelax.graph import DenseNode, GraphError, MaxPoolNode, build, forward
from arelax.tensor import Rng, ShapeError

from arelax_testkit import reference_maxpool2d, reference_maxpool2d_scatter


def dense_product(x, w):
    """x @ W.T, the product a linear dense node's forward makes."""
    w = np.asarray(w, dtype=float)
    return DenseNode(w, "linear", w.T).forward([np.asarray(x, dtype=float)], (0,))[0]


class TestMatmul:
    # the dense product runs unwrapped in DenseNode.forward; its operand
    # shapes are checked once, by graph.build and graph.forward
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dense_product(a, np.eye(2)), a)
        np.testing.assert_array_equal(dense_product(np.eye(2), a.T), a)

    def test_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dense_product(a, np.zeros((1, 2))), np.zeros((2, 1)))

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dense_product(a, [[5.0, 6.0]]), [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        spec = [{"kind": "input", "shape": (3,)}, {"kind": "dense", "units": 2, "weight": np.zeros((2, 2))}]
        with pytest.raises(GraphError, match=r"\(2, 2\).*\(2, 3\)"):
            build(spec)

    def test_non_2d_rejected(self):
        g = build([{"kind": "input", "shape": (3,)}, {"kind": "dense", "units": 2}], Rng(0))
        with pytest.raises(ShapeError):
            forward(g, np.zeros(3))

    def test_pure_bitwise(self):
        rng = np.random.default_rng(0)
        a, w = rng.normal(size=(5, 7)), rng.normal(size=(3, 7))
        first = dense_product(a, w)
        second = dense_product(a, w)
        assert first.tobytes() == second.tobytes()


class TestConv2d:
    def test_zero_kernels(self):
        x = np.ones((1, 2, 4, 4))
        out = tensor.conv2d(x, np.zeros((3, 2, 2, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3, 3)))

    def test_ones_summation(self):
        out = tensor.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 4.0))

    def test_unit_1x1_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 5, 6))
        out = tensor.conv2d(x, np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(out, x)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError, match="larger than input"):
            tensor.conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            tensor.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 2, 2)))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 6, 5))
        k = rng.normal(size=(2, 3, 3, 2))
        batched = tensor.conv2d(x, k)
        for b in range(4):
            np.testing.assert_array_equal(batched[b], tensor.conv2d(x[b : b + 1], k)[0])

    def test_output_extents(self):
        out = tensor.conv2d(np.zeros((2, 1, 8, 6)), np.zeros((4, 1, 3, 3)))
        assert out.shape == (2, 4, 6, 4)


@pytest.mark.parametrize("shape", [(3, 4, 4), (1, 1, 3, 4, 4)])
def test_spatial_kernels_take_4d_input_only(shape):
    x = np.zeros(shape)
    with pytest.raises(ShapeError, match=r"\(B,C,H,W\)"):
        tensor.conv2d(x, np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeError, match=r"\(B,C,H,W\)"):
        tensor.maxpool2d(x)
    with pytest.raises(ShapeError, match=r"\(B,C,H,W\)"):
        tensor.maxpool2d_scatter(x, np.zeros(shape, dtype=np.intp), 8, 8)


class TestMaxPool:
    def test_simple_window(self):
        pooled, idx = tensor.maxpool2d(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert pooled.shape == (1, 1, 1, 1) and pooled[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3  # flat position (1,1) in the 2x2 plane

    def test_tie_breaks_to_first_element(self):
        pooled, idx = tensor.maxpool2d(np.full((1, 1, 2, 2), 7.0))
        assert pooled[0, 0, 0, 0] == 7.0
        assert idx[0, 0, 0, 0] == 0

    def test_negative_only_input(self):
        x = np.array([[[[-4.0, -1.0], [-3.0, -2.0]]]])
        pooled, idx = tensor.maxpool2d(x)
        assert pooled[0, 0, 0, 0] == -1.0
        assert idx[0, 0, 0, 0] == 1

    def test_odd_extents_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            tensor.maxpool2d(np.zeros((1, 1, 3, 4)))

    def test_scatter_roundtrip_preserves_window_maxima(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 1.0, size=(2, 3, 6, 8))
        pooled, idx = tensor.maxpool2d(x)
        scattered = tensor.maxpool2d_scatter(pooled, idx, 6, 8)
        repooled, _ = tensor.maxpool2d(scattered)
        np.testing.assert_array_equal(repooled, pooled)

    def test_scatter_places_values_at_recorded_positions(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 8))  # signed: zeros elsewhere must not matter
        pooled, idx = tensor.maxpool2d(x)
        scattered = tensor.maxpool2d_scatter(pooled, idx, 6, 8)
        flat = scattered.reshape(2, 3, -1)
        gathered = np.take_along_axis(flat, idx.reshape(2, 3, -1), axis=-1)
        np.testing.assert_array_equal(gathered.reshape(pooled.shape), pooled)
        assert np.count_nonzero(scattered) <= pooled.size


def _windows_in_a_row(windows):
    """(1, 1, 2, 2n) plane holding the n windows, each given as its four
    values in row-major window order, side by side."""
    w = np.asarray(windows, dtype=np.float64)
    return w.reshape(-1, 2, 2).transpose(1, 0, 2).reshape(1, 1, 2, -1)


def _assert_pool_is_reference(x):
    """maxpool2d's pooled values and idx (value and dtype), and the scatter
    of a random cotangent through idx, equal the written-out reference's
    bit for bit."""
    pooled, idx = tensor.maxpool2d(x)
    want, want_idx = reference_maxpool2d(x)
    assert pooled.shape == want.shape and pooled.dtype == want.dtype
    assert pooled.tobytes() == want.tobytes()
    assert idx.dtype == want_idx.dtype
    np.testing.assert_array_equal(idx, want_idx)
    h, w = x.shape[2:]
    g = np.random.default_rng(0).normal(size=pooled.shape)
    got = tensor.maxpool2d_scatter(g, idx, h, w)
    assert got.tobytes() == reference_maxpool2d_scatter(g, want_idx, h, w).tobytes()


class TestMaxPoolMatchesReference:
    """The strided-view pool and the flat-index scatter against the argmax /
    take_along_axis / put_along_axis expressions they replace."""

    def test_every_window_of_zeros_and_ones(self):
        bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
        for lo, hi in [(0.0, 1.0), (-1.0, 0.0), (-3.5, 2.25)]:
            _assert_pool_is_reference(_windows_in_a_row(np.where(bits, hi, lo)))

    @pytest.mark.parametrize("hi,lo", [(1.0, 0.0), (-1.0, -2.0), (np.inf, 0.0),
                                       (0.0, -np.inf), (np.inf, -np.inf)])
    def test_a_tie_between_every_pair_of_positions(self, hi, lo):
        windows = []
        for size in (2, 3, 4):
            for tied in combinations(range(4), size):
                windows.append([hi if k in tied else lo for k in range(4)])
        _assert_pool_is_reference(_windows_in_a_row(windows))

    def test_infinities(self):
        rng = np.random.default_rng(5)
        x = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=(2, 3, 6, 8))
        x[0, 0, :2, :2] = -np.inf
        x[0, 1, :2, :2] = np.inf
        _assert_pool_is_reference(x)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 6, 8, 6)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        _assert_pool_is_reference(x)
        _assert_pool_is_reference(x[:, ::2])

    def test_cnn_pool_shape(self):
        g = models.build_model(models.ModelSpec("cnn"), Rng(0))
        (pool,) = [j for j, node in enumerate(g.nodes) if isinstance(node, MaxPoolNode)]
        shape = g.shapes[g.parent_ids[pool][0]]
        x = np.tanh(np.random.default_rng(7).normal(size=(2,) + shape))
        _assert_pool_is_reference(x)

    def test_a_signed_zero_tie_keeps_the_index_rule(self):
        # +0 and -0 compare equal; which zero is pooled is not specified
        windows = [[0.0, -0.0, -1.0, -1.0], [-0.0, 0.0, -1.0, -1.0],
                   [-1.0, -1.0, 0.0, -0.0], [-0.0, -1.0, 0.0, -1.0]]
        x = _windows_in_a_row(windows)
        pooled, idx = tensor.maxpool2d(x)
        want, want_idx = reference_maxpool2d(x)
        np.testing.assert_array_equal(pooled, want)
        np.testing.assert_array_equal(idx, want_idx)

    def test_nan_pools_to_nan_with_an_index_inside_its_window(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 4, 8))
        for k in range(4):              # a NaN at each window position
            x[0, 0, k // 2, 2 * k + k % 2] = np.nan
        x[0, 1, 2:, 4:6] = np.nan       # a window of NaNs
        pooled, idx = tensor.maxpool2d(x)
        want, want_idx = reference_maxpool2d(x)
        nan = np.isnan(want)
        assert nan.sum() == 5
        np.testing.assert_array_equal(np.isnan(pooled), nan)
        np.testing.assert_array_equal(pooled[~nan], want[~nan])
        np.testing.assert_array_equal(idx[~nan], want_idx[~nan])
        # idx may differ from argmax's under a NaN, but names a cell of its window
        top_left = 2 * 8 * np.arange(2)[:, None] + 2 * np.arange(4)
        assert np.isin(idx - top_left, [0, 1, 8, 9]).all()

    def test_scatter_of_non_contiguous_values(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 6, 8))
        _, idx = tensor.maxpool2d(x)
        g = rng.normal(size=(2, 3, 4, 3)).transpose(0, 1, 3, 2)
        assert not g.flags.c_contiguous
        got = tensor.maxpool2d_scatter(g, idx, 6, 8)
        assert got.tobytes() == reference_maxpool2d_scatter(g, idx, 6, 8).tobytes()


TANH_NODE = DenseNode(np.zeros((1, 1)), "tanh", np.zeros((1, 1)))


class TestElementwise:
    # the library's tanh derivative is _Parametric.fprime, taken from the
    # node's output; these pin it against np.tanh at the pre-activation
    def test_tanh_analytic_points(self):
        assert np.tanh(0.0) == 0.0
        assert TANH_NODE.fprime(np.tanh(np.array([0.0])))[0] == 1.0

    def test_tanh_saturation(self):
        assert np.tanh(50.0) == pytest.approx(1.0)
        assert TANH_NODE.fprime(np.tanh(np.array([50.0])))[0] == pytest.approx(0.0, abs=1e-12)

    def test_tanh_prime_identity_sampled(self):
        a = np.linspace(-4, 4, 101)
        np.testing.assert_array_equal(TANH_NODE.fprime(np.tanh(a)), 1 - np.tanh(a) ** 2)

    @pytest.mark.parametrize("op", ["add"])
    def test_shape_mismatch(self, op):
        spec = [
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 3},
            {"kind": op, "parents": [0, 1]},
        ]
        with pytest.raises(GraphError, match="differing shapes"):
            build(spec, Rng(0))


class TestRng:
    def test_same_seed_identical_streams(self):
        a = Rng(42).normal((3, 4), 0.0, 1.0)
        b = Rng(42).normal((3, 4), 0.0, 1.0)
        assert a.tobytes() == b.tobytes()

    def test_zero_std_is_constant(self):
        out = Rng(1).normal((5,), 2.5, 0.0)
        np.testing.assert_array_equal(out, np.full(5, 2.5))

    def test_law_of_large_numbers(self):
        n = 100_000
        draws = Rng(7).normal((n,), 1.0, 2.0)
        assert abs(draws.mean() - 1.0) <= 3 * 2.0 / np.sqrt(n)

    def test_uniform_bounds(self):
        out = Rng(3).uniform((1000,), -0.25, 0.25)
        assert out.min() >= -0.25 and out.max() <= 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Rng(0).normal((2,), 0.0, -1.0)
        with pytest.raises(ValueError):
            Rng(0).uniform((2,), 1.0, 0.0)
        with pytest.raises(ValueError):
            Rng(-1)
