import numpy as np
import pytest

from arelax import tensor
from arelax.graph import DenseNode
from arelax.tensor import NonFiniteError, Rng, ShapeError


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tensor.matmul(a, np.eye(2)), a)
        np.testing.assert_array_equal(tensor.matmul(np.eye(2), a), a)

    def test_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = np.zeros((2, 1))
        np.testing.assert_array_equal(tensor.matmul(a, z), np.zeros((2, 1)))

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        np.testing.assert_array_equal(tensor.matmul(a, b), [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
            tensor.matmul(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            tensor.matmul(np.zeros(3), np.zeros((3, 2)))

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            tensor.matmul(np.full((1, 1), 1e308), np.full((1, 1), 10.0))

    def test_pure_bitwise(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
        first = tensor.matmul(a, b)
        second = tensor.matmul(a, b)
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

    def test_add(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        np.testing.assert_array_equal(tensor.add(a, b), [4.0, 7.0])

    @pytest.mark.parametrize("op", [tensor.add])
    def test_shape_mismatch(self, op):
        with pytest.raises(ShapeError):
            op(np.zeros(2), np.zeros(3))


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
