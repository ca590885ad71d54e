import numpy as np
import pytest

from arelax.graph import ConvNode, DenseNode, build, forward
from arelax.harness import node_rel_errors, random_case
from arelax.models import ModelSpec, build_cnn, build_mlp4, build_model, reduced_spec
from arelax.oracle import backprop
from arelax.relaxation import ARConfig, run_relaxation
from arelax.tensor import Rng

from arelax_testkit import require_real_dataset
from arelax import data as data_mod


class TestMlp4:
    def test_parameter_shapes(self):
        g = build_mlp4(10, Rng(0))
        shapes = [g.nodes[j].weight.shape for j in g.parametric_ids()]
        assert shapes == [(300, 784), (300, 300), (100, 300), (10, 100)]

    def test_zero_input_gives_zero_hiddens(self):
        g = build_mlp4(10, Rng(1))
        acts = forward(g, np.zeros((2, 1, 28, 28)))
        for j in g.parametric_ids()[:-1]:
            np.testing.assert_array_equal(acts[j], np.zeros_like(acts[j]))

    def test_output_shape_batch_64(self):
        g = build_mlp4(10, Rng(2))
        acts = forward(g, np.zeros((64, 1, 28, 28)))
        assert acts[g.output].shape == (64, 10)

    def test_tanh_hidden_linear_head(self):
        g = build_mlp4(10, Rng(3))
        dense = [g.nodes[j] for j in g.parametric_ids()]
        assert [n.activation for n in dense] == ["tanh", "tanh", "tanh", "linear"]

    def test_real_mnist_batch_shape(self):
        root = require_real_dataset("mnist")
        d = data_mod.load_dataset("mnist", root, "train")
        g = build_mlp4(10, Rng(4))
        acts = forward(g, d.images[:64])
        assert acts[g.output].shape == (64, 10)


class TestCnn:
    def test_filter_counts_and_structure(self):
        g = build_cnn(10, Rng(0))
        kinds = [type(n).__name__ for n in g.nodes]
        assert kinds == ["InputNode", "ConvNode", "MaxPoolNode", "ConvNode",
                         "FlattenNode", "DenseNode", "DenseNode"]
        conv1, conv2 = g.nodes[1], g.nodes[3]
        assert conv1.weight.shape == (32, 3, 5, 5)
        assert conv2.weight.shape == (64, 32, 5, 5)

    def test_spatial_bookkeeping(self):
        # 32 -> 28 (5x5 valid) -> 14 (pool) -> 10 (5x5 valid) -> flatten 6400
        g = build_cnn(10, Rng(1))
        assert g.shapes[1] == (32, 28, 28)
        assert g.shapes[2] == (32, 14, 14)
        assert g.shapes[3] == (64, 10, 10)
        assert g.shapes[4] == (6400,)
        assert g.shapes[5] == (120,)

    def test_cifar100_head(self):
        g = build_cnn(100, Rng(2))
        assert g.shapes[g.output] == (100,)

    def test_tanh_everywhere_except_head(self):
        g = build_cnn(10, Rng(3))
        acted = [n for n in g.nodes if isinstance(n, (ConvNode, DenseNode))]
        assert [n.activation for n in acted] == ["tanh", "tanh", "tanh", "linear"]


class TestModelSpec:
    def test_build_by_name(self):
        assert build_model(ModelSpec("mlp4", 10), Rng(0)).shapes[-1] == (10,)
        assert build_model(ModelSpec("cnn", 100), Rng(0)).shapes[-1] == (100,)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("resnet", 10)


class TestGradientSanity:
    """Both architectures, at reduced width, satisfy the gradient chain:
    relaxation equilibria match reverse-mode, and reverse-mode matches
    finite differences on sampled parameter coordinates."""

    @pytest.mark.parametrize("name", ["mlp4", "cnn"])
    def test_reduced_build_gradients(self, name):
        rng = Rng(5)
        g = build(reduced_spec(ModelSpec(name, 10)), rng)
        x, t = random_case(g, rng, 2)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        s = run_relaxation(g, acts, t, ARConfig(n_iters=500))
        worst = max(node_rel_errors(g, s, grads, 2).values())
        assert worst <= 1e-6

        # sampled central differences against the reverse-mode gradients
        from arelax.oracle import loss_mse
        h = 1e-5
        sampler = np.random.default_rng(6)
        for j in g.parametric_ids():
            w = g.nodes[j].weight
            flat = w.reshape(-1)
            coords = sampler.choice(flat.size, size=min(40, flat.size), replace=False)
            for k in coords:
                orig = flat[k]
                flat[k] = orig + h
                lp = loss_mse(forward(g, x)[g.output], t)
                flat[k] = orig - h
                lm = loss_mse(forward(g, x)[g.output], t)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                bp = grads.param[j].reshape(-1)[k]
                assert abs(bp - fd) <= 1e-4 * max(1e-3, abs(fd))
