import numpy as np
import pytest

from arelax import graph
from arelax.graph import AddNode, GraphError, build, forward
from arelax.harness import skip_dag_spec
from arelax.tensor import Rng, ShapeError


def scalar_chain():
    return build([
        {"kind": "input", "shape": (1,)},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[2.0]], "psi": [[0.1]]},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[3.0]], "psi": [[0.1]]},
    ])


class TestBuild:
    def test_dense_chain_parameter_shapes(self):
        spec = [{"kind": "input", "shape": (784,)}]
        for units in (300, 300, 100, 10):
            spec.append({"kind": "dense", "units": units})
        g = build(spec, Rng(0))
        shapes = [g.nodes[j].weight.shape for j in g.parametric_ids()]
        assert shapes == [(300, 784), (300, 300), (100, 300), (10, 100)]

    def test_self_loop_is_a_cycle(self):
        spec = [
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 2, "parents": [1]},
        ]
        with pytest.raises(GraphError, match="cycle"):
            build(spec, Rng(0))

    def test_forward_reference_cycle(self):
        spec = [
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 2, "parents": [2]},
            {"kind": "dense", "units": 2, "parents": [1]},
        ]
        with pytest.raises(GraphError, match="cycle"):
            build(spec, Rng(0))

    def test_skip_connection_builds_two_parent_add(self):
        g = build(skip_dag_spec(), Rng(0))
        add_ids = [i for i, n in enumerate(g.nodes) if isinstance(n, AddNode)]
        assert len(add_ids) == 1
        assert len(g.parent_ids[add_ids[0]]) == 2

    def test_two_sinks_rejected(self):
        spec = [
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 2},
            {"kind": "dense", "units": 3, "parents": [0]},
        ]
        with pytest.raises(GraphError, match="output"):
            build(spec, Rng(0))

    def test_exactly_one_input_required(self):
        with pytest.raises(GraphError, match="input"):
            build([
                {"kind": "input", "shape": (2,)},
                {"kind": "input", "shape": (2,), "parents": []},
                {"kind": "add", "parents": [0, 1]},
            ], Rng(0))

    def test_dense_on_spatial_parent_rejected(self):
        spec = [
            {"kind": "input", "shape": (1, 4, 4)},
            {"kind": "dense", "units": 3},
        ]
        with pytest.raises(GraphError, match="flat"):
            build(spec, Rng(0))

    def test_add_shape_mismatch(self):
        spec = [
            {"kind": "input", "shape": (4,)},
            {"kind": "dense", "units": 3},
            {"kind": "dense", "units": 4, "parents": [0]},
            {"kind": "add", "parents": [1, 2]},
        ]
        with pytest.raises(GraphError, match="differing shapes"):
            build(spec, Rng(0))

    def test_explicit_weight_shape_checked(self):
        spec = [
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 2, "weight": [[1.0, 2.0]]},
        ]
        with pytest.raises(GraphError, match="weight shape"):
            build(spec)

    def test_explicit_conv_psi_shape_checked(self):
        spec = [
            {"kind": "input", "shape": (2, 5, 5)},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "psi": np.zeros((2, 3, 3, 3))},
        ]
        with pytest.raises(GraphError, match="psi shape"):
            build(spec, Rng(0))

    @pytest.mark.parametrize("item", [
        {"kind": "dense", "units": 0},
        {"kind": "dense", "units": -3},
        {"kind": "conv", "out_channels": 0, "kernel": 3},
        {"kind": "conv", "out_channels": 2, "kernel": 0},
        {"kind": "conv", "out_channels": 2, "kernel": [3, -1]},
    ], ids=["units_0", "units_negative", "out_channels_0", "kernel_0", "kernel_pair_negative"])
    def test_non_positive_extent_rejected(self, item):
        parent = {"dense": (4,), "conv": (1, 5, 5)}[item["kind"]]
        with pytest.raises(GraphError, match="must be positive"):
            build([{"kind": "input", "shape": parent}, item], Rng(0))

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown kind"):
            build([{"kind": "input", "shape": (2,)}, {"kind": "softmax"}], Rng(0))

    def test_psi_mirrors_weight_shape(self):
        g = build(skip_dag_spec(width=5, class_count=3), Rng(4))
        for j in g.parametric_ids():
            node = g.nodes[j]
            assert node.psi.shape == node.weight.T.shape


class TestAdjacency:
    def test_chain_children(self):
        g = scalar_chain()
        assert g.parent_ids == [(), (0,), (1,)]
        assert g.output == 2

    def test_skip_graph_parents(self):
        g = build(skip_dag_spec(), Rng(0))
        assert g.parent_ids[3] == (1, 2)
        assert [i for i, ps in enumerate(g.parent_ids) if 1 in ps] == [2, 3]

    def test_out_of_range_index(self):
        for parent in (3, 99, -1):
            spec = [
                {"kind": "input", "shape": (2,)},
                {"kind": "dense", "units": 2},
                {"kind": "dense", "units": 2, "parents": [parent]},
            ]
            with pytest.raises(GraphError, match=f"parent index {parent} out of range"):
                build(spec, Rng(0))

    def test_topo_order_is_linear_extension(self):
        g = build(skip_dag_spec(), Rng(1))
        pos = {node: k for k, node in enumerate(g.topo_order)}
        for i, ps in enumerate(g.parent_ids):
            for p in ps:
                assert pos[p] < pos[i]


class TestForward:
    def test_zero_weights_give_zero_hiddens(self):
        spec = [
            {"kind": "input", "shape": (3,)},
            {"kind": "dense", "units": 4, "weight": np.zeros((4, 3)), "psi": np.zeros((3, 4))},
            {"kind": "dense", "units": 2, "weight": np.zeros((2, 4)), "psi": np.zeros((4, 2))},
        ]
        g = build(spec)
        acts = forward(g, np.ones((5, 3)))
        np.testing.assert_array_equal(acts[1], np.zeros((5, 4)))
        np.testing.assert_array_equal(acts[2], np.zeros((5, 2)))

    def test_scalar_chain_activations(self):
        g = scalar_chain()
        acts = forward(g, [[1.0]])
        assert [float(a[0, 0]) for a in acts] == [1.0, 2.0, 6.0]

    def test_input_shape_checked(self):
        g = scalar_chain()
        with pytest.raises(ShapeError):
            forward(g, [[1.0, 2.0]])

    def test_deterministic_and_side_effect_free(self):
        g = build(skip_dag_spec(), Rng(2))
        weights_before = [g.nodes[j].weight.copy() for j in g.parametric_ids()]
        x = Rng(5).normal((3, 8))
        first = forward(g, x)
        second = forward(g, x)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        for j, w in zip(g.parametric_ids(), weights_before):
            np.testing.assert_array_equal(g.nodes[j].weight, w)

    def test_chain_matches_layer_recursion(self):
        rng = Rng(9)
        spec = [
            {"kind": "input", "shape": (6,)},
            {"kind": "dense", "units": 5, "activation": "tanh"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g = build(spec, rng)
        x = Rng(10).normal((4, 6))
        acts = forward(g, x)
        h = np.tanh(x @ g.nodes[1].weight.T)
        out = h @ g.nodes[2].weight.T
        np.testing.assert_array_equal(acts[1], h)
        np.testing.assert_array_equal(acts[2], out)
