import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from arelax import graph, relaxation, tensor
from arelax.graph import AddNode, GraphError, build, forward
from arelax.harness import skip_dag_spec
from arelax.tensor import NonFiniteError, Rng, ShapeError

from arelax_testkit import ADD_FROM_INPUT_SPEC, CONV_POOL_SPEC, TWO_CONV_POOL_SPEC, conv_dags, scalar_chain


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

    def test_explicit_parameters_are_the_graphs_own(self):
        # a training step adds into the graph's parameters, not the spec's
        rng = Rng(3)
        spec = [{"kind": "input", "shape": (4,)},
                {"kind": "dense", "units": 3, "weight": rng.uniform((3, 4), -1, 1),
                 "psi": rng.uniform((4, 3), -1, 1)},
                {"kind": "dense", "units": 2, "activation": "linear", "weight": rng.uniform((2, 3), -1, 1),
                 "psi": rng.uniform((3, 2), -1, 1)}]
        given = [{k: item[k].copy() for k in ("weight", "psi")} for item in spec[1:]]
        g = build(spec)
        cfg = relaxation.ARConfig(n_iters=5, eta_theta=0.1, backwards_mode="learned_psi")
        x, t = rng.normal((2, 4)), rng.normal((2, 2))
        s = relaxation.run_relaxation(g, forward(g, x), t, cfg)
        relaxation.apply_updates(g, relaxation.weight_update(g, s, cfg), relaxation.psi_update(g, s, cfg))
        for j, item, before in zip((1, 2), spec[1:], given):
            for k in ("weight", "psi"):
                np.testing.assert_array_equal(item[k], before[k])
                assert not np.array_equal(getattr(g.nodes[j], k), before[k])

    @pytest.mark.parametrize("square", [False, True])
    def test_one_array_as_weight_and_psi_gives_two_parameters(self, square):
        # weight = psi.T; a square array may also be given as both as it is
        w = np.arange(9.0).reshape(3, 3) if square else np.arange(12.0).reshape(3, 4)
        g = build([{"kind": "input", "shape": (w.shape[1],)},
                   {"kind": "dense", "units": 3, "weight": w, "psi": w if square else w.T}])
        node = g.nodes[1]
        assert not np.shares_memory(node.weight, node.psi)
        assert not np.shares_memory(node.weight, w) and not np.shares_memory(node.psi, w)
        psi = node.psi.copy()
        relaxation.apply_updates(g, {1: np.ones(w.shape)})
        np.testing.assert_array_equal(node.weight, w + 1)
        np.testing.assert_array_equal(node.psi, psi)

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


def test_conv_dags_has_every_branch_setting_and_size():
    # the shapes the property tests run on: one kind sequence per setting of
    # the five branch choices, and every value of each size
    dags = conv_dags()
    assert len({tuple(item["kind"] for item in spec) for spec, _, _ in dags}) == len(dags) == 32
    convs = [item for spec, _, _ in dags for item in spec if item["kind"] == "conv"]
    assert {spec[0]["shape"] for spec, _, _ in dags} == {(c, s, s) for c in (1, 2) for s in (4, 6)}
    assert {(item["out_channels"], item["kernel"]) for item in convs} == set(itertools.product([1, 2, 3], [1, 3]))
    assert {item["activation"] for item in convs} == {"tanh", "linear"}
    assert {spec[-2]["units"] for spec, _, _ in dags if spec[-2]["kind"] == "dense"} == {1, 2, 3, 4, 5}
    assert {(spec[-1]["units"], batch) for spec, _, batch in dags} == set(itertools.product([2, 3], [1, 2, 3]))


class TestAdjacency:
    def test_chain_children(self):
        g = scalar_chain()
        assert g.parent_ids == [(), (0,), (1,)]
        assert g.output == 2

    def test_skip_graph_parents(self):
        g = build(skip_dag_spec(), Rng(0))
        assert g.parent_ids[3] == (1, 2)
        assert [i for i, ps in enumerate(g.parent_ids) if 1 in ps] == [2, 3]

    def test_skip_graph_children_and_below(self):
        g = build(skip_dag_spec(), Rng(0))
        assert g.children == [(1,), (2, 3), (3,), (4,), ()]
        assert g.below([1]) == [2, 3, 4]
        assert g.below([2, 3]) == [3, 4]
        assert g.below([g.output]) == [] and g.below([]) == []

    def test_below_is_the_transitive_closure(self):
        # a diamond: 1 feeds 2 and 3, which meet at the add 4
        g = build([
            {"kind": "input", "shape": (3,)},
            {"kind": "dense", "units": 3},
            {"kind": "dense", "units": 3, "parents": [1]},
            {"kind": "dense", "units": 3, "parents": [1]},
            {"kind": "add", "parents": [3, 2]},
            {"kind": "dense", "units": 2},
        ], Rng(0))
        for j in range(len(g.nodes)):
            reached = {j}
            for i in g.topo_order:
                if reached.intersection(g.parent_ids[i]):
                    reached.add(i)
            assert g.below([j]) == [i for i in g.topo_order if i in reached - {j}]

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

    def test_dense_forward_is_x_times_w_transposed(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        for w, want in ((np.eye(2), x), (np.array([[5.0, 6.0]]), [[17.0], [39.0]])):
            g = build([{"kind": "input", "shape": (2,)},
                       {"kind": "dense", "units": w.shape[0], "activation": "linear",
                        "weight": w, "psi": w.T}])
            np.testing.assert_array_equal(forward(g, x)[1], want)

    def test_add_sums_its_parents(self):
        g = build([
            {"kind": "input", "shape": (2,)},
            {"kind": "dense", "units": 2, "activation": "linear", "weight": np.eye(2), "psi": np.eye(2)},
            {"kind": "dense", "units": 2, "activation": "linear", "weight": 2 * np.eye(2),
             "psi": np.eye(2), "parents": [0]},
            {"kind": "add", "parents": [0, 1, 2]},
        ])
        np.testing.assert_array_equal(forward(g, [[1.0, 2.0]])[3], [[4.0, 8.0]])

    @pytest.mark.parametrize("kind", ["dense", "conv", "add"])
    def test_overflow_raises_naming_the_node_kind(self, kind):
        # tanh would map the dense and conv pre-activations (inf) to a
        # finite 1; the add's first partial sum is finite, its second inf
        if kind == "dense":
            spec = [{"kind": "input", "shape": (1,)},
                    {"kind": "dense", "units": 1, "weight": [[10.0]], "psi": [[1.0]]}]
            x, name = [[1e308]], "DenseNode"
        elif kind == "conv":
            spec = [{"kind": "input", "shape": (1, 2, 2)},
                    {"kind": "conv", "out_channels": 1, "kernel": 2,
                     "weight": np.ones((1, 1, 2, 2)), "psi": np.ones((1, 1, 2, 2))}]
            x, name = np.full((1, 1, 2, 2), 1e308), "ConvNode"
        else:
            spec = [{"kind": "input", "shape": (1,)}]
            for _ in range(3):
                spec.append({"kind": "dense", "units": 1, "activation": "linear",
                             "weight": [[1.0]], "psi": [[1.0]], "parents": [0]})
            spec.append({"kind": "add", "parents": [1, 2, 3]})
            x, name = [[0.8e308]], "AddNode"
        g = build(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # an overflow must not warn
            with pytest.raises(NonFiniteError, match=f"{name} forward produced non-finite"):
                forward(g, x)

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


def _conv_outer_cases():
    """(batch, ci, co, (h, w), (kh, kw)): B=1 and non-square kernels, then
    seeded random shapes."""
    cases = [(1, 1, 1, (5, 5), (3, 3)), (1, 3, 4, (7, 9), (2, 4)), (4, 2, 5, (8, 6), (5, 1))]
    rng = Rng(5)
    for _ in range(12):
        h, w = rng.integers(1, 12), rng.integers(1, 12)
        cases.append((rng.integers(1, 7), rng.integers(1, 5), rng.integers(1, 7), (h, w),
                      (rng.integers(1, h + 1), rng.integers(1, w + 1))))
    return cases


class TestLinearOnWeightStack:
    """DenseNode.linear, ConvNode.linear and tensor.conv2d_cols on a
    (2, c, *weight.shape) stack of weights give, bit for bit, the loop of
    their 2-D calls on each weight, with and without out=."""

    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("kind", ["dense", "conv", "conv2d_cols"])
    def test_equals_the_loop_of_2d_calls(self, kind, with_out):
        rng = Rng(48)
        g = build(CONV_POOL_SPEC, rng)
        acts = forward(g, rng.normal((3, *g.shapes[g.input])))
        j = 4 if kind == "dense" else 1
        node, saved = g.nodes[j], acts.saved[j]
        stack = rng.normal((2, 5, *node.weight.shape))

        def call(weight, out=None):
            if kind == "conv2d_cols":
                return tensor.conv2d_cols(saved, weight, *node.out_hw, out)
            return replace(node, weight=weight).linear(saved, out)
        want = np.empty((2, 5, *acts[j].shape))
        for s, c in np.ndindex(2, 5):
            if with_out:
                call(stack[s, c], want[s, c])
            else:
                want[s, c] = call(stack[s, c])
        if with_out:
            got = np.empty_like(want)
            assert call(stack, got) is got
        else:
            got = call(stack)
        np.testing.assert_array_equal(got, want, strict=True)


class TestConvOuter:
    @pytest.mark.parametrize("batch,ci,co,hw,kernel", _conv_outer_cases())
    def test_matches_einsum_reference(self, batch, ci, co, hw, kernel):
        rng = Rng(batch * 100 + ci * 10 + co)
        g = build([{"kind": "input", "shape": (ci, *hw)},
                   {"kind": "conv", "out_channels": co, "kernel": list(kernel)}], rng)
        node = g.nodes[1]
        acts = forward(g, rng.normal((batch, ci, *hw)))
        gz = rng.normal(acts[1].shape)
        cols = acts.saved[1]
        # the contraction written out: sum over batch and output position
        want = np.einsum("bop,bkp->ok", gz.reshape(batch, co, -1), cols).reshape(node.weight.shape)
        got = node.outer(gz, cols)
        assert got.shape == node.weight.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _conv_vjp_cases():
    """(batch, ci, co, (h, w), (kh, kw)): B=1, ci=1, non-square kernels and
    kernels the size of the input, seeded random shapes, then cnn's two
    convs at a small batch, whose per-row back matrices are 15 and 160 rows
    tall."""
    cases = [(1, 1, 1, (5, 5), (3, 3)), (1, 3, 4, (7, 9), (2, 4)), (4, 1, 5, (8, 6), (5, 1)),
             (2, 2, 3, (6, 4), (6, 4)), (3, 1, 2, (1, 7), (1, 7))]
    rng = Rng(6)
    for _ in range(10):
        h, w = rng.integers(1, 12), rng.integers(1, 12)
        cases.append((rng.integers(1, 7), rng.integers(1, 5), rng.integers(1, 7), (h, w),
                      (rng.integers(1, h + 1), rng.integers(1, w + 1))))
    return cases + [(2, 3, 32, (32, 32), (5, 5)), (2, 32, 64, (14, 14), (5, 5))]


class TestConvVjp:
    def _case(self, batch, ci, co, hw, kernel):
        rng = Rng(batch * 100 + ci * 10 + co)
        g = build([{"kind": "input", "shape": (ci, *hw)},
                   {"kind": "conv", "out_channels": co, "kernel": list(kernel)}], rng)
        x = rng.normal((batch, ci, *hw))
        acts = forward(g, x)
        return g.nodes[1], x, acts.saved[1], rng.normal(acts[1].shape)

    @pytest.mark.parametrize("back", [None, "psi"])
    @pytest.mark.parametrize("batch,ci,co,hw,kernel", _conv_vjp_cases())
    def test_matches_col2im_reference(self, batch, ci, co, hw, kernel, back):
        node, x, saved, gz = self._case(batch, ci, co, hw, kernel)
        k = node.weight if back is None else node.mirror(node.psi)
        # the transport written out: every patch column's gradient, then
        # scattered back onto the input
        cols_grad = np.matmul(k.reshape(co, -1).T[None], gz.reshape(batch, co, -1))
        want = tensor.col2im(cols_grad, ci, *kernel, *hw)
        [got] = node.vjp(gz, saved, None if back is None else k)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("back", [None, "psi"])
    @pytest.mark.parametrize("batch,ci,co,hw,kernel", _conv_vjp_cases())
    def test_adjoint_of_the_convolution(self, batch, ci, co, hw, kernel, back):
        node, x, saved, gz = self._case(batch, ci, co, hw, kernel)
        k = node.weight if back is None else node.mirror(node.psi)
        forward_side = np.vdot(tensor.conv2d(x, k), gz)
        [vx] = node.vjp(gz, saved, None if back is None else k)
        assert abs(forward_side - np.vdot(x, vx)) <= 1e-12 * abs(forward_side)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("spec", [CONV_POOL_SPEC, TWO_CONV_POOL_SPEC, ADD_FROM_INPUT_SPEC],
                         ids=["conv_pool", "two_conv_pool", "add_from_input"])
def test_vjp_and_outer_leave_their_arguments_unchanged(spec, batch):
    """Every node kind's vjp, with and without a back argument (one that the
    non-parametric kinds ignore), and the dense and conv outer write into
    none of their arguments: init_state starts the relaxing activities as
    the sweep's own arrays, and no sweep may change them. At B=1 the conv
    VJP's batch-innermost cotangent is a view of gz."""
    rng = Rng(7)
    g = build(spec, rng)
    acts = forward(g, rng.normal((batch, *g.shapes[g.input])))
    for j in g.topo_order:
        if j == g.input:
            continue
        node, gz, saved = g.nodes[j], rng.normal(acts[j].shape), acts.saved[j]
        parametric = isinstance(node, graph.PARAMETRIC)
        back = node.mirror(node.psi) if parametric else rng.normal((2, 2))
        args = [a for a in (gz, saved, back, getattr(node, "weight", None)) if a is not None]
        before = [a.copy() for a in args]
        node.vjp(gz, saved)
        node.vjp(gz, saved, back)
        if parametric:
            node.outer(gz, saved)
        for a, want in zip(args, before):
            assert np.array_equal(a, want), (j, type(node).__name__)
