import numpy as np
import pytest
from hypothesis import given, settings

from arelax import models, oracle
from arelax.graph import PARAMETRIC, AddNode, FlattenNode, MaxPoolNode, build, forward
from arelax.harness import random_case, random_chain_spec, rel_error, skip_dag_spec
from arelax.oracle import GradientSet, backprop, finite_diff, loss_mse
from arelax.tensor import NonFiniteError, Rng, ShapeError

from arelax_testkit import conv_dags


def scalar_chain():
    return build([
        {"kind": "input", "shape": (1,)},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[2.0]], "psi": [[0.1]]},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[3.0]], "psi": [[0.1]]},
    ])


# conv -> maxpool -> flatten -> dense
CONV_POOL_SPEC = [
    {"kind": "input", "shape": (2, 6, 6)},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "maxpool"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 3, "activation": "linear"},
]


def one_hot_targets(rng: Rng, batch: int, k: int):
    t = np.zeros((batch, k))
    for b in range(batch):
        t[b, rng.integers(0, k)] = 1.0
    return t


class TestLossMse:
    def test_zero_at_target(self):
        out = np.array([[0.2, 0.8]])
        assert loss_mse(out, out) == 0.0

    def test_scalar_value(self):
        assert loss_mse(np.array([[6.0]]), np.array([[0.0]])) == 18.0

    def test_quadratic_scaling(self):
        t = np.zeros((3, 4))
        out = Rng(0).normal((3, 4))
        assert loss_mse(2 * out, t) == pytest.approx(4 * loss_mse(out, t))

    def test_batch_mean(self):
        out = np.array([[6.0], [6.0]])
        assert loss_mse(out, np.zeros((2, 1))) == 18.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_mse(np.zeros((1, 2)), np.zeros((1, 3)))


class TestBackprop:
    def test_scalar_chain_hand_values(self):
        g = scalar_chain()
        acts = forward(g, [[1.0]])
        grads = backprop(g, acts, [[0.0]])
        assert grads.node[2][0, 0] == 6.0
        assert grads.node[1][0, 0] == 18.0
        assert grads.param[2][0, 0] == 12.0
        assert grads.param[1][0, 0] == 18.0

    def test_zero_weights_zero_target_give_zero_param_grads(self):
        spec = [
            {"kind": "input", "shape": (3,)},
            {"kind": "dense", "units": 4, "activation": "tanh",
             "weight": np.zeros((4, 3)), "psi": np.zeros((3, 4))},
            {"kind": "dense", "units": 2, "activation": "linear",
             "weight": np.zeros((2, 4)), "psi": np.zeros((4, 2))},
        ]
        g = build(spec)
        acts = forward(g, np.ones((2, 3)))
        grads = backprop(g, acts, np.zeros((2, 2)))
        for j in g.parametric_ids():
            np.testing.assert_array_equal(grads.param[j], np.zeros_like(grads.param[j]))
        np.testing.assert_array_equal(grads.node[1], np.zeros((2, 4)))

    def test_skip_graph_sums_both_paths(self):
        rng = Rng(3)
        g = build(skip_dag_spec(width=5, class_count=3), rng)
        x = Rng(4).normal((2, 5))
        t = one_hot_targets(Rng(5), 2, 3)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        # with the dense branch weights zeroed, the branch node gradient is
        # exactly the identity path's contribution (the add node gradient)
        g.nodes[2].weight = np.zeros_like(g.nodes[2].weight)
        acts2 = forward(g, x)
        grads2 = backprop(g, acts2, t)
        np.testing.assert_array_equal(grads2.node[1], grads2.node[3])
        # and with the branch intact, it is strictly the sum of both paths
        assert not np.allclose(grads.node[1], grads.node[3])

    def test_linear_in_output_error(self):
        rng = Rng(6)
        g = build(skip_dag_spec(width=4, class_count=3), rng)
        x = Rng(7).normal((3, 4))
        acts = forward(g, x)
        t1 = one_hot_targets(Rng(8), 3, 3)
        c = 2.0
        # target chosen so the output error scales by exactly c
        t2 = acts[g.output] + c * (t1 - acts[g.output])
        g1 = backprop(g, acts, t1)
        g2 = backprop(g, acts, t2)
        for i in g1.node:
            np.testing.assert_allclose(g2.node[i], c * g1.node[i], rtol=1e-13)
        for j in g1.param:
            np.testing.assert_allclose(g2.param[j], c * g1.param[j], rtol=1e-13)


class TestFiniteDiff:
    def test_linear_net_near_exact(self):
        g = scalar_chain()
        grads = backprop(g, forward(g, [[1.0]]), [[0.0]])
        fd = finite_diff(g, [[1.0]], [[0.0]], h=1e-5)
        for j in fd.param:
            assert rel_error(fd.param[j], grads.param[j]) <= 1e-9

    def test_tanh_net_within_1e4(self):
        rng = Rng(12)
        spec = [
            {"kind": "input", "shape": (4,)},
            {"kind": "dense", "units": 5, "activation": "tanh"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g = build(spec, rng)
        x = Rng(13).normal((2, 4))
        t = one_hot_targets(Rng(14), 2, 3)
        grads = backprop(g, forward(g, x), t)
        fd = finite_diff(g, x, t, h=1e-5)
        worst = max(rel_error(grads.param[j], fd.param[j]) for j in fd.param)
        worst = max(worst, rel_error(grads.node[0], fd.node[0]))
        assert worst <= 1e-4

    def test_truncation_error_shrinks_4x_when_h_halves(self):
        rng = Rng(15)
        spec = [
            {"kind": "input", "shape": (3,)},
            {"kind": "dense", "units": 4, "activation": "tanh"},
            {"kind": "dense", "units": 2, "activation": "linear"},
        ]
        g = build(spec, rng)
        x = Rng(16).normal((2, 3))
        t = one_hot_targets(Rng(17), 2, 2)
        grads = backprop(g, forward(g, x), t)

        def fd_err(h):
            fd = finite_diff(g, x, t, h=h)
            return max(
                float(np.max(np.abs(fd.param[j] - grads.param[j]))) for j in fd.param
            )

        # h large enough that truncation dominates rounding
        ratio = fd_err(2e-3) / fd_err(1e-3)
        assert 3.0 <= ratio <= 5.0

    def test_invalid_step(self):
        g = scalar_chain()
        with pytest.raises(ValueError):
            finite_diff(g, [[1.0]], [[0.0]], h=0.0)

    def test_conv_pool_graph_against_fd(self):
        rng = Rng(18)
        g = build(CONV_POOL_SPEC, rng)
        x = Rng(19).normal((2, 2, 6, 6))
        t = one_hot_targets(Rng(20), 2, 3)
        grads = backprop(g, forward(g, x), t)
        fd = finite_diff(g, x, t, h=1e-5)
        worst = max(rel_error(grads.param[j], fd.param[j]) for j in fd.param)
        worst = max(worst, rel_error(grads.node[0], fd.node[0]))
        assert worst <= 1e-4


def reference_finite_diff(g, x, target, h=1e-5, entries=None) -> GradientSet:
    """The per-perturbation loop: one full forward per +h and per -h of each
    weight entry and input coordinate. entries(size) picks the flat indices
    to evaluate (all by default); the others stay 0."""
    x = np.array(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    pick = entries or range

    def loss_at() -> float:
        return loss_mse(forward(g, x)[g.output], target)

    def central(v):
        gv = np.zeros_like(v)
        flat, gflat = v.reshape(-1), gv.reshape(-1)
        for k in pick(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss_at()
            flat[k] = orig - h
            lm = loss_at()
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * h)
        return gv

    grads = GradientSet()
    for j in g.parametric_ids():
        grads.param[j] = central(g.nodes[j].weight)
    grads.node[g.input] = central(x)
    return grads


# every node kind: a conv skip branch joined by an add, then pool and head
ALL_KINDS_SPEC = [
    {"kind": "input", "shape": (2, 6, 6)},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "conv", "out_channels": 3, "kernel": 1, "activation": "tanh"},
    {"kind": "add", "parents": [1, 2]},
    {"kind": "maxpool"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 3, "activation": "linear"},
]


def stacking_case(name: str):
    """(graph, x, target, entries) for the stacked-vs-reference checks. The
    reduced cnn's reference samples 40 entries per tensor, since a full
    per-perturbation loop over its 12k input coordinates takes seconds;
    its batch is 2, because numpy computes a one-row product as a
    matrix-vector product, which rounds differently from the stacked GEMM."""
    if name == "chain":
        rng = Rng(31)
        g = build(random_chain_spec(rng, max_width=16), rng)
        batch, entries = 4, None
    elif name == "skip_dag":
        rng = Rng(32)
        g = build(skip_dag_spec(), rng)
        batch, entries = 4, None
    elif name == "conv_pool":
        rng = Rng(33)
        g = build(CONV_POOL_SPEC, rng)
        batch, entries = 2, None
    else:
        rng = Rng(34)
        g = build(models.reduced_spec(models.ModelSpec("cnn")), rng)
        batch = 2
        entries = lambda n: np.unique(np.random.default_rng(n).integers(0, n, 40))  # noqa: E731
    x, t = random_case(g, rng, batch)
    return g, x, t, entries


class TestStackedFiniteDiff:
    """finite_diff stacks the perturbations; the reference runs one forward
    per perturbation, and both compute the same losses. The chunks here keep
    every stack at 14 copies or fewer: BLAS may round a much taller GEMM
    differently in the last bit, which the 1/2h quotient magnifies to about
    1e-10."""

    @pytest.mark.parametrize("pairs", [0, 7], ids=["smallest_chunk", "uneven_chunk"])
    @pytest.mark.parametrize("name", ["chain", "skip_dag", "conv_pool", "reduced_cnn"])
    def test_matches_per_perturbation_loop(self, name, pairs, monkeypatch):
        g, x, t, entries = stacking_case(name)
        batch = x.shape[0]
        # 0 pairs: a 1-byte bound, one +h/-h pair per chunk. 7 pairs: the
        # output node's weight entries (whose stack is its own activation
        # alone) go 7 pairs to a chunk, which leaves a shorter last chunk.
        n_out, width = g.nodes[g.output].weight.size, g.shapes[g.output][0]
        assert n_out % 7
        monkeypatch.setattr(oracle, "FD_CHUNK_BYTES", max(1, pairs * 2 * 8 * batch * width))
        heights = []

        def spy(out, target, bare=oracle._stacked_losses):
            heights.append(out.shape[0])
            return bare(out, target)
        monkeypatch.setattr(oracle, "_stacked_losses", spy)

        ref = reference_finite_diff(g, x, t, entries=entries)
        heights.clear()
        fd = finite_diff(g, x, t)
        if pairs:
            assert {2 * pairs * batch, 2 * (n_out % pairs) * batch} <= set(heights)
        else:
            assert set(heights) == {2 * batch}

        pick = entries or (lambda n: slice(None))
        for j in ref.param:
            w = fd.param[j].reshape(-1)
            assert rel_error(w[pick(w.size)], ref.param[j].reshape(-1)[pick(w.size)]) <= 1e-12, j
        gx = fd.node[g.input].reshape(-1)
        assert rel_error(gx[pick(gx.size)], ref.node[g.input].reshape(-1)[pick(gx.size)]) <= 1e-12

    def test_calls_no_reverse_mode_code(self, monkeypatch):
        calls = []

        def counter(name):
            def count(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"finite_diff called {name}")
            return count
        monkeypatch.setattr(oracle, "backprop", counter("backprop"))
        for cls in (*PARAMETRIC, MaxPoolNode, FlattenNode, AddNode):
            monkeypatch.setattr(cls, "vjp", counter(f"{cls.__name__}.vjp"))
        for cls in PARAMETRIC:
            monkeypatch.setattr(cls, "outer", counter(f"{cls.__name__}.outer"))
            monkeypatch.setattr(cls, "mirror", staticmethod(counter(f"{cls.__name__}.mirror")))
        rng = Rng(35)
        g = build(ALL_KINDS_SPEC, rng)
        x, t = random_case(g, rng, 2)
        finite_diff(g, x, t)
        assert calls == []

    def test_far_fewer_sweeps_than_perturbations(self, monkeypatch):
        rng = Rng(36)
        g = build(models.reduced_spec(models.ModelSpec("mlp4")), rng)
        x, t = random_case(g, rng, 4)
        sweeps = []

        def counted(g, x, bare=oracle.forward):
            sweeps.append(1)
            return bare(g, x)
        monkeypatch.setattr(oracle, "forward", counted)
        finite_diff(g, x, t)
        perturbations = 2 * (x.size + sum(g.nodes[j].weight.size for j in g.parametric_ids()))
        assert 1 <= len(sweeps) <= perturbations // 1000

    @pytest.mark.parametrize("raiser,nth", [(2, 3), (3, 2)], ids=["perturbed_node", "downstream_node"])
    def test_raising_forward_restores_every_weight(self, raiser, nth, monkeypatch):
        """Dense node 2 raises on its third forward, the first with its own
        weight perturbed (the unperturbed sweep and the stacked run below
        node 1 come first); the add node 3 on its first call after the
        sweep."""
        rng = Rng(37)
        g = build(skip_dag_spec(), rng)
        x, t = random_case(g, rng, 4)
        before = {j: g.nodes[j].weight.tobytes() for j in g.parametric_ids()}
        x_before = x.tobytes()
        node = g.nodes[raiser]
        calls = []

        def flaky(acts, ps, bare=node.forward):
            calls.append(1)
            if len(calls) == nth:
                raise NonFiniteError("injected")
            return bare(acts, ps)
        monkeypatch.setattr(node, "forward", flaky)
        with pytest.raises(NonFiniteError, match="injected"):
            finite_diff(g, x, t)
        for j, b in before.items():
            assert g.nodes[j].weight.tobytes() == b, j
        assert x.tobytes() == x_before


@settings(max_examples=30, deadline=None, derandomize=True)
@given(conv_dags())
def test_oracle_matches_finite_diff_on_random_dags(case):
    spec, seed, batch = case
    rng = Rng(seed)
    g = build(spec, rng)
    x, t = random_case(g, rng, batch)
    grads = backprop(g, forward(g, x), t)
    fd = finite_diff(g, x, t)
    for j in g.parametric_ids():
        assert rel_error(grads.param[j], fd.param[j]) <= 1e-4, j
    assert rel_error(grads.node[g.input], fd.node[g.input]) <= 1e-4
