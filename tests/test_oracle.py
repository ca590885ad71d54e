from pathlib import Path

import numpy as np
import pytest

from arelax import harness, models, oracle
from arelax.graph import PARAMETRIC, AddNode, FlattenNode, MaxPoolNode, build, forward
from arelax.harness import random_case, random_chain_spec, rel_error, skip_dag_spec
from arelax.oracle import GradientSet, backprop, finite_diff, loss_mse
from arelax.tensor import NonFiniteError, Rng, ShapeError

from arelax_testkit import (
    ADD_FROM_INPUT_SPEC,
    CONV_POOL_SPEC,
    on_every_conv_dag,
    reference_stacked_finite_diff,
    scalar_chain,
)


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

    @pytest.mark.parametrize("spec", [CONV_POOL_SPEC, skip_dag_spec(width=5, class_count=3), ADD_FROM_INPUT_SPEC],
                             ids=["conv_pool", "skip_dag", "add_from_input"])
    def test_parametric_read_set_skips_the_input_vjp(self, monkeypatch, spec):
        rng = Rng(9)
        g = build(spec, rng)
        x, t = random_case(g, rng, 3)
        acts = forward(g, x)
        full = backprop(g, acts, t)
        ran = []
        (fed,) = [j for j, ps in enumerate(g.parent_ids) if ps == (g.input,)]
        vjp = g.nodes[fed].vjp
        monkeypatch.setattr(g.nodes[fed], "vjp", lambda *a: ran.append(fed) or vjp(*a))
        grads = backprop(g, acts, t, read=g.parametric_ids())
        assert ran == []
        assert grads.param.keys() == full.param.keys()
        for j in full.param:
            np.testing.assert_array_equal(grads.param[j], full.param[j])
        # the parametric nodes and what lies between them and the output
        assert g.input not in grads.node and set(g.parametric_ids()) <= grads.node.keys()
        for i in grads.node:
            np.testing.assert_array_equal(grads.node[i], full.node[i])
        backprop(g, acts, t)        # the counter does see the full backprop
        assert ran == [fed]

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_read_id_outside_the_graph_is_rejected(self, bad):
        g = build(CONV_POOL_SPEC, Rng(9))      # five nodes
        acts = forward(g, Rng(10).normal((2, 2, 6, 6)))
        with pytest.raises(ValueError, match=rf"^node ids \[{bad}\] are not in this graph's range\(5\)$"):
            backprop(g, acts, np.zeros((2, 3)), read={1, bad})


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

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_step(self, h):
        g = scalar_chain()
        with pytest.raises(ValueError, match=f"^finite_diff: step must be positive and finite, got {h}$"):
            finite_diff(g, [[1.0]], [[0.0]], h=h)

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
    weight entry. Input coordinate (b, i) changes only sample b's term of
    the loss, so it gets one forward of sample b's +h and -h copies, two
    rows, each scored by its term: its loss against target row b over the
    batch size. (A one-row forward would take numpy's matrix-vector path,
    which rounds differently from a stacked GEMM.) entries(size) picks the
    flat indices to evaluate (all by default); the others stay 0."""
    x = np.array(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    pick = entries or range

    def weight_losses(flat, k) -> list[float]:
        orig, losses = flat[k], []
        for step in (h, -h):
            flat[k] = orig + step
            losses.append(loss_mse(forward(g, x)[g.output], target))
        flat[k] = orig
        return losses

    def input_losses(flat, k) -> list[float]:
        b, i = divmod(k, x[0].size)
        pair = np.repeat(x[b : b + 1], 2, axis=0)
        pair.reshape(2, -1)[:, i] += [h, -h]
        out = forward(g, pair)[g.output]
        return [loss_mse(out[c : c + 1], target[b : b + 1]) / len(x) for c in (0, 1)]

    def central(v, losses):
        gv = np.zeros_like(v)
        flat, gflat = v.reshape(-1), gv.reshape(-1)
        for k in pick(flat.size):
            lp, lm = losses(flat, k)
            gflat[k] = (lp - lm) / (2 * h)
        return gv

    grads = GradientSet()
    for j in g.parametric_ids():
        grads.param[j] = central(g.nodes[j].weight, weight_losses)
    grads.node[g.input] = central(x, input_losses)
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
    per perturbation (per input coordinate, one of its sample's two copies),
    and both compute the same losses. The chunks here keep every weight
    stack at 14 copies or fewer: BLAS may round a much taller GEMM
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
        chunk_bytes = max(1, pairs * 2 * 8 * batch * width)
        monkeypatch.setattr(oracle, "FD_CHUNK_BYTES", chunk_bytes)
        heights = []

        def spy(out, target, batch, bare=oracle._stacked_losses):
            heights.append(out.shape[0])
            return bare(out, target, batch)
        monkeypatch.setattr(oracle, "_stacked_losses", spy)

        ref = reference_finite_diff(g, x, t, entries=entries)
        heights.clear()
        fd = finite_diff(g, x, t)
        # the input's chunks come last: one-row copies of one sample each,
        # which run every node
        in_pairs = max(1, min(chunk_bytes // (2 * 8 * sum(int(np.prod(s)) for s in g.shapes)), x.size))
        in_chunks = -(-x.size // in_pairs)
        weights, inputs = heights[:-in_chunks], heights[-in_chunks:]
        if pairs:
            assert {2 * pairs * batch, 2 * (n_out % pairs) * batch} <= set(weights)
        else:
            assert set(weights) == {2 * batch} and in_pairs == 1
        assert inputs == [2 * min(in_pairs, x.size - k0) for k0 in range(0, x.size, in_pairs)]

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

    @pytest.mark.parametrize("raiser,method,nth", [(2, "linear", 3), (3, "forward", 2)],
                             ids=["perturbed_node", "downstream_node"])
    def test_raising_forward_restores_every_weight(self, raiser, method, nth, monkeypatch):
        """Dense node 2's GEMM, which evaluates its perturbed entries, raises
        on its third call, the first with its own weight perturbed (the
        forwards of the unperturbed sweep and of the stacked run below node
        1 call it first); the add node 3's forward on its first call after
        the sweep."""
        rng = Rng(37)
        g = build(skip_dag_spec(), rng)
        x, t = random_case(g, rng, 4)
        before = {j: g.nodes[j].weight.tobytes() for j in g.parametric_ids()}
        x_before = x.tobytes()
        node = g.nodes[raiser]
        calls = []

        def flaky(*args, bare=getattr(node, method), **kwargs):
            calls.append(1)
            if len(calls) == nth:
                raise NonFiniteError("injected")
            return bare(*args, **kwargs)
        monkeypatch.setattr(node, method, flaky)
        with pytest.raises(NonFiniteError, match="injected"):
            finite_diff(g, x, t)
        for j, b in before.items():
            assert g.nodes[j].weight.tobytes() == b, j
        assert x.tobytes() == x_before


def assert_same_gradients(got: GradientSet, want: GradientSet) -> None:
    assert got.param.keys() == want.param.keys() and got.node.keys() == want.node.keys()
    for j in want.param:
        np.testing.assert_array_equal(got.param[j], want.param[j], strict=True)
    for j in want.node:
        np.testing.assert_array_equal(got.node[j], want.node[j], strict=True)


class TestPerEntryGemm:
    """finite_diff evaluates a whole weight column per GEMM of node j and
    activates each chunk's stack once; the reference runs node j's whole
    forward per perturbed entry, and builds each input copy from its own
    sample's row. Row o of the weight feeds only channel o, so the
    arithmetic is the same and the results are bit-identical."""

    def test_matches_per_entry_forward_on_the_gradcheck_suite(self, monkeypatch):
        calls = []

        def keep(g, x, target, h=1e-5, bare=oracle.finite_diff):
            fd = bare(g, x, target, h)
            calls.append((g, x, target, h, fd))
            return fd
        monkeypatch.setattr(oracle, "finite_diff", keep)
        cfg = harness.config_from_file(Path(__file__).resolve().parents[1] / "configs" / "gradcheck.json")
        harness.gradcheck(cfg)
        assert len(calls) == cfg.gradcheck.graphs + 1      # the random graphs, then reduced mlp4
        for g, x, t, h, fd in calls:
            assert_same_gradients(fd, reference_stacked_finite_diff(g, x, t, h))

    @pytest.mark.parametrize("name,batch", [("chain", 1), ("conv_pool", 2), ("all_kinds", 2), ("all_kinds", 3)])
    def test_matches_per_entry_forward(self, name, batch):
        rng = Rng(39)
        spec = {"chain": random_chain_spec(rng, max_width=16),
                "conv_pool": CONV_POOL_SPEC, "all_kinds": ALL_KINDS_SPEC}[name]
        g = build(spec, rng)
        x, t = random_case(g, rng, batch)
        assert_same_gradients(finite_diff(g, x, t), reference_stacked_finite_diff(g, x, t))

    def test_non_contiguous_weights(self):
        """A Fortran-ordered dense and conv weight, which reshape would copy,
        give the arrays their C-ordered copies give, and come back
        byte-identical and still Fortran-ordered."""
        rng = Rng(40)
        g = build(CONV_POOL_SPEC, rng)
        x, t = random_case(g, rng, 2)
        params = g.parametric_ids()
        assert {type(g.nodes[j]).__name__ for j in params} == {"ConvNode", "DenseNode"}
        for j in params:
            g.nodes[j].weight = np.asfortranarray(g.nodes[j].weight)
            assert not g.nodes[j].weight.flags.c_contiguous
        before = {j: g.nodes[j].weight.tobytes("A") for j in params}
        fd = finite_diff(g, x, t)
        for j in params:
            assert g.nodes[j].weight.flags.f_contiguous and g.nodes[j].weight.tobytes("A") == before[j], j
            g.nodes[j].weight = np.ascontiguousarray(g.nodes[j].weight)
        assert_same_gradients(fd, finite_diff(g, x, t))

    @pytest.mark.parametrize("chunk_bytes", [oracle.FD_CHUNK_BYTES, 1], ids=["default_chunk", "one_pair_chunk"])
    def test_gemm_per_column_activation_per_chunk(self, chunk_bytes, monkeypatch):
        """Split the calls at each chunk's loss: node j's first chunk calls
        j's linear (with out=) exactly twice per weight column and once more
        without, every chunk of j calls j's activation once and j's forward
        never, each parametric node below j runs once per chunk, and the
        chunks of j cover each of its entries once, with the whole batch
        per weight entry's copy and one row per input coordinate's."""
        rng = Rng(38)
        g = build(ALL_KINDS_SPEC, rng)
        x, t = random_case(g, rng, 2)
        monkeypatch.setattr(oracle, "FD_CHUNK_BYTES", chunk_bytes)
        log = []
        for j in g.parametric_ids():
            for name in ("forward", "linear", "_activate"):
                def spy(*args, _j=j, _name=name, _bare=getattr(g.nodes[j], name), **kwargs):
                    log.append((_name + ("_out" if kwargs.get("out") is not None else ""), _j))
                    return _bare(*args, **kwargs)
                monkeypatch.setattr(g.nodes[j], name, spy)

        def losses(out, target, batch, bare=oracle._stacked_losses):
            got = bare(out, target, batch)
            log.append(("losses", len(got) // 2, out.shape[0] // len(got)))
            return got
        monkeypatch.setattr(oracle, "_stacked_losses", losses)
        finite_diff(g, x, t)

        params = g.parametric_ids()
        sweep = [(name, j) for j in params for name in ("forward", "linear", "_activate")]
        assert log[: len(sweep)] == sweep
        chunks, chunk = [], []
        for event in log[len(sweep):]:
            if event[0] == "losses":
                chunks.append((chunk, *event[1:]))
                chunk = []
            else:
                chunk.append(event)
        assert chunk == []
        chunks = iter(chunks)
        for j, size in [(j, g.nodes[j].weight.size) for j in params] + [(g.input, x.size)]:
            below, covered = set(g.below([j])), 0
            while covered < size:
                chunk, n, rows = next(chunks)
                assert rows == (1 if j == g.input else len(x)), j
                for i in params:
                    want = [("forward", i), ("linear", i), ("_activate", i)] if i in below else []
                    if i == j:
                        first = covered == 0
                        columns = g.nodes[j].weight[0].size
                        want = [("linear_out", j)] * (2 * columns * first) + [("linear", j)] * first + [("_activate", j)]
                    assert [e for e in chunk if e[1] == i] == want, (j, i, covered)
                covered += n
                if chunk_bytes == 1:
                    assert n == 1
            assert covered == size, j
        assert next(chunks, None) is None


def test_oracle_matches_finite_diff_on_random_dags():
    def check(g, x, t):
        grads = backprop(g, forward(g, x), t)
        fd = finite_diff(g, x, t)
        for j in g.parametric_ids():
            assert rel_error(grads.param[j], fd.param[j]) <= 1e-4, j
        assert rel_error(grads.node[g.input], fd.node[g.input]) <= 1e-4
    on_every_conv_dag(check)
