"""Ground-truth gradients: exact reverse-mode differentiation over a Graph,
and an independent central finite-difference checker.

The loss is L = (1/batch) * sum_b 0.5 * sum_k (target - output)^2, so
dL/d(output) = (output - target) / batch. The relaxation engine is verified
against backprop(); backprop() is verified against finite_diff().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .graph import PARAMETRIC, Graph, Sweep, forward
from .tensor import ShapeError, Tensor


@dataclass
class GradientSet:
    """node: dL/dx per node id; param: dL/dW per dense/conv node id."""

    node: dict[int, Tensor] = field(default_factory=dict)
    param: dict[int, Tensor] = field(default_factory=dict)


def loss_mse(output, target) -> float:
    """Half squared error summed over outputs, averaged over the batch."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ShapeError(f"loss_mse: output {output.shape} vs target {target.shape}")
    return float(_stacked_losses(output, target, target.shape[0])[0])


def _stacked_losses(output: Tensor, target: Tensor, batch: int) -> np.ndarray:
    """Per copy stacked on output's batch axis, half its squared error
    against target over batch. A copy has the shape of target's last
    output.ndim axes; target's leading axes, if any, give each copy's own."""
    d = target - output.reshape(-1, *target.shape[-output.ndim:])
    return 0.5 * np.sum((d ** 2).reshape(d.shape[0], -1), axis=1) / batch


def backprop(g: Graph, acts: Sweep, target, *, read=None, back=None, fprime=None) -> GradientSet:
    """Exact reverse-mode gradients of loss_mse at the given sweep.

    Each node applies its own VJP to the sweep record forward saved (the
    im2col columns of a conv input, a max-pool's argmax map), so the
    tie-break is the sweep's; f' comes from the sweep's outputs. Multi-parent
    contributions sum per the multivariate chain rule.

    `read` is the node ids whose gradient the caller reads (None: every
    node). A node's gradient is computed iff it is in `read` or below it
    (Graph.below), so grads.node holds those nodes and grads.param the
    parametric ones among them; a VJP into no such parent does not run. An
    id outside the graph raises ValueError.

    `back` and `fprime` map a dense/conv node id to what its VJP takes in
    place of W and to its f' (None: no factor); a relaxation variant settles
    to the pass with its substitutions (harness.variant_substitutions).
    """
    back, fprime = back or {}, fprime or {}
    target = tensor.as_tensor(target)
    batch = acts[g.input].shape[0]
    needed = set(range(len(g.nodes))) if read is None else g.node_ids(read)
    needed.update(g.below(needed))
    grads = GradientSet()
    if g.output in needed:
        grads.node[g.output] = (acts[g.output] - target) / batch

    for j in reversed(g.topo_order):
        if j == g.input or j not in needed:
            continue
        node = g.nodes[j]
        gj = grads.node[j]
        if isinstance(node, PARAMETRIC):
            fp = fprime[j] if j in fprime else node.fprime(acts[j])
            if fp is not None:
                gj = fp * gj
            grads.param[j] = node.outer(gj, acts.saved[j])
        ps = g.parent_ids[j]
        if needed.intersection(ps):
            for p, contribution in zip(ps, node.vjp(gj, acts.saved[j], back.get(j))):
                if p in needed:
                    grads.node[p] = grads.node[p] + contribution if p in grads.node else contribution

    return grads


# Bytes of stacked activations one finite-difference chunk may hold: the
# perturbed copies of node j's activation plus every activation evaluated
# or tiled below it. Small, so that a gradient check's peak memory stays
# within about 1 MB of the per-perturbation loop's; larger chunks gain
# little speed. A weight's column products add 2 * weight.size copies of
# one channel of its node's pre-activation while that node's chunks run:
# 0.8 MB for reduced mlp4's first layer at batch 4.
FD_CHUNK_BYTES = 1 << 19


def finite_diff(g: Graph, x, target, h: float = 1e-5) -> GradientSet:
    """Central differences (L(v+h) - L(v-h)) / 2h per scalar parameter and
    per input coordinate. Forward-only: no VJP, outer product or backprop
    runs, so it is independent of backprop by construction.

    One sweep of the unperturbed batch gives every activation. The +h and
    -h copies of node j's pre-activation are stacked on the batch axis, a
    chunk of perturbed entries at a time (_chunk_plan): node j's activation
    and NaN/Inf check run once on the stack, and only the nodes below j
    (Graph.below) run on it, once per chunk; any other parent they read is
    the unperturbed activation, tiled. A copy's loss is its rows' terms of
    loss_mse: a weight's copies hold the whole batch, and input coordinate
    (b, i), which changes only sample b's term, gets one-row copies of
    sample b, scored against target row b.

    A weight is perturbed a column at a time: all output rows o of one
    input index k (for a conv kernel, one (c, u, v)) are set to v+h, node
    j's linear runs once on the input the sweep saved, the same for v-h,
    and the column is restored (also when linear raises). Row o of the
    weight feeds only channel o, so channel o of that product is the
    pre-activation with entry (o, k) perturbed alone, from the same GEMM
    arithmetic. Each column's two products are computed once per node,
    and the copy of entry (o, k) is node j's unperturbed pre-activation with
    channel o taken from them.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"finite_diff: step must be positive and finite, got {h}")
    x = tensor.as_tensor(x)
    target = tensor.as_tensor(target)
    acts = forward(g, x)

    grads = GradientSet()
    # as in graph.forward, an overflow raises NonFiniteError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in g.parametric_ids():
            node = g.nodes[j]
            fill = _column_fill(node, acts.saved[j], acts[j].shape, h)
            grads.param[j] = _central_diff(g, acts, target, j, node.weight.shape, h, fill, node._activate)
        grads.node[g.input] = _central_diff(g, acts, target, g.input, x.shape, h,
                                            _input_fill(x, h), lambda a: a)
    return grads


def _chunk_plan(g: Graph, batch: int, j: int, size: int) -> tuple[list[int], set[int], int, int]:
    """How finite_diff stacks node j's size perturbed entries: the nodes
    below j that each chunk runs, the other parents they read (the
    unperturbed activation, tiled; none for the input, which every node
    lies below), the rows per copy (batch for a weight entry, 1 for an
    input coordinate) and the +h/-h pairs per chunk, at most FD_CHUNK_BYTES
    of stacked activations and at least one pair."""
    below = g.below([j])
    tiled = {p for i in below for p in g.parent_ids[i]} - set(below) - {j}
    rows = 1 if j == g.input else batch
    assert rows == batch or not tiled
    copy_bytes = 8 * rows * sum(int(np.prod(g.shapes[i])) for i in (j, *below, *tiled))
    return below, tiled, rows, max(1, min(FD_CHUNK_BYTES // (2 * copy_bytes), size))


def _column_fill(node, saved: Tensor, shape: tuple[int, ...], h: float):
    """fill for the entries of node's weight, whose pre-activation on the
    sweep's saved input has the given shape. Each column's +h and -h
    products are computed once, before the first chunk, and every chunk
    that holds an entry of that column reads its channel from them."""
    w = node.weight
    cols = w[0].size
    prods = np.empty((cols, 2, *shape))
    for k in range(cols):
        # basic indexing, so a view of the weight itself whatever its layout
        col = w[(slice(None), *np.unravel_index(k, w.shape[1:]))]
        orig = col.copy()
        try:
            col[...] = orig + h
            node.linear(saved, out=prods[k, 0])
            col[...] = orig - h
            node.linear(saved, out=prods[k, 1])
        finally:
            col[...] = orig
    base = node.linear(saved)

    def fill(out: Tensor, k0: int, n: int) -> slice:
        rows, ks = np.divmod(np.arange(k0, k0 + n), cols)
        out[...] = base
        out[np.arange(n), :, :, rows] = prods[ks, :, :, rows]
        return slice(None)
    return fill


def _input_fill(x: Tensor, h: float):
    """fill for the coordinates of the input x: flat coordinate k's copies
    are row b = k // per_sample of x with that coordinate at v+h and v-h,
    scored against target row b."""
    samples = x.reshape(len(x), -1)

    def fill(out: Tensor, k0: int, n: int) -> np.ndarray:
        b, i = np.divmod(np.arange(k0, k0 + n), samples.shape[1])
        copies = out.reshape(n, 2, -1)
        copies[...] = samples[b, None]
        copies[np.arange(n), :, i] = samples[b, i, None] + [h, -h]
        return np.repeat(b, 2)[:, None]
    return fill


def _central_diff(g: Graph, acts: Sweep, target: Tensor, j: int, shape: tuple[int, ...],
                  h: float, fill, activate) -> Tensor:
    """dL/dv by central differences, for v of the given shape: node j's
    weight, or the input when j is the input node. fill(out, k0, n) writes
    into out, shaped (n, 2, rows, *node j's shape), what activate turns
    into node j's activation with v's flat entries k0..k0+n-1 at v+h
    (out[i, 0]) and v-h (out[i, 1]), and returns the index of target's rows
    the 2n copies are scored against; activate maps a whole stack at once."""
    size = int(np.prod(shape))
    batch = acts[j].shape[0]
    below, tiled, rows, pairs = _chunk_plan(g, batch, j, size)
    stack = np.empty((2 * pairs, rows, *g.shapes[j]))
    grad = np.empty(size)
    for k0 in range(0, size, pairs):
        n = min(pairs, size - k0)
        scored = fill(stack[: 2 * n].reshape(n, 2, rows, *g.shapes[j]), k0, n)
        run = list(acts)
        for p in tiled:
            run[p] = np.concatenate([acts[p]] * (2 * n))
        run[j] = activate(stack[: 2 * n]).reshape(2 * n * rows, *g.shapes[j])
        for i in below:
            run[i] = g.nodes[i].forward(run, g.parent_ids[i])[0]
        losses = _stacked_losses(run[g.output], target[scored], batch)
        grad[k0 : k0 + n] = (losses[0::2] - losses[1::2]) / (2 * h)
    return grad.reshape(shape)
