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
    return float(_stacked_losses(output, target)[0])


def _stacked_losses(output: Tensor, target: Tensor) -> np.ndarray:
    """loss_mse of each of the P batches stacked on output's batch axis
    (P*B rows against B target rows), one value per batch."""
    d = target - output.reshape(-1, *target.shape)
    return 0.5 * np.sum((d ** 2).reshape(d.shape[0], -1), axis=1) / target.shape[0]


def backprop(g: Graph, acts: Sweep, target, *, read=None) -> GradientSet:
    """Exact reverse-mode gradients of loss_mse at the given sweep.

    Each node applies its own VJP to the sweep record forward saved (the
    im2col columns of a conv input, a max-pool's argmax map), so the
    tie-break is the sweep's; f' comes from the sweep's outputs. Multi-parent
    contributions sum per the multivariate chain rule.

    `read` is the node ids whose gradient the caller reads (None: every
    node). A node's gradient is computed iff it is in `read` or below it
    (Graph.below), so grads.node holds those nodes and grads.param the
    parametric ones among them; a VJP into no such parent does not run.
    """
    target = tensor.as_tensor(target)
    batch = acts[g.input].shape[0]
    needed = set(range(len(g.nodes)) if read is None else read)
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
            fp = node.fprime(acts[j])
            if fp is not None:
                gj = fp * gj
            grads.param[j] = node.outer(gj, acts.saved[j])
        ps = g.parent_ids[j]
        if needed.intersection(ps):
            for p, contribution in zip(ps, node.vjp(gj, acts.saved[j])):
                if p in needed:
                    _accumulate(grads, p, contribution)

    return grads


def _accumulate(grads: GradientSet, i: int, contribution: Tensor) -> None:
    if i in grads.node:
        grads.node[i] = grads.node[i] + contribution
    else:
        grads.node[i] = contribution


# Bytes of stacked activations one finite-difference chunk may hold: the
# perturbed copies of node j's activation plus every activation evaluated
# or tiled below it. Small, so that a gradient check's peak memory stays
# within about 1 MB of the per-perturbation loop's; larger chunks gain
# little speed.
FD_CHUNK_BYTES = 1 << 19


def finite_diff(g: Graph, x, target, h: float = 1e-5) -> GradientSet:
    """Central differences (L(v+h) - L(v-h)) / 2h per scalar parameter and
    per input coordinate. Forward-only: no VJP, outer product or backprop
    runs, so it is independent of backprop by construction.

    One sweep of the unperturbed batch gives every activation. Each entry of
    node j's weight is set to v+h and v-h in turn, node j's own forward runs
    at each, and the entry is restored (also when the forward raises); an
    input coordinate's copies are the perturbed inputs themselves. The
    copies of node j's activation are stacked on the batch axis, and only
    the nodes below j (Graph.below) run on the stack, once per chunk; any
    other parent they read is the unperturbed activation, tiled. Each
    copy's loss is loss_mse over its own rows. A chunk holds at most
    FD_CHUNK_BYTES of stacked activations, and at least one +h/-h pair.
    """
    if h <= 0:
        raise ValueError(f"finite_diff: step must be positive, got {h}")
    x = tensor.as_tensor(x)
    target = tensor.as_tensor(target)
    acts = forward(g, x)

    grads = GradientSet()
    # as in graph.forward, an overflow raises NonFiniteError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for j in g.parametric_ids():
            node, ps = g.nodes[j], g.parent_ids[j]
            grads.param[j] = _central_diff(g, acts, target, j, node.weight, h,
                                           lambda: node.forward(acts, ps)[0])
        xp = x.copy()
        grads.node[g.input] = _central_diff(g, acts, target, g.input, xp, h, xp.copy)
    return grads


def _central_diff(g: Graph, acts: Sweep, target: Tensor, j: int, v: Tensor,
                  h: float, at) -> Tensor:
    """dL/dv by central differences, where v is node j's weight, or the
    input itself when j is the input node, and at() returns node j's
    activation at v's current value."""
    below = g.below([j])
    tiled = {p for i in below for p in g.parent_ids[i]} - set(below) - {j}
    batch = acts[j].shape[0]
    copy_bytes = 8 * batch * sum(int(np.prod(g.shapes[i])) for i in (j, *below, *tiled))
    pairs = max(1, FD_CHUNK_BYTES // (2 * copy_bytes))
    grad = np.empty(v.size)
    for k0 in range(0, v.size, pairs):
        copies = []
        for k in range(k0, min(k0 + pairs, v.size)):
            orig = v.flat[k]
            try:
                v.flat[k] = orig + h
                copies.append(at())
                v.flat[k] = orig - h
                copies.append(at())
            finally:
                v.flat[k] = orig
        run = list(acts)
        for p in tiled:
            run[p] = np.concatenate([acts[p]] * len(copies))
        run[j] = np.concatenate(copies)
        for i in below:
            run[i] = g.nodes[i].forward(run, g.parent_ids[i])[0]
        losses = _stacked_losses(run[g.output], target)
        grad[k0 : k0 + len(copies) // 2] = (losses[0::2] - losses[1::2]) / (2 * h)
    return grad.reshape(v.shape)
