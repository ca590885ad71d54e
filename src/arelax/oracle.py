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
    node j's weight is set to v+h and v-h in turn, node j's GEMM alone
    (its linear, on the input the sweep saved) writes each pre-activation
    into its slot of a preallocated stack, and the entry is restored (also
    when the GEMM raises); an input coordinate's slots hold the perturbed
    inputs themselves. The copies are stacked on the batch axis: node j's
    activation and NaN/Inf check run once on the stack, and only the nodes
    below j (Graph.below) run on it, once per chunk; any other parent they
    read is the unperturbed activation, tiled. Each copy's loss is loss_mse
    over its own rows. A chunk holds at most FD_CHUNK_BYTES of stacked
    activations, and at least one +h/-h pair.
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
            node, saved = g.nodes[j], acts.saved[j]
            grads.param[j] = _central_diff(g, acts, target, j, node.weight, h,
                                           lambda out: node.linear(saved, out=out), node._activate)
        xp = x.copy()
        grads.node[g.input] = _central_diff(g, acts, target, g.input, xp, h,
                                            lambda out: np.copyto(out, xp), lambda a: a)
    return grads


def _central_diff(g: Graph, acts: Sweep, target: Tensor, j: int, v: Tensor,
                  h: float, fill, activate) -> Tensor:
    """dL/dv by central differences, where v is node j's weight, or the
    input itself when j is the input node; fill(out) writes into out what
    activate turns into node j's activation at v's current value, and
    activate maps a whole stack of those at once."""
    below = g.below([j])
    tiled = {p for i in below for p in g.parent_ids[i]} - set(below) - {j}
    batch = acts[j].shape[0]
    copy_bytes = 8 * batch * sum(int(np.prod(g.shapes[i])) for i in (j, *below, *tiled))
    pairs = max(1, min(FD_CHUNK_BYTES // (2 * copy_bytes), v.size))
    stack = np.empty((2 * pairs, batch, *g.shapes[j]))
    slots, flat = list(stack), v.flat
    grad = np.empty(v.size)
    for k0 in range(0, v.size, pairs):
        n = min(pairs, v.size - k0)
        for i, k in enumerate(range(k0, k0 + n)):
            orig = flat[k]
            try:
                flat[k] = orig + h
                fill(slots[2 * i])
                flat[k] = orig - h
                fill(slots[2 * i + 1])
            finally:
                flat[k] = orig
        run = list(acts)
        for p in tiled:
            run[p] = np.concatenate([acts[p]] * (2 * n))
        run[j] = activate(stack[: 2 * n]).reshape(2 * n * batch, *g.shapes[j])
        for i in below:
            run[i] = g.nodes[i].forward(run, g.parent_ids[i])[0]
        losses = _stacked_losses(run[g.output], target)
        grad[k0 : k0 + n] = (losses[0::2] - losses[1::2]) / (2 * h)
    return grad.reshape(v.shape)
