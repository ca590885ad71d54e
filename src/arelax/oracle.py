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
    batch = output.shape[0]
    return float(0.5 * np.sum((target - output) ** 2) / batch)


def backprop(g: Graph, acts: Sweep, target) -> GradientSet:
    """Exact reverse-mode gradients of loss_mse at the given sweep.

    Each node applies its own VJP to the sweep record forward saved (the
    im2col columns of a conv input, a max-pool's argmax map), so the
    tie-break is the sweep's; f' comes from the sweep's outputs. Multi-parent
    contributions sum per the multivariate chain rule.
    """
    target = tensor.as_tensor(target)
    batch = acts[g.input].shape[0]
    grads = GradientSet()
    grads.node[g.output] = (acts[g.output] - target) / batch

    for j in reversed(g.topo_order):
        if j == g.input:
            continue
        node = g.nodes[j]
        gj = grads.node[j]
        if isinstance(node, PARAMETRIC):
            fp = node.fprime(acts[j])
            if fp is not None:
                gj = fp * gj
            grads.param[j] = node.outer(gj, acts.saved[j])
        for p, contribution in zip(g.parent_ids[j], node.vjp(gj, acts.saved[j])):
            _accumulate(grads, p, contribution)

    return grads


def _accumulate(grads: GradientSet, i: int, contribution: Tensor) -> None:
    if i in grads.node:
        grads.node[i] = grads.node[i] + contribution
    else:
        grads.node[i] = contribution


def finite_diff(g: Graph, x, target, h: float = 1e-5) -> GradientSet:
    """Central differences (L(v+h) - L(v-h)) / 2h per scalar parameter and
    per input coordinate. Independent of backprop by construction."""
    if h <= 0:
        raise ValueError(f"finite_diff: step must be positive, got {h}")
    x = tensor.as_tensor(x)
    target = tensor.as_tensor(target)

    def loss_at() -> float:
        acts = forward(g, x)
        return loss_mse(acts[g.output], target)

    grads = GradientSet()
    for j in g.parametric_ids():
        w = g.nodes[j].weight
        gw = np.zeros_like(w)
        flat = w.reshape(-1)
        gflat = gw.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss_at()
            flat[k] = orig - h
            lm = loss_at()
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * h)
        grads.param[j] = gw

    gx = np.zeros_like(x)
    xflat = x.reshape(-1)
    gxflat = gx.reshape(-1)
    for k in range(xflat.size):
        orig = xflat[k]
        xflat[k] = orig + h
        lp = loss_at()
        xflat[k] = orig - h
        lm = loss_at()
        xflat[k] = orig
        gxflat[k] = (lp - lm) / (2 * h)
    grads.node[g.input] = gx
    return grads
