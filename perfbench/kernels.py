"""Per-node kernel timings for the two reference models at batch 64.

For every node of mlp4 and cnn, each kernel that node's relaxation
transport or weight update runs is timed alone at that node's shapes:

  matmul             transport GEMM: `v @ W` (dense) or the batched
                     `np.matmul(W^T[None], v)` (conv), as in relaxation.py
  outer              weight-update contraction: `v.T @ x` (dense) or the
                     `einsum("bop,bkp->ok")` (conv), as in relaxation.py
  conv2d, im2col     tensor kernels of the forward sweep, init_state and
                     the unfrozen-derivative re-evaluation
  col2im             tensor kernel scattering the conv transport
  maxpool2d_scatter  tensor kernel routing the pool transport

`matmul` and `outer` restate relaxation.py's expressions as of the commit
that added this benchmark; a change to those expressions shows in the
relax_step and weight_update spans, not here. FLOPs and bytes are computed
from shapes (8-byte operands read plus result written), not measured.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

BATCH = 64
MODELS = ("mlp4", "cnn")
MIN_SECONDS = 0.05     # time each kernel for at least this long...
MIN_REPS, MAX_REPS = 5, 200   # ...within these repetition counts


@dataclass
class Case:
    kernel: str
    node: str           # "<model>_n<id>"
    fn: Callable[[], object]
    flops: int | None   # None for pure data movement
    nbytes: int


def _dense(tag: str, w, xp, v) -> list[Case]:
    n_out, n_in = w.shape
    flops = 2 * BATCH * n_out * n_in
    nbytes = 8 * (BATCH * n_out + n_out * n_in + BATCH * n_in)
    return [Case("matmul", tag, lambda: v @ w, flops, nbytes),
            Case("outer", tag, lambda: v.T @ xp / BATCH, flops, nbytes)]


def _conv(tensor, tag: str, w, xp, v, cols) -> list[Case]:
    co, ci, kh, kw = w.shape
    _, _, h, wd = xp.shape
    k, npos = ci * kh * kw, v.shape[2] * v.shape[3]
    vflat = v.reshape(BATCH, co, -1)
    cols_grad = np.matmul(w.reshape(co, -1).T[None], vflat)
    gemm = 2 * BATCH * co * k * npos
    x_b, w_b, v_b, c_b = 8 * BATCH * ci * h * wd, 8 * co * k, 8 * BATCH * co * npos, 8 * BATCH * k * npos
    return [
        Case("conv2d", tag, lambda: tensor.conv2d(xp, w), gemm, x_b + w_b + v_b),
        Case("im2col", tag, lambda: tensor.im2col(xp, kh, kw), None, x_b + c_b),
        Case("matmul", tag, lambda: np.matmul(w.reshape(co, -1).T[None], vflat), gemm, w_b + v_b + c_b),
        Case("col2im", tag, lambda: tensor.col2im(cols_grad, ci, kh, kw, h, wd), BATCH * k * npos, c_b + x_b),
        Case("outer", tag, lambda: np.einsum("bop,bkp->ok", vflat, cols) / BATCH, gemm, v_b + c_b + w_b),
    ]


def _pool(tensor, tag: str, xp, v, idx) -> list[Case]:
    _, c, h, wd = xp.shape
    return [Case("maxpool2d_scatter", tag, lambda: tensor.maxpool2d_scatter(v, idx, h, wd),
                 None, 8 * (2 * v.size + BATCH * c * h * wd))]


def cases(ar, model: str) -> list[Case]:
    """Kernel cases for every node of a freshly built reference model."""
    spec = ar.models.ModelSpec(model)
    rng = ar.tensor.Rng(0)
    g = ar.models.build_model(spec, rng)
    acts = ar.graph.forward(g, rng.uniform((BATCH,) + ar.models.input_shape(spec)))
    k = g.shapes[g.output][0]
    target = np.eye(k)[np.arange(BATCH) % k]
    state = ar.relaxation.init_state(g, acts, target, ar.relaxation.ARConfig())
    out: list[Case] = []
    for j in g.topo_order:
        node, tag = g.nodes[j], f"{model}_n{j}"
        if not g.parent_ids[j]:
            continue
        xp, v = acts[g.parent_ids[j][0]], acts[j]
        if isinstance(node, ar.graph.DenseNode):
            out += _dense(tag, node.weight, xp, v)
        elif isinstance(node, ar.graph.ConvNode):
            out += _conv(ar.tensor, tag, node.weight, xp, v, state.cols_bar[j])
        elif isinstance(node, ar.graph.MaxPoolNode):
            out += _pool(ar.tensor, tag, xp, v, state.pool_idx[j])
    return out


def time_case(case: Case) -> float:
    """Median seconds per call."""
    case.fn()   # warm: first-touch allocation, BLAS initialisation
    times: list[float] = []
    total = 0.0
    while len(times) < MIN_REPS or (total < MIN_SECONDS and len(times) < MAX_REPS):
        t0 = perf_counter()
        case.fn()
        dt = perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times)


def metrics(ar) -> dict[str, tuple[float, str]]:
    """tensor.<kernel>.<model>_n<id>.{ms,flops,bytes} for both models."""
    out: dict[str, tuple[float, str]] = {}
    for model in MODELS:
        for c in cases(ar, model):
            key = f"tensor.{c.kernel}.{c.node}"
            out[f"{key}.ms"] = (time_case(c) * 1e3, "ms")
            if c.flops is not None:
                out[f"{key}.flops"] = (c.flops, "flop")
            out[f"{key}.bytes"] = (c.nbytes, "B")
    return out
