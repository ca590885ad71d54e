"""Directed acyclic computation graphs and the feedforward sweep.

A graph is built from a list of node descriptors (dicts). Supported kinds:

  {"kind": "input",   "shape": (1, 28, 28)}
  {"kind": "dense",   "units": 300, "activation": "tanh", "parents": [0]}
  {"kind": "conv",    "out_channels": 32, "kernel": 5, "activation": "tanh"}
  {"kind": "maxpool"}
  {"kind": "flatten"}
  {"kind": "add",     "parents": [i, j]}

"parents" defaults to the previous node, so plain chains need no wiring.
A descriptor takes only its kind's keys (KEYS), and its counts, extents
and parent ids are Python or numpy integers.
Dense/conv descriptors may carry explicit "weight" and "psi" arrays, which
the graph copies, since it owns its parameters (relaxation.apply_updates
adds into them); otherwise they are drawn uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)] from the supplied Rng. Every dense/conv
node gets backwards parameters psi of the mirrored shape, drawn
independently from the same distribution, so the learned-backwards-weights
mode can be switched on without rebuilding.

Activation shapes are tracked per sample; at run time every activation
carries a leading batch dimension.

Each node kind but the input holds its own local math, so the sweep, the
oracle's reverse mode and the relaxation transport share one definition:
forward(acts, ps) reads the activations of the parents ps from the
per-node list acts and returns (activation, saved), where saved is what
forward already computed and the VJP reuses (see Sweep), and
vjp(cotangent, saved, back=None) returns one cotangent per parent, in
parent order; dense and conv take the pre-activation cotangent and an
optional back matrix (mirrored psi) to use in place of W, which the other
kinds ignore. Dense and conv also have linear(saved, out=None) (the
pre-activation GEMM on what forward saved; finite_diff runs it alone on a
weight with one column perturbed, or on a stack of such weights, which
gives one product per copy), outer (the batch-summed parameter
gradient), mirror (the psi <-> W layout switch) and gemm_input (what
forward saves of an input, which the weight update can take of a relaxed
activity without a forward); they share one forward,
_activate(linear(gemm_input(x))), which checks the pre-activation (an add
checks its sum) for NaN or Inf once and raises NonFiniteError.

A conv node saves its input's im2col columns, which are stored
channel-major as one (C_in*kH*kW, B*H'*W') buffer (tensor.im2col), so its
forward and outer are each one plain 2-D GEMM over the B*H'*W' columns,
and its vjp one GEMM per kernel row; ConvNode says how.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import Rng, ShapeError, Tensor


class GraphError(ValueError):
    """Invalid graph structure or node descriptor."""


@dataclass
class InputNode:
    shape: tuple[int, ...]


@dataclass
class _Parametric:
    weight: Tensor
    activation: str         # "tanh" | "linear"
    psi: Tensor             # backwards parameters; mirror(psi) is in W's layout

    def forward(self, acts: list[Tensor], ps: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        saved = self.gemm_input(acts[ps[0]])
        return self._activate(self.linear(saved)), saved

    def _activate(self, a: Tensor, in_place: bool = False) -> Tensor:
        # the one finiteness check of a dense or conv forward; it reads the
        # pre-activation, since tanh maps inf to a finite 1. in_place writes
        # tanh into a itself (finite_diff's column products).
        tensor.check_finite(a, f"{type(self).__name__} forward")
        return np.tanh(a, out=a if in_place else None) if self.activation == "tanh" else a

    def fprime(self, out: Tensor) -> Tensor | None:
        """f' at the pre-activation, from the node's output: for tanh,
        1 - out^2, bit-identical to 1 - np.tanh(a)**2 at the pre-activation
        a that gave out; None (identity) for linear."""
        return 1.0 - out * out if self.activation == "tanh" else None


@dataclass
class DenseNode(_Parametric):
    """weight (n_out, n_in); psi (n_in, n_out), where W^T transports."""

    def linear(self, saved: Tensor, out: Tensor | None = None) -> Tensor:
        """The pre-activation saved @ W^T, written into out if given. A
        weight stack (*S, n_out, n_in) gives one product per weight,
        (*S, B, n_out), each what its 2-D weight gives."""
        w = self.weight
        return np.matmul(saved, w.T if w.ndim == 2 else w.swapaxes(-1, -2), out=out)

    @staticmethod
    def gemm_input(x: Tensor) -> Tensor:
        """What forward saves of input x: x itself."""
        return x

    def vjp(self, gz: Tensor, saved: Tensor, back: Tensor | None = None) -> list[Tensor]:
        return [gz @ (self.weight if back is None else back)]

    def outer(self, gz: Tensor, saved: Tensor) -> Tensor:
        return gz.T @ saved

    @staticmethod
    def mirror(m: Tensor) -> Tensor:
        return m.T


@dataclass
class ConvNode(_Parametric):
    """weight (C_out, C_in, kH, kW); psi the same shape, since a kernel
    transports through the transposed-convolution position unchanged.

    saved is the input's im2col columns, a (B, K, P) view of a
    channel-major (K, B*P) buffer, K = C_in*kH*kW and P = H'*W'. forward is
    one (C_out, K) @ (K, B*P) GEMM; outer one (C_out, B*P) @ (B*P, K) GEMM,
    whose inner sum runs over batch and position together. vjp lays the
    cotangent out batch-innermost, (C_out, P*B), and runs one
    (kW*C_in, C_out) @ (C_out, P*B) GEMM per kernel row u; each of its kW
    slices is added into the window that offset (u, v) covers in a
    (C_in, H, W, B) input gradient, whose window rows are contiguous runs
    of W'*B values, and the gradient is transposed once at the end. No
    patch-column gradient is built and no col2im scatter runs. out_hw is
    (H', W'), which P alone does not give.
    """

    out_hw: tuple[int, int]

    def linear(self, saved: Tensor, out: Tensor | None = None) -> Tensor:
        """The (B, C_out, H', W') pre-activation from saved's im2col columns,
        written into out if given; a weight stack (*S, C_out, C_in, kH, kW)
        gives (*S, B, C_out, H', W') (tensor.conv2d_cols)."""
        return tensor.conv2d_cols(saved, self.weight, *self.out_hw, out)

    def gemm_input(self, x: Tensor) -> Tensor:
        """What forward saves of input x: its im2col columns."""
        _, _, kh, kw = self.weight.shape
        return tensor.im2col(x, kh, kw)

    def vjp(self, gz: Tensor, saved: Tensor, back: Tensor | None = None) -> list[Tensor]:
        co, ci, kh, kw = self.weight.shape
        b, _, hp, wp = gz.shape
        # k[u] is the (kw*ci, co) back matrix of kernel row u, rows ordered
        # (v, ci); the offsets are added in col2im's order
        k = (self.weight if back is None else back).transpose(2, 3, 1, 0).reshape(kh, kw * ci, co)
        gzc = np.ascontiguousarray(gz.transpose(1, 2, 3, 0)).reshape(co, -1)
        part = np.empty((kw, ci, hp, wp, b))
        out = np.zeros((ci, hp + kh - 1, wp + kw - 1, b))
        for u in range(kh):
            np.matmul(k[u], gzc, out=part.reshape(kw * ci, -1))
            for v in range(kw):
                out[:, u : u + hp, v : v + wp] += part[v]
        return [np.ascontiguousarray(out.transpose(3, 0, 1, 2))]

    def outer(self, gz: Tensor, saved: Tensor) -> Tensor:
        # one (co, B*P) @ (B*P, K) GEMM: the batch sum is inside the product
        gzc = gz.transpose(1, 0, 2, 3).reshape(self.weight.shape[0], -1)
        return (gzc @ tensor.col_matrix(saved).T).reshape(self.weight.shape)

    @staticmethod
    def mirror(m: Tensor) -> Tensor:
        return m


@dataclass
class MaxPoolNode:
    def forward(self, acts: list[Tensor], ps: tuple[int, ...]) -> tuple[Tensor, Tensor]:
        return tensor.maxpool2d(acts[ps[0]])    # (pooled, argmax map)

    def vjp(self, g: Tensor, saved: Tensor, back: Tensor | None = None) -> list[Tensor]:
        _, _, h2, w2 = g.shape
        return [tensor.maxpool2d_scatter(g, saved, 2 * h2, 2 * w2)]


@dataclass
class FlattenNode:
    in_shape: tuple[int, ...]   # the parent's per-sample shape

    def forward(self, acts: list[Tensor], ps: tuple[int, ...]) -> tuple[Tensor, None]:
        x = acts[ps[0]]
        return x.reshape(x.shape[0], -1), None

    def vjp(self, g: Tensor, saved: None, back: Tensor | None = None) -> list[Tensor]:
        return [g.reshape(g.shape[0], *self.in_shape)]


@dataclass
class AddNode:
    arity: int

    def forward(self, acts: list[Tensor], ps: tuple[int, ...]) -> tuple[Tensor, None]:
        out = acts[ps[0]]
        for p in ps[1:]:
            out = out + acts[p]
        # a non-finite partial sum stays non-finite, so one check covers all
        return tensor.check_finite(out, "AddNode forward"), None

    def vjp(self, g: Tensor, saved: None, back: Tensor | None = None) -> list[Tensor]:
        return [g] * self.arity


PARAMETRIC = (DenseNode, ConvNode)
ACTIVATIONS = ("tanh", "linear")
# per kind, the descriptor keys besides "kind" it requires and those it may have
KEYS = {
    "input": ({"shape"}, {"parents"}),
    "dense": ({"units"}, {"activation", "parents", "weight", "psi"}),
    "conv": ({"out_channels"}, {"kernel", "activation", "parents", "weight", "psi"}),
    "maxpool": (set(), {"parents"}),
    "flatten": (set(), {"parents"}),
    "add": (set(), {"parents"}),
}


class Sweep(list):
    """One feedforward sweep: the per-node activations, indexed by node id,
    and `saved`, per node, what its forward computed and its VJP reuses:
    the input in GEMM layout (dense: the input itself, conv: its im2col
    columns, (B, K, P)-shaped over a channel-major buffer), the argmax map
    (maxpool), None elsewhere."""

    def __init__(self, acts: list[Tensor], saved: list):
        super().__init__(acts)
        self.saved = saved


@dataclass
class Graph:
    """A validated DAG: per node id its node kind, parents (in the order
    forward and vjp take them), children and per-sample shape; a
    topological order; the one input, and the one output (no children)."""

    nodes: list
    parent_ids: list[tuple[int, ...]]
    children: list[tuple[int, ...]]
    topo_order: list[int]
    output: int
    input: int
    shapes: list[tuple[int, ...]]

    def parametric_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if isinstance(n, PARAMETRIC)]

    def node_ids(self, ids) -> set[int]:
        """ids as a set; ValueError naming any id outside range(len(nodes))."""
        ids = set(ids)
        outside = sorted(i for i in ids if not 0 <= i < len(self.nodes))
        if outside:
            raise ValueError(f"node ids {outside} are not in this graph's range({len(self.nodes)})")
        return ids

    def below(self, nodes) -> list[int]:
        """The nodes reachable by a path of one or more edges from a node
        in `nodes`, in topological order."""
        start, reached = set(nodes), set()
        for i in self.topo_order:
            if i in start or i in reached:
                reached.update(self.children[i])
        return [i for i in self.topo_order if i in reached]


def _toposort(n: int, parent_ids: list[tuple[int, ...]]) -> tuple[list[int], list[tuple[int, ...]]]:
    children: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, ps in enumerate(parent_ids):
        indeg[i] = len(ps)
        for p in ps:
            children[p].append(i)
    order = [i for i in range(n) if indeg[i] == 0]
    for i in order:     # a FIFO queue: the loop reaches what it appends
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    if len(order) != n:
        raise GraphError("cycle detected: graph is not a DAG")
    return order, [tuple(c) for c in children]


def _param(i: int, item: dict, key: str, shape: tuple[int, ...], fan_in: int, rng: Rng | None) -> Tensor:
    """A copy of the descriptor's explicit `key` array, checked against
    shape, or a uniform draw in [-1/sqrt(fan_in), +1/sqrt(fan_in)]: the
    graph owns its parameters, which apply_updates writes in place."""
    if key in item:
        t = np.array(item[key], dtype=np.float64, order="C")
        if t.shape != shape:
            raise GraphError(f"node {i}: explicit {key} shape {t.shape} != {shape}")
        return t
    if rng is None:
        raise GraphError("an Rng is required to initialize parameters that are not given explicitly")
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(shape, -bound, bound)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _ints(i: int, name: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise GraphError(f"node {i}: {name} must be a list of integers, got {value!r}")
    return tuple(int(v) for v in value)


def _positive(i: int, name: str, value) -> int:
    if not _is_int(value):
        raise GraphError(f"node {i}: {name} must be an integer, got {value!r}")
    if value < 1:
        raise GraphError(f"node {i}: {name} must be positive, got {value}")
    return int(value)


def _activation(i: int, item: dict) -> str:
    act = item.get("activation", "tanh")
    if act not in ACTIVATIONS:
        raise GraphError(f"node {i}: unknown activation {act!r}")
    return act


def build(spec: list[dict], rng: Rng | None = None) -> Graph:
    """Validate a node-descriptor list and return a ready Graph.

    Raises GraphError on cycles, shape incompatibilities, missing/duplicate
    input or output nodes, and malformed descriptors, so a bad graph fails
    when it is loaded: dense, conv, maxpool and flatten take one parent,
    conv and maxpool a (C,H,W) one, dense a flat one.
    """
    n = len(spec)
    if n == 0:
        raise GraphError("empty graph spec")

    parent_ids: list[tuple[int, ...]] = []
    for i, item in enumerate(spec):
        kind = item.get("kind")
        if not isinstance(kind, str) or kind not in KEYS:
            raise GraphError(f"node {i}: unknown kind {kind!r}")
        required, optional = KEYS[kind]
        keys = set(item) - {"kind"}
        for what, bad in (("missing", required - keys), ("unknown", keys - required - optional)):
            if bad:
                raise GraphError(f"node {i}: {what} {kind} keys: {sorted(bad)}")
        if i == 0 and kind != "input" and "parents" not in item:
            raise GraphError(f"node 0 ({kind}) has no parents and is not an input")
        ps = _ints(i, "parents", item.get("parents", [] if kind == "input" else [i - 1]))
        if kind == "input" and ps:
            raise GraphError(f"node {i}: an input takes no parents, got {list(ps)}")
        for p in ps:
            if not 0 <= p < n:
                raise GraphError(f"node {i}: parent index {p} out of range")
        parent_ids.append(ps)

    topo, children = _toposort(n, parent_ids)

    inputs = [i for i, item in enumerate(spec) if item.get("kind") == "input"]
    if len(inputs) != 1:
        raise GraphError(f"graph must have exactly one input node, found {len(inputs)}")

    sinks = [i for i in range(n) if not children[i]]
    if len(sinks) != 1:
        raise GraphError(f"graph must have exactly one output node, found {len(sinks)}: {sinks}")

    nodes: list = [None] * n
    shapes: list[tuple[int, ...]] = [()] * n
    for i in topo:
        item = spec[i]
        kind = item.get("kind")
        ps = parent_ids[i]
        if kind == "input":
            shape = _ints(i, "shape", item["shape"])
            if any(d < 0 for d in shape):
                raise GraphError(f"node {i}: negative extent in input shape {shape}")
            nodes[i] = InputNode(shape)
            shapes[i] = shape
            continue
        if kind in ("dense", "conv", "maxpool", "flatten"):
            if len(ps) != 1:
                raise GraphError(f"node {i}: {kind} takes exactly one parent")
            pshape = shapes[ps[0]]
            if kind in ("conv", "maxpool"):
                if len(pshape) != 3:
                    raise GraphError(f"node {i}: {kind} needs a (C,H,W) parent, got shape {pshape}")
                c, h, w_ = pshape

        if kind == "dense":
            if len(pshape) != 1:
                raise GraphError(
                    f"node {i}: dense needs a flat parent, got shape {pshape} (insert a flatten node)"
                )
            n_in = pshape[0]
            units = _positive(i, "units", item["units"])
            act = _activation(i, item)
            w = _param(i, item, "weight", (units, n_in), n_in, rng)
            psi = _param(i, item, "psi", (n_in, units), n_in, rng)
            nodes[i] = DenseNode(w, act, psi)
            shapes[i] = (units,)

        elif kind == "conv":
            kernel = item.get("kernel", 5)
            kernel = (kernel, kernel) if _is_int(kernel) else kernel
            if not isinstance(kernel, (list, tuple)) or len(kernel) != 2:
                raise GraphError(f"node {i}: kernel must be an integer or a pair, got {item['kernel']!r}")
            kh, kw = (_positive(i, "kernel", k) for k in kernel)
            if kh > h or kw > w_:
                raise GraphError(f"node {i}: kernel {kh}x{kw} larger than input {h}x{w_}")
            co = _positive(i, "out_channels", item["out_channels"])
            act = _activation(i, item)
            wk = _param(i, item, "weight", (co, c, kh, kw), c * kh * kw, rng)
            psi = _param(i, item, "psi", (co, c, kh, kw), c * kh * kw, rng)
            nodes[i] = ConvNode(wk, act, psi, (h - kh + 1, w_ - kw + 1))
            shapes[i] = (co, *nodes[i].out_hw)

        elif kind == "maxpool":
            if h % 2 or w_ % 2:
                raise GraphError(f"node {i}: maxpool needs even extents, got {h}x{w_}")
            nodes[i] = MaxPoolNode()
            shapes[i] = (c, h // 2, w_ // 2)

        elif kind == "flatten":
            nodes[i] = FlattenNode(pshape)
            shapes[i] = (int(np.prod(pshape)),)

        elif kind == "add":
            if len(ps) < 2:
                raise GraphError(f"node {i}: add needs at least two parents")
            pshapes = {shapes[p] for p in ps}
            if len(pshapes) != 1:
                raise GraphError(f"node {i}: add parents have differing shapes {sorted(pshapes)}")
            nodes[i] = AddNode(len(ps))
            shapes[i] = shapes[ps[0]]

    return Graph(
        nodes=nodes,
        parent_ids=parent_ids,
        children=children,
        topo_order=topo,
        output=sinks[0],
        input=inputs[0],
        shapes=shapes,
    )


def forward(g: Graph, x) -> Sweep:
    """Feedforward sweep. x has shape (batch, *input_shape).

    Returns the per-node activations indexed by node id, which become the
    frozen values of a relaxation phase, with what each node's VJP reuses
    in Sweep.saved.
    """
    x = tensor.as_tensor(x)
    in_shape = g.shapes[g.input]
    if x.ndim != len(in_shape) + 1 or x.shape[1:] != in_shape:
        raise ShapeError(
            f"forward: input shape {x.shape} does not match (batch, *{in_shape})"
        )
    acts: list[Tensor] = [None] * len(g.nodes)  # type: ignore[list-item]
    saved: list = [None] * len(g.nodes)
    acts[g.input] = x
    # an overflow raises NonFiniteError at the node that made it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in g.topo_order:
            if i != g.input:
                acts[i], saved[i] = g.nodes[i].forward(acts, g.parent_ids[i])
    return Sweep(acts, saved)
