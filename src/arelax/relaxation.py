"""The activation relaxation engine.

After a feedforward sweep freezes activations xbar, every non-input node
runs a leaky-integrator update whose fixed point is the loss gradient at
that node (scaled by batch size, since the loss averages over the batch):

    output node:   dx = -x - eps_bar,          eps_bar = target - xbar
    internal node: dx = -x + sum over children j of VJP_j(x_j)
    then           x <- x + eta_x * dx         (all nodes simultaneously)

One children-first sweep (_sweep) runs this phase with a per-node
combine: relax_step is the sweep with the update above, and the closed
form of run_relaxation one sweep per power of the transport with a Horner
combine. The last step updates only the nodes whose activity the caller
reads (by default what the updates read); a relaxed activity depends only
on the nodes below it, and the sweeps or steps before update no others.

The per-edge VJP transports a child's relaxing activity back to its parent
through the local Jacobian evaluated at the frozen feedforward values: for
a dense child, (f'(abar) * x_child) @ W; a conv child routes through the
transposed-convolution position; max-pool scatters through its frozen
argmax map; flatten reshapes; add passes through unchanged. These are the
node kinds' own vjp methods (graph.py), the ones oracle.backprop applies,
run on the sweep's record (Sweep.saved).

Variants, all switchable per ARConfig:
  * backwards_mode="learned_psi": the transport matrix W (or conv kernel)
    is replaced by separate backwards parameters psi, learned by
    psi_update() as the mirror of the weight update so psi tracks the
    transpose of W.
  * nonlinearity_mode="dropped": the f' factor is omitted from both the
    relaxation transport and the weight update.
  * scopes restrict either variant to conv nodes only, dense nodes only,
    or all ("conv" / "dense" / "all").
  * unfreeze_relax_deriv: f' in the transport is re-evaluated each step at
    the current (relaxing) parent activity instead of the frozen one.
  * unfreeze_weight_deriv: same substitution inside the weight update.
  * unfreeze_weight_activity: the weight update's outer product uses the
    relaxed parent activity instead of the frozen one (known to destroy
    learning; supported so the failure is measurable).

Weight updates at equilibrium descend the loss:
    dW = -eta_theta * mean_batch[(f'(abar) * x_child_star) outer xbar_parent]
and equal -eta_theta times the exact loss gradient once the relaxation has
converged (baseline flags). The batch mean's 1/B scales the smaller of the
cotangent and the product (_update_outer), and apply_updates adds each
delta into the parameter array in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .graph import PARAMETRIC, ConvNode, DenseNode, Graph, Sweep
from .tensor import NonFiniteError, Tensor

DIVERGENCE_LIMIT = 1e6

BACKWARDS_MODES = ("transpose", "learned_psi")
NONLINEARITY_MODES = ("exact", "dropped")
SCOPES = ("all", "conv", "dense")


class DivergenceError(RuntimeError):
    """Relaxation activity exceeded the divergence guard or went non-finite.

    `iteration` is the step whose result tripped the guard. When several
    nodes trip in one step, `node` is the first one the sweep reaches,
    counting children first (reverse topological order). run_relaxation
    guards only the nodes it relaxes, and on its closed-form path (frozen
    relaxation derivatives) only the final state, so `iteration` is always
    n_iters - 1 there, and a transient overshoot is not reported. On its
    unfrozen path a node it relaxes in its child's width (_InputFed) is
    likewise guarded only in the last step; before that, where the child is
    dense with a live f', its overflow shows as a non-finite forward in
    that f', a DivergenceError at the child.
    """

    def __init__(self, node: int, iteration: int, detail: str = ""):
        self.node = node
        self.iteration = iteration
        msg = f"relaxation diverged at node {node}, iteration {iteration}"
        super().__init__(msg + (f": {detail}" if detail else ""))


@dataclass
class ARConfig:
    """Step sizes, iteration budget, and variant switches.

    Setting unfreeze_relax_deriv and unfreeze_weight_deriv together gives
    the fully-unfrozen-derivative condition; eta_psi defaults to eta_theta.
    """

    eta_x: float = 0.1
    n_iters: int = 100
    eta_theta: float = 0.0005
    eta_psi: float | None = None        # defaults to eta_theta
    backwards_mode: str = "transpose"
    backwards_scope: str = "all"
    nonlinearity_mode: str = "exact"
    nonlinearity_scope: str = "all"
    unfreeze_relax_deriv: bool = False
    unfreeze_weight_deriv: bool = False
    unfreeze_weight_activity: bool = False

    def __post_init__(self):
        if not 0.0 < self.eta_x <= 1.0:
            raise ValueError(f"eta_x must be in (0, 1], got {self.eta_x}")
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters}")
        if self.backwards_mode not in BACKWARDS_MODES:
            raise ValueError(f"backwards_mode must be one of {BACKWARDS_MODES}")
        if self.nonlinearity_mode not in NONLINEARITY_MODES:
            raise ValueError(f"nonlinearity_mode must be one of {NONLINEARITY_MODES}")
        if self.backwards_scope not in SCOPES or self.nonlinearity_scope not in SCOPES:
            raise ValueError(f"scopes must be one of {SCOPES}")
        if self.eta_psi is None:
            self.eta_psi = self.eta_theta
        for name in ("eta_theta", "eta_psi"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def _in_scope(node, scope: str) -> bool:
    return isinstance(node, {"all": PARAMETRIC, "conv": ConvNode, "dense": DenseNode}[scope])


def _drops_nonlinearity(node, cfg: ARConfig) -> bool:
    return cfg.nonlinearity_mode == "dropped" and _in_scope(node, cfg.nonlinearity_scope)


def _uses_psi(node, cfg: ARConfig) -> bool:
    return cfg.backwards_mode == "learned_psi" and _in_scope(node, cfg.backwards_scope)


def _back(node, cfg: ARConfig) -> Tensor | None:
    """node's vjp back matrix: mirror(psi) where cfg's learned psi covers it, else None."""
    return node.mirror(node.psi) if isinstance(node, PARAMETRIC) and _uses_psi(node, cfg) else None


@dataclass
class RelaxState:
    """Frozen sweep data plus the relaxing activities for one minibatch.

    xbar, saved, eps_bar and fprime_bar never change during a phase; only x
    does. saved is the sweep's record (Sweep.saved): per node, what its VJP
    reuses, such as the im2col columns of a conv node's input (cols_bar;
    (B, K, P)-shaped, a view of a channel-major (K, B*P) buffer) and a
    max-pool node's argmax map (pool_idx). The library reads saved
    directly; the cols_bar and pool_idx aliases stay because the benchmark's
    per-node kernel cases (perfbench/kernels.py) read them.

    x starts as the sweep's own arrays; the sweeps replace its entries and
    never write into one (nor do the updates), so the Sweep stays as it
    was. The input's entry is never replaced. run_relaxation returns x
    with None at every node outside its read set but the input, so a read
    of an activity the run did not compute fails instead of returning a
    stale sweep term.

    outers holds the batch-mean update outer products of the learned-psi
    nodes, which weight_update computes and psi_update reads again. A key
    is the node id plus the weight-side settings the product depends on
    (see _update_outer). relax_step empties it, since it changes x; code
    that writes x directly must empty it too.
    """

    xbar: list[Tensor]
    x: list[Tensor | None]
    saved: list
    eps_bar: Tensor
    fprime_bar: dict[int, Tensor] = field(default_factory=dict)
    last_max_dx: float = float("inf")
    outers: dict[tuple, Tensor] = field(default_factory=dict)

    @property
    def cols_bar(self) -> list:
        """saved, read at conv nodes: the im2col columns of the frozen input."""
        return self.saved

    @property
    def pool_idx(self) -> list:
        """saved, read at max-pool nodes: the frozen argmax maps."""
        return self.saved


def init_state(g: Graph, acts: Sweep, target, cfg: ARConfig) -> RelaxState:
    """Freeze the sweep values and start the relaxing activities at xbar.
    Nothing is recomputed or copied: x starts as the sweep's own arrays,
    the VJP records come from the sweep, and f' from its outputs."""
    target = tensor.as_tensor(target)
    s = RelaxState(
        xbar=list(acts),
        x=list(acts),
        saved=list(acts.saved),
        eps_bar=target - acts[g.output],
    )
    for j in g.parametric_ids():
        fp = g.nodes[j].fprime(acts[j])
        if fp is not None:
            s.fprime_bar[j] = fp
    return s


def _live_fprime(g: Graph, s: RelaxState, cfg: ARConfig, j: int) -> bool:
    """Whether node j has an f' (tanh) that cfg does not drop."""
    return j in s.fprime_bar and not _drops_nonlinearity(g.nodes[j], cfg)


def _scale_by_fprime(g: Graph, s: RelaxState, cfg: ARConfig, j: int, v: Tensor, unfrozen: bool) -> Tensor:
    """v times node j's f', frozen at the sweep or, with `unfrozen`, taken at
    the parents' relaxing activities; v itself where j has no live f'."""
    if not _live_fprime(g, s, cfg, j):
        return v
    node = g.nodes[j]
    if unfrozen:
        return node.fprime(node.forward(s.x, g.parent_ids[j])[0]) * v
    return s.fprime_bar[j] * v


def _read_set(g: Graph, cfg: ARConfig, read) -> set[int]:
    """The node ids whose final activity run_relaxation's caller reads,
    the input left out. `read` None means what weight_update and
    psi_update read under cfg: the parametric nodes, plus their parents
    when an unfrozen weight-side setting re-reads them. An id outside the
    graph raises ValueError."""
    if read is None:
        read = set(g.parametric_ids())
        if cfg.unfreeze_weight_deriv or cfg.unfreeze_weight_activity:
            read.update(p for j in g.parametric_ids() for p in g.parent_ids[j])
    return g.node_ids(read) - {g.input}


def _children(g: Graph, nodes: set[int]) -> set[int]:
    """The nodes with a parent in `nodes`; never the input."""
    return {c for i in nodes for c in g.children[i]}


def _sweep(g: Graph, s: RelaxState, cfg: ARConfig, live: set[int], combine,
           *, send: bool = True, iteration: int = 0) -> None:
    """One children-first pass in reverse topological order. A node with a
    live parent runs its VJP on its pre-update activity into its live
    parents (if `send`); a live node j then takes s.x[j] = combine(j,
    incoming), the sum of what its children sent (None if nothing was).
    A node's own VJP and its children's unfrozen f' read s.x[j] before it
    is replaced, so the pass is synchronous; the other entries of s.x are
    left as they are. `live` never holds the input. A non-finite forward
    in an unfrozen f' is a DivergenceError at j and `iteration`."""
    incoming: dict[int, Tensor] = {}
    for j in reversed(g.topo_order):
        ps = g.parent_ids[j]
        if send and any(p in live for p in ps):
            node = g.nodes[j]
            try:
                # unnamed, the f'-scaled cotangent is freed when the VJP returns
                sent = node.vjp(_scale_by_fprime(g, s, cfg, j, s.x[j], cfg.unfreeze_relax_deriv), s.saved[j],
                                _back(node, cfg))
            except NonFiniteError as exc:
                raise DivergenceError(j, iteration, str(exc)) from exc
            for p, contribution in zip(ps, sent):
                if p in live:
                    incoming[p] = incoming[p] + contribution if p in incoming else contribution
        if j in live:
            s.x[j] = combine(j, incoming.pop(j, None))


def relax_step(g: Graph, s: RelaxState, cfg: ARConfig, *, iteration: int = 0,
               read=None) -> RelaxState:
    """One synchronous step x <- x + eta_x * dx, with dx from pre-step
    values, at the nodes in `read` (None: every non-input node). Only the
    VJPs into those nodes run; every other entry of s.x is left as it is.
    Sets last_max_dx to max |dx| over those nodes, and raises
    DivergenceError at the first of them reached, children first, whose
    new activity is non-finite or above DIVERGENCE_LIMIT."""
    s.outers.clear()
    live = _read_set(g, cfg, range(len(g.nodes)) if read is None else read)
    max_dx = 0.0

    def leak(j: int, incoming: Tensor | None) -> Tensor:
        # one new buffer per node, holding dx and then the new activity;
        # never written: incoming, which may alias a child's activity
        nonlocal max_dx
        x_old = s.x[j]
        x = -x_old
        if j == g.output:
            x -= s.eps_bar
        else:
            x += incoming
        max_dx = max(max_dx, max(float(x.max()), -float(x.min())))
        x *= cfg.eta_x
        x += x_old
        # x.max() is NaN if x holds a NaN, and max() keeps a NaN first
        # argument, so the comparison fails: non-finite values trip it too
        if not max(float(x.max()), -float(x.min())) <= DIVERGENCE_LIMIT:
            raise DivergenceError(j, iteration)
        return x

    _sweep(g, s, cfg, live, leak, iteration=iteration)
    s.last_max_dx = max_dx
    return s


def _cascade_coefficients(steps: int, depth: int, eta: float) -> tuple[tuple[float, float], ...]:
    """(a_k, eta * c_k) for k = 0..min(depth, steps), the coefficients of
    M^S = sum_k a_k J^k and eta * sum_{t<S} M^t = sum_k eta * c_k J^k with
    S = steps; higher powers of J vanish. eta * c_k is the binomial tail
    1 - (a_0 + ... + a_k) (see run_relaxation), so it never exceeds 1."""
    coeffs, below = [], 0.0
    for k in range(min(depth, steps) + 1):
        a = math.comb(steps, k) * (1.0 - eta) ** (steps - k) * eta ** k
        below += a
        coeffs.append((a, 1.0 - below))
    return tuple(coeffs)


def _closed_form_advance(g: Graph, s: RelaxState, cfg: ARConfig, steps: int, read: set[int]) -> None:
    """Set s.x, at the nodes in `read` and their children, to the
    frozen-derivative state after `steps` steps from xbar, x(S) = sum_k
    J^k v_k, by Horner's rule r <- J r + v_k (see run_relaxation): one
    sweep per k, top term first, with the combine a_k xbar + J r
    (- eta c_k eps_bar at the output). Sweep k's VJPs read sweep k + 1's
    r, still in s.x; the top sweep has no J r part.

    The last step reads x(S) at live_0 = read + children(read), and sweep
    k's r at a node is read only through a parent live in sweep k - 1, so
    sweep k updates live_k = children(live_{k-1}) and transports only into
    it. A node with no live parent runs no VJP, and an overflow in a pruned
    term is never computed. When every node is read, live_k is the set of
    nodes with a chain of k non-input ancestors, the nodes where J^k keeps
    a share. The other entries of s.x are left stale.
    """
    lives = [read | _children(g, read)]
    while len(lives) <= steps and (below := _children(g, lives[-1])):
        lives.append(below)
    coeffs = _cascade_coefficients(steps, len(lives) - 1, cfg.eta_x)
    top = len(coeffs) - 1
    for k in range(top, -1, -1):
        a, ec = coeffs[k]

        def horner(j: int, incoming: Tensor | None) -> Tensor:
            r = a * s.xbar[j]
            if incoming is not None:
                r += incoming
            if j == g.output:
                r -= ec * s.eps_bar
            return r

        _sweep(g, s, cfg, lives[k], horner, send=k < top, iteration=steps)


class _InputFed:
    """A node p that the unfrozen engine relaxes before its last step, whose
    parents are all the input and whose only child c is dense or has no
    live f'. p sends nothing, and until the last step only c's VJP into p,
    linear in its cotangent v, and c's unfrozen f', at z = x_p W_c^T, read
    x_p. So x_p(t) = (1 - eta_x)^t xbar_p + vjp_c(u_t): p relaxes in c's
    width, from u = 0 and z = xbar_p W_c^T, and one VJP call rebuilds it:

        v = f'(z) * x_c,  u <- (1 - eta_x) u + eta_x v,  z <- (1 - eta_x) z + eta_x v G,

    with G = back W_c^T (back: W_c, or mirror(psi_c)), v from the pre-step z
    and x_c. Where c has no live f', v is x_c and z is not kept; a conv c
    with one is not tracked, as its z would need conv of transposed conv."""

    def __init__(self, g: Graph, s: RelaxState, cfg: ARConfig, p: int):
        self.p, self.c = p, g.children[p][0]
        self.node = node = g.nodes[self.c]
        self.back, self.slot = _back(node, cfg), g.parent_ids[self.c].index(p)
        self.u = np.zeros_like(s.xbar[self.c])
        unfrozen = _live_fprime(g, s, cfg, self.c)
        self.z = node.linear(s.xbar[p]) if unfrozen else None
        self.gram = node.linear(node.weight if self.back is None else self.back) if unfrozen else None

    def advance(self, x_c: Tensor, eta: float, t: int) -> None:
        """Step t from the pre-step x_c; a non-finite z is a DivergenceError
        at c and t, with the forward's message, as in relax_step."""
        v = x_c
        if self.z is not None:
            try:
                v = self.node.fprime(self.node._activate(self.z)) * x_c
            except NonFiniteError as exc:
                raise DivergenceError(self.c, t, str(exc)) from exc
            self.z = (1.0 - eta) * self.z + eta * (v @ self.gram)
        self.u = (1.0 - eta) * self.u + eta * v

    def rebuild(self, s: RelaxState, steps: int, eta: float) -> None:
        """Set x_p to its activity after `steps` steps."""
        sent = self.node.vjp(self.u, s.saved[self.c], self.back)[self.slot]
        s.x[self.p] = (1.0 - eta) ** steps * s.xbar[self.p] + sent


def run_relaxation(g: Graph, acts: Sweep, target, cfg: ARConfig, *, read=None) -> RelaxState:
    """Relax the activities for n_iters steps from x(0) = xbar and return
    the state at the nodes in `read`, the node ids whose final activity the
    caller reads. None means what weight_update and psi_update read under
    cfg: the parametric nodes, plus their parents under
    unfreeze_weight_deriv or unfreeze_weight_activity. The input is never
    in it, and its entry stays xbar; every other entry of x outside `read`
    is None on return. last_max_dx is the final step's max |dx| over the
    nodes in `read`, the convergence diagnostic.

    With frozen derivatives (unfreeze_relax_deriv off) one step is linear,
    x <- M x + eta_x * b with M = (1 - eta_x) I + eta_x J, where J is the
    transport (each node's activity sent to its non-input parents) and b is
    -eps_bar at the output and zero elsewhere. Its fixed point x* is the
    batch-scaled loss gradient, and after T = n_iters steps from x(0) = xbar

        x(T) - x* = M^T (x(0) - x*)
                  = sum_{m<=D} C(T,m) (1-eta_x)^(T-m) eta_x^m J^m (x(0) - x*),

    since J^(D+1) = 0 on a DAG whose longest path is D. A node k edges
    below the output therefore keeps a Binomial(T, eta_x)-weighted share of
    the initial deviation, of order P(Bin(T, eta_x) <= k), which only
    vanishes as T grows.

    Engine selection. With unfreeze_relax_deriv the step is nonlinear and
    relax_step, the reference engine, runs n_iters times, over `read` and
    the nodes below it (Graph.below) but on the last step, over `read`.
    A node of that set whose parents are all the input and whose only
    child is dense or has no live f' sends nothing, so on the first
    n_iters - 1 steps it is relaxed in its child's width instead and
    rebuilt by the child's VJP (_InputFed; on mlp4 flatten, in 300 columns
    instead of 784; on cnn conv 1, in its max-pool's). Only its own
    activity moves, by rounding; every other node's stays bit-identical.
    Otherwise the state after S = n_iters - 1 steps is computed in closed
    form,

        x(S) = M^S xbar + eta_x sum_{t<S} M^t b = sum_{k<=K} J^k v_k,
        v_k  = a_k xbar - c_k eta_x eps_bar [output only],  K = min(D, S),
        a_k  = C(S,k) (1-eta_x)^(S-k) eta_x^k,
        c_k  = sum_{t<S} C(t,k) (1-eta_x)^(t-k) eta_x^k
             = (1 - a_0 - ... - a_k) / eta_x,

    since eta_x c_k = P(Bin(S, eta_x) > k): term t is the chance that the
    (k+1)-th success falls on trial t + 1. The state is computed in at most
    K + 1 sweeps pruned to what the last step reads
    (_closed_form_advance; D(D+1)/2 transports on a chain of D + 1
    relaxing nodes) instead of S steps, and relax_step takes the last step
    over `read`, so last_max_dx and the divergence guard come from the
    reference code. The weight-side variants leave J unchanged and take
    this path. On it the guard sees the final state of the nodes in `read`
    only, and a DivergenceError reports iteration n_iters - 1: a transient
    overshoot past DIVERGENCE_LIMIT that the step-by-step engine would flag
    is not reported, and neither is an overflow in a pruned sweep term.
    """
    read = _read_set(g, cfg, read)
    s = init_state(g, acts, target, cfg)
    last = cfg.n_iters - 1
    if cfg.unfreeze_relax_deriv:
        reach = read.union(g.below(read))
        tracked = [_InputFed(g, s, cfg, p) for p in reach if set(g.parent_ids[p]) == {g.input}
                   and len(cs := g.children[p]) == 1
                   and (isinstance(g.nodes[cs[0]], DenseNode) or not _live_fprime(g, s, cfg, cs[0]))]
        live = reach.difference(tr.p for tr in tracked)
        for t in range(last):
            pre_step = [s.x[tr.c] for tr in tracked]
            relax_step(g, s, cfg, iteration=t, read=live)
            for tr, x_c in zip(tracked, pre_step):
                tr.advance(x_c, cfg.eta_x, t)
        for tr in tracked:
            tr.rebuild(s, last, cfg.eta_x)
    else:
        _closed_form_advance(g, s, cfg, last, read)
    relax_step(g, s, cfg, iteration=last, read=read)
    for j in range(len(s.x)):
        if j != g.input and j not in read:
            s.x[j] = None
    return s


def _update_outer(g: Graph, s: RelaxState, cfg: ARConfig, j: int) -> Tensor:
    """Batch-mean outer product between the (optionally f'-weighted) child
    equilibrium activity and the parent activity; shaped like the weight.
    The 1/B of the mean scales whichever of the cotangent and the product
    is smaller, so that only one product-sized array is written: a dense
    node's cotangent (B x n_out) before the product, a conv node's
    kernel-shaped product in place after it. At a learned-psi node it is
    kept in s.outers, where psi_update finds the one weight_update
    computed."""
    node = g.nodes[j]
    key = (j, cfg.unfreeze_weight_deriv, cfg.unfreeze_weight_activity, _drops_nonlinearity(node, cfg))
    if key in s.outers:
        return s.outers[key]
    child = _scale_by_fprime(g, s, cfg, j, s.x[j], cfg.unfreeze_weight_deriv)
    saved = node.gemm_input(s.x[g.parent_ids[j][0]]) if cfg.unfreeze_weight_activity else s.saved[j]
    batch = child.shape[0]
    if child.size < node.weight.size:
        out = node.outer(child / batch, saved)
    else:
        out = node.outer(child, saved)
        out /= batch
    if _uses_psi(node, cfg):
        s.outers[key] = out
    return out


def weight_update(g: Graph, s: RelaxState, cfg: ARConfig) -> dict[int, Tensor]:
    """Descent deltas for every dense/conv weight, computed at equilibrium:
    -eta_theta times _update_outer's batch mean, one new weight-sized
    array per node."""
    return {j: -cfg.eta_theta * _update_outer(g, s, cfg, j) for j in g.parametric_ids()}


def psi_update(g: Graph, s: RelaxState, cfg: ARConfig) -> dict[int, Tensor]:
    """Deltas for the learned backwards parameters: the exact mirror of the
    weight update (transposed for dense, same-shaped for conv kernels), so
    psi tracks the transport position W would occupy."""
    if cfg.backwards_mode != "learned_psi":
        raise ValueError("psi_update requires backwards_mode='learned_psi'")
    return {j: -cfg.eta_psi * g.nodes[j].mirror(_update_outer(g, s, cfg, j))
            for j in g.parametric_ids() if _uses_psi(g.nodes[j], cfg)}


def apply_updates(
    g: Graph,
    weight_deltas: dict[int, Tensor],
    psi_deltas: dict[int, Tensor] | None = None,
) -> None:
    """Add the deltas into the graph parameters in place (exclusive-write
    phase): each node keeps its weight and psi arrays, which graph.build
    owns (it copies a spec's explicit ones), so an earlier read of
    node.weight or node.psi sees the new values.

    Every delta is checked first: one keyed to a node without parameters,
    not of its parameter's shape, or of a dtype that float64 cannot hold
    (complex), raises ValueError naming the node (and both shapes), and
    the graph is left as it was.
    """
    updates = [(j, "weight", dw) for j, dw in weight_deltas.items()]
    updates += [(j, "psi", dpsi) for j, dpsi in (psi_deltas or {}).items()]
    for j, name, delta in updates:
        node = g.nodes[j] if 0 <= j < len(g.nodes) else None
        if not isinstance(node, PARAMETRIC):
            kind = "not in the graph" if node is None else type(node).__name__
            raise ValueError(f"node {j} ({kind}) has no {name} for a delta of shape {np.shape(delta)}")
        if np.shape(delta) != getattr(node, name).shape:
            raise ValueError(f"node {j}: {name} delta of shape {np.shape(delta)} "
                             f"does not fit its {name} of shape {getattr(node, name).shape}")
        if not np.can_cast(np.result_type(delta), np.float64, "same_kind"):
            raise ValueError(f"node {j}: {name} delta of dtype {np.result_type(delta)} does not fit float64")
    for j, name, delta in updates:
        param = getattr(g.nodes[j], name)
        np.add(param, delta, out=param)
