"""Seeded defects: each mutant monkeypatches one node-kind or graph method
or relaxation helper, and its test asserts which check flags it. The
unpatched code passes the same check on the same case, so a flagged mutant
shows what the check can catch, not a case that fails anyway. A change to a
check that stops it flagging a mutant fails here, by the mutant's name.

The relaxation-side checks call the engine through the module, so that a
patched helper is the one they run. Where a check compares the engine with
itself (run_relaxation against relax_step taken T times, relax_step
against reference_step, updates against a fresh state's, the default read
set against every node), it calls the test kit's comparator for that
property, which the tier-1 tests call too. A new fast path adds one
comparator to the test kit, called by its tier-1 tests and by its check
here, and one MUTANTS row per seeded defect.
"""

from dataclasses import replace

import numpy as np
import pytest

from arelax import oracle, relaxation, tensor
from arelax.graph import ConvNode, DenseNode, Graph, MaxPoolNode, _Parametric, build, forward
from arelax.harness import (ExperimentConfig, GradcheckEntry, GradcheckOptions, _check_graph, _fd_entry,
                            rel_error, variant_substitutions)
from arelax.models import ModelSpec, reduced_spec
from arelax.oracle import backprop
from arelax.relaxation import BACKWARDS_MODES, ARConfig
from arelax.tensor import Rng

from arelax_testkit import (CONV_POOL_SPEC, SCOPED_CONFIGS, TWO_CONV_POOL_SPEC, default_read_vs_all, run_vs_steps,
                            spec_case, step_vs_reference, updates_vs_fresh)


def oracle_vs_fd():
    """harness.gradcheck's oracle-vs-finite-differences entry on the conv/pool
    graph: the oracle's parameter and input gradients against central
    differences of the forward sweep."""
    g, x, target = spec_case(CONV_POOL_SPEC, 41, 2)
    grads = backprop(g, forward(g, x), target)
    return _fd_entry("conv_pool", g, x, target, grads, GradcheckOptions())


def relaxation_case():
    """conv -> conv -> maxpool -> flatten -> dense, whose second conv and
    dense node both transport into relaxing parents."""
    g, x, target = spec_case(TWO_CONV_POOL_SPEC, 42, 2)
    return g, forward(g, x), target


def ar_vs_variant_oracle():
    """harness.gradcheck's relaxation-vs-oracle entry on the two-conv graph
    under each scoped setting and under unfreeze_relax_deriv alone, which
    re-evaluates the second conv's f': the relaxed activities against the
    backward pass with the setting's substitutions."""
    entries = []
    for ar in [*SCOPED_CONFIGS, ARConfig(unfreeze_relax_deriv=True)]:
        cfg = ExperimentConfig(model=ModelSpec("mlp4"), dataset="mnist", epochs=0, seeds=[0],
                               output="unused.csv", ar=ar)
        rng = Rng(42)
        _check_graph("two_conv_pool", build(TWO_CONV_POOL_SPEC, rng), rng, cfg, entries)
    return max((e for e in entries if e.check == "ar_vs_oracle"), key=lambda e: e.error)


def worst_entry(check: str, errs: dict, tolerance: float, label: str = "two_conv_pool") -> GradcheckEntry:
    """The entry for the worst of errs, keyed by (setting, node)."""
    worst = max(errs, key=errs.get)
    return GradcheckEntry(label, check, errs[worst], tolerance, worst[1])


def keyed(k, errs: dict) -> dict:
    """A comparator's errors keyed by (setting k, node)."""
    return {(k, i): e for i, e in errs.items()}


def steps_vs_reference():
    """relax_step against the test kit's reference_step, which states the
    variant rules again, over three steps from xbar under each scoped
    setting and under unfreeze_relax_deriv alone, which re-evaluates the
    second conv's f'."""
    g, acts, target = relaxation_case()
    errs = {}
    for k, cfg in enumerate([*SCOPED_CONFIGS, ARConfig(unfreeze_relax_deriv=True)]):
        errs.update(keyed(k, step_vs_reference(g, acts, target, cfg)[0]))
    return worst_entry("steps_vs_reference", errs, 1e-12)


def closed_form_vs_steps():
    """run_relaxation's closed form against relax_step taken T times, at
    every node, under baseline and the scoped settings with a closed form."""
    g, acts, target = relaxation_case()
    errs = {}
    for k, cfg in enumerate([ARConfig(), *SCOPED_CONFIGS]):
        if not cfg.unfreeze_relax_deriv:
            errs.update(keyed(k, run_vs_steps(g, acts, target, replace(cfg, n_iters=20), range(len(g.nodes)))[0]))
    return worst_entry("closed_form_vs_steps", errs, 1e-12)


def unfrozen_vs_steps():
    """run_relaxation under unfreeze_relax_deriv, at the nodes it reads by
    default, against relax_step taken T times over every node."""
    g, acts, target = relaxation_case()
    cfg = ARConfig(n_iters=20, unfreeze_relax_deriv=True)
    return worst_entry("unfrozen_vs_steps", keyed(0, run_vs_steps(g, acts, target, cfg)[0]), 0.0)


def updates_vs_fresh_state():
    """Under learned psi, the weight and psi updates after a relax_step
    that follows a weight_update, against those of the same activities in
    a state that never computed an update."""
    g, acts, target = relaxation_case()
    cfg = ARConfig(backwards_mode="learned_psi")
    s = relaxation.init_state(g, acts, target, cfg)
    relaxation.relax_step(g, s, cfg)
    relaxation.weight_update(g, s, cfg)
    relaxation.relax_step(g, s, cfg, iteration=1)
    return worst_entry("updates_vs_fresh_state", updates_vs_fresh(g, acts, target, s, cfg)[0], 0.0)


def tracked_vs_steps():
    """run_relaxation against relax_step taken T times over every node, on
    reduced mlp4 and reduced cnn, whose flatten and first conv are fed by
    the input alone and feed one node (a dense node; a max-pool), so that
    the unfrozen engine relaxes them in that node's width: mlp4 under
    unfrozen relax and weight f', cnn under unfrozen relax f', each plain
    and with learned psi scoped to the tracked node's kind."""
    errs = {}
    for name, unfrozen, scope in [("mlp4", {"unfreeze_weight_deriv": True}, "dense"), ("cnn", {}, "conv")]:
        g, x, target = spec_case(reduced_spec(ModelSpec(name)), 43, 2)
        acts = forward(g, x)
        for k, extra in enumerate([{}, {"backwards_mode": "learned_psi", "backwards_scope": scope}]):
            cfg = ARConfig(n_iters=20, unfreeze_relax_deriv=True, **unfrozen, **extra)
            errs.update(keyed((name, k), run_vs_steps(g, acts, target, cfg, range(len(g.nodes)))[0]))
    worst = max(errs, key=errs.get)
    return worst_entry("tracked_vs_steps", errs, 1e-12, label=f"{worst[0][0]}_reduced")


# conv -> conv -> flatten -> dense, with as many channels as kernel rows and
# columns, so that a conv mirror that transposes keeps psi's shape
SQUARE_CONV_SPEC = [
    {"kind": "input", "shape": (3, 6, 6)},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 2, "activation": "linear"},
]


def psi_transport_vs_col2im():
    """One relax_step from xbar under conv-scoped learned psi, at the first
    conv, against the second conv's transport into it written out from psi
    itself, in W's layout, not through ConvNode.mirror: every patch column's
    gradient, scattered back by tensor.col2im."""
    g, x, target = spec_case(SQUARE_CONV_SPEC, 44, 2)
    acts = forward(g, x)
    cfg = ARConfig(backwards_mode="learned_psi", backwards_scope="conv")
    s = relaxation.init_state(g, acts, target, cfg)
    relaxation.relax_step(g, s, cfg, read={1})
    psi, gz = g.nodes[2].psi, s.fprime_bar[2] * acts[2]
    cols_grad = np.matmul(psi.reshape(3, -1).T[None], gz.reshape(2, 3, -1))
    sent = tensor.col2im(cols_grad, 3, 3, 3, 4, 4)
    want = acts[1] + cfg.eta_x * (sent - acts[1])
    return worst_entry("psi_transport_vs_col2im", {(0, 1): rel_error(s.x[1], want)}, 1e-12,
                       label="square_conv")


def updates_under_two_settings():
    """Under learned psi, the weight and psi updates of one relaxed state
    under unfreeze_weight_deriv, computed after the baseline's weight update
    on the same state, against those of a state that never computed one."""
    g, acts, target = relaxation_case()
    cfg = ARConfig(n_iters=20, backwards_mode="learned_psi")
    s = relaxation.run_relaxation(g, acts, target, cfg, read=range(len(g.nodes)))
    relaxation.weight_update(g, s, cfg)
    unfrozen = replace(cfg, unfreeze_weight_deriv=True)
    return worst_entry("updates_under_two_settings", updates_vs_fresh(g, acts, target, s, unfrozen)[0], 0.0)


def default_read_vs_every_node():
    """run_relaxation under unfreeze_weight_activity with its default read
    set, against every node read, at the nodes the weight update reads: the
    parametric nodes and their parents. An activity the default run left
    out (None) is an infinite error."""
    g, acts, target = relaxation_case()
    cfg = ARConfig(n_iters=20, unfreeze_weight_activity=True)
    return worst_entry("default_read_vs_every_node", keyed(0, default_read_vs_all(g, acts, target, cfg)[0]), 0.0)


def updates_vs_oracle():
    """The parameters' change over one step at a batch of 3, the
    relaxation converged (eta_x = 1 reaches the fixed point exactly in as
    many steps as the graph is deep): weight_update and psi_update, added
    by apply_updates, against -eta times the variant oracle's parameter
    gradients (mirrored for psi), under baseline and learned psi."""
    errs = {}
    for mode in BACKWARDS_MODES:
        g, x, target = spec_case(TWO_CONV_POOL_SPEC, 45, 3)
        acts = forward(g, x)
        cfg = ARConfig(eta_x=1.0, n_iters=10, eta_theta=0.5, eta_psi=0.25, backwards_mode=mode)
        s = relaxation.run_relaxation(g, acts, target, cfg)
        grads = backprop(g, acts, target, **variant_substitutions(g, cfg, s))
        psi = mode == "learned_psi"
        before = {j: (g.nodes[j].weight.copy(), g.nodes[j].psi.copy()) for j in g.parametric_ids()}
        relaxation.apply_updates(g, relaxation.weight_update(g, s, cfg),
                                 relaxation.psi_update(g, s, cfg) if psi else None)
        for j, (w, p) in before.items():
            node = g.nodes[j]
            errs[(mode, "weight"), j] = rel_error(node.weight - w, -cfg.eta_theta * grads.param[j])
            if psi:
                errs[(mode, "psi"), j] = rel_error(node.psi - p, -cfg.eta_psi * node.mirror(grads.param[j]))
    return worst_entry("updates_vs_oracle", errs, 1e-9)


CHECKS = {f.__name__: f for f in (oracle_vs_fd, steps_vs_reference, closed_form_vs_steps,
                                  unfrozen_vs_steps, updates_vs_fresh_state, ar_vs_variant_oracle,
                                  tracked_vs_steps, psi_transport_vs_col2im, updates_under_two_settings,
                                  default_read_vs_every_node, updates_vs_oracle)}


def pool_vjp_to_window_corner(self, g, saved, back=None):
    """Routes every pooled cotangent to its window's top-left cell, whichever
    cell won the forward."""
    b, c, h2, w2 = g.shape
    out = np.zeros((b, c, 2 * h2, 2 * w2))
    out[:, :, ::2, ::2] = g
    return [out]


def scaled_outer(bare, factor=1.01):
    """outer scaled by factor: every weight gradient too large."""
    def outer(self, gz, saved):
        return factor * bare(self, gz, saved)
    return outer


def scaled_vjp(bare, factor=1.01):
    """vjp scaled by factor: every cotangent it passes up too large."""
    def vjp(self, gz, saved, back=None):
        return [factor * c for c in bare(self, gz, saved, back)]
    return vjp


def input_fill_scoring_sample_0(bare):
    """finite_diff's input copies, each scored against sample 0's target
    row instead of its own sample's."""
    def input_fill(x, h):
        fill = bare(x, h)
        return lambda out, k0, n: np.zeros_like(fill(out, k0, n))
    return input_fill


def vjp_without_offset_00(bare):
    """The conv vjp with kernel offset (0, 0) left out of the transport."""
    def vjp(self, gz, saved, back=None):
        k = (self.weight if back is None else back).copy()
        k[:, :, 0, 0] = 0.0
        return bare(self, gz, saved, k)
    return vjp


def vjp_samples_reversed(bare):
    """The conv vjp with its output samples in reverse order, as a wrong
    axis order out of the batch-innermost gradient would give."""
    def vjp(self, gz, saved, back=None):
        return [c[::-1] for c in bare(self, gz, saved, back)]
    return vjp


def vjp_kernel_rows_flipped(bare):
    """The conv vjp with the kernel rows of its back matrix in reverse
    order, as a wrong row index into the per-row back matrices would give."""
    def vjp(self, gz, saved, back=None):
        return bare(self, gz, saved, (self.weight if back is None else back)[:, :, ::-1])
    return vjp


def scale_keeping_dropped_fprime(bare):
    """_scale_by_fprime applying f' where the config drops it."""
    def scale(g, s, cfg, j, v, unfrozen):
        return bare(g, s, replace(cfg, nonlinearity_mode="exact"), j, v, unfrozen)
    return scale


def in_scope_swapping_kinds(bare):
    """_in_scope with the conv and dense scopes swapped."""
    return lambda node, scope: bare(node, {"conv": "dense", "dense": "conv"}.get(scope, scope))


def fprime_at_sweep(bare):
    """_scale_by_fprime taking f' at the sweep even where it is unfrozen."""
    return lambda g, s, cfg, j, v, unfrozen: bare(g, s, cfg, j, v, False)


def eps_bar_scaled(bare):
    """init_state with the output error 1e-5 too large, relative."""
    def init_state(g, acts, target, cfg):
        s = bare(g, acts, target, cfg)
        s.eps_bar = s.eps_bar * (1 + 1e-5)
        return s
    return init_state


def cascade_one_step_more(bare):
    """_cascade_coefficients for one step more than the closed form takes."""
    return lambda steps, depth, eta: bare(steps + 1, depth, eta)


def cascade_one_level_short(bare):
    """_cascade_coefficients for one level fewer than the live sets reach:
    the Horner sweeps pruned one level short."""
    return lambda steps, depth, eta: bare(steps, max(depth - 1, 0), eta)


def step_keeping_outers(bare):
    """relax_step leaving s.outers as it found it instead of emptying it."""
    def relax_step(g, s, cfg, **kw):
        kept = dict(s.outers)
        bare(g, s, cfg, **kw)
        s.outers.update(kept)
        return s
    return relax_step


def gram_from_weight(bare):
    """_InputFed with G = W W^T, as if the child transported through W, where
    learned psi gives it another back matrix."""
    def init(self, g, s, cfg, p):
        bare(self, g, s, cfg, p)
        if self.gram is not None:
            self.gram = self.node.weight @ self.node.weight.T
    return init


def rebuild_one_decay_short(bare):
    """_InputFed.rebuild with xbar's share decayed one step too few."""
    return lambda self, s, steps, eta: bare(self, s, steps - 1, eta)


def rebuild_through_weight(bare):
    """_InputFed.rebuild calling the child's VJP without its back matrix, so
    that it transports through W where learned psi gives another."""
    def rebuild(self, s, steps, eta):
        back, self.back = self.back, None
        bare(self, s, steps, eta)
        self.back = back
    return rebuild


def advance_keeping_z(bare):
    """_InputFed.advance that never moves z, so f' stays at the sweep's."""
    def advance(self, x_c, eta, t):
        z = self.z
        bare(self, x_c, eta, t)
        self.z = z
    return advance


def outer_keyed_on_node_id(bare):
    """_update_outer returning any product cached for node j, whatever
    weight-side settings it was computed under."""
    def update_outer(g, s, cfg, j):
        cached = [out for key, out in s.outers.items() if key[0] == j]
        return cached[0] if cached else bare(g, s, cfg, j)
    return update_outer


def mean_on_both_operands(bare):
    """_update_outer dividing by the batch on the cotangent and again on the
    product."""
    return lambda g, s, cfg, j: bare(g, s, cfg, j) / s.x[j].shape[0]


def apply_into_deltas(g, weight_deltas, psi_deltas=None):
    """apply_updates adding each parameter into its delta in place, which
    leaves the parameters as they were."""
    for name, deltas in (("weight", weight_deltas), ("psi", psi_deltas or {})):
        for j, delta in deltas.items():
            np.add(getattr(g.nodes[j], name), delta, out=delta)


def read_set_without_parents(g, cfg, read):
    """_read_set whose default is the parametric nodes alone, whatever the
    weight-side settings re-read."""
    return set(g.parametric_ids() if read is None else read) - {g.input}


# name: (class or module, attribute, replacement, the check that flags it)
MUTANTS = {
    "maxpool_vjp_to_window_corner": (MaxPoolNode, "vjp", pool_vjp_to_window_corner, "oracle_vs_fd"),
    "dense_outer_x1.01": (DenseNode, "outer", scaled_outer(DenseNode.outer), "oracle_vs_fd"),
    "dense_vjp_x1.01": (DenseNode, "vjp", scaled_vjp(DenseNode.vjp), "oracle_vs_fd"),
    "conv_outer_x1.01": (ConvNode, "outer", scaled_outer(ConvNode.outer), "oracle_vs_fd"),
    "conv_vjp_x1.01": (ConvNode, "vjp", scaled_vjp(ConvNode.vjp), "oracle_vs_fd"),
    "conv_vjp_drops_offset_00": (ConvNode, "vjp", vjp_without_offset_00(ConvNode.vjp), "oracle_vs_fd"),
    "conv_vjp_samples_reversed": (ConvNode, "vjp", vjp_samples_reversed(ConvNode.vjp), "oracle_vs_fd"),
    "conv_vjp_kernel_rows_flipped": (ConvNode, "vjp", vjp_kernel_rows_flipped(ConvNode.vjp), "oracle_vs_fd"),
    "fprime_identity": (_Parametric, "fprime", lambda self, out: None, "oracle_vs_fd"),
    # within the old 1e-4 fd_tolerance, so only the tightened one flags them
    "dense_outer_x(1+1e-6)": (DenseNode, "outer", scaled_outer(DenseNode.outer, 1 + 1e-6), "oracle_vs_fd"),
    "dense_vjp_x(1+1e-6)": (DenseNode, "vjp", scaled_vjp(DenseNode.vjp, 1 + 1e-6), "oracle_vs_fd"),
    "fd_input_scored_against_sample_0": (oracle, "_input_fill", input_fill_scoring_sample_0(oracle._input_fill),
                                         "oracle_vs_fd"),
    "drops_nonlinearity_ignores_scope": (relaxation, "_drops_nonlinearity",
                                         lambda node, cfg: cfg.nonlinearity_mode == "dropped",
                                         "steps_vs_reference"),
    "uses_psi_ignores_scope": (relaxation, "_uses_psi",
                               lambda node, cfg: cfg.backwards_mode == "learned_psi", "steps_vs_reference"),
    "scale_by_fprime_keeps_dropped_fprime": (relaxation, "_scale_by_fprime",
                                             scale_keeping_dropped_fprime(relaxation._scale_by_fprime),
                                             "steps_vs_reference"),
    "cascade_one_step_more": (relaxation, "_cascade_coefficients",
                              cascade_one_step_more(relaxation._cascade_coefficients), "closed_form_vs_steps"),
    "cascade_one_level_short": (relaxation, "_cascade_coefficients",
                                cascade_one_level_short(relaxation._cascade_coefficients), "closed_form_vs_steps"),
    "relax_step_keeps_outers": (relaxation, "relax_step", step_keeping_outers(relaxation.relax_step),
                                "updates_vs_fresh_state"),
    # run_relaxation's unfrozen steps before the last reach the read set alone
    "below_reaches_nothing": (Graph, "below", lambda self, nodes: [], "unfrozen_vs_steps"),
    "in_scope_swaps_kinds": (relaxation, "_in_scope", in_scope_swapping_kinds(relaxation._in_scope),
                             "ar_vs_variant_oracle"),
    "unfrozen_fprime_at_sweep": (relaxation, "_scale_by_fprime", fprime_at_sweep(relaxation._scale_by_fprime),
                                 "ar_vs_variant_oracle"),
    "unfrozen_fprime_at_sweep_in_steps": (relaxation, "_scale_by_fprime",
                                          fprime_at_sweep(relaxation._scale_by_fprime), "steps_vs_reference"),
    # within 1e-3, so only the tightened gate flags it
    "eps_bar_x(1+1e-5)": (relaxation, "init_state", eps_bar_scaled(relaxation.init_state),
                          "ar_vs_variant_oracle"),
    "tracked_gram_from_weight": (relaxation._InputFed, "__init__", gram_from_weight(relaxation._InputFed.__init__),
                                 "tracked_vs_steps"),
    "tracked_rebuild_one_decay_short": (relaxation._InputFed, "rebuild",
                                        rebuild_one_decay_short(relaxation._InputFed.rebuild), "tracked_vs_steps"),
    "tracked_z_never_advanced": (relaxation._InputFed, "advance", advance_keeping_z(relaxation._InputFed.advance),
                                 "tracked_vs_steps"),
    "tracked_rebuild_through_weight": (relaxation._InputFed, "rebuild",
                                       rebuild_through_weight(relaxation._InputFed.rebuild), "tracked_vs_steps"),
    # the engine's one back-matrix rule, which every VJP call takes, and its
    # one live-f' rule, which the transport, the updates and the choice of
    # tracked node take
    "back_ignores_psi": (relaxation, "_back", lambda node, cfg: None, "steps_vs_reference"),
    "live_fprime_ignores_dropped": (relaxation, "_live_fprime", lambda g, s, cfg, j: j in s.fprime_bar,
                                    "steps_vs_reference"),
    # the engine and the variant oracle read psi through the same mirror
    "conv_mirror_swaps_channels": (ConvNode, "mirror", staticmethod(lambda m: m.transpose(1, 0, 2, 3)),
                                   "psi_transport_vs_col2im"),
    "conv_mirror_swaps_spatial_axes": (ConvNode, "mirror", staticmethod(lambda m: m.transpose(0, 1, 3, 2)),
                                       "psi_transport_vs_col2im"),
    "conv_mirror_reverses_all_axes": (ConvNode, "mirror", staticmethod(lambda m: m.transpose(3, 2, 1, 0)),
                                      "psi_transport_vs_col2im"),
    "outer_cache_keyed_on_node_id": (relaxation, "_update_outer", outer_keyed_on_node_id(relaxation._update_outer),
                                     "updates_under_two_settings"),
    "read_set_without_parents": (relaxation, "_read_set", read_set_without_parents, "default_read_vs_every_node"),
    # updates_vs_fresh_state and updates_under_two_settings compare the
    # update code with itself, so neither sees a wrong batch mean or add
    "update_mean_on_both_operands": (relaxation, "_update_outer", mean_on_both_operands(relaxation._update_outer),
                                     "updates_vs_oracle"),
    "apply_adds_into_the_deltas": (relaxation, "apply_updates", apply_into_deltas, "updates_vs_oracle"),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_unpatched_graph_passes(check):
    entry = CHECKS[check]()
    assert entry.ok, entry


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_flagged(monkeypatch, name):
    cls, method, replacement, check = MUTANTS[name]
    monkeypatch.setattr(cls, method, replacement)
    entry = CHECKS[check]()
    assert not entry.ok, entry
