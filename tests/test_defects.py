"""Seeded defects: each mutant monkeypatches one node-kind or graph method
or relaxation helper, and its test asserts which check flags it. The
unpatched code passes the same check on the same case, so a flagged mutant
shows what the check can catch, not a case that fails anyway. A change to a
check that stops it flagging a mutant fails here, by the mutant's name.

The relaxation-side checks call the engine through the module, so that a
patched helper is the one they run.
"""

from dataclasses import replace

import numpy as np
import pytest

from arelax import oracle, relaxation
from arelax.graph import ConvNode, DenseNode, Graph, MaxPoolNode, _Parametric, build, forward
from arelax.harness import (ExperimentConfig, GradcheckEntry, GradcheckOptions, _check_graph, _fd_entry,
                            random_case, rel_error)
from arelax.models import ModelSpec
from arelax.oracle import backprop
from arelax.relaxation import ARConfig
from arelax.tensor import Rng

from arelax_testkit import CONV_POOL_SPEC, SCOPED_CONFIGS, TWO_CONV_POOL_SPEC, reference_step


def oracle_vs_fd():
    """harness.gradcheck's oracle-vs-finite-differences entry on the conv/pool
    graph: the oracle's parameter and input gradients against central
    differences of the forward sweep."""
    rng = Rng(41)
    g = build(CONV_POOL_SPEC, rng)
    x, target = random_case(g, rng, 2)
    grads = backprop(g, forward(g, x), target)
    return _fd_entry("conv_pool", g, x, target, grads, GradcheckOptions())


def relaxation_case():
    """conv -> conv -> maxpool -> flatten -> dense, whose second conv and
    dense node both transport into relaxing parents."""
    rng = Rng(42)
    g = build(TWO_CONV_POOL_SPEC, rng)
    x, target = random_case(g, rng, 2)
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


def worst_entry(check: str, errs: dict, tolerance: float) -> GradcheckEntry:
    """The entry for the worst of errs, keyed by (setting, node)."""
    worst = max(errs, key=errs.get)
    return GradcheckEntry("two_conv_pool", check, errs[worst], tolerance, worst[1])


def steps_vs_reference():
    """relax_step against the test kit's reference_step, which states the
    variant rules again, over three steps from xbar under each scoped
    setting and under unfreeze_relax_deriv alone, which re-evaluates the
    second conv's f'."""
    g, acts, target = relaxation_case()
    errs = {}
    for k, cfg in enumerate([*SCOPED_CONFIGS, ARConfig(unfreeze_relax_deriv=True)]):
        s, ref = relaxation.init_state(g, acts, target, cfg), relaxation.init_state(g, acts, target, cfg)
        for it in range(3):
            relaxation.relax_step(g, s, cfg, iteration=it)
            reference_step(g, ref, cfg)
        errs.update({(k, i): rel_error(s.x[i], ref.x[i]) for i in range(len(g.nodes))})
    return worst_entry("steps_vs_reference", errs, 1e-12)


def closed_form_vs_steps():
    """run_relaxation's closed form against relax_step taken T times, at
    every node, under baseline and the scoped settings with a closed form."""
    g, acts, target = relaxation_case()
    errs = {}
    for k, cfg in enumerate([ARConfig(), *SCOPED_CONFIGS]):
        if cfg.unfreeze_relax_deriv:
            continue
        cfg = replace(cfg, n_iters=20)
        got = relaxation.run_relaxation(g, acts, target, cfg, read=range(len(g.nodes)))
        want = relaxation.init_state(g, acts, target, cfg)
        for it in range(cfg.n_iters):
            relaxation.relax_step(g, want, cfg, iteration=it)
        errs.update({(k, i): rel_error(got.x[i], want.x[i]) for i in range(len(g.nodes))})
    return worst_entry("closed_form_vs_steps", errs, 1e-12)


def unfrozen_vs_steps():
    """run_relaxation under unfreeze_relax_deriv, at the nodes it reads by
    default, against relax_step taken T times over every node."""
    g, acts, target = relaxation_case()
    cfg = ARConfig(n_iters=20, unfreeze_relax_deriv=True)
    got = relaxation.run_relaxation(g, acts, target, cfg)
    want = relaxation.init_state(g, acts, target, cfg)
    for it in range(cfg.n_iters):
        relaxation.relax_step(g, want, cfg, iteration=it)
    errs = {(0, i): rel_error(x, want.x[i]) for i, x in enumerate(got.x) if x is not None}
    return worst_entry("unfrozen_vs_steps", errs, 0.0)


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
    fresh = replace(s, outers={})
    errs = {}
    for k, update in enumerate([relaxation.weight_update, relaxation.psi_update]):
        got, want = update(g, s, cfg), update(g, fresh, cfg)
        errs.update({(k, j): rel_error(got[j], want[j]) for j in want})
    return worst_entry("updates_vs_fresh_state", errs, 0.0)


CHECKS = {f.__name__: f for f in (oracle_vs_fd, steps_vs_reference, closed_form_vs_steps,
                                  unfrozen_vs_steps, updates_vs_fresh_state, ar_vs_variant_oracle)}


def pool_vjp_to_window_corner(self, g, saved):
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


# name: (class or module, attribute, replacement, the check that flags it).
# No check here flags a conv mirror that transposes (the engine and the
# variant oracle read psi through the same mirror), an outer-product cache
# keyed on the node id alone, or a default read set without the parents
# under unfreeze_weight_activity, so they have no row.
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
