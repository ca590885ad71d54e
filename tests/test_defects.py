"""Seeded defects: each mutant monkeypatches one node-kind method, and its
test asserts which check flags it. The unpatched graph passes the same
check on the same case, so a flagged mutant shows what the check can
catch, not a case that fails anyway. A change to a check that stops it
flagging a mutant fails here, by the mutant's name.
"""

import numpy as np
import pytest

from arelax.graph import ConvNode, DenseNode, MaxPoolNode, _Parametric, build, forward
from arelax.harness import GradcheckOptions, _fd_entry, random_case
from arelax.oracle import backprop
from arelax.tensor import Rng

from arelax_testkit import CONV_POOL_SPEC


def oracle_vs_fd():
    """harness.gradcheck's oracle-vs-finite-differences entry on the conv/pool
    graph: the oracle's parameter and input gradients against central
    differences of the forward sweep."""
    rng = Rng(41)
    g = build(CONV_POOL_SPEC, rng)
    x, target = random_case(g, rng, 2)
    grads = backprop(g, forward(g, x), target)
    return _fd_entry("conv_pool", g, x, target, grads, GradcheckOptions())


CHECKS = {"oracle_vs_fd": oracle_vs_fd}


def pool_vjp_to_window_corner(self, g, saved):
    """Routes every pooled cotangent to its window's top-left cell, whichever
    cell won the forward."""
    b, c, h2, w2 = g.shape
    out = np.zeros((b, c, 2 * h2, 2 * w2))
    out[:, :, ::2, ::2] = g
    return [out]


def scaled_outer(bare):
    """outer scaled by 1.01: every weight gradient 1% too large."""
    def outer(self, gz, saved):
        return 1.01 * bare(self, gz, saved)
    return outer


def scaled_vjp(bare):
    """vjp scaled by 1.01: every cotangent it passes up 1% too large."""
    def vjp(self, gz, saved, back=None):
        return [1.01 * c for c in bare(self, gz, saved, back)]
    return vjp


def vjp_without_offset_00(bare):
    """The conv vjp with kernel offset (0, 0) left out of the transport."""
    def vjp(self, gz, saved, back=None):
        k = (self.weight if back is None else back).copy()
        k[:, :, 0, 0] = 0.0
        return bare(self, gz, saved, k)
    return vjp


# name: (class, method, replacement, the check that flags it)
MUTANTS = {
    "maxpool_vjp_to_window_corner": (MaxPoolNode, "vjp", pool_vjp_to_window_corner, "oracle_vs_fd"),
    "dense_outer_x1.01": (DenseNode, "outer", scaled_outer(DenseNode.outer), "oracle_vs_fd"),
    "dense_vjp_x1.01": (DenseNode, "vjp", scaled_vjp(DenseNode.vjp), "oracle_vs_fd"),
    "conv_outer_x1.01": (ConvNode, "outer", scaled_outer(ConvNode.outer), "oracle_vs_fd"),
    "conv_vjp_x1.01": (ConvNode, "vjp", scaled_vjp(ConvNode.vjp), "oracle_vs_fd"),
    "conv_vjp_drops_offset_00": (ConvNode, "vjp", vjp_without_offset_00(ConvNode.vjp), "oracle_vs_fd"),
    "fprime_identity": (_Parametric, "fprime", lambda self, out: None, "oracle_vs_fd"),
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
