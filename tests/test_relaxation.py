import warnings
from dataclasses import replace

import numpy as np
import pytest

from arelax import models, relaxation, tensor
from arelax.graph import ConvNode, DenseNode, InputNode, MaxPoolNode, build, forward
from arelax.harness import (
    node_rel_errors,
    random_case,
    random_chain_spec,
    rel_error,
    skip_dag_spec,
    variant_substitutions,
)
from arelax.oracle import backprop, loss_mse
from arelax.relaxation import (
    DIVERGENCE_LIMIT,
    ARConfig,
    DivergenceError,
    apply_updates,
    init_state,
    psi_update,
    relax_step,
    run_relaxation,
    weight_update,
)
from arelax.tensor import Rng

from arelax_testkit import (
    ADD_FROM_INPUT_SPEC,
    CONV_POOL_SPEC,
    SCOPED_CONFIGS,
    TWO_CONV_POOL_SPEC,
    default_read_vs_all,
    on_every_conv_dag,
    run_vs_steps,
    scalar_chain,
    spec_case,
    step_by_step,
    step_vs_reference,
    update_errors,
    updates_vs_fresh,
)


def random_mlp(seed: int, batch: int = 4):
    rng = Rng(seed)
    g = build(random_chain_spec(rng, max_depth=4, max_width=16), rng)
    x, t = random_case(g, rng, batch)
    return g, x, t


# two branches that meet only at an add node, whose VJP sends one array
# to both
DIAMOND_SPEC = [
    {"kind": "input", "shape": (5,)},
    {"kind": "dense", "units": 6, "activation": "tanh"},
    {"kind": "dense", "units": 6, "activation": "tanh", "parents": [1]},
    {"kind": "dense", "units": 6, "activation": "linear", "parents": [1]},
    {"kind": "add", "parents": [2, 3]},
    {"kind": "dense", "units": 3, "activation": "linear"},
]

GRAPHS = {
    "chain_a": lambda: random_mlp(80),
    "chain_b": lambda: random_mlp(81),
    "conv_pool": lambda: spec_case(TWO_CONV_POOL_SPEC, 32, 3),
    "skip_dag": lambda: spec_case(skip_dag_spec(width=8, class_count=4), 30, 4),
    "add_from_input": lambda: spec_case(ADD_FROM_INPUT_SPEC, 33, 4),
    "diamond": lambda: spec_case(DIAMOND_SPEC, 34, 3),
}


def longest_relaxing_path(g) -> int:
    """Edges on the longest path that avoids the input node."""
    depth = {}
    for j in g.topo_order:
        if not isinstance(g.nodes[j], InputNode):
            depth[j] = max([depth[p] + 1 for p in g.parent_ids[j] if p in depth], default=0)
    return max(depth.values())


def assert_deltas_equal(deltas):
    """Each update's deltas of the two states (update_errors) bit for bit."""
    for got, want in deltas.values():
        assert got.keys() == want.keys()
        for j in want:
            np.testing.assert_array_equal(got[j], want[j])


def assert_engines_agree(g, acts, t, cfg, tol=1e-12):
    errs, got, want = run_vs_steps(g, acts, t, cfg, range(len(g.nodes)))
    where = f"T={cfg.n_iters} eta_x={cfg.eta_x}"
    assert errs.keys() == set(range(len(g.nodes))), where
    for i, e in errs.items():
        assert e <= tol, f"node {i}, {where}"
    # max|dx| is a difference of activities, so its rounding floor is set by
    # the activities' scale, not by its own size (it reaches 0 at convergence)
    scale = max(want.last_max_dx, max(float(np.max(np.abs(a))) for a in want.x))
    assert abs(got.last_max_dx - want.last_max_dx) <= tol * scale, where
    errs, deltas = update_errors(g, cfg, got, want)
    assert all(a.keys() == b.keys() for a, b in deltas.values()), where
    for (name, j), e in errs.items():
        assert e <= tol, f"{name} {j}, {where}"


STEP_CONFIGS = [
    ARConfig(),
    ARConfig(backwards_mode="learned_psi"),
    ARConfig(unfreeze_relax_deriv=True),
    *SCOPED_CONFIGS,
]


def assert_steps_match_reference(g, acts, t, cfg, steps=3):
    """relax_step against the two-pass reference_step over a few steps from
    xbar: bit for bit when no node has two relaxing children (a chain), else
    to 1e-12, since a multi-child sum is taken in another order."""
    errs, s, ref = step_vs_reference(g, acts, t, cfg, steps)
    children = [sum(p == i for ps in g.parent_ids for p in ps) for i in range(len(g.nodes))]
    if all(n <= 1 for i, n in enumerate(children) if i != g.input):
        for a, b in zip(s.x, ref.x):
            np.testing.assert_array_equal(a, b)
        assert s.last_max_dx == ref.last_max_dx
    else:
        assert max(errs.values()) <= 1e-12
        scale = max(float(np.max(np.abs(a))) for a in ref.x)
        assert abs(s.last_max_dx - ref.last_max_dx) <= 1e-12 * scale


def relaxes_to_variant_oracle(g, acts, t, cfg) -> float:
    """Worst per-node error of the relaxation at T=800 against the variant
    oracle; at T=400 the finite-T transient on an 11-node graph is 1e-9."""
    s = run_relaxation(g, acts, t, replace(cfg, n_iters=800), read=range(len(g.nodes)))
    grads = backprop(g, acts, t, **variant_substitutions(g, cfg, s))
    return max(node_rel_errors(g, s, grads, acts[g.input].shape[0]).values())


class TestARConfig:
    def test_defaults_match_reference_hyperparameters(self):
        cfg = ARConfig()
        assert cfg.eta_x == 0.1
        assert cfg.n_iters == 100
        assert cfg.eta_theta == 0.0005
        assert cfg.eta_psi == cfg.eta_theta

    @pytest.mark.parametrize("kwargs", [
        {"eta_x": 0.0}, {"eta_x": 1.5}, {"n_iters": 0},
        {"backwards_mode": "sideways"}, {"nonlinearity_mode": "sometimes"},
        {"backwards_scope": "pool"}, {"nonlinearity_scope": "pool"},
        {"eta_theta": np.nan}, {"eta_theta": np.inf}, {"eta_theta": -1e-3},
        {"eta_psi": np.nan}, {"eta_psi": -np.inf}, {"eta_psi": -1e-3},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ARConfig(**kwargs)


class TestRelaxStep:
    def test_oracle_gradients_are_a_fixed_point(self):
        # batch 1 chain: transported gradients reproduce themselves exactly
        g, x, t = random_mlp(0, batch=1)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        cfg = ARConfig()
        s = init_state(g, acts, t, cfg)
        for i in range(len(g.nodes)):
            if not isinstance(g.nodes[i], InputNode):
                s.x[i] = grads.node[i].copy()
        before = [a.copy() for a in s.x]
        relax_step(g, s, cfg)
        for i in range(len(g.nodes)):
            if not isinstance(g.nodes[i], InputNode):
                np.testing.assert_array_equal(s.x[i], before[i])
        assert s.last_max_dx == 0.0

    def test_scalar_chain_equilibrium(self):
        g = scalar_chain()
        acts = forward(g, [[1.0]])
        s = run_relaxation(g, acts, [[0.0]], ARConfig(n_iters=500))
        assert s.x[2][0, 0] == pytest.approx(6.0, abs=1e-12)
        assert s.x[1][0, 0] == pytest.approx(18.0, abs=1e-10)

    def test_synchronous_update_order_independent(self):
        # dx must come from pre-step values only: the children-first sweep
        # gives what a two-pass step gives
        for name in sorted(GRAPHS):
            g, x, t = GRAPHS[name]()
            for cfg in STEP_CONFIGS:
                assert_steps_match_reference(g, forward(g, x), t, cfg)

    def test_synchronous_update_matches_reference_on_random_dags(self):
        on_every_conv_dag(lambda g, x, t, cfg: assert_steps_match_reference(g, forward(g, x), t, cfg),
                          STEP_CONFIGS)

    def test_frozen_quantities_unchanged_across_steps(self):
        g, x, t = random_mlp(1)
        acts = forward(g, x)
        cfg = ARConfig()
        s = init_state(g, acts, t, cfg)
        frozen = {
            "xbar": [a.tobytes() for a in s.xbar],
            "saved": [None if a is None else a.tobytes() for a in s.saved],
            "eps": s.eps_bar.tobytes(),
            "fp": {j: a.tobytes() for j, a in s.fprime_bar.items()},
        }
        for it in range(50):
            relax_step(g, s, cfg, iteration=it)
        assert [a.tobytes() for a in s.xbar] == frozen["xbar"]
        assert [None if a is None else a.tobytes() for a in s.saved] == frozen["saved"]
        assert s.eps_bar.tobytes() == frozen["eps"]
        assert {j: a.tobytes() for j, a in s.fprime_bar.items()} == frozen["fp"]

    def test_divergence_reports_node_and_iteration(self):
        spec = [{"kind": "input", "shape": (1,)}]
        for k in range(3):
            spec.append({
                "kind": "dense", "units": 1, "activation": "linear",
                "weight": [[50.0]], "psi": [[1.0]],
            })
        g = build(spec)
        acts = forward(g, [[1.0]])
        with pytest.raises(DivergenceError) as exc:
            run_relaxation(g, acts, [[0.0]], ARConfig(n_iters=200))
        assert exc.value.node >= 1
        assert exc.value.iteration >= 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 * DIVERGENCE_LIMIT, -10 * DIVERGENCE_LIMIT])
    def test_guard_trips_on_nonfinite_or_large_activity(self, bad):
        g, x, t = random_mlp(4)
        acts = forward(g, x)
        cfg = ARConfig()
        s = init_state(g, acts, t, cfg)
        first = next(i for i, ps in enumerate(g.parent_ids) if g.input in ps)   # earliest guarded node
        # replaced, not written into: s.x[first] is the sweep's own array
        x = s.x[first].copy()
        x[0, 0] = bad
        s.x[first] = x
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as exc:
            relax_step(g, s, cfg, iteration=7)
        assert (exc.value.node, exc.value.iteration) == (first, 7)

    def test_overflow_in_an_unfrozen_fprime_is_a_divergence(self):
        # a relaxing parent activity of 1e6, inside the guard, times the
        # child's weight of 1e303 overflows the child's re-evaluated forward
        g = build([
            {"kind": "input", "shape": (1,)},
            {"kind": "dense", "units": 1, "activation": "linear", "weight": [[1.0]], "psi": [[1.0]]},
            {"kind": "dense", "units": 1, "activation": "tanh", "weight": [[1e303]], "psi": [[1.0]]},
            {"kind": "dense", "units": 1, "activation": "linear", "weight": [[1.0]], "psi": [[1.0]]},
        ])
        acts = forward(g, [[1e-300]])
        cfg = ARConfig(unfreeze_relax_deriv=True)
        s = init_state(g, acts, [[0.0]], cfg)
        s.x[1] = np.full((1, 1), 1e6)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            relax_step(g, s, cfg, iteration=5)
        assert (exc.value.node, exc.value.iteration) == (2, 5)
        assert "DenseNode forward" in str(exc.value)


SWEEP_READERS = [
    {},
    {"unfreeze_relax_deriv": True},
    {"backwards_mode": "learned_psi"},
    {"backwards_mode": "learned_psi", "unfreeze_relax_deriv": True},
    {"unfreeze_weight_deriv": True},
    {"unfreeze_weight_activity": True},
    {"backwards_mode": "learned_psi", "unfreeze_relax_deriv": True,
     "unfreeze_weight_deriv": True, "unfreeze_weight_activity": True},
]


@pytest.mark.parametrize("variant", SWEEP_READERS)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_relaxation_and_updates_leave_the_sweep_unchanged(graph, variant):
    """init_state starts x as the sweep's own arrays, so neither engine nor
    the updates may write into one: every array of the Sweep and of its
    saved list is byte-identical afterwards."""
    g, x, t = GRAPHS[graph]()
    acts = forward(g, x)

    def snapshot():
        return ([a.tobytes() for a in acts],
                [None if a is None else a.tobytes() for a in acts.saved])

    before = snapshot()
    cfg = ARConfig(n_iters=7, **variant)
    for read in (None, range(len(g.nodes))):
        s = run_relaxation(g, acts, t, cfg, read=read)
        weight_update(g, s, cfg)
        if cfg.backwards_mode == "learned_psi":
            psi_update(g, s, cfg)
        assert snapshot() == before


class TestClosedForm:
    """run_relaxation's closed-form engine against the step-by-step engine."""

    @pytest.mark.parametrize("eta_x", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_matches_step_by_step_at_every_budget(self, graph, eta_x):
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        d = longest_relaxing_path(g)
        for n_iters in sorted({1, 2, d, d + 1, 50, 100, 500}):
            assert_engines_agree(g, acts, t, ARConfig(eta_x=eta_x, n_iters=n_iters))

    def test_matches_step_by_step_on_random_dags(self):
        def check(g, x, t, n_iters, eta_x):
            assert_engines_agree(g, forward(g, x), t, ARConfig(eta_x=eta_x, n_iters=n_iters))
        on_every_conv_dag(check, [1, 2, 7, 30], [0.1, 0.5, 1.0])

    @pytest.mark.parametrize("variant", [
        {"backwards_mode": "learned_psi"},
        {"backwards_mode": "learned_psi", "backwards_scope": "conv"},
        {"backwards_mode": "learned_psi", "backwards_scope": "dense"},
        {"nonlinearity_mode": "dropped"},
        {"nonlinearity_mode": "dropped", "nonlinearity_scope": "conv"},
        {"unfreeze_weight_deriv": True},
        {"unfreeze_weight_activity": True},
        {"unfreeze_weight_deriv": True, "unfreeze_weight_activity": True,
         "backwards_mode": "learned_psi", "nonlinearity_mode": "dropped"},
    ])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_matches_step_by_step_on_variants(self, graph, variant):
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        d = longest_relaxing_path(g)
        for eta_x, n_iters in [(0.1, d + 1), (0.1, 100), (0.5, 50)]:
            assert_engines_agree(g, acts, t, ARConfig(eta_x=eta_x, n_iters=n_iters, **variant))

    @pytest.mark.parametrize("variant, steps", [
        ({}, 1),
        ({"backwards_mode": "learned_psi"}, 1),
        ({"nonlinearity_mode": "dropped"}, 1),
        ({"unfreeze_weight_deriv": True, "unfreeze_weight_activity": True}, 1),
        ({"unfreeze_relax_deriv": True}, 37),
        ({"unfreeze_relax_deriv": True, "unfreeze_weight_deriv": True}, 37),
    ])
    def test_engine_choice(self, monkeypatch, variant, steps):
        iterations = []
        reference = relaxation.relax_step

        def counting(*args, **kwargs):
            iterations.append(kwargs["iteration"])
            return reference(*args, **kwargs)

        monkeypatch.setattr(relaxation, "relax_step", counting)
        g, x, t = random_mlp(82)
        run_relaxation(g, forward(g, x), t, ARConfig(n_iters=37, **variant))
        assert iterations == list(range(37 - steps, 37))

    def test_overflowing_sweep_is_a_divergence(self):
        # the forward sweep stays finite, the transports overflow to inf
        spec = [{"kind": "input", "shape": (1,)}]
        for _ in range(3):
            spec.append({"kind": "dense", "units": 1, "activation": "linear",
                         "weight": [[1e100]], "psi": [[1.0]]})
        g = build(spec)
        acts = forward(g, [[1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
            run_relaxation(g, acts, [[0.0]], ARConfig(n_iters=50))
        assert exc.value.iteration == 49

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_no_transport_into_the_input(self, monkeypatch, graph):
        # under both engines a node whose parents are all the input runs no
        # VJP, and the input's activity stays xbar
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        ran = set()
        for j, node in enumerate(g.nodes):
            if hasattr(node, "vjp"):
                monkeypatch.setattr(node, "vjp", lambda *a, _j=j, _vjp=node.vjp: ran.add(_j) or _vjp(*a))
        fed_by_input = {j for j, ps in enumerate(g.parent_ids) if ps and set(ps) == {g.input}}
        assert fed_by_input
        for cfg in (ARConfig(n_iters=5), ARConfig(n_iters=5, unfreeze_relax_deriv=True)):
            s = init_state(g, acts, t, cfg)
            xbar = s.x[g.input]
            relax_step(g, s, cfg)
            assert s.x[g.input] is xbar
            np.testing.assert_array_equal(run_relaxation(g, acts, t, cfg).x[g.input], x)
        assert ran and not ran & fed_by_input

    @pytest.mark.parametrize("steps,depth,eta", [(499, 4, 0.1), (49, 5, 0.1), (3, 7, 0.5), (1, 1, 1.0), (100, 0, 0.3)])
    def test_cached_cascade_coefficients_equal_a_fresh_computation(self, steps, depth, eta):
        fresh = relaxation._cascade_coefficients.__wrapped__(steps, depth, eta)
        cached = relaxation._cascade_coefficients(steps, depth, eta)
        assert relaxation._cascade_coefficients(steps, depth, eta) is cached
        assert isinstance(cached, tuple) and cached == fresh
        assert len(cached) == min(depth, steps) + 1


def linear_chain(n_relaxing: int, weights=None):
    """input -> n_relaxing linear 1-unit dense nodes; longest relaxing path
    n_relaxing - 1."""
    spec = [{"kind": "input", "shape": (1,)}]
    for w in weights or [0.5] * n_relaxing:
        spec.append({"kind": "dense", "units": 1, "activation": "linear", "weight": [[w]], "psi": [[1.0]]})
    return build(spec)


class TestHeightPruning:
    """Horner sweep k transports only into nodes whose share J^k keeps."""

    @pytest.mark.parametrize("name, n_iters, node, calls", [
        ("mlp4", 100, 2, 0),    # first dense layer into flatten, which nothing reads
        ("cnn", 50, 3, 2),      # conv2 into the pool: sweeps 1 and 0, for conv1's last step
    ])
    def test_vjp_calls_per_relaxation(self, monkeypatch, name, n_iters, node, calls):
        rng = Rng(90)
        g = models.build_model(models.ModelSpec(name), rng)
        x, t = random_case(g, rng, 2)
        acts = forward(g, x)
        seen = []
        vjp = g.nodes[node].vjp
        monkeypatch.setattr(g.nodes[node], "vjp", lambda *a: seen.append(1) or vjp(*a))
        run_relaxation(g, acts, t, ARConfig(n_iters=n_iters))
        assert len(seen) == calls

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_chain_sweeps_make_triangular_transports(self, monkeypatch, d):
        g = linear_chain(d + 1)
        acts = forward(g, [[1.0]])
        calls = []
        vjp = DenseNode.vjp
        monkeypatch.setattr(DenseNode, "vjp", lambda *a: calls.append(1) or vjp(*a))
        monkeypatch.setattr(relaxation, "relax_step", lambda g, s, cfg, iteration, **kw: s)
        run_relaxation(g, acts, [[0.0]], ARConfig(n_iters=50))
        assert len(calls) == d * (d + 1) // 2

    def test_overflow_in_a_pruned_term_is_not_computed(self):
        # eta_x = 1, T = 3: sweep 1 would send xbar = 1e200 at node 2 through
        # W = 1e200 into node 1, whose share J^1 zeroes. The kept terms are
        # finite, so the closed form returns the exact state while the
        # step-by-step engine overflows at its first step.
        g = linear_chain(3, weights=[1.0, 1e200, 1e-200])
        acts = forward(g, [[1.0]])
        cfg = ARConfig(eta_x=1.0, n_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # an overflow would warn
            s = run_relaxation(g, acts, [[0.0]], cfg)
        assert [float(a[0, 0]) for a in s.x[1:]] == [1.0, 1e-200, 1.0]
        assert s.last_max_dx == 0.0
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
            step_by_step(g, acts, [[0.0]], cfg)
        assert (exc.value.node, exc.value.iteration) == (1, 0)


READ_VARIANTS = {
    "baseline": {},
    "learned_psi": {"backwards_mode": "learned_psi"},
    "weight_deriv": {"unfreeze_weight_deriv": True},
    "weight_activity": {"unfreeze_weight_activity": True},
    "relax_deriv": {"unfreeze_relax_deriv": True},
    "relax_and_weight_deriv": {"unfreeze_relax_deriv": True, "unfreeze_weight_deriv": True},
}


class TestReadSet:
    """run_relaxation computes only what its read set needs."""

    # VJP calls per node id: T = 50 with frozen relaxation derivatives (the
    # Horner sweeps and the last step), T = 5 with unfrozen ones (four steps
    # over the read set and the nodes below it, and the last). mlp4 is
    # input, flatten, four dense nodes; cnn is input, conv, pool, conv,
    # flatten, two dense nodes; skip_dag is input, dense, dense, add, dense.
    @pytest.mark.parametrize("name, variant, calls", [
        ("mlp4", "baseline", [0, 0, 0, 2, 3, 4]),       # nothing reads flatten
        ("mlp4", "learned_psi", [0, 0, 0, 2, 3, 4]),
        ("mlp4", "weight_deriv", [0, 0, 2, 3, 4, 5]),   # f' of dense 2 reads flatten
        ("mlp4", "weight_activity", [0, 0, 2, 3, 4, 5]),
        ("mlp4", "relax_deriv", [0, 0, 0, 5, 5, 5]),     # nothing reads flatten
        # flatten relaxes in dense 2's width, and dense 2's VJP rebuilds it
        ("mlp4", "relax_and_weight_deriv", [0, 0, 2, 5, 5, 5]),
        ("cnn", "baseline", [0, 0, 2, 2, 4, 4, 6]),     # the last step skips conv2 and dense 5
        ("cnn", "learned_psi", [0, 0, 2, 2, 4, 4, 6]),
        ("cnn", "weight_deriv", [0, 0, 2, 3, 4, 5, 6]),
        ("cnn", "weight_activity", [0, 0, 2, 3, 4, 5, 6]),
        ("cnn", "relax_deriv", [0, 0, 2, 4, 5, 4, 5]),     # conv 1 relaxes in the pool's width
        ("cnn", "relax_and_weight_deriv", [0, 0, 2, 5, 5, 5, 5]),
        ("skip_dag", "baseline", [0, 0, 2, 3, 3]),      # the last step skips the head
        ("skip_dag", "learned_psi", [0, 0, 2, 3, 3]),
        ("skip_dag", "weight_deriv", [0, 0, 2, 3, 4]),
        ("skip_dag", "weight_activity", [0, 0, 2, 3, 4]),
        ("skip_dag", "relax_deriv", [0, 0, 5, 5, 4]),
        ("skip_dag", "relax_and_weight_deriv", [0, 0, 5, 5, 5]),
    ])
    def test_vjp_calls_per_node(self, monkeypatch, name, variant, calls):
        spec = skip_dag_spec() if name == "skip_dag" else models.reduced_spec(models.ModelSpec(name))
        g, x, t = spec_case(spec, 90, 2)
        acts = forward(g, x)
        seen = [0] * len(g.nodes)
        for j, node in enumerate(g.nodes):
            if hasattr(node, "vjp"):
                def counting(*a, _j=j, _vjp=node.vjp):
                    seen[_j] += 1
                    return _vjp(*a)
                monkeypatch.setattr(node, "vjp", counting)
        cfg = ARConfig(**READ_VARIANTS[variant])
        run_relaxation(g, acts, t, replace(cfg, n_iters=5 if cfg.unfreeze_relax_deriv else 50))
        assert seen == calls

    @pytest.mark.parametrize("graph, read", [("conv_pool", {3}), ("diamond", {2, 3})])
    def test_relax_step_leaves_unread_entries_alone(self, graph, read):
        # what a VJP sent can alias the sender's activity (flatten's reshape,
        # add's pass-through to both parents); the step must not write into it
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        cfg = ARConfig(n_iters=3)
        s = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
        before = [a.copy() for a in s.x]
        want = init_state(g, acts, t, cfg)
        want.x = [a.copy() for a in before]
        relax_step(g, want, cfg)
        relax_step(g, s, cfg, read=read)
        for i in range(len(g.nodes)):
            np.testing.assert_array_equal(s.x[i], want.x[i] if i in read else before[i])

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("entry", ["relax_step", "run_relaxation"])
    def test_read_id_outside_the_graph_is_rejected(self, entry, bad):
        g, x, t = GRAPHS["diamond"]()      # six nodes
        acts = forward(g, x)
        cfg = ARConfig(n_iters=3)
        with pytest.raises(ValueError, match=rf"^node ids \[{bad}\] are not in this graph's range\(6\)$"):
            if entry == "relax_step":
                relax_step(g, init_state(g, acts, t, cfg), cfg, read={1, bad})
            else:
                run_relaxation(g, acts, t, cfg, read={1, bad})

    def test_default_read_set_matches_every_node(self):
        def check(g, x, t, variant, n_iters):
            cfg = ARConfig(n_iters=n_iters, **READ_VARIANTS[variant])
            errs, got, want = default_read_vs_all(g, forward(g, x), t, cfg)
            for i in range(len(g.nodes)):
                if i in errs:
                    np.testing.assert_array_equal(got.x[i], want.x[i])
                else:
                    assert got.x[i] is None, f"node {i}"
            assert got.last_max_dx <= want.last_max_dx
            assert_deltas_equal(update_errors(g, cfg, got, want)[1])
        on_every_conv_dag(check, sorted(READ_VARIANTS), [1, 3, 30])


# unfrozen settings under which run_relaxation relaxes an input-fed node in
# its child's width where that child is dense or has no live f'; each reads
# that node by default
INPUT_FED_VARIANTS = {
    "weight_deriv": {"unfreeze_weight_deriv": True},
    "weight_activity": {"unfreeze_weight_activity": True},
    "dense_psi": {"unfreeze_weight_deriv": True, "backwards_mode": "learned_psi", "backwards_scope": "dense"},
    "dropped_fprime": {"unfreeze_weight_deriv": True, "nonlinearity_mode": "dropped"},
}


def input_fed_case(name):
    """A graph whose node 1 is fed by the input alone and has one child:
    full-width mlp4 or cnn at B=2 (flatten, 784 wide, into 300; conv 1 into
    its max-pool), reduced mlp4 or cnn, or a GRAPHS graph (chains: a dense
    node, and chain_b's child is its linear head, which has no f';
    add_from_input: a dense node into an add; conv_pool: conv 1 into a tanh
    conv, which has a live f' unless the setting drops it)."""
    if name in models.MODEL_NAMES:
        rng = Rng(91)
        g = models.build_model(models.ModelSpec(name), rng)
        return (g, *random_case(g, rng, 2))
    if name.endswith("_reduced"):
        return spec_case(models.reduced_spec(models.ModelSpec(name.removesuffix("_reduced"))), 92, 4)
    return GRAPHS[name]()


class TestInputFedNode:
    """Under unfreeze_relax_deriv a node fed by the input alone, whose only
    child c is dense or has no live f', relaxes in c's width until the last
    step (relaxation._InputFed), so c's transport into it runs in the last
    step and in one rebuild only. A conv child with a live f' leaves it to
    the step-by-step engine, bit for bit."""

    @pytest.mark.parametrize("variant", sorted(INPUT_FED_VARIANTS))
    @pytest.mark.parametrize("graph", ["mlp4", "mlp4_reduced", "cnn", "cnn_reduced", "chain_a", "chain_b",
                                       "add_from_input", "conv_pool"])
    def test_matches_step_by_step(self, monkeypatch, graph, variant):
        g, x, t = input_fed_case(graph)
        acts = forward(g, x)
        c, = g.children[1]
        tracked = graph != "conv_pool" or variant == "dropped_fprime"
        for n_iters in [20] if graph in models.MODEL_NAMES else [1, 2, 20, 100]:
            cfg = ARConfig(n_iters=n_iters, unfreeze_relax_deriv=True, **INPUT_FED_VARIANTS[variant])
            assert_engines_agree(g, acts, t, cfg)
            want = step_by_step(g, acts, t, cfg)
            for read in (None, range(len(g.nodes))):
                calls = []
                with monkeypatch.context() as m:
                    m.setattr(g.nodes[c], "vjp", lambda *a, _vjp=g.nodes[c].vjp: calls.append(1) or _vjp(*a))
                    errs, got, _ = run_vs_steps(g, acts, t, cfg, read, want)
                assert len(calls) == (2 if tracked else n_iters)
                assert errs[1] <= (1e-12 if tracked else 0.0)
                # the other nodes never read node 1's activity before the last step
                for i in errs.keys() - {1}:
                    np.testing.assert_array_equal(got.x[i], want.x[i])

    def test_overflowing_tracked_z_is_a_divergence(self):
        # dense-scoped learned psi of 1e308 sends node 2's first step into
        # node 1 as about 1e308: z = x_1 W_2^T overflows after step 0, and
        # node 2's f' at step 1 raises. The step-by-step engine guards
        # node 1 at every step instead, so it stops at step 0.
        g = build([
            {"kind": "input", "shape": (1,)},
            {"kind": "dense", "units": 1, "activation": "linear", "weight": [[1.0]], "psi": [[1.0]]},
            {"kind": "dense", "units": 10, "activation": "tanh", "weight": np.ones((10, 1)),
             "psi": np.full((1, 10), 1e308)},
            {"kind": "dense", "units": 1, "activation": "linear", "weight": np.ones((1, 10)),
             "psi": np.ones((10, 1))},
        ])
        acts = forward(g, [[0.5]])
        cfg = ARConfig(n_iters=10, unfreeze_relax_deriv=True, backwards_mode="learned_psi",
                       backwards_scope="dense")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                run_relaxation(g, acts, [[0.0]], cfg)
            assert (exc.value.node, exc.value.iteration) == (2, 1)
            assert "DenseNode forward" in str(exc.value)
            with pytest.raises(DivergenceError) as exc:
                step_by_step(g, acts, [[0.0]], cfg)
            assert (exc.value.node, exc.value.iteration) == (1, 0)


def conv_psi_case():
    g, x, t = GRAPHS["conv_pool"]()
    return g, forward(g, x), t, ARConfig(n_iters=30, backwards_mode="learned_psi", backwards_scope="conv")


class TestOuterCache:
    """weight_update and psi_update share one outer product per node."""

    def test_transpose_caches_nothing(self):
        g, x, t = GRAPHS["conv_pool"]()
        cfg = ARConfig(n_iters=30)
        s = run_relaxation(g, forward(g, x), t, cfg)
        weight_update(g, s, cfg)
        assert s.outers == {}

    def test_one_conv_outer_per_node_per_update(self, monkeypatch):
        g, acts, t, cfg = conv_psi_case()
        s = run_relaxation(g, acts, t, cfg)
        calls = []
        outer = ConvNode.outer
        monkeypatch.setattr(ConvNode, "outer", lambda node, *a: calls.append(id(node)) or outer(node, *a))
        weight_update(g, s, cfg)
        psi_update(g, s, cfg)
        convs = [id(n) for n in g.nodes if isinstance(n, ConvNode)]
        assert sorted(calls) == sorted(convs)

    @pytest.mark.parametrize("graph", ["conv_pool", "skip_dag"])
    def test_psi_delta_is_the_mirrored_weight_delta(self, graph):
        g, x, t = GRAPHS[graph]()
        cfg = ARConfig(n_iters=30, backwards_mode="learned_psi", eta_theta=0.01, eta_psi=0.01)
        s = run_relaxation(g, forward(g, x), t, cfg)
        wd, pd = weight_update(g, s, cfg), psi_update(g, s, cfg)
        assert pd.keys() == wd.keys()
        for j in pd:
            np.testing.assert_array_equal(pd[j], g.nodes[j].mirror(wd[j]))

    def test_relax_step_empties_the_cache(self):
        g, acts, t, cfg = conv_psi_case()
        s = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
        first = weight_update(g, s, cfg)
        relax_step(g, s, cfg, iteration=cfg.n_iters)
        _, deltas = updates_vs_fresh(g, acts, t, s, cfg)
        assert_deltas_equal(deltas)
        second = deltas["weight_update"][0]
        for j in first:
            assert not np.array_equal(second[j], first[j])

    @pytest.mark.parametrize("variant", [
        {"unfreeze_weight_deriv": True},
        {"unfreeze_weight_activity": True},
        {"nonlinearity_mode": "dropped"},
        {"nonlinearity_mode": "dropped", "nonlinearity_scope": "dense"},
    ])
    def test_weight_side_settings_are_part_of_the_key(self, variant):
        # one state updated under the baseline, then under a variant, gives
        # the variant's updates as a fresh state would
        g, acts, t, cfg = conv_psi_case()
        s = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
        weight_update(g, s, cfg)
        psi_update(g, s, cfg)
        assert_deltas_equal(updates_vs_fresh(g, acts, t, s, replace(cfg, **variant))[1])


class TestRelaxedActivityUpdate:
    """unfreeze_weight_activity's outer product reads what forward would
    save of the relaxed parent activity, without running the forward."""

    @pytest.mark.parametrize("graph", ["conv_pool", "skip_dag"])
    def test_deltas_equal_a_record_of_the_relaxed_activities(self, graph):
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        cfg = ARConfig(n_iters=30, unfreeze_weight_activity=True)
        s = run_relaxation(g, acts, t, cfg)
        ref = init_state(g, acts, t, cfg)
        ref.x = s.x
        for j in g.parametric_ids():
            ref.saved[j] = g.nodes[j].forward(s.x, g.parent_ids[j])[1]
        got, want = weight_update(g, s, cfg), weight_update(g, ref, replace(cfg, unfreeze_weight_activity=False))
        for j in want:
            np.testing.assert_array_equal(got[j], want[j])

    def test_no_forward_runs(self, monkeypatch):
        g, x, t = GRAPHS["conv_pool"]()
        cfg = ARConfig(n_iters=30, unfreeze_weight_activity=True)
        s = run_relaxation(g, forward(g, x), t, cfg)
        calls = []
        for owner, name in [(DenseNode, "forward"), (ConvNode, "forward"),
                            (ConvNode, "_activate"), (tensor, "conv2d_cols")]:
            def counting(*args, _name=name, _fn=getattr(owner, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(owner, name, counting)
        weight_update(g, s, cfg)
        assert calls == []
        forward(g, x)       # the counters do see a forward
        assert {"forward", "_activate", "conv2d_cols"} <= set(calls)


class TestSweepRecord:
    """init_state and backprop reuse what the forward sweep computed."""

    @pytest.mark.parametrize("graph", ["conv_pool", "skip_dag"])
    def test_init_state_and_backprop_run_no_forward_kernel(self, monkeypatch, graph):
        g, x, t = GRAPHS[graph]()
        acts = forward(g, x)
        calls = []
        for kind in {type(n) for n in g.nodes if hasattr(n, "forward")}:
            def counting(self, *args, _kind=kind, _forward=kind.forward):
                calls.append(_kind.__name__)
                return _forward(self, *args)
            monkeypatch.setattr(kind, "forward", counting)
        init_state(g, acts, t, ARConfig())
        backprop(g, acts, t)
        assert calls == []
        forward(g, x)       # the counters do see the sweep's kernels
        assert calls

    def test_saved_is_what_the_vjps_would_recompute(self):
        g, x, _ = GRAPHS["conv_pool"]()
        acts = forward(g, x)
        for j, node in enumerate(g.nodes):
            if j == g.input:
                continue
            xp = acts[g.parent_ids[j][0]]
            if isinstance(node, ConvNode):
                _, _, kh, kw = node.weight.shape
                np.testing.assert_array_equal(acts.saved[j], tensor.im2col(xp, kh, kw))
            elif isinstance(node, MaxPoolNode):
                np.testing.assert_array_equal(acts.saved[j], tensor.maxpool2d(xp)[1])
            elif isinstance(node, DenseNode):
                assert acts.saved[j] is xp
            else:
                assert acts.saved[j] is None
        s = init_state(g, acts, np.zeros_like(acts[g.output]), ARConfig())
        assert s.cols_bar[1] is acts.saved[1] and s.pool_idx[3] is acts.saved[3]

    def test_conv_record_layout(self):
        g, x, _ = GRAPHS["conv_pool"]()
        acts = forward(g, x)
        for j in (1, 2):
            _, c, kh, kw = g.nodes[j].weight.shape
            _, hp, wp = g.shapes[j]
            cols = acts.saved[j]
            assert cols.shape == (x.shape[0], c * kh * kw, hp * wp)
            # a view of one channel-major (K, B*P) buffer, read without a copy
            m = tensor.col_matrix(cols)
            assert m.flags.c_contiguous and np.shares_memory(m, cols)
            # the activation is C-contiguous, so the max-pool's reshape of
            # conv 2 is a view
            assert acts[j].flags.c_contiguous


class TestConvergence:
    def test_mlp_equilibrium_matches_oracle_at_500_iters(self):
        for seed in range(5):
            g, x, t = random_mlp(seed)
            acts = forward(g, x)
            grads = backprop(g, acts, t)
            s = run_relaxation(g, acts, t, ARConfig(n_iters=500))
            worst = max(node_rel_errors(g, s, grads, x.shape[0]).values())
            assert worst <= 1e-6, f"seed {seed}: {worst}"

    def test_skip_dag_equilibrium_matches_oracle(self):
        g, x, t = spec_case(skip_dag_spec(width=8, class_count=4), 30, 4)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        s = run_relaxation(g, acts, t, ARConfig(n_iters=500), read=range(len(g.nodes)))
        worst = max(node_rel_errors(g, s, grads, 4).values())
        assert worst <= 1e-6

    def test_conv_graph_equilibrium_matches_oracle(self):
        spec = [
            {"kind": "input", "shape": (2, 8, 8)},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
            {"kind": "maxpool"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 4, "activation": "linear"},
        ]
        g, x, t = spec_case(spec, 31, 3)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        s = run_relaxation(g, acts, t, ARConfig(n_iters=500), read=range(len(g.nodes)))
        worst = max(node_rel_errors(g, s, grads, 3).values())
        assert worst <= 1e-6

    def test_more_iterations_shrink_the_residual(self):
        g, x, t = random_mlp(7)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        s = run_relaxation(g, acts, t, ARConfig(n_iters=100))
        errs100 = node_rel_errors(g, s, grads, x.shape[0])
        for it in range(100, 200):
            relax_step(g, s, ARConfig(), iteration=it)
        errs200 = node_rel_errors(g, s, grads, x.shape[0])
        for i in errs100:
            assert errs200[i] <= errs100[i] + 1e-12

    def test_single_iteration_state(self):
        g = scalar_chain()
        acts = forward(g, [[1.0]])
        s = run_relaxation(g, acts, [[0.0]], ARConfig(n_iters=1))
        assert np.isfinite(s.last_max_dx)
        # one explicit Euler step from xbar
        assert s.x[2][0, 0] == pytest.approx(6.0)  # output starts at equilibrium here
        assert s.x[1][0, 0] == pytest.approx(2.0 + 0.1 * (-2.0 + 6.0 * 3.0))


class TestWeightUpdate:
    def test_zero_equilibrium_activities_give_zero_deltas(self):
        g, x, t = random_mlp(2)
        acts = forward(g, x)
        cfg = ARConfig()
        s = init_state(g, acts, t, cfg)
        for i in range(len(g.nodes)):
            if not isinstance(g.nodes[i], InputNode):
                s.x[i] = np.zeros_like(s.x[i])
        for dw in weight_update(g, s, cfg).values():
            np.testing.assert_array_equal(dw, np.zeros_like(dw))

    def test_scalar_chain_deltas_match_oracle_gradients(self):
        g = scalar_chain()
        acts = forward(g, [[1.0]])
        cfg = ARConfig(n_iters=500, eta_theta=0.0005)
        s = run_relaxation(g, acts, [[0.0]], cfg)
        wd = weight_update(g, s, cfg)
        assert wd[2][0, 0] == pytest.approx(-cfg.eta_theta * 12.0, rel=1e-9)
        assert wd[1][0, 0] == pytest.approx(-cfg.eta_theta * 18.0, rel=1e-9)

    def test_deltas_equal_scaled_oracle_gradients_on_random_mlps(self):
        for seed in range(5):
            g, x, t = random_mlp(seed + 40)
            acts = forward(g, x)
            grads = backprop(g, acts, t)
            cfg = ARConfig(n_iters=500)
            s = run_relaxation(g, acts, t, cfg)
            wd = weight_update(g, s, cfg)
            for j in wd:
                assert rel_error(wd[j], -cfg.eta_theta * grads.param[j]) <= 1e-3

    def test_one_update_does_not_increase_batch_loss(self):
        for seed in range(5):
            g, x, t = random_mlp(seed + 60)
            acts = forward(g, x)
            before = loss_mse(acts[g.output], t)
            cfg = ARConfig(n_iters=200, eta_theta=1e-5)
            s = run_relaxation(g, acts, t, cfg)
            apply_updates(g, weight_update(g, s, cfg))
            after = loss_mse(forward(g, x)[g.output], t)
            assert after <= before + 1e-12

    def test_dropped_nonlinearity_equals_exact_on_linear_graph(self):
        spec = [
            {"kind": "input", "shape": (4,)},
            {"kind": "dense", "units": 5, "activation": "linear"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g, x, t = spec_case(spec, 50, 3)
        acts = forward(g, x)
        exact = ARConfig(n_iters=100, nonlinearity_mode="exact")
        dropped = ARConfig(n_iters=100, nonlinearity_mode="dropped")
        se = run_relaxation(g, acts, t, exact)
        sd = run_relaxation(g, acts, t, dropped)
        for a, b in zip(se.x, sd.x):
            np.testing.assert_array_equal(a, b)
        we, wdp = weight_update(g, se, exact), weight_update(g, sd, dropped)
        for j in we:
            np.testing.assert_array_equal(we[j], wdp[j])


def product_mean_deltas(g, s, cfg):
    """The weight and psi deltas as -eta * (node.outer(child, saved) / B):
    the batch mean taken on the product, whatever its size."""
    wd, pd = {}, {}
    for j in g.parametric_ids():
        node = g.nodes[j]
        child = relaxation._scale_by_fprime(g, s, cfg, j, s.x[j], cfg.unfreeze_weight_deriv)
        mean = node.outer(child, s.saved[j]) / child.shape[0]
        wd[j] = -cfg.eta_theta * mean
        if relaxation._uses_psi(node, cfg):
            pd[j] = -cfg.eta_psi * node.mirror(mean)
    return wd, pd


UPDATE_CASES = {
    "mlp4": ARConfig(n_iters=3),
    "cnn": ARConfig(n_iters=3, backwards_mode="learned_psi", backwards_scope="conv", eta_psi=0.003),
}


def relaxed_model(name, batch):
    rng = Rng(56)
    g = models.build_model(models.ModelSpec(name), rng)
    cfg = UPDATE_CASES[name]
    x, t = random_case(g, rng, batch)
    return g, run_relaxation(g, forward(g, x), t, cfg), cfg


def updates(g, s, cfg):
    learned = cfg.backwards_mode == "learned_psi"
    return weight_update(g, s, cfg), psi_update(g, s, cfg) if learned else {}


class TestUpdatePath:
    """The batch mean moved onto the smaller operand gives the deltas of
    the product-side mean, and apply_updates adds them in place."""

    @pytest.mark.parametrize("name", sorted(UPDATE_CASES))
    def test_deltas_at_a_power_of_two_batch_are_the_product_means(self, name):
        g, s, cfg = relaxed_model(name, 64)
        (wd, pd), (want_w, want_p) = updates(g, s, cfg), product_mean_deltas(g, s, cfg)
        assert wd.keys() == want_w.keys() and pd.keys() == want_p.keys()
        assert pd or name == "mlp4"
        for got, want in ((wd, want_w), (pd, want_p)):
            for j in want:
                np.testing.assert_array_equal(got[j], want[j])

    @pytest.mark.parametrize("name", sorted(UPDATE_CASES))
    def test_deltas_at_batch_3_match_the_product_means(self, name):
        g, s, cfg = relaxed_model(name, 3)
        (wd, pd), (want_w, want_p) = updates(g, s, cfg), product_mean_deltas(g, s, cfg)
        for got, want in ((wd, want_w), (pd, want_p)):
            for j in want:
                assert rel_error(got[j], want[j]) <= 1e-14, j

    @pytest.mark.parametrize("name", sorted(UPDATE_CASES))
    def test_apply_adds_into_the_parameters_in_place(self, name):
        g, s, cfg = relaxed_model(name, 3)
        wd, pd = updates(g, s, cfg)
        params = {(j, k): getattr(g.nodes[j], k) for j in g.parametric_ids() for k in ("weight", "psi")}
        want = {key: p.copy() for key, p in params.items()}
        for j in wd:
            want[j, "weight"] += wd[j]
        for j in pd:
            want[j, "psi"] += pd[j]
        apply_updates(g, wd, pd)
        for (j, k), p in params.items():
            assert getattr(g.nodes[j], k) is p
            np.testing.assert_array_equal(p, want[j, k])

    @pytest.mark.parametrize("node, weight, psi, match", [
        (1, None, None, r"node 1 \(FlattenNode\) has no weight for a delta of shape \(1, 1\)"),
        (9, None, None, r"node 9 \(not in the graph\) has no weight"),
        (2, (2, 300, 784), None, r"node 2: weight delta of shape \(2, 300, 784\) does not fit its "
                                 r"weight of shape \(300, 784\)"),
        (3, None, (300, 300, 1), r"node 3: psi delta of shape \(300, 300, 1\) does not fit its psi"),
        (5, None, (10, 100), r"node 5: psi delta of shape \(10, 100\) does not fit its psi of shape \(100, 10\)"),
    ], ids=["flatten", "no_such_node", "weight_3d", "psi_3d", "psi_in_w_layout"])
    def test_apply_rejects_a_delta_that_does_not_fit(self, node, weight, psi, match):
        g, s, cfg = relaxed_model("mlp4", 3)
        wd = weight_update(g, s, cfg)
        pd = {j: g.nodes[j].mirror(d) for j, d in wd.items()}
        if psi is None:
            wd[node] = np.ones(weight or (1, 1))
        else:
            pd[node] = np.ones(psi)
        before = [(g.nodes[j].weight, g.nodes[j].weight.copy(), g.nodes[j].psi, g.nodes[j].psi.copy())
                  for j in g.parametric_ids()]
        with pytest.raises(ValueError, match=match):
            apply_updates(g, wd, pd)
        for w, w0, p, p0 in before:
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(p, p0)

    def test_apply_rejects_a_complex_delta_before_writing(self):
        g, s, cfg = relaxed_model("mlp4", 3)
        wd = weight_update(g, s, cfg)
        wd[5] = wd[5].astype(complex)
        before = {j: g.nodes[j].weight.copy() for j in wd}
        with pytest.raises(ValueError, match="node 5: weight delta of dtype complex128 does not fit float64"):
            apply_updates(g, wd)
        for j, w in before.items():
            np.testing.assert_array_equal(g.nodes[j].weight, w)


class TestVariants:
    def test_learned_psi_equal_to_transpose_when_psi_is_wt(self):
        rng = Rng(70)
        spec = random_chain_spec(rng, max_depth=3, max_width=8)
        g = build(spec, rng)
        for j in g.parametric_ids():
            g.nodes[j].psi = g.nodes[j].weight.T.copy()
        x, t = random_case(g, rng, 2)
        acts = forward(g, x)
        st = run_relaxation(g, acts, t, ARConfig(n_iters=50, backwards_mode="transpose"))
        sp = run_relaxation(g, acts, t, ARConfig(n_iters=50, backwards_mode="learned_psi"))
        for a, b in zip(st.x, sp.x):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_random_psi_changes_the_equilibrium(self):
        g, x, t = random_mlp(71)
        acts = forward(g, x)
        st = run_relaxation(g, acts, t, ARConfig(n_iters=100))
        sp = run_relaxation(g, acts, t, ARConfig(n_iters=100, backwards_mode="learned_psi"))
        assert any(not np.allclose(a, b) for a, b in zip(st.x[1:], sp.x[1:]))

    def test_psi_update_mirrors_weight_update(self):
        g, x, t = random_mlp(72)
        acts = forward(g, x)
        cfg = ARConfig(n_iters=100, backwards_mode="learned_psi", eta_theta=0.001, eta_psi=0.004)
        s = run_relaxation(g, acts, t, cfg)
        wd = weight_update(g, s, cfg)
        pd = psi_update(g, s, cfg)
        for j in pd:
            np.testing.assert_array_equal(pd[j], wd[j].T * (cfg.eta_psi / cfg.eta_theta))

    def test_conv_psi_mirror_is_kernel_shaped(self):
        spec = [
            {"kind": "input", "shape": (2, 6, 6)},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g, x, t = spec_case(spec, 73, 2)
        acts = forward(g, x)
        cfg = ARConfig(n_iters=100, backwards_mode="learned_psi")
        s = run_relaxation(g, acts, t, cfg)
        wd = weight_update(g, s, cfg)
        pd = psi_update(g, s, cfg)
        np.testing.assert_array_equal(pd[1], wd[1] * (cfg.eta_psi / cfg.eta_theta))
        assert pd[1].shape == g.nodes[1].psi.shape

    def test_psi_update_requires_learned_mode(self):
        g, x, t = random_mlp(74)
        acts = forward(g, x)
        cfg = ARConfig(n_iters=10)
        s = run_relaxation(g, acts, t, cfg)
        with pytest.raises(ValueError, match="learned_psi"):
            psi_update(g, s, cfg)

    def test_backwards_scope_limits_psi_to_node_class(self):
        spec = [
            {"kind": "input", "shape": (2, 6, 6)},
            {"kind": "conv", "out_channels": 2, "kernel": 3, "activation": "tanh"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g, x, t = spec_case(spec, 75, 2)
        acts = forward(g, x)
        cfg = ARConfig(n_iters=20, backwards_mode="learned_psi", backwards_scope="conv")
        s = run_relaxation(g, acts, t, cfg)
        pd = psi_update(g, s, cfg)
        assert list(pd) == [1]  # only the conv node learns backwards weights

    def test_unfreeze_flags_change_behavior(self):
        g, x, t = random_mlp(76)
        acts = forward(g, x)
        base_cfg = ARConfig(n_iters=60)
        base = run_relaxation(g, acts, t, base_cfg)
        a_cfg = ARConfig(n_iters=60, unfreeze_relax_deriv=True)
        sa = run_relaxation(g, acts, t, a_cfg)
        assert any(not np.allclose(p, q) for p, q in zip(base.x[1:], sa.x[1:]))

        b_cfg = ARConfig(n_iters=60, unfreeze_weight_deriv=True)
        d_cfg = ARConfig(n_iters=60, unfreeze_weight_activity=True)
        wd_base = weight_update(g, base, base_cfg)
        wd_b = weight_update(g, base, b_cfg)
        wd_d = weight_update(g, base, d_cfg)
        assert any(not np.allclose(wd_base[j], wd_b[j]) for j in wd_base)
        assert any(not np.allclose(wd_base[j], wd_d[j]) for j in wd_base)

    @pytest.mark.parametrize("variant,dense_chain,conv_pool", [
        ({}, True, True),
        ({"backwards_mode": "learned_psi"}, False, False),
        ({"backwards_mode": "learned_psi", "backwards_scope": "conv"}, True, True),
        ({"backwards_mode": "learned_psi", "backwards_scope": "dense"}, False, False),
        ({"nonlinearity_mode": "dropped"}, False, True),
        ({"nonlinearity_mode": "dropped", "nonlinearity_scope": "conv"}, True, True),
        ({"nonlinearity_mode": "dropped", "nonlinearity_scope": "dense"}, False, True),
        ({"unfreeze_relax_deriv": True}, False, True),
        ({"unfreeze_relax_deriv": True, "backwards_mode": "learned_psi", "backwards_scope": "conv"},
         False, True),
        # the weight-side flags leave the relaxation as it is
        ({"unfreeze_weight_deriv": True}, True, True),
        ({"unfreeze_weight_activity": True}, True, True),
        ({"unfreeze_weight_deriv": True, "unfreeze_weight_activity": True}, True, True),
    ])
    def test_relaxes_to_gradient_judges_the_graph(self, variant, dense_chain, conv_pool):
        # whether a setting relaxes to the loss gradient depends on the graph:
        # dense_chain is three tanh layers and a linear head; conv_pool's conv
        # is fed by the input, so only its linear dense head sends
        cfg = ARConfig(n_iters=800, **variant)
        for (g, x, t), want in [(GRAPHS["chain_a"](), dense_chain), (spec_case(CONV_POOL_SPEC, 78, 3), conv_pool)]:
            acts = forward(g, x)
            s = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
            assert (max(node_rel_errors(g, s, backprop(g, acts, t), x.shape[0]).values()) <= 1e-12) is want

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_gated_settings_relax_to_the_oracle(self, graph):
        # every setting is gated: it relaxes to the backward pass with its
        # substitutions
        g, x, t = GRAPHS[graph]()
        for cfg in STEP_CONFIGS:
            assert relaxes_to_variant_oracle(g, forward(g, x), t, cfg) <= 1e-12, cfg

    def test_relaxes_to_the_variant_oracle_on_random_dags(self):
        def check(g, x, t, cfg):
            assert relaxes_to_variant_oracle(g, forward(g, x), t, cfg) <= 1e-12
        on_every_conv_dag(check, STEP_CONFIGS)


def train_learned_psi(model: str, scope: str, eta_psi_factor: float, steps: int = 30):
    """Train a reduced model with learned psi for `steps` batches; return
    the graph, the config and each node's initial psi and psi - mirror(W)."""
    rng = Rng(11)
    g = build(models.reduced_spec(models.ModelSpec(model)), rng)
    cfg = ARConfig(n_iters=20, eta_theta=0.05, eta_psi=0.05 * eta_psi_factor,
                   backwards_mode="learned_psi", backwards_scope=scope)
    psi0 = {j: g.nodes[j].psi.copy() for j in g.parametric_ids()}
    gap0 = {j: g.nodes[j].psi - g.nodes[j].mirror(g.nodes[j].weight) for j in g.parametric_ids()}
    for _ in range(steps):
        x, t = random_case(g, rng, 4)
        s = run_relaxation(g, forward(g, x), t, cfg)
        apply_updates(g, weight_update(g, s, cfg), psi_update(g, s, cfg))
    return g, cfg, psi0, gap0


def gap_drift(g, gap0, j) -> float:
    return float(np.max(np.abs(g.nodes[j].psi - g.nodes[j].mirror(g.nodes[j].weight) - gap0[j])))


class TestLearnedPsiGap:
    """With eta_psi == eta_theta, psi_update adds to psi exactly the mirror
    of what weight_update adds to W, so psi - mirror(W) keeps its initial
    value up to the rounding of the two additions."""

    @pytest.mark.parametrize("scope", ["all", "conv"])
    @pytest.mark.parametrize("model", ["mlp4", "cnn"])
    def test_gap_keeps_its_initial_value(self, model, scope):
        steps = 30
        g, cfg, psi0, gap0 = train_learned_psi(model, scope, 1.0, steps)
        for j in g.parametric_ids():
            node = g.nodes[j]
            if relaxation._uses_psi(node, cfg):
                # at most half an ulp of W and of psi per addition and step
                scale = float(np.max(np.abs(node.weight)) + np.max(np.abs(node.psi)))
                assert gap_drift(g, gap0, j) <= steps * np.finfo(float).eps * scale, j
            else:
                np.testing.assert_array_equal(node.psi, psi0[j])

    @pytest.mark.parametrize("model, scope", [("mlp4", "all"), ("cnn", "all"), ("cnn", "conv")])
    def test_gap_moves_when_eta_psi_differs(self, model, scope):
        g, cfg, _, gap0 = train_learned_psi(model, scope, 2.0)
        learned = [j for j in g.parametric_ids() if relaxation._uses_psi(g.nodes[j], cfg)]
        assert learned
        for j in learned:
            assert gap_drift(g, gap0, j) > 1e-3, j
