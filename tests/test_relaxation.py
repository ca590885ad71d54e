import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arelax import models, relaxation, tensor
from arelax.graph import ConvNode, DenseNode, InputNode, MaxPoolNode, build, forward
from arelax.harness import node_rel_errors, random_case, random_chain_spec, rel_error, skip_dag_spec
from arelax.oracle import backprop, loss_mse
from arelax.relaxation import (
    DIVERGENCE_LIMIT,
    ARConfig,
    DivergenceError,
    apply_updates,
    init_state,
    psi_update,
    relax_step,
    relaxes_to_gradient,
    run_relaxation,
    weight_update,
)
from arelax.tensor import Rng

from arelax_testkit import (
    ADD_FROM_INPUT_SPEC,
    CONV_POOL_SPEC,
    SCOPED_CONFIGS,
    TWO_CONV_POOL_SPEC,
    conv_dags,
    reference_step,
    scalar_chain,
)


def random_mlp(seed: int, batch: int = 4):
    rng = Rng(seed)
    g = build(random_chain_spec(rng, max_depth=4, max_width=16), rng)
    x, t = random_case(g, rng, batch)
    return g, x, t


def spec_case(spec, seed: int, batch: int):
    rng = Rng(seed)
    g = build(spec, rng)
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


def step_by_step(g, acts, t, cfg):
    """The reference engine: relax_step n_iters times from init_state."""
    s = init_state(g, acts, t, cfg)
    for it in range(cfg.n_iters):
        relax_step(g, s, cfg, iteration=it)
    return s


def assert_engines_agree(g, acts, t, cfg, tol=1e-12):
    got = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
    want = step_by_step(g, acts, t, cfg)
    where = f"T={cfg.n_iters} eta_x={cfg.eta_x}"
    for i in range(len(g.nodes)):
        assert rel_error(got.x[i], want.x[i]) <= tol, f"node {i}, {where}"
    # max|dx| is a difference of activities, so its rounding floor is set by
    # the activities' scale, not by its own size (it reaches 0 at convergence)
    scale = max(want.last_max_dx, max(float(np.max(np.abs(a))) for a in want.x))
    assert abs(got.last_max_dx - want.last_max_dx) <= tol * scale, where
    wg, ww = weight_update(g, got, cfg), weight_update(g, want, cfg)
    for j in ww:
        assert rel_error(wg[j], ww[j]) <= tol, f"weight {j}, {where}"
    if cfg.backwards_mode == "learned_psi":
        pg, pw = psi_update(g, got, cfg), psi_update(g, want, cfg)
        assert pg.keys() == pw.keys()
        for j in pw:
            assert rel_error(pg[j], pw[j]) <= tol, f"psi {j}, {where}"


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
    s, ref = init_state(g, acts, t, cfg), init_state(g, acts, t, cfg)
    for it in range(steps):
        relax_step(g, s, cfg, iteration=it)
        reference_step(g, ref, cfg)
    children = [sum(p == i for ps in g.parent_ids for p in ps) for i in range(len(g.nodes))]
    if all(n <= 1 for i, n in enumerate(children) if i != g.input):
        for a, b in zip(s.x, ref.x):
            np.testing.assert_array_equal(a, b)
        assert s.last_max_dx == ref.last_max_dx
    else:
        for a, b in zip(s.x, ref.x):
            assert rel_error(a, b) <= 1e-12
        scale = max(float(np.max(np.abs(a))) for a in ref.x)
        assert abs(s.last_max_dx - ref.last_max_dx) <= 1e-12 * scale


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

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(conv_dags(), st.sampled_from(STEP_CONFIGS))
    def test_synchronous_update_matches_reference_on_random_dags(self, case, cfg):
        spec, seed, batch = case
        g, x, t = spec_case(spec, seed, batch)
        assert_steps_match_reference(g, forward(g, x), t, cfg)

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

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(conv_dags(), st.sampled_from([1, 2, 7, 30]), st.sampled_from([0.1, 0.5, 1.0]))
    def test_matches_step_by_step_on_random_dags(self, case, n_iters, eta_x):
        spec, seed, batch = case
        g, x, t = spec_case(spec, seed, batch)
        assert_engines_agree(g, forward(g, x), t, ARConfig(eta_x=eta_x, n_iters=n_iters))

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


def read_by_updates(g, cfg) -> set:
    """What weight_update and psi_update read of the relaxed state."""
    read = set(g.parametric_ids())
    if cfg.unfreeze_weight_deriv or cfg.unfreeze_weight_activity:
        read |= {p for j in g.parametric_ids() for p in g.parent_ids[j]}
    return read


class TestReadSet:
    """run_relaxation computes only what its read set needs."""

    # VJP calls per node id: T = 50 with frozen relaxation derivatives (the
    # Horner sweeps and the last step), T = 5 with unfrozen ones (four full
    # steps and the last). mlp4 is input, flatten, four dense nodes; cnn is
    # input, conv, pool, conv, flatten, two dense nodes; skip_dag is input,
    # dense, dense, add, dense.
    @pytest.mark.parametrize("name, variant, calls", [
        ("mlp4", "baseline", [0, 0, 0, 2, 3, 4]),       # nothing reads flatten
        ("mlp4", "learned_psi", [0, 0, 0, 2, 3, 4]),
        ("mlp4", "weight_deriv", [0, 0, 2, 3, 4, 5]),   # f' of dense 2 reads flatten
        ("mlp4", "weight_activity", [0, 0, 2, 3, 4, 5]),
        ("mlp4", "relax_deriv", [0, 0, 4, 5, 5, 5]),
        ("mlp4", "relax_and_weight_deriv", [0, 0, 5, 5, 5, 5]),
        ("cnn", "baseline", [0, 0, 2, 2, 4, 4, 6]),     # the last step skips conv2 and dense 5
        ("cnn", "learned_psi", [0, 0, 2, 2, 4, 4, 6]),
        ("cnn", "weight_deriv", [0, 0, 2, 3, 4, 5, 6]),
        ("cnn", "weight_activity", [0, 0, 2, 3, 4, 5, 6]),
        ("cnn", "relax_deriv", [0, 0, 5, 4, 5, 4, 5]),
        ("cnn", "relax_and_weight_deriv", [0, 0, 5, 5, 5, 5, 5]),
        ("skip_dag", "baseline", [0, 0, 2, 3, 3]),      # the last step skips the head
        ("skip_dag", "learned_psi", [0, 0, 2, 3, 3]),
        ("skip_dag", "weight_deriv", [0, 0, 2, 3, 4]),
        ("skip_dag", "weight_activity", [0, 0, 2, 3, 4]),
        ("skip_dag", "relax_deriv", [0, 0, 5, 5, 4]),
        ("skip_dag", "relax_and_weight_deriv", [0, 0, 5, 5, 5]),
    ])
    def test_vjp_calls_per_node(self, monkeypatch, name, variant, calls):
        rng = Rng(90)
        spec = skip_dag_spec() if name == "skip_dag" else models.reduced_spec(models.ModelSpec(name))
        g = build(spec, rng)
        x, t = random_case(g, rng, 2)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(conv_dags(), st.sampled_from(sorted(READ_VARIANTS)), st.sampled_from([1, 3, 30]))
    def test_default_read_set_matches_every_node(self, case, variant, n_iters):
        spec, seed, batch = case
        g, x, t = spec_case(spec, seed, batch)
        acts = forward(g, x)
        cfg = ARConfig(n_iters=n_iters, **READ_VARIANTS[variant])
        got = run_relaxation(g, acts, t, cfg)
        want = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
        read = read_by_updates(g, cfg)
        for i in range(len(g.nodes)):
            if i in read or i == g.input:
                np.testing.assert_array_equal(got.x[i], want.x[i])
            else:
                assert got.x[i] is None, f"node {i}"
        assert got.last_max_dx <= want.last_max_dx
        updates = [weight_update, psi_update] if cfg.backwards_mode == "learned_psi" else [weight_update]
        for update in updates:
            dg, dw = update(g, got, cfg), update(g, want, cfg)
            assert dg.keys() == dw.keys()
            for j in dw:
                np.testing.assert_array_equal(dg[j], dw[j])


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
        second = weight_update(g, s, cfg)
        fresh = init_state(g, acts, t, cfg)
        fresh.x = [a.copy() for a in s.x]
        want = weight_update(g, fresh, cfg)
        for j in want:
            np.testing.assert_array_equal(second[j], want[j])
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
        other = replace(cfg, **variant)
        fresh = init_state(g, acts, t, other)
        fresh.x = [a.copy() for a in s.x]
        for update in (weight_update, psi_update):
            got, want = update(g, s, other), update(g, fresh, other)
            for j in want:
                np.testing.assert_array_equal(got[j], want[j])


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
        rng = Rng(30)
        g = build(skip_dag_spec(width=8, class_count=4), rng)
        x, t = random_case(g, rng, 4)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        s = run_relaxation(g, acts, t, ARConfig(n_iters=500), read=range(len(g.nodes)))
        worst = max(node_rel_errors(g, s, grads, 4).values())
        assert worst <= 1e-6

    def test_conv_graph_equilibrium_matches_oracle(self):
        rng = Rng(31)
        spec = [
            {"kind": "input", "shape": (2, 8, 8)},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
            {"kind": "maxpool"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 4, "activation": "linear"},
        ]
        g = build(spec, rng)
        x, t = random_case(g, rng, 3)
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
        rng = Rng(50)
        g = build(spec, rng)
        x, t = random_case(g, rng, 3)
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
        rng = Rng(73)
        spec = [
            {"kind": "input", "shape": (2, 6, 6)},
            {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g = build(spec, rng)
        x, t = random_case(g, rng, 2)
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
        rng = Rng(75)
        spec = [
            {"kind": "input", "shape": (2, 6, 6)},
            {"kind": "conv", "out_channels": 2, "kernel": 3, "activation": "tanh"},
            {"kind": "flatten"},
            {"kind": "dense", "units": 3, "activation": "linear"},
        ]
        g = build(spec, rng)
        x, t = random_case(g, rng, 2)
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
        ({"backwards_mode": "learned_psi", "backwards_scope": "conv"}, True, False),
        ({"backwards_mode": "learned_psi", "backwards_scope": "dense"}, False, False),
        ({"nonlinearity_mode": "dropped"}, False, False),
        ({"nonlinearity_mode": "dropped", "nonlinearity_scope": "conv"}, True, False),
        ({"nonlinearity_mode": "dropped", "nonlinearity_scope": "dense"}, False, False),
        # judged from the config alone, whatever the scopes cover
        ({"unfreeze_relax_deriv": True}, False, False),
        ({"unfreeze_relax_deriv": True, "backwards_mode": "learned_psi", "backwards_scope": "conv"},
         False, False),
        # the weight-side flags leave the relaxation as it is
        ({"unfreeze_weight_deriv": True}, True, True),
        ({"unfreeze_weight_activity": True}, True, True),
        ({"unfreeze_weight_deriv": True, "unfreeze_weight_activity": True}, True, True),
    ])
    def test_relaxes_to_gradient_judges_the_graph(self, variant, dense_chain, conv_pool):
        cfg = ARConfig(**variant)
        assert relaxes_to_gradient(random_mlp(77)[0], cfg) is dense_chain
        assert relaxes_to_gradient(build(CONV_POOL_SPEC, Rng(78)), cfg) is conv_pool


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
