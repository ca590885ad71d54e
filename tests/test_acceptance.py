"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or read the captured output on failure).

Criteria that assert accuracy numbers on the real MNIST / Fashion-MNIST /
CIFAR datasets skip unless AR_DATA_DIR points at the actual files; they are
never run against synthetic stand-ins. The determinism criterion runs
against a synthetic dataset written in the real binary formats (the
property is dataset-independent) and additionally against real MNIST when
available.

The 100-iteration clause of the gradient-equivalence criterion checks the
exact finite-T state, not a fixed error bound. With frozen derivatives one
relaxation step is linear, x <- M x + eta_x * b with M = (1-eta_x) I +
eta_x J (J the transport, b = -eps_bar at the output), so the deviation
from the oracle fixed point x* after T steps is

    x(T) - x* = M^T (x(0) - x*) = sum_{m<=D} C(T,m) (1-eta_x)^(T-m) eta_x^m J^m (x(0) - x*)

with D the longest path. At a node k edges below the output the residual is
this Binomial(T, eta_x) pmf-weighted sum over m <= k of the transported
initial deviation; from a zero start on a chain it is exactly
P(Bin(T, eta_x) <= k) * |x*|. At T=100, eta_x=0.1 the deepest node of a
depth-5 chain (k=4) keeps about 2.4e-2 of a zero start's deviation, so a
fixed per-node bound such as 1e-3 is out of reach for any faithful engine
at that budget. The test instead pins a small test-side
transport to the oracle (sum_m J^m b equals batch * gradient to 1e-12) and
asserts that every node's 100-iteration activity equals the oracle plus the
predicted transient to 1e-9; the raw residual profile is printed for
information. The 500-iteration clause asserts the converged equilibrium
itself. See README "Known limitations".
"""

import os
from math import comb
from pathlib import Path

import numpy as np
import pytest

from arelax.graph import AddNode, DenseNode, build, forward
from arelax.harness import (
    ExperimentConfig,
    final_test_accuracy,
    node_rel_errors,
    random_case,
    random_chain_spec,
    read_metrics,
    rel_error,
    run_experiment,
    skip_dag_spec,
)
from arelax.models import ModelSpec
from arelax.oracle import backprop, finite_diff
from arelax.relaxation import ARConfig, relax_step, run_relaxation, weight_update
from arelax.tensor import Rng

from arelax_testkit import make_mnist_dir, real_dataset_root, require_real_dataset


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: oracle validity

def test_c1_backprop_vs_finite_differences():
    worst = 0.0
    for i in range(100):
        rng = Rng(500 + i)
        if i == 99:
            g = build(skip_dag_spec(width=8, class_count=4), rng)
        else:
            g = build(random_chain_spec(rng, max_depth=5, max_width=16), rng)
        x, t = random_case(g, rng, 2)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        fd = finite_diff(g, x, t, h=1e-5)
        for j in fd.param:
            worst = max(worst, rel_error(grads.param[j], fd.param[j]))
        worst = max(worst, rel_error(grads.node[g.input], fd.node[g.input]))
    _report("C1 oracle vs central finite differences (100 graphs)",
            worst <= 1e-4, f"max rel err {worst:.3e}, tol 1e-4")


# --------------------------------------------------------------------------
# criteria 2 and 3: gradient and weight-update equivalence

C2_ETA_X, C2_SHORT_ITERS = 0.1, 100


@pytest.fixture(scope="module")
def equivalence_suite():
    """100 random chain MLPs (depth <= 5, widths <= 32, batch <= 8) plus the
    skip DAG: the sweep, the oracle gradients and the relaxed activities
    after 100 iterations, the error at 500 iterations, and weight-delta
    errors at the converged state."""
    results = []
    for i in range(101):
        rng = Rng(1000 + i)
        if i == 100:
            spec = skip_dag_spec(width=12, class_count=4)
        else:
            spec = random_chain_spec(rng, max_depth=5, max_width=32)
        g = build(spec, rng)
        batch = rng.integers(1, 9)
        x, t = random_case(g, rng, batch)
        acts = forward(g, x)
        grads = backprop(g, acts, t)
        cfg = ARConfig(eta_x=C2_ETA_X, n_iters=C2_SHORT_ITERS)
        s = run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
        x100 = [a.copy() for a in s.x]
        for it in range(C2_SHORT_ITERS, 500):
            relax_step(g, s, cfg, iteration=it)
        e500 = max(node_rel_errors(g, s, grads, batch).values())
        wd = weight_update(g, s, cfg)
        ew = max(rel_error(wd[j], -cfg.eta_theta * grads.param[j]) for j in wd)
        results.append({"g": g, "acts": acts, "target": t, "batch": batch,
                        "grads": grads, "x100": x100, "e500": e500, "ew": ew})
    return results


def test_c2_equilibrium_matches_oracle_after_500_iterations(equivalence_suite):
    worst = max(r["e500"] for r in equivalence_suite)
    _report("C2 relaxation equilibria vs oracle, 500 iterations",
            worst <= 1e-6, f"max per-node rel err {worst:.3e}, tol 1e-6")


def _transport(g, acts, v):
    """J v: each non-input node's activity in v sent to its parents through
    the local Jacobian at the frozen sweep (dense: (tanh' * v) @ W, add:
    identity). Input nodes receive nothing, so on a DAG repeated transport
    reaches the empty dict after at most D steps."""
    out = {}
    for j, vj in v.items():
        node = g.nodes[j]
        if isinstance(node, DenseNode):
            if node.activation == "tanh":
                vj = (1.0 - acts[j] ** 2) * vj
            sent = [(g.parent_ids[j][0], vj @ node.weight)]
        elif isinstance(node, AddNode):
            sent = [(p, vj) for p in g.parent_ids[j]]
        else:
            raise NotImplementedError(type(node).__name__)
        for p, c in sent:
            if p != g.input:
                out[p] = out.get(p, 0) + c
    return out


def _binomial_series(g, acts, v, coef):
    """sum_m coef(m) J^m v, node by node."""
    total, m = {}, 0
    while v:
        for i, vi in v.items():
            total[i] = total.get(i, 0) + coef(m) * vi
        v, m = _transport(g, acts, v), m + 1
    return total


def _distance_to_output(g):
    """Longest-path edge count from each node to the output."""
    dist = {g.output: 0}
    for j in reversed(g.topo_order):
        for p in g.parent_ids[j]:
            dist[p] = max(dist.get(p, 0), dist[j] + 1)
    return dist


def test_c2_equilibrium_matches_oracle_after_100_iterations(equivalence_suite):
    # After T synchronous steps x(T) = x* + M^T (x(0) - x*) exactly (module
    # docstring); the fixed point x* is pinned to the oracle first.
    eta, n = C2_ETA_X, C2_SHORT_ITERS
    pin = pred = 0.0
    by_dist = {}
    for r in equivalence_suite:
        g, acts, batch = r["g"], r["acts"], r["batch"]
        star = {i: r["grads"].node[i] * batch for i in g.topo_order if i != g.input}
        fixed = _binomial_series(g, acts, {g.output: acts[g.output] - r["target"]},
                                 lambda m: 1.0)
        delta = _binomial_series(g, acts, {i: acts[i] - star[i] for i in star},
                                 lambda m: comb(n, m) * (1 - eta) ** (n - m) * eta ** m)
        dist = _distance_to_output(g)
        for i, want in star.items():
            pin = max(pin, rel_error(fixed[i], want))
            pred = max(pred, rel_error(r["x100"][i] - delta[i], want))
            by_dist[dist[i]] = max(by_dist.get(dist[i], 0.0), rel_error(r["x100"][i], want))
    profile = ", ".join(f"{k} below output: {e:.1e}" for k, e in sorted(by_dist.items()))
    _report("C2 relaxation vs oracle plus predicted transient, 100 iterations",
            pin <= 1e-12 and pred <= 1e-9,
            f"fixed point sum_m J^m b vs oracle {pin:.3e} (tol 1e-12); "
            f"100-iteration state vs oracle + M^T (x(0) - x*) {pred:.3e} (tol 1e-9); "
            f"raw residual vs oracle by distance [{profile}]")


def test_c3_weight_updates_equal_scaled_oracle_gradients(equivalence_suite):
    worst = max(r["ew"] for r in equivalence_suite)
    _report("C3 weight deltas vs -eta_theta * oracle gradients",
            worst <= 1e-3, f"max rel err {worst:.3e}, tol 1e-3")


# --------------------------------------------------------------------------
# criteria 4-6: MNIST training (real data required)

MNIST_SEEDS = [0, 1, 2]


def _mnist_proxy_cfg(root, out, seeds=MNIST_SEEDS, **ar_kw):
    ar = dict(eta_x=0.1, n_iters=50, eta_theta=0.0005)
    ar.update(ar_kw)
    return ExperimentConfig(
        model=ModelSpec("mlp4", 10), dataset="mnist", ar=ARConfig(**ar),
        epochs=3, seeds=list(seeds), output=out, data_dir=root,
        batch_size=64, train_cap=10000, test_cap=2000,
    )


@pytest.fixture(scope="module")
def mnist_proxy_baseline(tmp_path_factory):
    root = require_real_dataset("mnist")
    out = str(tmp_path_factory.mktemp("c4") / "baseline.csv")
    run_experiment(_mnist_proxy_cfg(root, out))
    rows = read_metrics(out)
    return root, {s: final_test_accuracy(rows, s) for s in MNIST_SEEDS}


@pytest.mark.slow
def test_c4_mnist_headline_full_run(tmp_path):
    root = require_real_dataset("mnist")
    out = str(tmp_path / "headline.csv")
    cfg = ExperimentConfig(
        model=ModelSpec("mlp4", 10), dataset="mnist",
        ar=ARConfig(eta_x=0.1, n_iters=100, eta_theta=0.0005),
        epochs=10, seeds=[0], output=out, data_dir=root, batch_size=64,
    )
    run_experiment(cfg)
    acc = final_test_accuracy(read_metrics(out), 0)
    _report("C4 MNIST headline (full data, 10 epochs)",
            acc >= 0.97, f"final test accuracy {acc:.4f}, need >= 0.97")


def test_c4_mnist_fast_proxy(mnist_proxy_baseline):
    _, accs = mnist_proxy_baseline
    mean = float(np.mean(list(accs.values())))
    _report("C4 MNIST fast proxy (10k/2k, 50 iters, 3 epochs)",
            mean >= 0.90, f"mean test accuracy {mean:.4f} over seeds {MNIST_SEEDS}, need >= 0.90")


VARIANTS = {
    "dropped_nonlinearity": {"nonlinearity_mode": "dropped"},
    "learned_psi": {"backwards_mode": "learned_psi"},
    "unfrozen_relax_deriv": {"unfreeze_relax_deriv": True},
    "unfrozen_weight_deriv": {"unfreeze_weight_deriv": True},
    "unfrozen_both_derivs": {"unfreeze_relax_deriv": True, "unfreeze_weight_deriv": True},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_c5_variants_match_baseline_on_mnist_proxy(variant, mnist_proxy_baseline, tmp_path):
    root, base_accs = mnist_proxy_baseline
    base = float(np.mean(list(base_accs.values())))
    out = str(tmp_path / f"{variant}.csv")
    run_experiment(_mnist_proxy_cfg(root, out, **VARIANTS[variant]))
    rows = read_metrics(out)
    acc = float(np.mean([final_test_accuracy(rows, s) for s in MNIST_SEEDS]))
    _report(f"C5 variant {variant}",
            acc >= base - 0.03,
            f"variant {acc:.4f} vs baseline {base:.4f}, allowed drop 0.03")


def test_c6_unfrozen_weight_activity_destroys_performance(mnist_proxy_baseline, tmp_path):
    root, base_accs = mnist_proxy_baseline
    base = float(np.mean(list(base_accs.values())))
    out = str(tmp_path / "unfrozen_activity.csv")
    run_experiment(_mnist_proxy_cfg(root, out, unfreeze_weight_activity=True))
    rows = read_metrics(out)
    acc = float(np.mean([final_test_accuracy(rows, s) for s in MNIST_SEEDS]))
    ok = (base - acc >= 0.30) or (acc <= 0.15)
    _report("C6 unfrozen weight activity collapses",
            ok, f"condition-d accuracy {acc:.4f} vs baseline {base:.4f}")


# --------------------------------------------------------------------------
# criterion 7: CNN scaling on CIFAR-10 (real data required)

def _cifar_proxy_cfg(root, out, **ar_kw):
    ar = dict(eta_x=0.1, n_iters=50, eta_theta=0.0005)
    ar.update(ar_kw)
    return ExperimentConfig(
        model=ModelSpec("cnn", 10), dataset="cifar10", ar=ARConfig(**ar),
        epochs=3, seeds=[0], output=out, data_dir=root,
        batch_size=64, train_cap=5000, test_cap=1000,
    )


@pytest.fixture(scope="module")
def cifar_proxy_baseline(tmp_path_factory):
    root = require_real_dataset("cifar10")
    out = str(tmp_path_factory.mktemp("c7") / "baseline.csv")
    run_experiment(_cifar_proxy_cfg(root, out))
    return root, final_test_accuracy(read_metrics(out), 0)


def test_c7_cifar_baseline_beats_chance(cifar_proxy_baseline):
    _, acc = cifar_proxy_baseline
    _report("C7 CIFAR-10 fast proxy baseline",
            acc >= 0.25, f"accuracy {acc:.4f}, need >= chance + 0.15 = 0.25")


CNN_GRID = {
    f"{mode}_{scope}": (mode, scope)
    for mode in ("learned_psi", "dropped")
    for scope in ("conv", "dense", "all")
}


@pytest.mark.parametrize("cell", sorted(CNN_GRID))
def test_c7_cnn_variant_grid(cell, cifar_proxy_baseline, tmp_path):
    root, base = cifar_proxy_baseline
    mode, scope = CNN_GRID[cell]
    if mode == "learned_psi":
        ar_kw = {"backwards_mode": "learned_psi", "backwards_scope": scope}
    else:
        ar_kw = {"nonlinearity_mode": "dropped", "nonlinearity_scope": scope}
    out = str(tmp_path / f"{cell}.csv")
    run_experiment(_cifar_proxy_cfg(root, out, **ar_kw))
    acc = final_test_accuracy(read_metrics(out), 0)
    _report(f"C7 CNN grid {cell}",
            acc >= base - 0.05,
            f"variant {acc:.4f} vs baseline {base:.4f}, allowed drop 0.05")


# --------------------------------------------------------------------------
# criterion 8: determinism

def _determinism_cfg(root, out):
    return ExperimentConfig(
        model=ModelSpec("mlp4", 10), dataset="mnist",
        ar=ARConfig(eta_x=0.1, n_iters=20, eta_theta=0.005),
        epochs=1, seeds=[0, 1], output=out, data_dir=root,
        batch_size=64, train_cap=256, test_cap=128,
    )


def test_c8_identical_config_gives_byte_identical_csv(tmp_path):
    root = str(tmp_path / "data")
    os.makedirs(root)
    make_mnist_dir(root, n_train=256, n_test=128)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_experiment(_determinism_cfg(root, a))
    run_experiment(_determinism_cfg(root, b))
    same = Path(a).read_bytes() == Path(b).read_bytes()
    _report("C8 determinism (synthetic data, real formats)",
            same, "metrics CSVs byte-identical" if same else "CSV bytes differ")


def test_c8_determinism_on_real_mnist(tmp_path):
    root = real_dataset_root("mnist")
    if root is None:
        pytest.skip("real mnist not available; the synthetic-format determinism test covers the property")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_experiment(_determinism_cfg(root, a))
    run_experiment(_determinism_cfg(root, b))
    same = Path(a).read_bytes() == Path(b).read_bytes()
    _report("C8 determinism (real MNIST subset)",
            same, "metrics CSVs byte-identical" if same else "CSV bytes differ")
