"""Helpers shared by the test modules: synthetic datasets written in the
real on-disk formats, the real-dataset gate, the small graphs and scoped
variant settings that more than one module uses, every shape of a small
conv/pool/add DAG and a runner that checks each one, and written-out
references to check the library against: a relaxation step, max pooling
and its scatter, and the stacked finite differences with one node forward
per perturbation.

It also holds one comparator per engine property: run_relaxation against
relax_step taken T times, relax_step against reference_step, the updates
of a state against those of a fresh one, and the default read set against
every node read. The tier-1 tests in test_relaxation.py and the checks in
test_defects.py both call them, so each comparison is written once. A new
fast path adds one comparator here, which its tier-1 tests and its defect
check both call.

The synthetic task is class-prototype images plus pixel noise, which a
small network separates quickly; it exercises the loaders, the training
loop, and the metrics pipeline end to end. Tests that assert the
real-dataset acceptance numbers skip unless AR_DATA_DIR points at the
actual files (the package never downloads data).
"""

import gzip
import itertools
import os
import struct

import numpy as np
import pytest

from arelax import data as data_mod
from arelax import oracle, relaxation
from arelax.graph import PARAMETRIC, build, forward
from arelax.harness import random_case, rel_error, variant_substitutions
from arelax.relaxation import ARConfig
from arelax.tensor import Rng


def write_idx_images(path: str, images: np.ndarray, compress: bool = False) -> None:
    n, rows, cols = images.shape
    raw = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    if compress:
        raw = gzip.compress(raw)
    with open(path, "wb") as f:
        f.write(raw)


def write_idx_labels(path: str, labels: np.ndarray, compress: bool = False) -> None:
    raw = struct.pack(">II", 0x00000801, labels.shape[0]) + labels.astype(np.uint8).tobytes()
    if compress:
        raw = gzip.compress(raw)
    with open(path, "wb") as f:
        f.write(raw)


def synth_class_images(n: int, classes: int, shape: tuple, seed: int, noise: float = 18.0):
    """Class-prototype uint8 images: each class is a fixed random pattern
    plus Gaussian pixel noise. Labels cycle so every class appears."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(40, 216, size=(classes,) + shape)
    labels = rng.permutation(np.arange(n) % classes)
    imgs = protos[labels] + rng.normal(0.0, noise, size=(n,) + shape)
    return np.clip(imgs, 0, 255).astype(np.uint8), labels.astype(np.uint8)


def make_mnist_dir(root: str, n_train: int = 512, n_test: int = 256, seed: int = 11,
                   subdir: str = "mnist") -> str:
    d = os.path.join(root, subdir)
    os.makedirs(d, exist_ok=True)
    imgs, labels = synth_class_images(n_train + n_test, 10, (28, 28), seed)
    write_idx_images(os.path.join(d, "train-images-idx3-ubyte"), imgs[:n_train])
    write_idx_labels(os.path.join(d, "train-labels-idx1-ubyte"), labels[:n_train])
    write_idx_images(os.path.join(d, "t10k-images-idx3-ubyte"), imgs[n_train:])
    write_idx_labels(os.path.join(d, "t10k-labels-idx1-ubyte"), labels[n_train:])
    return root


def make_cifar10_dir(root: str, n_train: int = 250, n_test: int = 100, seed: int = 12) -> str:
    d = os.path.join(root, "cifar-10-batches-bin")
    os.makedirs(d, exist_ok=True)
    imgs, labels = synth_class_images(n_train + n_test, 10, (3, 32, 32), seed)

    def write(path, im, lab):
        with open(path, "wb") as f:
            for i in range(im.shape[0]):
                f.write(bytes([lab[i]]) + im[i].tobytes())

    per = n_train // 5
    for b in range(5):
        lo, hi = b * per, (b + 1) * per if b < 4 else n_train
        write(os.path.join(d, f"data_batch_{b + 1}.bin"), imgs[lo:hi], labels[lo:hi])
    write(os.path.join(d, "test_batch.bin"), imgs[n_train:], labels[n_train:])
    return root


def make_cifar100_dir(root: str, n_train: int = 200, n_test: int = 80, seed: int = 13) -> str:
    d = os.path.join(root, "cifar-100-binary")
    os.makedirs(d, exist_ok=True)
    rng = np.random.default_rng(seed)
    imgs, fine = synth_class_images(n_train + n_test, 100, (3, 32, 32), seed)
    coarse = rng.integers(0, 20, size=n_train + n_test).astype(np.uint8)

    def write(path, im, co, fi):
        with open(path, "wb") as f:
            for i in range(im.shape[0]):
                f.write(bytes([co[i], fi[i]]) + im[i].tobytes())

    write(os.path.join(d, "train.bin"), imgs[:n_train], coarse[:n_train], fine[:n_train])
    write(os.path.join(d, "test.bin"), imgs[n_train:], coarse[n_train:], fine[n_train:])
    return root


def real_dataset_root(name: str):
    """Directory containing the real dataset, or None."""
    root = os.environ.get("AR_DATA_DIR")
    if not root:
        return None
    return root if data_mod.resolve_dir(name, root) else None


def require_real_dataset(name: str) -> str:
    root = real_dataset_root(name)
    if root is None:
        pytest.skip(
            f"real {name} not available (set AR_DATA_DIR to the dataset root); "
            "this criterion asserts numbers on the actual dataset and is never "
            "run against synthetic stand-ins"
        )
    return root


def scalar_chain():
    return build([
        {"kind": "input", "shape": (1,)},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[2.0]], "psi": [[0.1]]},
        {"kind": "dense", "units": 1, "activation": "linear", "weight": [[3.0]], "psi": [[0.1]]},
    ])


# conv -> maxpool -> flatten -> dense, small enough that per-entry finite
# differences take milliseconds
CONV_POOL_SPEC = [
    {"kind": "input", "shape": (2, 6, 6)},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "maxpool"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 3, "activation": "linear"},
]

# conv -> conv -> maxpool -> flatten -> dense: every spatial transport
TWO_CONV_POOL_SPEC = [
    {"kind": "input", "shape": (2, 10, 10)},
    {"kind": "conv", "out_channels": 3, "kernel": 3, "activation": "tanh"},
    {"kind": "conv", "out_channels": 4, "kernel": 3, "activation": "tanh"},
    {"kind": "maxpool"},
    {"kind": "flatten"},
    {"kind": "dense", "units": 4, "activation": "linear"},
]

# an add node with the input as one of its parents
ADD_FROM_INPUT_SPEC = [
    {"kind": "input", "shape": (6,)},
    {"kind": "dense", "units": 6, "activation": "tanh"},
    {"kind": "add", "parents": [0, 1]},
    {"kind": "dense", "units": 3, "activation": "linear"},
]


# variant settings that each leave one node kind out of their scope, so a
# variant rule that ignores its scope changes a transport on a graph with a
# relaxing conv and dense node
SCOPED_CONFIGS = [
    ARConfig(backwards_mode="learned_psi", backwards_scope="conv"),
    ARConfig(nonlinearity_mode="dropped", nonlinearity_scope="dense"),
    ARConfig(nonlinearity_mode="dropped", nonlinearity_scope="conv", unfreeze_relax_deriv=True),
]


def conv_dags():
    """Every shape of a small DAG of conv, maxpool, flatten, add and dense
    nodes: one per setting of its five branch choices (an add fed by the
    input, a conv skip, a maxpool, a dense skip, an extra dense node), each
    with the seed and batch to draw its weights and case from. So that every
    size appears, sizes drawn together (channels and side, out-channels and
    kernel, head units and batch) cycle through the product of their values,
    and conv activations and extra dense units through theirs."""
    inputs = itertools.cycle(itertools.product([1, 2], [4, 6]))
    convs = itertools.cycle(itertools.product([1, 2, 3], [1, 3]))
    heads = itertools.cycle(itertools.product([2, 3], [1, 2, 3]))
    activations = itertools.cycle(["tanh", "linear"])
    units = itertools.cycle(range(1, 6))
    dags = []
    for seed, (from_input, conv_skip, pool, dense_skip, extra) in enumerate(
            itertools.product([False, True], repeat=5)):
        channels, side = next(inputs)
        spec = [{"kind": "input", "shape": (channels, side, side)}]

        def add(item, *parents):
            spec.append({**item, "parents": list(parents)})
            return len(spec) - 1

        def conv(parent, out_channels, kernel):
            return add({"kind": "conv", "out_channels": out_channels, "kernel": kernel,
                        "activation": next(activations)}, parent)
        top = 0
        if from_input:
            top = add({"kind": "add"}, 0, conv(0, channels, 1))
        co, kernel = next(convs)
        top = conv(top, co, kernel)
        side -= kernel - 1      # odd kernels keep the side even for maxpool
        if conv_skip:
            top = add({"kind": "add"}, top, conv(top, co, 1))
        if pool:
            top = add({"kind": "maxpool"}, top)
            side //= 2
        top = add({"kind": "flatten"}, top)
        if dense_skip:
            top = add({"kind": "add"}, top, add({"kind": "dense", "units": co * side * side,
                                                "activation": "tanh"}, top))
        if extra:
            top = add({"kind": "dense", "units": next(units), "activation": "tanh"}, top)
        head, batch = next(heads)
        add({"kind": "dense", "units": head, "activation": "linear"}, top)
        dags.append((spec, seed, batch))
    return dags


def on_every_conv_dag(check, *params):
    """check(g, x, t, *picks) on each conv_dags() shape, built by spec_case,
    where the picks cycle round-robin through the product of the lists in
    params. A failing assertion names the shape and its picks."""
    combos = list(itertools.product(*params))
    for k, (spec, seed, batch) in enumerate(conv_dags()):
        picks = combos[k % len(combos)]
        try:
            check(*spec_case(spec, seed, batch), *picks)
        except AssertionError as e:
            kinds = " ".join(item["kind"] for item in spec)
            raise AssertionError(f"conv_dags()[{k}] ({kinds}; seed {seed}, batch {batch}), picks {picks}: {e}") from e


def spec_case(spec, seed: int, batch: int):
    rng = Rng(seed)
    g = build(spec, rng)
    x, t = random_case(g, rng, batch)
    return g, x, t


def step_by_step(g, acts, t, cfg):
    """The reference engine: relax_step n_iters times from init_state."""
    s = relaxation.init_state(g, acts, t, cfg)
    for it in range(cfg.n_iters):
        relaxation.relax_step(g, s, cfg, iteration=it)
    return s


# The comparators call the engine through the relaxation module, so that a
# patched helper is the one they run. Each returns relative errors keyed by
# node (or by update and node), plus the states or deltas it compared, for
# a caller that asserts bit-equality.

def run_vs_steps(g, acts, t, cfg, read=None, want=None):
    """run_relaxation with `read` against relax_step taken n_iters times
    over every node (`want`, if the caller already has it): the error at
    each node whose activity the run returned, and both states."""
    got = relaxation.run_relaxation(g, acts, t, cfg, read=read)
    if want is None:
        want = step_by_step(g, acts, t, cfg)
    return {i: rel_error(x, want.x[i]) for i, x in enumerate(got.x) if x is not None}, got, want


def step_vs_reference(g, acts, t, cfg, steps=3):
    """relax_step against reference_step over `steps` steps from xbar: the
    error at every node, and both states."""
    s, ref = relaxation.init_state(g, acts, t, cfg), relaxation.init_state(g, acts, t, cfg)
    for it in range(steps):
        relaxation.relax_step(g, s, cfg, iteration=it)
        reference_step(g, ref, cfg)
    return {i: rel_error(s.x[i], ref.x[i]) for i in range(len(g.nodes))}, s, ref


def update_errors(g, cfg, got, want):
    """weight_update, and psi_update under learned psi, of state got against
    those of state want, in that order: the error per (update, node), and
    both states' deltas by update name."""
    names = ["weight_update"] + (["psi_update"] if cfg.backwards_mode == "learned_psi" else [])
    errs, deltas = {}, {}
    for name in names:
        update = getattr(relaxation, name)
        deltas[name] = update(g, got, cfg), update(g, want, cfg)
        errs.update({(name, j): rel_error(deltas[name][0][j], w) for j, w in deltas[name][1].items()})
    return errs, deltas


def updates_vs_fresh(g, acts, t, s, cfg):
    """The updates of state s under cfg against those of a fresh state from
    the same sweep with s's activities, which never computed an update."""
    fresh = relaxation.init_state(g, acts, t, cfg)
    fresh.x = [a.copy() for a in s.x]
    return update_errors(g, cfg, s, fresh)


def default_read_vs_all(g, acts, t, cfg):
    """run_relaxation with its default read set against every node read, at
    the input and at what weight_update and psi_update read: the parametric
    nodes, and their parents under an unfrozen weight-side setting. An
    activity the default run left out (None) is an infinite error. Returns
    the errors and both states."""
    read = {g.input, *g.parametric_ids()}
    if cfg.unfreeze_weight_deriv or cfg.unfreeze_weight_activity:
        read |= {p for j in g.parametric_ids() for p in g.parent_ids[j]}
    got = relaxation.run_relaxation(g, acts, t, cfg)
    want = relaxation.run_relaxation(g, acts, t, cfg, read=range(len(g.nodes)))
    return {i: np.inf if got.x[i] is None else rel_error(got.x[i], want.x[i]) for i in sorted(read)}, got, want


def reference_step(g, s, cfg):
    """One relaxation step written out as two passes: a topological pass
    that sends every node's VJP of its pre-step activity into an `incoming`
    dict, then a pass that updates every relaxing node from it. relax_step
    must agree with it bit for bit where no node has two relaxing children,
    and up to summation order elsewhere.

    The variant rules are the gradient check's (harness.variant_substitutions),
    not the engine's helpers, so that a defect in those shows: each node's
    back matrix, and its f' where one is given (else at the sweep)."""
    sub = variant_substitutions(g, cfg, s)
    incoming = {}
    for j in g.topo_order:
        ps = g.parent_ids[j]
        if all(p == g.input for p in ps):      # the input, or fed by it alone
            continue
        node, v = g.nodes[j], s.x[j]
        if isinstance(node, PARAMETRIC):
            fp = sub["fprime"][j] if j in sub["fprime"] else node.fprime(s.xbar[j])
            v = v if fp is None else fp * v
        sent = node.vjp(v, s.saved[j], sub["back"].get(j))
        for p, contribution in zip(ps, sent):
            if p != g.input:
                incoming[p] = incoming[p] + contribution if p in incoming else contribution
    max_dx = 0.0
    for i in g.topo_order:
        if i == g.input:
            continue
        dx = -s.x[i] - s.eps_bar if i == g.output else -s.x[i] + incoming[i]
        s.x[i] = s.x[i] + cfg.eta_x * dx
        max_dx = max(max_dx, float(np.max(np.abs(dx))))
    s.last_max_dx = max_dx
    return s


def reference_maxpool2d(x):
    """maxpool2d written out: copy each 2x2 window into a length-4 axis in
    row-major window order, take its argmax (the first maximum, so ties go
    to the lowest flat index), gather the winners and turn the argmax into
    an in-plane flat index. tensor.maxpool2d must match it bit for bit on
    NaN-free input, up to the sign of a pooled zero from a +0/-0 tie."""
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = x.reshape(b, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, 4)
    k = win.argmax(axis=-1)
    pooled = np.take_along_axis(win, k[..., None], axis=-1)[..., 0]
    rows = 2 * np.arange(h2)[:, None] + k // 2
    colns = 2 * np.arange(w2)[None, :] + k % 2
    return pooled, rows * w + colns


def reference_maxpool2d_scatter(values, idx, height, width):
    """maxpool2d_scatter written out: put_along_axis of each plane's values
    at its in-plane flat indices, zeros elsewhere."""
    b, c = values.shape[:2]
    out = np.zeros((b, c, height * width))
    np.put_along_axis(out, idx.reshape(b, c, -1), values.reshape(b, c, -1), axis=-1)
    return out.reshape(b, c, height, width)


def reference_stacked_finite_diff(g, x, target, h=1e-5):
    """oracle.finite_diff written with node j's whole forward per perturbed
    weight entry: each +h/-h copy of node j's activation is built alone by
    node.forward (which recomputes the GEMM input and activates and checks
    the copy), and the chunk's copies are concatenated. Input coordinate
    (b, i)'s copies are sample b's row alone, scored against target row b.
    Chunks, tiling and the nodes run below j come from finite_diff's own
    chunk plan, so it must match this bit for bit."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    acts = forward(g, x)

    def central(j, v, at, scored):
        below, tiled, _, pairs = oracle._chunk_plan(g, acts, j, v.size)
        grad = np.empty(v.size)
        for k0 in range(0, v.size, pairs):
            copies, ks = [], range(k0, min(k0 + pairs, v.size))
            for k in ks:
                orig = v.flat[k]
                try:
                    v.flat[k] = orig + h
                    copies.append(at(k))
                    v.flat[k] = orig - h
                    copies.append(at(k))
                finally:
                    v.flat[k] = orig
            run = list(acts)
            for p in tiled:
                run[p] = np.concatenate([acts[p]] * len(copies))
            run[j] = np.concatenate(copies)
            for i in below:
                run[i] = g.nodes[i].forward(run, g.parent_ids[i])[0]
            losses = oracle._stacked_losses(run[g.output], scored(ks), len(x))
            grad[k0 : k0 + len(copies) // 2] = (losses[0::2] - losses[1::2]) / (2 * h)
        return grad.reshape(v.shape)

    grads = oracle.GradientSet()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in g.parametric_ids():
            node, ps = g.nodes[j], g.parent_ids[j]
            grads.param[j] = central(j, node.weight, lambda k: node.forward(acts, ps)[0], lambda ks: target)
        xp, per_sample = x.copy(), x[0].size
        grads.node[g.input] = central(g.input, xp, lambda k: xp[k // per_sample][None].copy(),
                                      lambda ks: target[[[k // per_sample] for k in ks for _ in range(2)]])
    return grads
