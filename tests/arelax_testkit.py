"""Helpers shared by the test modules: synthetic datasets written in the
real on-disk formats, the real-dataset gate, the small graphs and scoped
variant settings that more than one module uses, a hypothesis strategy for
random conv/pool/add DAGs, and written-out references to check the
library against: a relaxation step, max pooling and its scatter, and the
stacked finite differences with one node forward per perturbation.

The synthetic task is class-prototype images plus pixel noise, which a
small network separates quickly; it exercises the loaders, the training
loop, and the metrics pipeline end to end. Tests that assert the
real-dataset acceptance numbers skip unless AR_DATA_DIR points at the
actual files (the package never downloads data).
"""

import gzip
import os
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from arelax import data as data_mod
from arelax import oracle
from arelax.graph import PARAMETRIC, build, forward
from arelax.harness import variant_substitutions
from arelax.relaxation import ARConfig


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


@st.composite
def conv_dags(draw):
    """A random small DAG of conv, maxpool, flatten, add and dense nodes,
    with the seed and batch to draw its weights and case from."""
    channels, side = draw(st.integers(1, 2)), draw(st.sampled_from([4, 6]))
    spec = [{"kind": "input", "shape": (channels, side, side)}]

    def add(item, *parents):
        spec.append({**item, "parents": list(parents)})
        return len(spec) - 1

    def conv(parent, out_channels, kernel):
        return add({"kind": "conv", "out_channels": out_channels, "kernel": kernel,
                    "activation": draw(st.sampled_from(["tanh", "linear"]))}, parent)
    top = 0
    if draw(st.booleans()):     # an add fed by the input
        top = add({"kind": "add"}, 0, conv(0, channels, 1))
    co, kernel = draw(st.integers(1, 3)), draw(st.sampled_from([1, 3]))
    top = conv(top, co, kernel)
    side -= kernel - 1          # odd kernels keep the side even for maxpool
    if draw(st.booleans()):     # a conv skip branch
        top = add({"kind": "add"}, top, conv(top, co, 1))
    if draw(st.booleans()):
        top = add({"kind": "maxpool"}, top)
        side //= 2
    top = add({"kind": "flatten"}, top)
    if draw(st.booleans()):     # a dense skip branch
        top = add({"kind": "add"}, top, add({"kind": "dense", "units": co * side * side,
                                            "activation": "tanh"}, top))
    if draw(st.booleans()):
        top = add({"kind": "dense", "units": draw(st.integers(1, 5)), "activation": "tanh"}, top)
    add({"kind": "dense", "units": draw(st.integers(2, 3)), "activation": "linear"}, top)
    return spec, draw(st.integers(0, 2**16)), draw(st.integers(1, 3))


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
        below, tiled, _, pairs = oracle._chunk_plan(g, len(x), j, v.size)
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
