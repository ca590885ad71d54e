"""Helpers shared by the test modules: synthetic datasets written in the
real on-disk formats, the real-dataset gate, a hypothesis strategy for
random conv/pool/add DAGs, and a written-out relaxation step to check the
library's against.

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
from arelax import relaxation
from arelax.graph import PARAMETRIC


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
    and up to summation order elsewhere."""
    incoming = {}
    for j in g.topo_order:
        ps = g.parent_ids[j]
        if all(p == g.input for p in ps):      # the input, or fed by it alone
            continue
        node = g.nodes[j]
        if isinstance(node, PARAMETRIC):
            v = relaxation._scale_by_fprime(g, s, cfg, j, s.x[j], cfg.unfreeze_relax_deriv)
            back = node.mirror(node.psi) if relaxation._uses_psi(node, cfg) else None
            sent = node.vjp(v, s.saved[j], back)
        else:
            sent = node.vjp(s.x[j], s.saved[j])
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
