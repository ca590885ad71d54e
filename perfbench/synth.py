"""Synthetic datasets in the real on-disk formats, made from a seed.

Each class is a fixed random uint8 pattern (its prototype); a sample is its
class prototype plus Gaussian pixel noise, clipped to [0, 255]. Labels are a
seeded permutation of a balanced cycle, so every class appears. The files
are written in the formats `arelax.data.load_dataset` parses:

  * MNIST IDX: <root>/mnist/{train,t10k}-{images-idx3,labels-idx1}-ubyte
  * CIFAR-10 binary: <root>/cifar-10-batches-bin/data_batch_{1..5}.bin and
    test_batch.bin, 3073-byte records (label byte, then channel-planar RGB)

Run as a script to write one dataset (the benchmark does so in a child
process, so the writer's buffers never count toward the measured peak RSS):

    python3 perfbench/synth.py --dataset mnist --root DIR --train N --test N --seed S
"""

from __future__ import annotations

import argparse
import os
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CLASSES = 10
NOISE = 18.0

SHAPES = {"mnist": (28, 28), "cifar10": (3, 32, 32)}


def class_images(n: int, shape: tuple[int, ...], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n class-prototype-plus-noise uint8 images and their uint8 labels."""
    rng = np.random.default_rng(seed)
    protos = rng.integers(40, 216, size=(CLASSES,) + shape)
    labels = rng.permutation(np.arange(n) % CLASSES)
    images = protos[labels] + rng.normal(0.0, NOISE, size=(n,) + shape)
    return np.clip(images, 0, 255).astype(np.uint8), labels.astype(np.uint8)


def _write(path: str, raw: bytes) -> None:
    with open(path, "wb") as f:
        f.write(raw)


def write_mnist(root: str, n_train: int, n_test: int, seed: int) -> None:
    d = os.path.join(root, "mnist")
    os.makedirs(d, exist_ok=True)
    images, labels = class_images(n_train + n_test, SHAPES["mnist"], seed)
    for split, sl in (("train", slice(0, n_train)), ("t10k", slice(n_train, None))):
        im, lab = images[sl], labels[sl]
        _write(os.path.join(d, f"{split}-images-idx3-ubyte"),
               struct.pack(">IIII", IDX_IMAGES_MAGIC, im.shape[0], 28, 28) + im.tobytes())
        _write(os.path.join(d, f"{split}-labels-idx1-ubyte"),
               struct.pack(">II", IDX_LABELS_MAGIC, lab.shape[0]) + lab.tobytes())


def _cifar_records(images: np.ndarray, labels: np.ndarray) -> bytes:
    records = np.empty((images.shape[0], 1 + images[0].size), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(images.shape[0], -1)
    return records.tobytes()


def write_cifar10(root: str, n_train: int, n_test: int, seed: int) -> None:
    if n_train < 5:
        raise ValueError(f"cifar10 needs at least one record per train batch file, got {n_train}")
    d = os.path.join(root, "cifar-10-batches-bin")
    os.makedirs(d, exist_ok=True)
    images, labels = class_images(n_train + n_test, SHAPES["cifar10"], seed)
    bounds = np.linspace(0, n_train, 6).astype(int)
    for b in range(5):
        lo, hi = bounds[b], bounds[b + 1]
        _write(os.path.join(d, f"data_batch_{b + 1}.bin"), _cifar_records(images[lo:hi], labels[lo:hi]))
    _write(os.path.join(d, "test_batch.bin"), _cifar_records(images[n_train:], labels[n_train:]))


WRITERS = {"mnist": write_mnist, "cifar10": write_cifar10}


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dataset", choices=sorted(WRITERS), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--train", type=int, required=True)
    ap.add_argument("--test", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args(argv)
    WRITERS[a.dataset](a.root, a.train, a.test, a.seed)


if __name__ == "__main__":
    main()
