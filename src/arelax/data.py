"""Bit-exact dataset ingestion.

Two on-disk formats are supported:

  * IDX (MNIST / Fashion-MNIST): big-endian magic 0x00000803 for images and
    0x00000801 for labels, then dimension extents, then an unsigned-byte
    payload. Gzipped files are detected by the 1f 8b prefix and inflated
    transparently.
  * CIFAR binary: cifar10 records are 3073 bytes (label byte + 3072 pixel
    bytes, channel-planar R,G,B at 32x32); cifar100 records are 3074 bytes
    (coarse label, fine label, pixels) and the fine label is used.

Pixels are divided by 255 so every value lies in [0, 1]; labels become
one-hot rows. The dataset root comes from the caller (CLI flag or the
AR_DATA_DIR environment variable).
"""

from __future__ import annotations

import gzip
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .tensor import Rng, Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CIFAR10_CLASSES = 10
CIFAR100_CLASSES = 100


class DataError(ValueError):
    """Malformed or inconsistent dataset files."""


@dataclass
class Dataset:
    images: Tensor        # (N, C, H, W), values in [0, 1]
    labels: Tensor        # (N, class_count), one-hot rows
    split: str            # "train" | "test"
    name: str

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def class_count(self) -> int:
        return self.labels.shape[1]

    def subset(self, cap: int | None) -> "Dataset":
        """First `cap` records (deterministic subset); None means all."""
        if cap is None:
            return self
        if not 1 <= cap <= len(self):
            raise DataError(
                f"subset cap must be in [1, {len(self)}], got {cap}"
            )
        if cap == len(self):
            return self
        return Dataset(self.images[:cap], self.labels[:cap], self.split, self.name)


def one_hot(labels: np.ndarray, class_count: int) -> Tensor:
    out = np.zeros((labels.shape[0], class_count))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_idx(images_path: str, labels_path: str, name: str = "mnist", split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair into a normalized Dataset."""
    raw = _read_bytes(images_path)
    if len(raw) < 16:
        raise DataError(f"{images_path}: too short for an IDX image header")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise DataError(f"{images_path}: truncated payload, expected {expected} bytes, got {len(raw)}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    images = pixels.astype(np.float64).reshape(n, 1, rows, cols) / 255.0

    raw = _read_bytes(labels_path)
    if len(raw) < 8:
        raise DataError(f"{labels_path}: too short for an IDX label header")
    magic, nl = struct.unpack(">II", raw[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(raw) != 8 + nl:
        raise DataError(f"{labels_path}: truncated payload, expected {8 + nl} bytes, got {len(raw)}")
    if nl != n:
        raise DataError(f"image/label count mismatch: {n} images vs {nl} labels")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if labels.size and labels.max() > 9:
        raise DataError(f"{labels_path}: label byte {labels.max()} out of range for 10 classes")
    return Dataset(images, one_hot(labels.astype(np.int64), 10), split, name)


def _parse_cifar_records(raw: bytes, path: str, variant: str) -> tuple[np.ndarray, np.ndarray]:
    record = 3073 if variant == "cifar10" else 3074
    if len(raw) % record:
        raise DataError(f"{path}: size {len(raw)} is not a multiple of the {record}-byte record")
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    if variant == "cifar10":
        labels = buf[:, 0].astype(np.int64)
        classes = CIFAR10_CLASSES
        pixels = buf[:, 1:]
    else:
        labels = buf[:, 1].astype(np.int64)  # fine label; byte 0 is the coarse label
        classes = CIFAR100_CLASSES
        pixels = buf[:, 2:]
    if labels.size and labels.max() >= classes:
        raise DataError(f"{path}: label byte {labels.max()} out of range for {classes} classes")
    images = pixels.astype(np.float64).reshape(-1, 3, 32, 32) / 255.0
    return images, labels


def load_cifar(directory: str, variant: str, split: str = "train") -> Dataset:
    """Load CIFAR-10/100 binary batch files from a directory."""
    if variant not in ("cifar10", "cifar100"):
        raise DataError(f"unknown CIFAR variant {variant!r}")
    if variant == "cifar10":
        files = [f"data_batch_{i}.bin" for i in range(1, 6)] if split == "train" else ["test_batch.bin"]
    else:
        files = ["train.bin"] if split == "train" else ["test.bin"]
    images_parts, labels_parts = [], []
    for fname in files:
        path = os.path.join(directory, fname)
        if not os.path.exists(path):
            raise DataError(f"missing CIFAR batch file: {path}")
        imgs, labs = _parse_cifar_records(_read_bytes(path), path, variant)
        images_parts.append(imgs)
        labels_parts.append(labs)
    images = np.concatenate(images_parts)
    labels = np.concatenate(labels_parts)
    classes = CIFAR10_CLASSES if variant == "cifar10" else CIFAR100_CLASSES
    return Dataset(images, one_hot(labels, classes), split, variant)


class Batches(Sequence):
    """One epoch of minibatches: batch k holds the dataset rows
    perm[k*batch_size : (k+1)*batch_size], copied out only when it is read,
    so an epoch never holds a second copy of the dataset."""

    def __init__(self, d: Dataset, batch_size: int, perm: np.ndarray):
        self._d, self._size, self._perm = d, batch_size, perm

    def __len__(self) -> int:
        return -(-len(self._perm) // self._size)

    def __getitem__(self, k: int) -> tuple[Tensor, Tensor]:
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"batch {k} out of range for {n} batches")
        start = (k % n) * self._size
        sel = self._perm[start : start + self._size]
        return self._d.images[sel], self._d.labels[sel]


def batches(d: Dataset, batch_size: int, rng: Rng) -> Batches:
    """One epoch of minibatches under a fresh deterministic shuffle, drawn
    now; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return Batches(d, batch_size, rng.permutation(len(d)))


# --------------------------------------------------------------------------
# dataset resolution by name

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

DATASET_NAMES = ("mnist", "fashion_mnist", "cifar10", "cifar100")

_SUBDIRS = {
    "mnist": ("mnist", "MNIST", "."),
    "fashion_mnist": ("fashion_mnist", "fashion-mnist", "FashionMNIST", "."),
    "cifar10": ("cifar-10-batches-bin", "cifar10", "."),
    "cifar100": ("cifar-100-binary", "cifar100", "."),
}


def _find_idx_file(root: str, stem: str) -> str | None:
    # tolerate the two spellings in the wild plus gzip
    for cand in (stem, stem.replace("-idx", ".idx")):
        for suffix in ("", ".gz"):
            path = os.path.join(root, cand + suffix)
            if os.path.exists(path):
                return path
    return None


def resolve_dir(name: str, root: str) -> str | None:
    for sub in _SUBDIRS[name]:
        d = os.path.normpath(os.path.join(root, sub))
        if os.path.isdir(d):
            if name in ("mnist", "fashion_mnist"):
                if _find_idx_file(d, _MNIST_FILES["train"][0]):
                    return d
            else:
                probe = "data_batch_1.bin" if name == "cifar10" else "train.bin"
                if os.path.exists(os.path.join(d, probe)):
                    return d
    return None


def load_dataset(name: str, root: str, split: str) -> Dataset:
    """Locate and load a dataset by name under the given root directory."""
    if name not in DATASET_NAMES:
        raise DataError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    d = resolve_dir(name, root)
    if d is None:
        raise DataError(f"dataset {name!r} not found under {root!r}")
    if name in ("mnist", "fashion_mnist"):
        img_stem, lab_stem = _MNIST_FILES[split]
        img = _find_idx_file(d, img_stem)
        lab = _find_idx_file(d, lab_stem)
        if img is None or lab is None:
            raise DataError(f"missing IDX files for {name} {split} under {d}")
        return load_idx(img, lab, name=name, split=split)
    return load_cifar(d, name, split=split)
