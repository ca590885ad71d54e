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
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Rng, Tensor

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# each split's image and label files; the split names of every dataset
_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
SPLITS = tuple(_MNIST_FILES)


class DataError(ValueError):
    """Malformed or inconsistent dataset files."""


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}; expected one of {SPLITS}")


@dataclass
class Dataset:
    images: Tensor        # (N, C, H, W), values in [0, 1]
    labels: Tensor        # (N, class_count), one-hot rows

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
        return Dataset(self.images[:cap], self.labels[:cap])


def one_hot(labels: np.ndarray, class_count: int) -> Tensor:
    return np.eye(class_count)[labels]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _read_idx(path: str, magic: int, what: str, ndim: int) -> tuple[list[int], np.ndarray]:
    """The `ndim` extents and the byte payload of the IDX `what` ("image"
    or "label") file at path, after its header length, magic, payload
    length and record count (at least one) are checked."""
    raw = _read_bytes(path)
    head = 4 * (1 + ndim)
    if len(raw) < head:
        raise DataError(f"{path}: too short for an IDX {what} header")
    got, *dims = struct.unpack(f">{1 + ndim}I", raw[:head])
    if got != magic:
        raise DataError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    expected = head + math.prod(dims)
    if len(raw) != expected:
        raise DataError(f"{path}: truncated payload, expected {expected} bytes, got {len(raw)}")
    if dims[0] == 0:
        raise DataError(f"{path}: no records")
    return dims, np.frombuffer(raw, dtype=np.uint8, offset=head)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair, each read by _read_idx, into a
    normalized Dataset; the counts must agree and every label be below 10."""
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", 3)
    (nl,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", 1)
    if nl != n:
        raise DataError(f"image/label count mismatch: {n} images vs {nl} labels")
    if labels.max() > 9:
        raise DataError(f"{labels_path}: label byte {labels.max()} out of range for 10 classes")
    images = pixels.astype(np.float64).reshape(n, 1, rows, cols) / 255.0
    return Dataset(images, one_hot(labels.astype(np.int64), 10))


class _CifarVariant(NamedTuple):
    label_bytes: int              # opening each record; the last is the label used
    classes: int
    files: dict[str, list[str]]   # each split's batch files, keyed as _MNIST_FILES


_CIFAR = {
    "cifar10": _CifarVariant(1, 10, {"train": [f"data_batch_{i}.bin" for i in range(1, 6)],
                                     "test": ["test_batch.bin"]}),
    "cifar100": _CifarVariant(2, 100, {"train": ["train.bin"], "test": ["test.bin"]}),
}


def load_cifar(directory: str, variant: str, split: str = "train") -> Dataset:
    """Load CIFAR-10/100 binary batch files from a directory, as the
    variant's row of _CIFAR describes them. Each file is checked (present,
    one or more whole records, labels in range) before the next is read;
    the records of all files are converted to float64 once. The split must
    be one of SPLITS."""
    if variant not in _CIFAR:
        raise DataError(f"unknown CIFAR variant {variant!r}")
    _check_split(split)
    return _read_cifar(directory, _CIFAR[variant], split)


def _read_cifar(directory: str, v: _CifarVariant, split: str) -> Dataset:
    """load_cifar's reading, for a split already checked."""
    record = v.label_bytes + 3 * 32 * 32
    parts = []
    for fname in v.files[split]:
        path = os.path.join(directory, fname)
        if not os.path.exists(path):
            raise DataError(f"missing CIFAR batch file: {path}")
        raw = _read_bytes(path)
        if not raw:
            raise DataError(f"{path}: no records")
        if len(raw) % record:
            raise DataError(f"{path}: size {len(raw)} is not a multiple of the {record}-byte record")
        buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
        labels = buf[:, v.label_bytes - 1]
        if labels.max() >= v.classes:
            raise DataError(f"{path}: label byte {labels.max()} out of range for {v.classes} classes")
        parts.append(buf)
    buf = np.concatenate(parts)
    images = buf[:, v.label_bytes:].astype(np.float64).reshape(-1, 3, 32, 32) / 255.0
    return Dataset(images, one_hot(buf[:, v.label_bytes - 1].astype(np.int64), v.classes))


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

_SUBDIRS = {
    "mnist": ("mnist", "MNIST", "."),
    "fashion_mnist": ("fashion_mnist", "fashion-mnist", "FashionMNIST", "."),
    "cifar10": ("cifar-10-batches-bin", "cifar10", "."),
    "cifar100": ("cifar-100-binary", "cifar100", "."),
}
DATASET_NAMES = tuple(_SUBDIRS)


def _find_idx_file(root: str, stem: str) -> str | None:
    # tolerate the two spellings in the wild plus gzip
    for cand in (stem, stem.replace("-idx", ".idx")):
        for suffix in ("", ".gz"):
            path = os.path.join(root, cand + suffix)
            if os.path.exists(path):
                return path
    return None


def resolve_dir(name: str, root: str) -> str | None:
    """The first of the dataset's directories under root that holds its
    first train file."""
    for sub in _SUBDIRS[name]:
        d = os.path.normpath(os.path.join(root, sub))
        if name in _CIFAR:
            if os.path.exists(os.path.join(d, _CIFAR[name].files["train"][0])):
                return d
        elif _find_idx_file(d, _MNIST_FILES["train"][0]):
            return d
    return None


def load_dataset(name: str, root: str, split: str) -> Dataset:
    """Locate and load a dataset's "train" or "test" split by name under
    the given root directory."""
    if name not in DATASET_NAMES:
        raise DataError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    _check_split(split)
    d = resolve_dir(name, root)
    if d is None:
        raise DataError(f"dataset {name!r} not found under {root!r}")
    if name in _CIFAR:
        return _read_cifar(d, _CIFAR[name], split)
    img, lab = (_find_idx_file(d, stem) for stem in _MNIST_FILES[split])
    if img is None or lab is None:
        raise DataError(f"missing IDX files for {name} {split} under {d}")
    return load_idx(img, lab)
