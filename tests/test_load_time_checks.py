"""Rejections that happen when a graph, a config or a dataset is loaded:
each case must raise its error type with exactly the message below."""

import re
import struct

import numpy as np
import pytest

from arelax import data, tensor
from arelax.graph import GraphError, build
from arelax.harness import config_from_dict
from arelax.tensor import Rng, ShapeError

FLAT = {"kind": "input", "shape": (4,)}
SPATIAL = {"kind": "input", "shape": (2, 6, 6)}
IMAGES = struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 2, 2, 2) + bytes(8)
LABELS = struct.pack(">II", data.IDX_LABELS_MAGIC, 2) + bytes([0, 1])
CONFIG = {"model": {"name": "mlp4"}, "dataset": "mnist", "epochs": 1, "seeds": [0], "output": "o.csv"}


def graph(*spec, rng=True):
    return lambda tmp: build(list(spec), Rng(0) if rng else None)


def idx(images=IMAGES, labels=LABELS):
    def load(tmp):
        (tmp / "img").write_bytes(images)
        (tmp / "lab").write_bytes(labels)
        return data.load_idx(str(tmp / "img"), str(tmp / "lab"))
    return load


def config(**changes):
    return lambda tmp: config_from_dict({**CONFIG, **changes})


def empty_cifar_test_batch(tmp):
    (tmp / "test_batch.bin").write_bytes(b"")
    return data.load_cifar(str(tmp), "cifar10", "test")


def missing_idx_files(tmp):
    (tmp / "mnist").mkdir()
    (tmp / "mnist" / "train-images-idx3-ubyte").write_bytes(IMAGES)
    return data.load_dataset("mnist", str(tmp), "test")


# name: (load(tmp_path), error type, message; {tmp} is tmp_path)
CASES = {
    "graph_empty_spec": (graph(), GraphError, "empty graph spec"),
    "graph_unknown_activation": (
        graph(FLAT, {"kind": "dense", "units": 2, "activation": "relu"}),
        GraphError, "node 1: unknown activation 'relu'"),
    "graph_node0_without_parents": (
        graph({"kind": "dense", "units": 2}, FLAT),
        GraphError, "node 0 (dense) has no parents and is not an input"),
    "graph_negative_input_extent": (
        graph({"kind": "input", "shape": (3, -1)}),
        GraphError, "node 0: negative extent in input shape (3, -1)"),
    "graph_one_parent_kind_with_two": (
        graph(FLAT, {"kind": "dense", "units": 4}, {"kind": "dense", "units": 2, "parents": [0, 1]}),
        GraphError, "node 2: dense takes exactly one parent"),
    "graph_conv_on_flat_parent": (
        graph(FLAT, {"kind": "conv", "out_channels": 2, "kernel": 3}),
        GraphError, "node 1: conv needs a (C,H,W) parent, got shape (4,)"),
    "graph_maxpool_on_flat_parent": (
        graph(FLAT, {"kind": "maxpool"}),
        GraphError, "node 1: maxpool needs a (C,H,W) parent, got shape (4,)"),
    "graph_kernel_larger_than_input": (
        graph(SPATIAL, {"kind": "conv", "out_channels": 2, "kernel": [3, 7]}),
        GraphError, "node 1: kernel 3x7 larger than input 6x6"),
    "graph_odd_maxpool_extents": (
        graph({"kind": "input", "shape": (1, 5, 4)}, {"kind": "maxpool"}),
        GraphError, "node 1: maxpool needs even extents, got 5x4"),
    "graph_add_with_one_parent": (
        graph(FLAT, {"kind": "add", "parents": [0]}),
        GraphError, "node 1: add needs at least two parents"),
    "graph_unhashable_kind": (graph(FLAT, {"kind": ["dense"]}), GraphError, "node 1: unknown kind ['dense']"),
    "graph_dense_without_units": (
        graph(FLAT, {"kind": "dense"}), GraphError, "node 1: missing dense keys: ['units']"),
    "graph_conv_without_out_channels": (
        graph(SPATIAL, {"kind": "conv", "kernel": 3}), GraphError, "node 1: missing conv keys: ['out_channels']"),
    "graph_fractional_units": (
        graph(FLAT, {"kind": "dense", "units": 2.7}), GraphError, "node 1: units must be an integer, got 2.7"),
    "graph_fractional_input_extent": (
        graph({"kind": "input", "shape": (2.5,)}, {"kind": "dense", "units": 2}),
        GraphError, "node 0: shape must be a list of integers, got (2.5,)"),
    "graph_one_element_kernel": (
        graph(SPATIAL, {"kind": "conv", "out_channels": 2, "kernel": [3]}),
        GraphError, "node 1: kernel must be an integer or a pair, got [3]"),
    "graph_float_kernel": (
        graph(SPATIAL, {"kind": "conv", "out_channels": 2, "kernel": 3.0}),
        GraphError, "node 1: kernel must be an integer or a pair, got 3.0"),
    "graph_parents_not_a_list": (
        graph(FLAT, {"kind": "dense", "units": 2, "parents": 0}),
        GraphError, "node 1: parents must be a list of integers, got 0"),
    "graph_misspelt_key": (
        graph(FLAT, {"kind": "dense", "units": 2, "activaton": "linear"}),
        GraphError, "node 1: unknown dense keys: ['activaton']"),
    "graph_input_with_parents": (
        graph({"kind": "input", "shape": (4,), "parents": [1]}, {"kind": "dense", "units": 2}),
        GraphError, "node 0: an input takes no parents, got [1]"),
    "graph_implicit_weights_without_rng": (
        graph(FLAT, {"kind": "dense", "units": 2}, rng=False),
        GraphError, "an Rng is required to initialize parameters that are not given explicitly"),
    "config_top_level_list": (
        lambda tmp: config_from_dict([]), ValueError, "config section must be an object, got []"),
    "config_top_level_string": (
        lambda tmp: config_from_dict("x"), ValueError, "config section must be an object, got 'x'"),
    "config_mode": (config(mode="sideways"), ValueError, "mode must be 'train' or 'gradcheck', got 'sideways'"),
    "config_epochs": (config(epochs=-1), ValueError, "epochs must be >= 0, got -1"),
    "config_class_count": (
        config(model={"name": "mlp4", "class_count": 1}), ValueError, "class_count must be >= 2, got 1"),
    "conv2d_kernels_not_4d": (
        lambda tmp: tensor.conv2d(np.zeros((1, 1, 3, 3)), np.zeros((2, 2))),
        ShapeError, "conv2d: kernels must be 4-D (C_out,C_in,kH,kW), got (2, 2)"),
    "idx_image_header_too_short": (
        idx(images=IMAGES[:15]), data.DataError, "{tmp}/img: too short for an IDX image header"),
    "idx_label_header_too_short": (
        idx(labels=LABELS[:7]), data.DataError, "{tmp}/lab: too short for an IDX label header"),
    "idx_bad_label_magic": (
        idx(labels=struct.pack(">II", 0xBEEF, 2) + bytes(2)),
        data.DataError, "{tmp}/lab: bad magic 0x0000beef, expected 0x00000801"),
    "idx_truncated_labels": (
        idx(labels=LABELS[:9]), data.DataError, "{tmp}/lab: truncated payload, expected 10 bytes, got 9"),
    "idx_label_byte_out_of_range": (
        idx(labels=LABELS[:8] + bytes([0, 10])),
        data.DataError, "{tmp}/lab: label byte 10 out of range for 10 classes"),
    "idx_no_records": (
        idx(images=struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 0, 2, 2),
            labels=struct.pack(">II", data.IDX_LABELS_MAGIC, 0)),
        data.DataError, "{tmp}/img: no records"),
    "cifar_no_records": (empty_cifar_test_batch, data.DataError, "{tmp}/test_batch.bin: no records"),
    "cifar_unknown_variant": (
        lambda tmp: data.load_cifar(str(tmp), "cifar20"), data.DataError, "unknown CIFAR variant 'cifar20'"),
    "dataset_missing_idx_files": (
        missing_idx_files, data.DataError, "missing IDX files for mnist test under {tmp}/mnist"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_when_loaded(case, tmp_path):
    load, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message.format(tmp=tmp_path))}$"):
        load(tmp_path)
