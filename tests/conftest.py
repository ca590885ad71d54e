"""Shared fixtures; the dataset writers they use live in arelax_testkit."""

import pytest

from arelax_testkit import make_cifar10_dir, make_cifar100_dir, make_mnist_dir


@pytest.fixture(scope="session")
def synth_data_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("synth_data"))
    make_mnist_dir(root)
    make_mnist_dir(root, seed=14, subdir="fashion_mnist")
    make_cifar10_dir(root)
    make_cifar100_dir(root)
    return root
