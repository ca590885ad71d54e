"""Shared fixtures; the dataset writers they use live in arelax_testkit.

When a hypothesis test fails, hypothesis's report hook imports
hypothesis.extra._patching, which imports libcst if it is installed, and
libcst 1.0.1 imports mypy_extensions' deprecated TypedDict. Under
filterwarnings = ["error"] that DeprecationWarning is raised inside the
hook: the session ends with INTERNALERROR, the failing test is not named,
and later tests never run. Importing the module once here, with that
warning ignored, leaves nothing for the hook to import.
"""

import warnings

import pytest

from arelax_testkit import make_cifar10_dir, make_cifar100_dir, make_mnist_dir

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # no libcst: the hook skips the import as well
        pass


@pytest.fixture(scope="session")
def synth_data_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("synth_data"))
    make_mnist_dir(root)
    make_mnist_dir(root, seed=14, subdir="fashion_mnist")
    make_cifar10_dir(root)
    make_cifar100_dir(root)
    return root
