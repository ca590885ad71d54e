"""arelax: activation relaxation training over computation graphs.

A two-phase local learning scheme: a feedforward sweep freezes activations,
then a relaxation phase drives every node's activity to the exact
backpropagation gradient of the loss at that node, after which weights are
updated from local quantities only. Includes a reverse-mode and
finite-difference gradient oracle for verification, learned backwards
weights, dropped nonlinear derivatives, and the frozen-sweep ablations.
"""

from .graph import Graph, GraphError, build, forward
from .models import ModelSpec, build_model
from .oracle import GradientSet, backprop, finite_diff, loss_mse
from .relaxation import (
    ARConfig,
    DivergenceError,
    RelaxState,
    apply_updates,
    psi_update,
    relax_step,
    run_relaxation,
    weight_update,
)
from .tensor import NonFiniteError, Rng, ShapeError, Tensor

__version__ = "0.1.0"

__all__ = [
    "ARConfig",
    "DivergenceError",
    "GradientSet",
    "Graph",
    "GraphError",
    "ModelSpec",
    "NonFiniteError",
    "RelaxState",
    "Rng",
    "ShapeError",
    "Tensor",
    "apply_updates",
    "backprop",
    "build",
    "build_model",
    "finite_diff",
    "forward",
    "loss_mse",
    "psi_update",
    "relax_step",
    "run_relaxation",
    "weight_update",
]
