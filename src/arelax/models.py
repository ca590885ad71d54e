"""Reference architectures: the 4-layer MLP and the small CNN.

MLP: flatten(1x28x28) -> 300 tanh -> 300 tanh -> 100 tanh -> linear head.
CNN: conv 5x5x32 tanh -> maxpool 2x2 -> conv 5x5x64 tanh -> flatten
     -> 120 tanh -> linear head (valid padding, stride 1 throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph
from .tensor import Rng

MODEL_NAMES = ("mlp4", "cnn")


@dataclass
class ModelSpec:
    name: str
    class_count: int = 10

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; expected one of {MODEL_NAMES}")
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")


def mlp4_spec(class_count: int = 10, widths: tuple[int, int, int] = (300, 300, 100)) -> list[dict]:
    w1, w2, w3 = widths
    return [
        {"kind": "input", "shape": (1, 28, 28)},
        {"kind": "flatten"},
        {"kind": "dense", "units": w1, "activation": "tanh"},
        {"kind": "dense", "units": w2, "activation": "tanh"},
        {"kind": "dense", "units": w3, "activation": "tanh"},
        {"kind": "dense", "units": class_count, "activation": "linear"},
    ]


def cnn_spec(class_count: int = 10, channels: tuple[int, int] = (32, 64), fc_width: int = 120) -> list[dict]:
    c1, c2 = channels
    return [
        {"kind": "input", "shape": (3, 32, 32)},
        {"kind": "conv", "out_channels": c1, "kernel": 5, "activation": "tanh"},
        {"kind": "maxpool"},
        {"kind": "conv", "out_channels": c2, "kernel": 5, "activation": "tanh"},
        {"kind": "flatten"},
        {"kind": "dense", "units": fc_width, "activation": "tanh"},
        {"kind": "dense", "units": class_count, "activation": "linear"},
    ]


def _full_spec(spec: ModelSpec) -> list[dict]:
    return (mlp4_spec if spec.name == "mlp4" else cnn_spec)(spec.class_count)


def build_model(spec: ModelSpec, rng: Rng) -> graph.Graph:
    return graph.build(_full_spec(spec), rng)


def reduced_spec(spec: ModelSpec) -> list[dict]:
    """Shrunken variant of the named architecture for gradient checking."""
    if spec.name == "mlp4":
        return mlp4_spec(spec.class_count, widths=(16, 16, 8))
    return cnn_spec(spec.class_count, channels=(4, 6), fc_width=12)


def input_shape(spec: ModelSpec) -> tuple[int, ...]:
    """Shape of one input sample, read from the model's own input node."""
    return _full_spec(spec)[0]["shape"]
