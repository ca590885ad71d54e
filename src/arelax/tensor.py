"""Dense float64 array kernels shared by every other module.

All kernels are pure functions over C-contiguous float64 numpy arrays.
Shape violations raise ShapeError; a kernel that produces NaN/Inf raises
NonFiniteError rather than letting it propagate silently.

Conventions baked in here:
  * Spatial kernels (conv2d, im2col, col2im, maxpool2d, maxpool2d_scatter)
    take batched (B,C,H,W) input only.
  * conv2d is cross-correlation (no kernel flip), stride 1, valid padding.
  * maxpool2d is a fixed 2x2 window with stride 2; ties go to the lowest
    flat index inside the window.
  * Rng wraps a PCG64 stream; each call consumes the stream in call order
    and fills arrays row-major, so a given seed yields the same tensors on
    every run.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray


class ShapeError(ValueError):
    """Operand shapes violate a kernel's contract."""


class NonFiniteError(FloatingPointError):
    """A kernel produced NaN or Inf."""


def as_tensor(data) -> Tensor:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


def _finite(out: Tensor, op: str) -> Tensor:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


def _quiet():
    # overflow inside a kernel is reported via NonFiniteError, not a warning
    return np.errstate(over="ignore", invalid="ignore")


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# matrix multiply

def matmul(a, b) -> Tensor:
    """Standard matrix product of two 2-D tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree: {a.shape} x {b.shape}")
    with _quiet():
        return _finite(a @ b, "matmul")


# ---------------------------------------------------------------------------
# 2-D convolution (cross-correlation) and max pooling

def _batched(x, op: str) -> Tensor:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"{op}: expected (B,C,H,W) input, got {x.shape}")
    return x


def im2col(x: Tensor, kh: int, kw: int) -> Tensor:
    """Unfold (B,C,H,W) into patch columns of shape (B, C*kh*kw, H'*W')."""
    b, c, h, w = x.shape
    hp, wp = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (b, c, kh, kw, hp, wp), (s0, s1, s2, s3, s2, s3), writeable=False
    )
    return np.ascontiguousarray(win).reshape(b, c * kh * kw, hp * wp)


def col2im(cols: Tensor, c: int, kh: int, kw: int, h: int, w: int) -> Tensor:
    """Scatter-add patch columns (B, C*kh*kw, H'*W') back onto (B,C,H,W)."""
    b = cols.shape[0]
    hp, wp = h - kh + 1, w - kw + 1
    cols6 = cols.reshape(b, c, kh, kw, hp, wp)
    out = np.zeros((b, c, h, w))
    for u in range(kh):
        for v in range(kw):
            out[:, :, u : u + hp, v : v + wp] += cols6[:, :, u, v]
    return out


def conv2d(x, kernels) -> Tensor:
    """Valid, stride-1 cross-correlation.

    x: (B,C_in,H,W); kernels: (C_out,C_in,kH,kW).
    Output spatial extents are H-kH+1 by W-kW+1.
    """
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D (C_out,C_in,kH,kW), got {k.shape}")
    x = _batched(x, "conv2d")
    _, c, h, w = x.shape
    _, ci, kh, kw = k.shape
    if ci != c:
        raise ShapeError(f"conv2d: channel mismatch: input {c} vs kernels {ci}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    return conv2d_cols(im2col(x, kh, kw), k, h - kh + 1, w - kw + 1)


def conv2d_cols(cols: Tensor, kernels: Tensor, hp: int, wp: int) -> Tensor:
    """conv2d's GEMM on im2col columns (B, C_in*kH*kW, hp*wp) of its input:
    the (B, C_out, hp, wp) output."""
    co = kernels.shape[0]
    with _quiet():
        out = np.matmul(kernels.reshape(co, -1)[None], cols).reshape(cols.shape[0], co, hp, wp)
        return _finite(out, "conv2d")


def maxpool2d(x) -> tuple[Tensor, Tensor]:
    """2x2/stride-2 max pooling of (B,C,H,W) input.

    Returns (pooled, idx) where idx holds, per output cell, the flat index
    of the winning element inside its H*W input plane; ties break to the
    lowest flat index. The idx map is what routes derivatives back.
    """
    x = _batched(x, "maxpool2d")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: extents must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = x.reshape(b, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h2, w2, 4)
    k = win.argmax(axis=-1)
    pooled = np.take_along_axis(win, k[..., None], axis=-1)[..., 0]
    rows = 2 * np.arange(h2)[:, None] + k // 2
    colns = 2 * np.arange(w2)[None, :] + k % 2
    return pooled, rows * w + colns


def maxpool2d_scatter(values, idx, height: int, width: int) -> Tensor:
    """Inverse routing of maxpool2d: place each pooled value at its recorded
    plane position, zeros elsewhere. Windows are disjoint so no collisions."""
    values = _batched(values, "maxpool2d_scatter")
    b, c = values.shape[:2]
    out = np.zeros((b, c, height * width))
    np.put_along_axis(out, idx.reshape(b, c, -1), values.reshape(b, c, -1), axis=-1)
    return out.reshape(b, c, height, width)


# ---------------------------------------------------------------------------
# elementwise kernels

def add(a, b) -> Tensor:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    _same_shape(a, b, "add")
    return _finite(a + b, "add")


# ---------------------------------------------------------------------------
# seeded randomness

class Rng:
    """Deterministic random stream. Identical seed, identical samples.

    A stream has a single owner (one per experiment seed); never share one
    across concurrent consumers.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"Rng seed must be non-negative, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> Tensor:
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> Tensor:
        if lo > hi:
            raise ValueError(f"uniform bounds reversed: lo={lo} > hi={hi}")
        return self._gen.uniform(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, lo: int, hi: int) -> int:
        return int(self._gen.integers(lo, hi))

