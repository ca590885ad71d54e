"""Dense float64 array kernels shared by every other module.

All kernels are pure functions over C-contiguous float64 numpy arrays.
Shape violations raise ShapeError. The kernels do not check for NaN/Inf:
the node kinds (graph.py) call check_finite once per forward, and the two
sweeps that run node forwards, graph.forward and oracle.finite_diff, set
numpy's error state once, so an overflow there raises NonFiniteError
instead of warning.

Conventions baked in here:
  * Spatial kernels (conv2d, im2col, col2im, maxpool2d, maxpool2d_scatter)
    take batched (B,C,H,W) input only.
  * im2col's patch columns are (B, C*kh*kw, H'*W')-shaped but stored
    channel-major: they view one C-contiguous (C*kh*kw, B*H'*W') buffer,
    which col_matrix returns without a copy, so conv2d_cols and the conv
    node's outer product are single 2-D GEMMs.
  * The library does not call col2im: the conv node's VJP adds the kW
    slices of one GEMM per kernel row into the input gradient instead.
    col2im stays as the written-out reference of that transport, which the
    conv VJP test and the benchmark's per-node kernel cases
    (perfbench/kernels.py) use, until those cases are rebuilt from the node
    kinds' own kernels.
  * conv2d is cross-correlation (no kernel flip), stride 1, valid padding.
  * maxpool2d is a fixed 2x2 window with stride 2; ties go to the lowest
    flat index inside the window. It reads the four window corners as
    strided views of the input and takes pairwise maxima, with no window
    copy and no argmax; its idx map holds in-plane flat indices, and
    maxpool2d_scatter writes through them with one flat fancy-index
    assignment after adding each plane's offset.
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
    """A node's forward produced NaN or Inf."""


def as_tensor(data) -> Tensor:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


def check_finite(out: Tensor, op: str) -> Tensor:
    """out, or NonFiniteError naming op if it holds NaN or Inf."""
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# 2-D convolution (cross-correlation) and max pooling

def _batched(x, op: str) -> Tensor:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"{op}: expected (B,C,H,W) input, got {x.shape}")
    return x


def im2col(x: Tensor, kh: int, kw: int) -> Tensor:
    """Unfold (B,C,H,W) into patch columns of shape (B, C*kh*kw, H'*W').

    The result is a transposed view of one C-contiguous channel-major
    buffer of shape (C*kh*kw, B*H'*W'), which col_matrix returns, so a
    conv's forward GEMM and its weight outer product are plain 2-D GEMMs.
    """
    b, c, h, w = x.shape
    # the (B, C, H', W', kh, kw) windows, read as (C, kh, kw, B, H', W')
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)
    return np.ascontiguousarray(win).reshape(c * kh * kw, b, (h - kh + 1) * (w - kw + 1)).transpose(1, 0, 2)


def col_matrix(cols: Tensor) -> Tensor:
    """im2col's columns (B, K, P) as the (K, B*P) matrix they view; a copy
    only when cols is not such a view."""
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)


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


def conv2d_cols(cols: Tensor, kernels: Tensor, hp: int, wp: int, out: Tensor | None = None) -> Tensor:
    """conv2d's GEMM on im2col columns (B, C_in*kH*kW, hp*wp) of its input:
    one (C_out, K) @ (K, B*hp*wp) product, transposed once into the
    C-contiguous (B, C_out, hp, wp) output, or into out if given."""
    co = kernels.shape[0]
    prod = (kernels.reshape(co, -1) @ col_matrix(cols)).reshape(co, cols.shape[0], hp, wp)
    if out is None:
        out = np.empty((cols.shape[0], co, hp, wp))
    np.copyto(out, prod.transpose(1, 0, 2, 3))
    return out


def maxpool2d(x) -> tuple[Tensor, Tensor]:
    """2x2/stride-2 max pooling of (B,C,H,W) input.

    Returns (pooled, idx) where idx holds, per output cell, the flat index
    of the winning element inside its H*W input plane (dtype intp); ties
    break to the lowest flat index. The idx map is what routes derivatives
    back.

    The four window corners are strided views of x, so nothing is copied
    into window order: two pairwise maxima give each window's upper and
    lower row, and strict comparisons pick the row and then the column,
    which is what sends a tie to the lower index. A tie of +0.0 against
    -0.0 is a tie (idx keeps the rule), but pooled may hold either zero.
    A NaN in a window makes its pooled value NaN, and its idx may then
    name any cell of the window, not necessarily the NaN's; the node kinds
    check every conv and add output, so a NaN reaches a pool only from an
    unchecked input.
    """
    x = _batched(x, "maxpool2d")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: extents must be even, got {h}x{w}")
    x6 = x.reshape(b, c, h // 2, 2, w // 2, 2)     # splits axes only: a view
    tl, tr = x6[:, :, :, 0, :, 0], x6[:, :, :, 0, :, 1]
    bl, br = x6[:, :, :, 1, :, 0], x6[:, :, :, 1, :, 1]
    upper, lower = np.maximum(tl, tr), np.maximum(bl, br)
    down = lower > upper
    right_up = tr > tl
    right = right_up ^ (down & (right_up ^ (br > bl)))  # br > bl where down
    idx = np.multiply(down, w, dtype=np.intp)
    idx += right
    idx += 2 * w * np.arange(h // 2)[:, None] + 2 * np.arange(w // 2)  # top-left corners
    return np.maximum(upper, lower), idx


def maxpool2d_scatter(values, idx, height: int, width: int) -> Tensor:
    """Inverse routing of maxpool2d: place each pooled value at its recorded
    plane position, zeros elsewhere. Windows are disjoint so no collisions.

    idx (maxpool2d's, in-plane flat indices) is offset by each plane's start
    in the flat (B*C*height*width) output, and the values are written with
    one fancy-index assignment into zeros. idx must be maxpool2d's map for
    a height x width plane: its range is not checked, and an index past the
    plane would land in the next one.
    """
    values = _batched(values, "maxpool2d_scatter")
    b, c = values.shape[:2]
    plane = height * width
    flat = idx + (plane * np.arange(b * c)).reshape(b, c, 1, 1)
    out = np.zeros(b * c * plane)
    out[flat.ravel()] = values.ravel()
    return out.reshape(b, c, height, width)


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

