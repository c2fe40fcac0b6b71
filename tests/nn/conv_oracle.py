"""Reference im2col/col2im: the fancy-index gather and ``np.add.at`` scatter.

This is the lowering ``repro.nn.functional`` used before its strided
kernels. It is kept here, outside the package, as the oracle the strided
kernels must match bit for bit (``tests/nn/test_functional.py``) and as
the baseline ``benchmarks/bench_conv.py`` times them against.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_output_size


def im2col_indices(
    channels: int,
    height: int,
    width: int,
    kernel: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays ``(k, i, j)`` mapping patches to padded-image positions.

    Shapes: ``k`` is ``(C*kh*kw, 1)`` channel indices; ``i``/``j`` are
    ``(C*kh*kw, out_h*out_w)`` row/column indices.
    """
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    i0 = np.repeat(np.arange(kernel), kernel)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
    indices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Patches of ``(N, C, H, W)`` input as ``(C*k*k, OH*OW*N)`` columns."""
    n, c, h, w = x.shape
    if indices is None:
        indices = im2col_indices(c, h, w, kernel, stride, pad)
    k, i, j = indices
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = padded[:, k, i, j]  # (N, C*kh*kw, out_h*out_w)
    return cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
    indices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image shape."""
    n, c, h, w = x_shape
    if indices is None:
        indices = im2col_indices(c, h, w, kernel, stride, pad)
    k, i, j = indices
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    reshaped = cols.reshape(c * kernel * kernel, -1, n).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), k, i, j), reshaped)
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
