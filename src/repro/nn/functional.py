"""Vectorized building blocks for convolution: im2col / col2im.

Convolution is implemented as one big matrix product over patch columns —
the standard im2col lowering that GPU frameworks use — so all FLOPs land in
BLAS rather than Python loops. ``col2im`` is its adjoint (scatter-add),
used by the conv backward pass.

Layers exchange NCHW arrays. Inside the two kernels the working layout is
batch-minor ``(C, H, W, N)``: the column order the conv layer multiplies
against is ``(C*k*k, OH*OW*N)`` (spatial-major, batch-minor), so in that
layout every patch is a strided window and the lowering needs no index
arrays:

* ``im2col`` pads once into a ``(C, H+2p, W+2p, N)`` buffer, takes a
  ``sliding_window_view`` over the two spatial axes, strides it, and makes
  one reshaping copy.
* ``col2im`` views the columns as ``(C, k, k, OH, OW, N)`` and adds each
  of the ``k*k`` kernel offsets into a zeroed padded buffer as one strided
  slice.

Two properties of ``col2im`` are part of its contract, because training
runs are compared bit for bit against golden traces:

* **Summation order.** The slice-adds run in ascending ``(ki, kj)`` order,
  so each image element receives its contributions in the same order a
  sequential scatter-add over the columns would; the result is
  bit-identical to that scatter, not merely close.
* **Contiguous NCHW output.** The result is returned as a C-contiguous
  NCHW array. Downstream reductions (batch-norm means and variances) sum
  in memory order, so handing back a transposed view would change their
  rounding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output extent of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output ({out}) for size={size}, "
            f"kernel={kernel}, stride={stride}, pad={pad}"
        )
    return out


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Extract sliding patches as columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(C*kernel*kernel, out_h*out_w*N)``, rows ordered
        ``(c, ki, kj)`` and columns ``(oh, ow, n)``; same dtype as ``x``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    padded[:, pad : pad + h, pad : pad + w] = x.transpose(1, 2, 3, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride][:, :out_h, :out_w]  # (C, OH, OW, N, k, k)
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * kernel * kernel, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum columns back into image shape.

    Returns a C-contiguous ``(N, C, H, W)`` array of ``cols.dtype``; see the
    module docstring for why the summation order and contiguity are fixed.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    patches = cols.reshape(c, kernel, kernel, out_h, out_w, n)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
            ] += patches[:, ki, kj]
    image = padded[:, pad : pad + h, pad : pad + w]
    return np.ascontiguousarray(image.transpose(3, 0, 1, 2))
