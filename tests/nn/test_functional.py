"""Strided im2col/col2im match the index-array oracle bit for bit."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.functional import col2im, im2col
from tests.nn import conv_oracle


@st.composite
def conv_geometries(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.integers(0, kernel // 2))
    smallest = max(1, kernel - 2 * pad)
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    h = draw(st.integers(smallest, smallest + 7))
    w = draw(st.integers(smallest, smallest + 7))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**16))
    return (n, c, h, w), kernel, stride, pad, np.dtype(dtype), seed


@given(conv_geometries())
def test_strided_kernels_match_oracle(geometry):
    shape, kernel, stride, pad, dtype, seed = geometry
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(dtype)

    cols = im2col(x, kernel, stride, pad)
    expected_cols = conv_oracle.im2col(x, kernel, stride, pad)
    assert cols.dtype == dtype
    assert np.array_equal(cols, expected_cols)

    grad_cols = rng.normal(size=cols.shape).astype(dtype)
    image = col2im(grad_cols, shape, kernel, stride, pad)
    expected_image = conv_oracle.col2im(grad_cols, shape, kernel, stride, pad)
    assert image.dtype == dtype
    assert image.shape == shape
    assert image.flags.c_contiguous
    assert np.array_equal(image, expected_image)


def test_col2im_sums_overlapping_windows():
    # 3x3 windows at stride 1 over a 3x3 image with pad 1: the centre
    # pixel is covered by all nine windows, a corner by four.
    cols = np.ones((9, 9), dtype=np.float32)
    image = col2im(cols, (1, 1, 3, 3), kernel=3, stride=1, pad=1)
    assert image[0, 0].tolist() == [[4, 6, 4], [6, 9, 6], [4, 6, 4]]
