"""3LC stage kernels match the multi-pass oracle bit for bit.

Every payload and scalar must be byte-equal, and every reconstruction,
decoded tensor and error residual must be equal as raw bits (so a ``-0.0``
where the oracle has ``0.0`` fails), for the stage kernels on their own,
for ``ThreeLCCodec`` and its error-feedback contexts, and for
``Stoch 3-value + QE``, which shares the quartic and dequantize stages.
Invalid inputs must raise the oracle's ``ValueError``.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import make_compressor
from repro.core.codec import CompressionContext, ThreeLCCodec, compress_context_batch
from repro.core.quantization import quantize_3value, quantize_3value_batch
from repro.core.quartic import quartic_decode, quartic_encode, quartic_encode_batch
from tests.core import codec_oracle

sizes = st.integers(0, 9) | st.integers(10, 400).filter(lambda n: n % 5)
dtypes = st.sampled_from([np.float32, np.float64])
multipliers = st.floats(1.0, 2.0, exclude_max=True)


@st.composite
def tensors(draw, size=sizes):
    n = draw(size)
    dtype = draw(dtypes)
    kind = draw(st.sampled_from(["normal", "spiky", "zeros", "signed-zeros"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "normal":
        arr = rng.normal(size=n)
    elif kind == "spiky":
        arr = rng.normal(0, 0.01, n) + rng.normal(0, 0.2, n) * (rng.random(n) < 0.05)
    elif kind == "zeros":
        arr = np.zeros(n)
    else:
        arr = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return arr.astype(dtype)


def bits(arr):
    arr = np.asarray(arr)
    return arr.dtype, arr.shape, arr.view(f"u{arr.itemsize}").tobytes()


def scalar_bytes(values):
    return [struct.pack("<d", float(v)) for v in values]


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.message.codec_id == w.message.codec_id
        assert g.message.shape == w.message.shape
        assert g.message.dtype == w.message.dtype
        assert g.message.payload == w.message.payload
        assert scalar_bytes(g.message.scalars) == scalar_bytes(w.message.scalars)
        assert bits(g.reconstruction) == bits(w.reconstruction)


def split(n, cuts):
    """Segment lengths cutting ``n`` elements at the sorted ``cuts``."""
    edges = [0, *sorted(min(c, n) for c in cuts), n]
    return np.diff(edges).astype(np.intp)


class TestStages:
    @given(tensors(), multipliers)
    def test_quantize(self, tensor, s):
        got = quantize_3value(tensor, s)
        want = codec_oracle.quantize_3value(tensor, s)
        assert bits(got.values) == bits(want.values)
        assert scalar_bytes([got.scale]) == scalar_bytes([want.scale])

    @given(tensors(), multipliers, st.lists(st.integers(0, 400), max_size=4))
    def test_quantize_batch(self, flat, s, cuts):
        lengths = split(flat.size, cuts)
        got_values, got_scales = quantize_3value_batch(flat, lengths, s)
        want_values, want_scales = codec_oracle.quantize_3value_batch(flat, lengths, s)
        assert bits(got_values) == bits(want_values)
        assert bits(got_scales) == bits(want_scales)

    @given(sizes, st.integers(0, 2**16))
    def test_quartic_round_trip(self, n, seed):
        values = np.random.default_rng(seed).integers(-1, 2, n).astype(np.int8)
        encoded = quartic_encode(values)
        assert bits(encoded) == bits(codec_oracle.quartic_encode(values))
        assert bits(quartic_decode(encoded, n)) == bits(
            codec_oracle.quartic_decode(encoded, n)
        )

    @given(tensors(), st.lists(st.integers(0, 400), max_size=4))
    def test_quartic_encode_batch(self, flat, cuts):
        values = np.sign(flat).astype(np.int8)
        lengths = split(values.size, cuts)
        got, got_offsets = quartic_encode_batch(values, lengths)
        want, want_offsets = codec_oracle.quartic_encode_batch(values, lengths)
        assert bits(got) == bits(want)
        assert np.array_equal(got_offsets, want_offsets)


class TestCodec:
    @given(tensors(), multipliers, st.booleans())
    def test_compress_and_decompress(self, tensor, s, use_zre):
        codec = ThreeLCCodec(s, use_zre=use_zre, dtype=tensor.dtype)
        got = codec.compress(tensor)
        with codec_oracle.oracle_kernels():
            want = codec.compress(tensor)
            want_decoded = codec.decompress(want.message)
        assert_same_results([got], [want])
        assert bits(codec.decompress(got.message)) == bits(want_decoded)

    @given(st.lists(tensors(), max_size=5), multipliers, st.booleans(), dtypes)
    def test_compress_batch(self, batch, s, use_zre, dtype):
        codec = ThreeLCCodec(s, use_zre=use_zre, dtype=dtype)
        got = codec.compress_batch(batch)
        with codec_oracle.oracle_kernels():
            want = codec.compress_batch(batch)
        assert_same_results(got, want)

    @given(
        st.lists(tensors(size=st.just(23)), min_size=1, max_size=4),
        multipliers,
        st.booleans(),
    )
    def test_error_feedback_cycles(self, steps, s, batched):
        """Per-context and batched cycles carry the oracle's residuals."""
        codec = ThreeLCCodec(s)

        def run(contexts):
            results = []
            for step in steps:
                step = step.astype(np.float32)
                items = [(ctx, step * (i + 1)) for i, ctx in enumerate(contexts)]
                if batched:
                    results += compress_context_batch(items)
                else:
                    results += [ctx.compress(t) for ctx, t in items]
            return results

        new = [CompressionContext((23,), codec) for _ in range(3)]
        old = [CompressionContext((23,), codec) for _ in range(3)]
        got = run(new)
        with codec_oracle.oracle_kernels():
            want = run(old)
        assert_same_results(got, want)
        for n, o in zip(new, old):
            assert bits(n.buffer.residual) == bits(o.buffer.residual)

    @given(tensors(), st.integers(0, 2**16))
    def test_stochastic_ternary_qe(self, tensor, seed):
        scheme = make_compressor("Stoch 3-value + QE", seed=seed)
        tensor = tensor.astype(np.float32)
        got = scheme.make_context(tensor.shape, key=("t",)).compress(tensor)
        with codec_oracle.oracle_kernels():
            want = scheme.make_context(tensor.shape, key=("t",)).compress(tensor)
            want_decoded = scheme.decompress(want.message)
        assert_same_results([got], [want])
        assert bits(scheme.decompress(got.message)) == bits(want_decoded)


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestInvalidInputs:
    @given(
        st.integers(1, 60),
        st.integers(0, 2**16),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        dtypes,
    )
    def test_non_finite_tensor(self, n, seed, bad, dtype):
        rng = np.random.default_rng(seed)
        tensor = rng.normal(size=n).astype(dtype)
        tensor[rng.integers(n)] = bad
        lengths = split(n, rng.integers(0, n + 1, 2).tolist())
        message = raised(codec_oracle.quantize_3value, tensor)
        assert message == "cannot quantize non-finite tensor"
        assert raised(quantize_3value, tensor) == message
        assert raised(quantize_3value_batch, tensor, lengths) == raised(
            codec_oracle.quantize_3value_batch, tensor, lengths
        )
        assert raised(ThreeLCCodec(dtype=dtype).compress, tensor) == message

    @given(
        st.integers(1, 60),
        st.integers(0, 2**16),
        st.sampled_from([np.int8, np.int16, np.int64]),
        st.sampled_from([-128, -2, 2, 3, 127, 255, 256, 1000]),
    )
    def test_quartic_values_out_of_range(self, n, seed, dtype, bad):
        if np.iinfo(dtype).min > bad or np.iinfo(dtype).max < bad:
            bad = 2
        rng = np.random.default_rng(seed)
        values = rng.integers(-1, 2, n).astype(dtype)
        values[rng.integers(n)] = bad
        message = raised(codec_oracle.quartic_encode, values)
        assert message == "quartic encoding requires values in {-1, 0, 1}"
        assert raised(quartic_encode, values) == message
        lengths = split(n, rng.integers(0, n + 1, 2).tolist())
        assert raised(quartic_encode_batch, values, lengths) == message

    @given(st.integers(1, 60), st.integers(0, 2**16), st.integers(243, 255))
    def test_bytes_above_quartic_range(self, n, seed, bad):
        rng = np.random.default_rng(seed)
        encoded = rng.integers(0, 243, n).astype(np.uint8)
        encoded[rng.integers(n)] = bad
        message = raised(codec_oracle.quartic_decode, encoded, 5 * n)
        assert message == "byte outside quartic range [0, 242]"
        assert raised(quartic_decode, encoded, 5 * n) == message
