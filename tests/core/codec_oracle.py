"""Reference 3LC stage kernels: the multi-pass NumPy versions.

These are the quantize, dequantize and quartic kernels ``repro.core`` used
before its single-reduction quantize, one-pass dequantize, Horner packing
and table-lookup decode. They are kept here, outside the package, as the
oracle the current kernels must match bit for bit
(``tests/core/test_codec_oracle.py``) and as the baseline
``benchmarks/bench_codec.py`` times them against.

:func:`oracle_kernels` swaps them, together with the copying
error-feedback accumulate, into the modules that call them, so a whole
codec or compressor can run on the old kernels.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.compression import stochastic_ternary
from repro.core import codec as codec_module
from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.quantization import QuantizedTensor, _validate_multiplier
from repro.core.quartic import GROUP_SIZE, MAX_QUARTIC_BYTE, padded_length

# Powers of 3 for the five digit positions, most-significant first.
_POWERS = np.array([81, 27, 9, 3, 1], dtype=np.uint8)


def quantize_3value(tensor: np.ndarray, s: float = 1.0) -> QuantizedTensor:
    s = _validate_multiplier(s)
    arr = np.asarray(tensor)
    if arr.size == 0:
        return QuantizedTensor(np.zeros(arr.shape, dtype=np.int8), 0.0)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot quantize non-finite tensor")
    max_mag = float(np.max(np.abs(arr)))
    scale = max_mag * s
    if scale == 0.0:
        return QuantizedTensor(np.zeros(arr.shape, dtype=np.int8), 0.0)
    values = np.rint(arr / scale).astype(np.int8)
    return QuantizedTensor(values, scale)


def dequantize_3value(
    quantized: QuantizedTensor, dtype: np.dtype | type = np.float32
) -> np.ndarray:
    return (quantized.scale * quantized.values.astype(dtype, copy=False)).astype(
        dtype, copy=False
    )


def quantize_3value_batch(
    flat: np.ndarray, lengths: np.ndarray, s: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    s = _validate_multiplier(s)
    flat = np.asarray(flat).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.intp)
    total = int(lengths.sum())
    if flat.size != total:
        raise ValueError(
            f"segment lengths sum to {total}, flat array has {flat.size}"
        )
    if flat.size and not np.all(np.isfinite(flat)):
        raise ValueError("cannot quantize non-finite tensor")
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    mags = np.zeros(lengths.shape[0], dtype=np.float64)
    nonempty = lengths > 0
    if flat.size:
        # Zero-length segments occupy no indices, so consecutive nonempty
        # starts bound exactly one segment each.
        mags[nonempty] = np.maximum.reduceat(np.abs(flat), starts[nonempty])
    scales = mags * s
    # A zero scale means the whole segment is zero, so dividing it by the
    # placeholder 1.0 still rounds to all-zero values — no masking needed.
    divisor = np.where(scales > 0.0, scales, 1.0)[
        np.repeat(np.arange(lengths.shape[0]), lengths)
    ].astype(flat.dtype, copy=False)
    values = np.rint(flat / divisor).astype(np.int8)
    return values, scales


def quartic_encode(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    flat = arr.reshape(-1)
    if flat.size and (flat.min() < -1 or flat.max() > 1):
        raise ValueError("quartic encoding requires values in {-1, 0, 1}")
    # Steps 1-4 of the paper: +1, cast to uint8, flatten, pad to multiple of 5.
    digits = (flat.astype(np.int16) + 1).astype(np.uint8)
    pad = padded_length(flat.size) - flat.size
    if pad:
        # Padding with 1 (the digit for quantized zero) keeps padded groups
        # eligible for zero-run encoding.
        digits = np.concatenate([digits, np.ones(pad, dtype=np.uint8)])
    # Step 5-6: partition into 5 columns and evaluate the quartic form.
    groups = digits.reshape(-1, GROUP_SIZE)
    # uint8 arithmetic would overflow (max 2*81=162 fits, but the sum 242
    # also fits); still, accumulate in uint16 for clarity and safety.
    packed = (groups.astype(np.uint16) * _POWERS.astype(np.uint16)).sum(axis=1)
    return packed.astype(np.uint8)


def quartic_encode_batch(
    values: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    flat = np.asarray(values).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.intp)
    total = int(lengths.sum())
    if flat.size != total:
        raise ValueError(
            f"segment lengths sum to {total}, values array has {flat.size}"
        )
    if flat.size and (flat.min() < -1 or flat.max() > 1):
        raise ValueError("quartic encoding requires values in {-1, 0, 1}")
    padded = -(-lengths // GROUP_SIZE) * GROUP_SIZE
    padded_total = int(padded.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    padded_starts = np.concatenate(([0], np.cumsum(padded)[:-1]))
    # Scatter each segment's digits into a ones-filled (= digit of a
    # quantized zero, keeping padded groups ZRE-eligible) padded buffer.
    digits = np.ones(padded_total, dtype=np.uint8)
    dest = np.arange(total) + np.repeat(padded_starts - starts, lengths)
    digits[dest] = (flat.astype(np.int16) + 1).astype(np.uint8)
    groups = digits.reshape(-1, GROUP_SIZE)
    packed = (groups.astype(np.uint16) * _POWERS.astype(np.uint16)).sum(axis=1)
    byte_offsets = np.concatenate(([0], np.cumsum(padded // GROUP_SIZE)))
    return packed.astype(np.uint8), byte_offsets


def quartic_decode(
    encoded: np.ndarray, count: int, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    arr = np.asarray(encoded, dtype=np.uint8).reshape(-1)
    if count < 0:
        raise ValueError("count must be non-negative")
    if arr.size != (padded_length(count) // GROUP_SIZE):
        raise ValueError(
            f"encoded length {arr.size} inconsistent with count {count}"
        )
    if arr.size and arr.max() > MAX_QUARTIC_BYTE:
        raise ValueError("byte outside quartic range [0, 242]")
    # Base-3 digit extraction: divide by powers of 3, take remainder mod 3.
    a = arr.astype(np.uint16)
    digits = (a[:, None] // _POWERS.astype(np.uint16)) % 3
    flat = digits.reshape(-1)[:count].astype(np.int8) - 1
    if shape is not None:
        expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if expected != count:
            raise ValueError(f"shape {shape} incompatible with count {count}")
        return flat.reshape(shape)
    return flat


def accumulate(self: ErrorAccumulationBuffer, tensor: np.ndarray) -> np.ndarray:
    """The error-feedback accumulate that hands the codec a fresh copy."""
    tensor = np.asarray(tensor)
    if tensor.shape != self._residual.shape:
        raise ValueError(
            f"shape mismatch: buffer {self._residual.shape}, input {tensor.shape}"
        )
    self._residual += tensor
    return self._residual.copy()


@contextmanager
def oracle_kernels():
    """Run ``ThreeLCCodec``, its contexts and ``Stoch 3-value + QE`` on the
    oracle kernels for the duration of the ``with`` block."""
    patches = [
        (codec_module, "quantize_3value", quantize_3value),
        (codec_module, "quantize_3value_batch", quantize_3value_batch),
        (codec_module, "dequantize_3value", dequantize_3value),
        (codec_module, "quartic_encode", quartic_encode),
        (codec_module, "quartic_encode_batch", quartic_encode_batch),
        (codec_module, "quartic_decode", quartic_decode),
        (stochastic_ternary, "quartic_encode", quartic_encode),
        (stochastic_ternary, "quartic_decode", quartic_decode),
        (stochastic_ternary, "dequantize_3value", dequantize_3value),
        (ErrorAccumulationBuffer, "accumulate", accumulate),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
