"""Zero-run encoding (ZRE): run-length coding of zero groups (paper §3.3).

Quartic encoding maps a group of five quantized zeros to the byte ``121``
and never emits bytes above ``242``. ZRE exploits the spare byte values:
a run of ``k`` consecutive ``121`` bytes with ``2 <= k <= 14`` is replaced
by the single escape byte ``243 + (k - 2)``. Longer runs are split into
chunks of 14. A lone ``121`` is left literal.

Combined with 3-value quantization and quartic encoding this yields the
paper's headline hypothetical: an all-zero float32 tensor compresses by
``280×``. One quartic byte holds five values and one escape byte stands for
fourteen zero-group bytes, so each wire byte carries ``5 · 14 = 70`` values:
``8/70`` bits per value, ``32 / (8/70) = 280×`` fewer than float32 (see
``tests/core/test_zre.py``).

ZRE is byte-level only — no bit operations, no lookup tables — matching the
paper's low-overhead goal. The vectorized implementation decomposes the
input into maximal equal-value runs with NumPy and emits per-run segments
with ``np.repeat``; a byte-at-a-time reference implementation is kept for
property tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.quartic import MAX_QUARTIC_BYTE, ZERO_GROUP_BYTE

__all__ = [
    "zre_encode",
    "zre_decode",
    "zre_encode_reference",
    "zre_decode_reference",
    "MIN_RUN",
    "MAX_RUN",
    "FIRST_ESCAPE_BYTE",
    "LAST_ESCAPE_BYTE",
]

#: Shortest run of zero-group bytes replaced by an escape byte.
MIN_RUN = 2
#: Longest run a single escape byte can represent.
MAX_RUN = 14
#: Escape byte for a run of MIN_RUN zero-groups.
FIRST_ESCAPE_BYTE = 243
#: Escape byte for a run of MAX_RUN zero-groups.
LAST_ESCAPE_BYTE = 255


def zre_encode(data: np.ndarray) -> np.ndarray:
    """Zero-run encode a quartic byte stream.

    Parameters
    ----------
    data:
        1-D ``uint8`` array with entries in ``[0, 242]`` (quartic output).

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array mixing literal bytes ``[0, 242]`` and escape
        bytes ``[243, 255]``. Never longer than the input.
    """
    arr = np.asarray(data, dtype=np.uint8).reshape(-1)
    n = arr.size
    if n == 0:
        return arr.copy()
    if int(arr.max()) > MAX_QUARTIC_BYTE:
        raise ValueError("ZRE input must be quartic bytes in [0, 242]")

    # Decompose into maximal runs of equal bytes.
    boundaries = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries, np.array([n], dtype=np.int64)])
    lengths = ends - starts
    values = arr[starts]

    is_zero_run = values == ZERO_GROUP_BYTE
    # Each zero run of length L becomes (L // 14) escape bytes for full
    # chunks plus at most one byte for the remainder (escape if >= 2,
    # literal 121 if == 1). Non-zero runs are copied literally.
    full_chunks = np.where(is_zero_run, lengths // MAX_RUN, 0)
    remainder = np.where(is_zero_run, lengths % MAX_RUN, 0)

    # Segment A: full-chunk escapes for zero runs, literal repeats otherwise.
    seg_a_value = np.where(is_zero_run, LAST_ESCAPE_BYTE, values).astype(np.uint8)
    seg_a_count = np.where(is_zero_run, full_chunks, lengths)
    # Segment B: the remainder byte of zero runs (count 0 or 1).
    seg_b_value = np.where(
        remainder >= MIN_RUN,
        FIRST_ESCAPE_BYTE + remainder - MIN_RUN,
        ZERO_GROUP_BYTE,
    ).astype(np.uint8)
    seg_b_count = (is_zero_run & (remainder >= 1)).astype(np.int64)

    # Interleave A then B per run and expand.
    seg_values = np.stack([seg_a_value, seg_b_value], axis=1).reshape(-1)
    seg_counts = np.stack([seg_a_count, seg_b_count], axis=1).reshape(-1)
    return np.repeat(seg_values, seg_counts)


def zre_decode(data: np.ndarray) -> np.ndarray:
    """Invert :func:`zre_encode`.

    Escape bytes ``243 + j`` expand to ``j + 2`` copies of the zero-group
    byte ``121``; all other bytes pass through.
    """
    arr = np.asarray(data, dtype=np.uint8).reshape(-1)
    if arr.size == 0:
        return arr.copy()
    is_escape = arr >= FIRST_ESCAPE_BYTE
    run_lengths = np.where(is_escape, arr.astype(np.int64) - FIRST_ESCAPE_BYTE + MIN_RUN, 1)
    out_values = np.where(is_escape, np.uint8(ZERO_GROUP_BYTE), arr)
    return np.repeat(out_values, run_lengths)


def zre_encode_reference(data: np.ndarray) -> np.ndarray:
    """Byte-at-a-time reference encoder (gold standard for tests)."""
    out: list[int] = []
    run = 0
    for byte in np.asarray(data, dtype=np.uint8).reshape(-1):
        b = int(byte)
        if b > MAX_QUARTIC_BYTE:
            raise ValueError("ZRE input must be quartic bytes in [0, 242]")
        if b == ZERO_GROUP_BYTE:
            run += 1
            if run == MAX_RUN:
                out.append(LAST_ESCAPE_BYTE)
                run = 0
            continue
        _flush_run(out, run)
        run = 0
        out.append(b)
    _flush_run(out, run)
    return np.array(out, dtype=np.uint8)


def _flush_run(out: list[int], run: int) -> None:
    if run == 0:
        return
    if run == 1:
        out.append(ZERO_GROUP_BYTE)
    else:
        out.append(FIRST_ESCAPE_BYTE + run - MIN_RUN)


def zre_decode_reference(data: np.ndarray) -> np.ndarray:
    """Byte-at-a-time reference decoder (gold standard for tests)."""
    out: list[int] = []
    for byte in np.asarray(data, dtype=np.uint8).reshape(-1):
        b = int(byte)
        if b >= FIRST_ESCAPE_BYTE:
            out.extend([ZERO_GROUP_BYTE] * (b - FIRST_ESCAPE_BYTE + MIN_RUN))
        else:
            out.append(b)
    return np.array(out, dtype=np.uint8)
