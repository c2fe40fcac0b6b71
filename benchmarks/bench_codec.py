#!/usr/bin/env python
"""Codec throughput benchmark: 3LC stage kernels vs the multi-pass oracle.

Times one compress (encode, with the scheme's error feedback) and one
decompress (decode) per call for each scheme and tensor size, once with
the kernels in ``repro.core`` and once with the oracle kernels of
``tests/core/codec_oracle.py`` swapped in. The two are timed interleaved
in one process, so their ratio is robust to the host speeding up or
slowing down mid-run where absolute seconds are not. ``32-bit float``
uses none of the 3LC kernels and is the memory-copy floor.

Inputs are gradient-like float32 tensors: small Gaussian noise plus rare
large spikes, so 3LC at ``s=1.00`` sends mostly zeros. MB/s counts the
uncompressed float32 input.

``--check`` asserts that every message, reconstruction, decoded tensor
and error residual is bit-identical to the oracle, and that 3LC
encode+decode is at least ``MIN_SPEEDUP``× faster than the oracle at
every size of at least ``GATE_MIN_ELEMENTS``. ``--json`` writes the
results with a host manifest (cores, Python, numpy, BLAS and its thread
count, git SHA).

Run:  python benchmarks/bench_codec.py [--smoke] [--check] [--json PATH]
"""

import os

# One BLAS thread, as in the repo benchmark, unless the caller chose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the oracle lives in tests/core/

from benchmarks.bench_conv import manifest  # noqa: E402
from repro.compression import make_compressor  # noqa: E402
from repro.utils.format import format_table  # noqa: E402
from tests.core import codec_oracle  # noqa: E402

SCHEMES = ("3LC (s=1.00)", "3LC (s=1.75)", "3LC (s=1.00, no ZRE)", "32-bit float")
#: Element counts; 393k is the 512×768 layer of the benchmark MLP.
SIZES = {"1k": 1 << 10, "64k": 1 << 16, "393k": 512 * 768, "1M": 1 << 20}
REPEATS = {"full": 25, "smoke": 5}
#: Each timed sample repeats the call until it covers this many elements.
SAMPLE_ELEMENTS = 1 << 18
MIN_SPEEDUP = 1.5
GATE_MIN_ELEMENTS = 1 << 16
IMPLS = {"kernels": nullcontext, "oracle": codec_oracle.oracle_kernels}


def gradient_like(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    small = rng.normal(0, 0.01, n)
    spikes = rng.normal(0, 0.2, n) * (rng.random(n) < 0.02)
    return (small + spikes).astype(np.float32)


def _bits(arr) -> bytes:
    arr = np.ascontiguousarray(arr)
    return arr.dtype.str.encode() + arr.view(f"u{arr.itemsize}").tobytes()


def _state_bits(context) -> list[bytes]:
    state = context.state_dict()
    return [_bits(state[key]) for key in sorted(state)]


def _fingerprint(result, decoded, context) -> list[bytes]:
    message = result.message
    return [
        message.payload,
        np.array(message.scalars, dtype=np.float64).tobytes(),
        _bits(result.reconstruction),
        _bits(decoded),
        *_state_bits(context),
    ]


def bench_case(scheme_name: str, n: int, repeats: int) -> dict:
    tensor = gradient_like(n)
    scheme = make_compressor(scheme_name, seed=0)
    contexts = {
        impl: scheme.make_context(tensor.shape, key=("bench",)) for impl in IMPLS
    }
    number = max(1, SAMPLE_ELEMENTS // n)
    seconds = {impl: {"encode": [], "decode": []} for impl in IMPLS}
    first = {}
    for _ in range(repeats):
        for impl, kernels in IMPLS.items():
            context = contexts[impl]
            with kernels():
                start = time.perf_counter()
                for _ in range(number):
                    result = context.compress(tensor)
                mid = time.perf_counter()
                for _ in range(number):
                    decoded = scheme.decompress(result.message)
                end = time.perf_counter()
            seconds[impl]["encode"].append((mid - start) / number)
            seconds[impl]["decode"].append((end - mid) / number)
            first.setdefault(impl, _fingerprint(result, decoded, context))
    # Both contexts saw the same inputs, so their residuals must also agree
    # after the last repeat, not only after the first.
    identical = first["kernels"] == first["oracle"] and _state_bits(
        contexts["kernels"]
    ) == _state_bits(contexts["oracle"])
    rates = {}
    for impl, per_op in seconds.items():
        enc = statistics.median(per_op["encode"])
        dec = statistics.median(per_op["decode"])
        rates[impl] = {
            "encode_ns_per_elem": 1e9 * enc / n,
            "decode_ns_per_elem": 1e9 * dec / n,
            "encode_mb_s": 4 * n / enc / 1e6,
            "decode_mb_s": 4 * n / dec / 1e6,
        }
    new, old = rates["kernels"], rates["oracle"]
    return {
        "scheme": scheme_name,
        "elements": n,
        "calls_per_sample": number,
        "kernels": new,
        "oracle": old,
        "speedup": {
            "encode": old["encode_ns_per_elem"] / new["encode_ns_per_elem"],
            "decode": old["decode_ns_per_elem"] / new["decode_ns_per_elem"],
            "round_trip": (old["encode_ns_per_elem"] + old["decode_ns_per_elem"])
            / (new["encode_ns_per_elem"] + new["decode_ns_per_elem"]),
        },
        "bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI scale: {REPEATS['smoke']} repeats instead of {REPEATS['full']}",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless results are bit-identical to the oracle and 3LC "
        f"encode+decode is >= {MIN_SPEEDUP:g}x faster at >= "
        f"{GATE_MIN_ELEMENTS} elements",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the results (the committed baseline is "
        "benchmarks/BENCH_codec.json)",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    rows = [
        bench_case(scheme, n, REPEATS[mode])
        for scheme in SCHEMES
        for n in SIZES.values()
    ]

    table = format_table(
        ["scheme", "elements", "enc ns/el", "oracle", "x", "dec ns/el",
         "oracle", "x", "enc MB/s", "dec MB/s", "bit-id"],
        [
            [
                r["scheme"],
                r["elements"],
                f"{r['kernels']['encode_ns_per_elem']:.2f}",
                f"{r['oracle']['encode_ns_per_elem']:.2f}",
                f"{r['speedup']['encode']:.1f}",
                f"{r['kernels']['decode_ns_per_elem']:.2f}",
                f"{r['oracle']['decode_ns_per_elem']:.2f}",
                f"{r['speedup']['decode']:.1f}",
                f"{r['kernels']['encode_mb_s']:.0f}",
                f"{r['kernels']['decode_mb_s']:.0f}",
                "yes" if r["bit_identical"] else "NO",
            ]
            for r in rows
        ],
    )
    host = manifest()
    print(f"=== codec throughput, kernels vs multi-pass oracle ({mode}) ===")
    print(
        f"host: {host['cores']} cores, Python {host['python']}, numpy "
        f"{host['numpy']}, {host['blas']} x{host['blas_threads']} threads"
    )
    print(table)
    print("(median per call; encode = context compress with error feedback)")

    if args.json is not None:
        payload = {
            "benchmark": "codec",
            "mode": mode,
            "repeats": REPEATS[mode],
            "host": host,
            "cases": rows,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        failures = [
            f"{r['scheme']} @ {r['elements']}: results differ from the oracle"
            for r in rows
            if not r["bit_identical"]
        ] + [
            f"{r['scheme']} @ {r['elements']}: encode+decode only "
            f"{r['speedup']['round_trip']:.2f}x faster (need >= {MIN_SPEEDUP:g}x)"
            for r in rows
            if r["scheme"].startswith("3LC")
            and r["elements"] >= GATE_MIN_ELEMENTS
            and r["speedup"]["round_trip"] < MIN_SPEEDUP
        ]
        if failures:
            print("CHECK FAILED:\n  " + "\n  ".join(failures))
            return 1
        print(
            f"check passed: bit-identical, 3LC encode+decode >= "
            f"{MIN_SPEEDUP:g}x at >= {GATE_MIN_ELEMENTS} elements"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
