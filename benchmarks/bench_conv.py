#!/usr/bin/env python
"""Conv lowering micro-benchmark: strided im2col/col2im vs the index oracle.

Times ``im2col``, ``col2im``, ``Conv2d.forward`` and ``Conv2d.backward``
on every distinct conv geometry of the benchmark-scale ResNet-14
(``DEFAULT_CONFIG``: base width 8, 16×16 images, batch 16), once with the
strided kernels in ``repro.nn.functional`` and once with the fancy-index /
``np.add.at`` oracle in ``tests/nn/conv_oracle.py`` (given precomputed
index arrays, as a per-layer cache would). The two are timed interleaved
in one process, so their ratio is robust to the host speeding up or
slowing down mid-run where absolute seconds are not.

``--check`` asserts that every kernel and layer output is bit-identical to
the oracle and that ``col2im`` is at least ``MIN_COL2IM_SPEEDUP``× faster
than the oracle on every geometry. ``--json`` writes the results with a
host manifest (cores, Python, numpy, BLAS and its thread count, git SHA).

Run:  python benchmarks/bench_conv.py [--smoke] [--check] [--json PATH]
"""

import os

# One BLAS thread, as in the repo benchmark, unless the caller chose.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the oracle lives in tests/nn/

from repro.harness.config import DEFAULT_CONFIG  # noqa: E402
from repro.nn import conv as conv_module  # noqa: E402
from repro.nn.conv import Conv2d  # noqa: E402
from repro.nn.functional import col2im, conv_output_size, im2col  # noqa: E402
from repro.nn.resnet import build_resnet  # noqa: E402
from repro.utils.format import format_table  # noqa: E402
from tests.nn import conv_oracle  # noqa: E402

MIN_COL2IM_SPEEDUP = 2.0
REPEATS = {"full": 40, "smoke": 5}
OPS = ("im2col", "col2im", "forward", "backward")


def resnet_geometries(config=DEFAULT_CONFIG) -> list[dict]:
    """Distinct ``(N, C, F, H, W, k, s, p)`` conv geometries, in layer order."""
    model = build_resnet(
        config.depth,
        num_classes=config.num_classes,
        base_width=config.base_width,
        seed=config.model_seed,
    )
    size = config.image_size
    seen = []
    for module in model.iter_modules():
        if not isinstance(module, Conv2d):
            continue
        geometry = {
            "n": config.batch_size,
            "c": module.in_channels,
            "f": module.out_channels,
            "h": size,
            "w": size,
            "k": module.kernel,
            "s": module.stride,
            "p": module.pad,
        }
        if geometry not in seen:
            seen.append(geometry)
        size = conv_output_size(size, module.kernel, module.stride, module.pad)
    return seen


def _label(g: dict) -> str:
    return f"{g['c']}->{g['f']} {g['h']}x{g['w']} k{g['k']}s{g['s']}p{g['p']}"


@contextmanager
def oracle_lowering(indices):
    """Route ``Conv2d`` through the oracle kernels with cached indices."""
    saved = conv_module.im2col, conv_module.col2im
    conv_module.im2col = partial(conv_oracle.im2col, indices=indices)
    conv_module.col2im = partial(conv_oracle.col2im, indices=indices)
    try:
        yield
    finally:
        conv_module.im2col, conv_module.col2im = saved


def _make_conv(g: dict) -> Conv2d:
    return Conv2d(
        g["c"], g["f"], g["k"], stride=g["s"], pad=g["p"],
        rng=np.random.default_rng(0),
    )


def _layer_pass(conv: Conv2d, x, grad_out):
    """One training forward + backward; returns outputs and seconds."""
    conv.weight.zero_grad()
    start = time.perf_counter()
    out = conv.forward(x, training=True)
    mid = time.perf_counter()
    grad_in = conv.backward(grad_out)
    end = time.perf_counter()
    return (out, grad_in, conv.weight.grad), mid - start, end - mid


def bench_geometry(g: dict, repeats: int) -> dict:
    rng = np.random.default_rng(1)
    shape = (g["n"], g["c"], g["h"], g["w"])
    k, s, p = g["k"], g["s"], g["p"]
    out_h = conv_output_size(g["h"], k, s, p)
    out_w = conv_output_size(g["w"], k, s, p)
    x = rng.normal(size=shape).astype(np.float32)
    grad_out = rng.normal(size=(g["n"], g["f"], out_h, out_w)).astype(np.float32)
    cols = im2col(x, k, s, p)
    grad_cols = rng.normal(size=cols.shape).astype(np.float32)
    indices = conv_oracle.im2col_indices(g["c"], g["h"], g["w"], k, s, p)

    kernels = {
        "strided": (
            partial(im2col, x, k, s, p),
            partial(col2im, grad_cols, shape, k, s, p),
        ),
        "oracle": (
            partial(conv_oracle.im2col, x, k, s, p, indices),
            partial(conv_oracle.col2im, grad_cols, shape, k, s, p, indices),
        ),
    }
    convs = {"strided": _make_conv(g), "oracle": _make_conv(g)}
    seconds = {impl: {op: [] for op in OPS} for impl in kernels}
    outputs = {}
    for _ in range(repeats):
        for impl, (lower, lift) in kernels.items():
            start = time.perf_counter()
            lowered = lower()
            mid = time.perf_counter()
            lifted = lift()
            end = time.perf_counter()
            context = oracle_lowering(indices) if impl == "oracle" else nullcontext()
            with context:
                layer, fwd, bwd = _layer_pass(convs[impl], x, grad_out)
            for op, value in zip(OPS, (mid - start, end - mid, fwd, bwd)):
                seconds[impl][op].append(value)
            outputs.setdefault(impl, (lowered, lifted, *layer))

    identical = all(
        np.array_equal(a, b) for a, b in zip(outputs["strided"], outputs["oracle"])
    )
    ms = {
        impl: {op: 1e3 * statistics.median(v) for op, v in per_op.items()}
        for impl, per_op in seconds.items()
    }
    return {
        "geometry": g,
        "label": _label(g),
        "strided_ms": ms["strided"],
        "oracle_ms": ms["oracle"],
        "speedup": {op: ms["oracle"][op] / ms["strided"][op] for op in OPS},
        "bit_identical": identical,
        "col2im_contiguous": bool(outputs["strided"][1].flags.c_contiguous),
    }


def _git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def manifest() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI scale: {REPEATS['smoke']} repeats instead of {REPEATS['full']}",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless outputs are bit-identical to the oracle and col2im "
        f"is >= {MIN_COL2IM_SPEEDUP:g}x faster on every geometry",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the results (the committed baseline is "
        "benchmarks/BENCH_conv.json)",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    rows = [bench_geometry(g, REPEATS[mode]) for g in resnet_geometries()]

    headers = ["geometry (N=%d)" % DEFAULT_CONFIG.batch_size]
    for op in OPS:
        headers += [f"{op} ms", "oracle", "x"]
    table = format_table(
        headers + ["bit-id"],
        [
            [r["label"]]
            + [
                cell
                for op in OPS
                for cell in (
                    f"{r['strided_ms'][op]:.3f}",
                    f"{r['oracle_ms'][op]:.3f}",
                    f"{r['speedup'][op]:.1f}",
                )
            ]
            + ["yes" if r["bit_identical"] else "NO"]
            for r in rows
        ],
    )
    host = manifest()
    print(f"=== conv lowering, strided vs index oracle ({mode}) ===")
    print(
        f"host: {host['cores']} cores, Python {host['python']}, numpy "
        f"{host['numpy']}, {host['blas']} x{host['blas_threads']} threads"
    )
    print(table)
    print("(median ms per call; forward/backward are Conv2d training passes)")

    if args.json is not None:
        payload = {
            "benchmark": "conv",
            "mode": mode,
            "repeats": REPEATS[mode],
            "host": host,
            "geometries": rows,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.check:
        failures = [
            f"{r['label']}: outputs differ from the oracle"
            for r in rows
            if not (r["bit_identical"] and r["col2im_contiguous"])
        ] + [
            f"{r['label']}: col2im only {r['speedup']['col2im']:.2f}x "
            f"faster (need >= {MIN_COL2IM_SPEEDUP:g}x)"
            for r in rows
            if r["speedup"]["col2im"] < MIN_COL2IM_SPEEDUP
        ]
        if failures:
            print("CHECK FAILED:\n  " + "\n  ".join(failures))
            return 1
        print(
            f"check passed: bit-identical, col2im >= {MIN_COL2IM_SPEEDUP:g}x "
            "on every geometry"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
