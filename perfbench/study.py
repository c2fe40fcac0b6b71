#!/usr/bin/env python3
"""Reference measurements behind the benchmark, written to BASELINE.json.

Run from the repository root (takes about four minutes on two cores)::

    python3 perfbench/study.py [--seconds 25] [--out perfbench/BASELINE.json]

It records, with the host manifest:

* ``quality`` — final test loss, test accuracy and compression ratio of
  one resnet-bsp and one mlp-codec unit at each of several seeds, with
  their median and spread (IQR / median), plus a ``32-bit float`` unit at
  seed 0: the paper's "almost the same accuracy" reference. These axes
  are outputs the benchmark checks, not timed metrics.
* ``determinism`` — three same-seed 60-step mlp-codec runs with measured
  compute seconds driving the barrier, and three with them pinned.
* ``layers`` — the per-layer metrics, tracing overhead and reconciliation
  error of one traced run of every workload at seed 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402  (pins BLAS threads first)

QUALITY_SEEDS = (0, 1, 2, 3, 4)
DETERMINISM_STEPS = 60
DETERMINISM_RUNS = 3


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "iqr_over_median": (q3 - q1) / median,
    }


def quality() -> dict:
    from perfbench.timing import OpTimer
    from perfbench.workloads import TrainingWorkload, make_workload

    report = {}
    for name in ("resnet-bsp", "mlp-codec"):
        rows = []
        for seed in QUALITY_SEEDS:
            workload = make_workload(name, seed)
            out = workload.unit(workload.build(), OpTimer())
            rows.append(out)
        reference = make_workload(name, 0)
        fp32 = TrainingWorkload(
            reference.config,
            steps=reference.steps,
            eval_size=reference.eval_size,
            scheme="32-bit float",
        )
        fp32_out = fp32.unit(fp32.build(), OpTimer())
        report[name] = {
            "seeds": list(QUALITY_SEEDS),
            "steps": reference.steps,
            **{
                key: _spread([row[key] for row in rows])
                for key in ("final_loss", "final_accuracy", "compression_ratio")
            },
            "float32_seed0": {
                key: fp32_out[key]
                for key in ("final_loss", "final_accuracy", "compression_ratio")
            },
        }
    return report


def determinism() -> dict:
    from dataclasses import replace

    from perfbench.workloads import make_workload
    from repro.compression.registry import make_compressor
    from repro.exchange import ExchangeEngine

    workload = make_workload("mlp-codec", 0)
    config = workload.config
    report = {}
    pinned = workload.engine_config()
    for label, engine_config in (
        ("measured_compute", replace(pinned, fixed_compute_seconds=None)),
        ("pinned_compute", pinned),
    ):
        runs = []
        for _ in range(DETERMINISM_RUNS):
            engine = ExchangeEngine(
                config.model_factory(),
                config.dataset(),
                make_compressor(workload.scheme, seed=config.scheme_seed),
                config.schedule(DETERMINISM_STEPS),
                engine_config,
            )
            for _ in range(DETERMINISM_STEPS):
                engine.train_step()
            final = engine.evaluate(test_size=workload.eval_size)
            runs.append(
                {
                    "final_loss": final.test_loss,
                    "compression_ratio": engine.traffic.compression_ratio(),
                }
            )
        report[label] = {
            "runs": runs,
            "identical": all(run == runs[0] for run in runs),
        }
    report["steps"] = DETERMINISM_STEPS
    return report


def layers(seconds: float, import_s: float) -> dict:
    report = {}
    for name in bench.WORKLOAD_NAMES:
        result = bench.run_workload(
            name, 0, seconds, True, import_s, f"study-{name}"
        )
        report[name] = {
            "failed": result["failed"],
            "metrics": {key: value for key, (value, _) in result["metrics"].items()},
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument(
        "--out", type=Path, default=ROOT / "perfbench" / "BASELINE.json"
    )
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    import perfbench.tracer  # noqa: F401
    import perfbench.workloads  # noqa: F401
    from repro.utils.logging import set_level

    import_s = time.perf_counter() - t0
    set_level("WARNING")
    baseline = {
        "host": bench.manifest(0),
        "quality": quality(),
        "determinism": determinism(),
        "layers": layers(args.seconds, import_s),
    }
    args.out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
