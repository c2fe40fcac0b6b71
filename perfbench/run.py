#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload mlp-codec --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Each workload repeats a fixed unit of work (fresh set-up per unit) until
``--seconds`` of timed work have run, with at least two units so every
same-seed unit can be checked against the first. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
units and reports the per-layer breakdown from the traced ones, with the
tracing overhead and the reconciliation of layer self times against the
traced wall. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only if every output check passed.

End-to-end metrics (every workload; an *operation* is a training step on
resnet-bsp and mlp-codec and a plan evaluation on tuner-sweep):

* ``setup_s``      import + warm-up + median per-unit set-up
* ``op_ref.p50``   median operation cost in reference units: each
                   untraced operation's seconds over those of the fixed
                   reference kernel run just before it (``timing.py``
                   says why)
* ``peak_rss_mb``  peak resident set size of the process

Printed with their units on the summary lines, and written with the host
manifest to ``.perfbench-out/``, but not part of the result line:

* ``op_ref.tail``  the 11th-largest operation cost: the highest
                   percentile with ten samples beyond it
                   (``op_ms.tail_percentile`` and ``op_samples`` give
                   the percentile and the sample count)
* ``reference_ms.p50``, ``wall_s`` (median unit wall, reference runs
  excluded), ``ops_per_s``, ``op_ms.p50``, ``op_ms.tail``: seconds-based
  figures, which the host's load moves by a fifth to a third from run to
  run of the same code.
* the workload-specific figures: train_steps_per_s, step_ms.*,
  evals_per_s, best_step_ms, final_loss, final_accuracy,
  compression_ratio, failed_frac.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

# Pin BLAS/OpenMP threads before numpy loads: one thread per process
# keeps op latencies steady on small shared hosts.
BLAS_THREADS = "1"
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("resnet-bsp", "mlp-codec", "tuner-sweep")
#: Units of work a run always completes, whatever ``--seconds`` says.
MIN_UNITS = 2
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Allowed |sum of layer self times - traced wall| / traced wall.
RECONCILE_TOLERANCE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


# -- statistics ---------------------------------------------------------------


def tail(samples):
    """``(value, percentile, n)``: the sample with TAIL_BEYOND above it."""
    ordered = sorted(samples)
    n = len(ordered)
    index = max(0, n - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host manifest ------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- one workload -------------------------------------------------------------


def run_units(workload, seconds: float, trace: bool):
    """Warm up, then build + run units until ``seconds`` of timed work."""
    from perfbench.timing import OpTimer
    from perfbench.tracer import Tracer

    t0 = time.perf_counter()
    workload.warm_up()
    warmup_s = time.perf_counter() - t0
    units, error = [], None
    timed = 0.0
    while True:
        traced = trace and len(units) % 2 == 1
        try:
            t0 = time.perf_counter()
            built = workload.build()
            setup = time.perf_counter() - t0
            tracer = Tracer() if traced else None
            timer = OpTimer(tracer)
            if tracer is None:
                t0 = time.perf_counter()
                outputs = workload.unit(built, timer)
                wall = time.perf_counter() - t0 - sum(timer.reference)
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span("bench.unit"):
                        outputs = workload.unit(built, timer)
                    wall = time.perf_counter() - t0
        except Exception:  # a failed unit is a failed operation
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            break
        del built
        units.append(
            {"setup": setup, "wall": wall, "ops": timer.seconds,
             "reference": timer.reference, "outputs": outputs,
             "tracer": tracer}
        )
        timed += wall
        done = len(units) >= (2 * MIN_UNITS if trace else MIN_UNITS)
        expected = statistics.median(u["wall"] for u in units)
        if done and timed + expected > seconds:
            break
    return warmup_s, units, error


def op_costs(units) -> list[float]:
    """Each untraced operation's seconds over its reference kernel's."""
    return [
        seconds / reference
        for u in units
        if u["tracer"] is None
        for seconds, reference in zip(u["ops"], u["reference"])
    ]


def end_to_end(import_s, warmup_s, units) -> dict:
    """The metrics of the result line."""
    return {
        "setup_s": (
            import_s + warmup_s + statistics.median(u["setup"] for u in units),
            "s",
        ),
        "op_ref.p50": (statistics.median(op_costs(units)), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def latency_figures(units) -> dict:
    """Wall, throughput and latency percentiles of the untraced units."""
    plain = [u for u in units if u["tracer"] is None]
    ops = [s for u in plain for s in u["ops"]]
    tail_value, pct, n = tail(ops)
    return {
        "op_ref.tail": tail(op_costs(units))[0],
        "reference_ms.p50": 1e3 * statistics.median(
            r for u in plain for r in u["reference"]
        ),
        "wall_s": statistics.median(u["wall"] for u in plain),
        "ops_per_s": len(ops) / sum(u["wall"] for u in plain),
        "op_ms.p50": 1e3 * statistics.median(ops),
        "op_ms.tail": 1e3 * tail_value,
        "op_ms.tail_percentile": pct,
        "op_samples": n,
    }


def per_layer(import_s, workload, units) -> tuple[dict, list[str]]:
    """Per-layer metrics (seconds per unit) from the traced units."""
    traced = [u for u in units if u["tracer"] is not None]
    plain = [u for u in units if u["tracer"] is None]
    k = len(traced)
    inclusive, self_time, counters = {}, {}, {}
    for u in traced:
        tracer = u["tracer"]
        inc, own = tracer.times()
        for name, value in inc.items():
            inclusive[name] = inclusive.get(name, 0.0) + value / k
        for name, value in own.items():
            self_time[name] = self_time.get(name, 0.0) + value / k
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0.0) + value / k
    traced_wall = statistics.mean(u["wall"] for u in traced)
    plain_wall = statistics.median(u["wall"] for u in plain)
    own = lambda name: self_time.get(name, 0.0)  # noqa: E731
    inc = lambda name: inclusive.get(name, 0.0)  # noqa: E731
    layer_sum = sum(self_time.values())
    reconcile = abs(layer_sum - traced_wall) / traced_wall
    per_value = lambda s, n: 1e9 * s / n if n else 0.0  # noqa: E731
    metrics = {
        "import_s": import_s,
        "nn.forward_s": own("nn.forward"),
        "nn.backward_s": own("nn.backward"),
        "nn.conv_backward_s": own("nn.conv_backward"),
        "nn.eval_forward_s": own("nn.eval_forward"),
        "compression.encode_s": inc("compression.encode"),
        "compression.decode_s": inc("compression.decode"),
        "compression.encode_calls": counters.get("encode_calls", 0.0),
        "compression.decode_calls": counters.get("decode_calls", 0.0),
        "compression.encode_ns_per_elem": per_value(
            inc("compression.encode"), counters.get("encode_elements", 0.0)
        ),
        "compression.decode_ns_per_elem": per_value(
            inc("compression.decode"), counters.get("decode_elements", 0.0)
        ),
        "compression.bits_per_value": (
            8.0 * counters["encode_wire_bytes"] / counters["encode_values"]
            if counters.get("encode_values")
            else 0.0
        ),
        "distributed.server_step_s": inc("distributed.server_step"),
        "distributed.aggregate_s": own("distributed.server_step"),
        "distributed.pull_decode_s": inc("distributed.pull_decode"),
        "distributed.apply_pull_s": inc("distributed.apply_pull"),
        "exchange.train_step_s": inc("exchange.train_step"),
        "exchange.self_s": own("exchange.train_step"),
        "exchange.evaluate_s": inc("exchange.evaluate"),
        "exchange.wire_bytes_per_step": 0.0,
        "exchange.frames_per_step": 0.0,
        "data.batch_s": inc("data.batch"),
        "data.generate_s": inc("data.generate"),
        "netsim.replay_s": inc("netsim.replay"),
        "netsim.steps_replayed": counters.get("steps_replayed", 0.0),
        "netsim.records_replayed": counters.get("records_replayed", 0.0),
        "harness.run_s": inc("harness.run"),
        "harness.recording_hit_ratio": 0.0,
        "harness.simulation_hit_ratio": 0.0,
        "tuner.evaluate_s": inc("tuner.evaluate"),
        "tuner.search_self_s": own("tuner.search"),
        "tuner.evaluations": 0.0,
        "tuner.infeasible": 0.0,
        "bench.self_s": own("bench.unit"),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.reconcile_err_frac": reconcile,
    }
    metrics.update(workload.layer_counts([u["outputs"] for u in traced]))
    lines = [
        f"  {'span':<26}{'self s/unit':>12}{'share':>8}{'incl s/unit':>13}"
    ]
    for name in sorted(self_time, key=self_time.get, reverse=True):
        lines.append(
            f"  {name:<26}{self_time[name]:>12.4f}"
            f"{100 * self_time[name] / traced_wall:>7.1f}%"
            f"{inclusive.get(name, 0.0):>13.4f}"
        )
    lines.append(
        f"  self times sum {layer_sum:.4f} s vs traced wall "
        f"{traced_wall:.4f} s (error {100 * reconcile:.3f}%, tolerance "
        f"{100 * RECONCILE_TOLERANCE:g}%); tracing overhead "
        f"{100 * metrics['trace.overhead_frac']:+.1f}% vs untraced wall "
        f"{plain_wall:.4f} s"
    )
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, stem: str) -> dict:
    from perfbench.workloads import make_workload

    workload = make_workload(name, seed)
    warmup_s, units, error = run_units(workload, seconds, trace)
    outputs = [u["outputs"] for u in units]
    checks = workload.check(outputs) if outputs else []
    if error is not None:
        checks.append(("every unit ran without raising", False))
    ops_attempted = sum(len(u["ops"]) for u in units) + (error is not None)
    ops_failed = sum(o["failed_ops"] for o in outputs) + (error is not None)
    result = {
        "workload": name,
        "checks": checks,
        "attempted": ops_attempted + len(checks),
        "failed": ops_failed + sum(not ok for _, ok in checks),
        "units": len(units),
        "metrics": {},
        "summary": {},
        "layer_report": [],
    }
    if not units or (trace and len(units) < 2):
        return result
    result["summary"] = workload.summary(outputs)
    figures = latency_figures(units)
    result["summary"].update(
        {
            "op": workload.op_name,
            **figures,
            "failed_frac": result["failed"] / result["attempted"],
        }
    )
    for key, alias in workload.aliases.items():
        result["summary"][alias] = figures[key]
    if trace:
        layer, lines = per_layer(import_s, workload, units)
        result["metrics"] = {k: (v, _layer_unit(k)) for k, v in layer.items()}
        result["layer_report"] = lines
        OUT_DIR.mkdir(exist_ok=True)
        for i, u in enumerate(units):
            if u["tracer"] is not None:
                u["tracer"].write(OUT_DIR / f"{stem}-spans-unit{i}.jsonl")
        result["checks"].append((
            f"layer self times reconcile with the traced wall within "
            f"{100 * RECONCILE_TOLERANCE:g}%",
            layer["trace.reconcile_err_frac"] <= RECONCILE_TOLERANCE,
        ))
        result["attempted"] += 1
        result["failed"] += not result["checks"][-1][1]
    else:
        result["metrics"] = end_to_end(import_s, warmup_s, units)
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_elem"):
        return "ns"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    if name.endswith("bits_per_value"):
        return "bits"
    if name.endswith("bytes_per_step"):
        return "B"
    return "count"


def _figure_unit(name: str) -> str:
    if name.endswith("percentile"):
        return "%"
    if name.endswith("per_s"):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.startswith("op_ref"):
        return "ref"
    if name.endswith("accuracy") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("ratio"):
        return "x"
    if name.endswith("loss"):
        return "nats"
    return "count"


def report(result: dict) -> None:
    print(f"== {result['workload']}: {result['units']} units ==")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:<34} {value:>14.6g} {unit}")
    for key, value in result["summary"].items():
        if isinstance(value, str):
            print(f"  {key:<34} {value:>14}")
        else:
            print(f"  {key:<34} {value:>14.6g} {_figure_unit(key)}")
    for line in result["layer_report"]:
        print(line)
    for label, ok in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import perfbench.workloads  # noqa: F401  (imports numpy and repro)
    import perfbench.tracer  # noqa: F401
    from repro.utils.logging import set_level

    import_s = time.perf_counter() - _START
    set_level("WARNING")
    host = manifest(args.seed)
    print("host " + json.dumps(host, sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), import_s, stem
        )
        report(result)
        results.append(result)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{stem}.json").write_text(json.dumps({
            "host": host,
            "workload": name,
            "metrics": result["metrics"],
            "summary": result["summary"],
            "checks": result["checks"],
            "attempted": result["attempted"],
            "failed": result["failed"],
        }, indent=2) + "\n")

    correct = all(r["failed"] == 0 and r["metrics"] for r in results)
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}/" if len(results) > 1 else ""
        for key, (value, unit) in r["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
