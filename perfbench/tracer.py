"""In-memory span tracer that wraps the public layer entry points.

Tracing inside ``src/`` does not exist yet, so the traced run patches
the public methods each layer exposes (``Sequential.forward``,
``Conv2d.backward``, every compressor context's ``compress`` ...) with a
thin wrapper that records one span per call: name, start, end, parent
span and the id of the operation (training step or plan evaluation)
the benchmark was running. Patches are removed again when the traced
block ends, so untraced units run the original code.

A layer's *self* time is its spans' durations minus the time their
child spans cover. The self times of all spans, the benchmark's root
span included, add up to the root span's duration; comparing that sum
with the wall measured outside the root is how the traced run
reconciles the layer breakdown with the unit's measured wall.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import repro.distributed.worker as worker_mod
import repro.exchange.engine as engine_mod
import repro.exchange.topology as topology_mod
from repro.compression.base import Compressor, CompressorContext
from repro.compression.fusion import FusedBucketContext
from repro.data.augment import Augmenter
from repro.data.batcher import ShardBatcher
from repro.data.synthetic import SyntheticImageDataset
from repro.distributed.server import ParameterServer
from repro.distributed.worker import Worker
from repro.exchange.engine import ExchangeEngine
from repro.harness.runner import ExperimentRunner
from repro.netsim import NetworkSimulator
from repro.nn.conv import Conv2d
from repro.nn.module import Sequential
from repro.tuner.evaluator import PlanEvaluator

__all__ = ["Tracer"]


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        for sub in klass.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _encoded(result):
    """(wire bytes, values) of one encode call's result(s)."""
    if result is None:
        return 0, 0
    if isinstance(result, list):
        pairs = [_encoded(r) for r in result]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)
    message = result.message
    return message.wire_size, message.element_count


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        #: ``[name, start, end, parent_index, op_id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Id of the operation in flight; set by the workload loop.
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span; ``after(args, result)`` runs
        on the outermost call of each name (nested calls of one layer,
        such as a fused bucket compressing through its inner context,
        are counted once)."""
        depth = self._depth

        def wrapper(*args, **kwargs):
            outer = depth[name] == 0
            depth[name] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                depth[name] -= 1
            if outer and after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        """Patch every layer entry point; :meth:`uninstall` reverts."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        counters = self.counters

        def count_encode(args, result):
            wire, values = _encoded(result)
            counters["encode_calls"] += 1
            counters["encode_wire_bytes"] += wire
            counters["encode_values"] += values
            first = args[1]
            if isinstance(first, np.ndarray):
                counters["encode_elements"] += first.size
            elif isinstance(first, dict):
                counters["encode_elements"] += sum(t.size for t in first.values())
            else:  # compress_fused_batch: (context, tensors) pairs
                counters["encode_elements"] += sum(
                    t.size for _, tensors in first for t in tensors.values()
                )

        def count_fused_batch(args, result):
            count_encode((None, args[0]), result)

        def count_decode(args, result):
            counters["decode_calls"] += 1
            counters["decode_elements"] += int(np.size(result))

        def count_replay(args, result):
            steps = args[1]
            counters["steps_replayed"] += len(steps)
            counters["records_replayed"] += sum(len(st.records) for st in steps)

        # nn: the model container's forward/backward, conv backward.
        forward = Sequential.__dict__["forward"]
        train_fwd = self._wrap("nn.forward", forward)
        eval_fwd = self._wrap("nn.eval_forward", forward)

        def seq_forward(module, x, training=False):
            return (train_fwd if training else eval_fwd)(module, x, training)

        self._patches.append((Sequential, "forward", forward))
        Sequential.forward = seq_forward
        self._patch(Sequential, "backward", "nn.backward")
        self._patch(Conv2d, "backward", "nn.conv_backward")

        # compression: every context's encode, every scheme's decode.
        for cls in _subclasses(CompressorContext):
            if "compress" in cls.__dict__:
                self._patch(cls, "compress", "compression.encode", count_encode)
        self._patch(
            FusedBucketContext, "compress", "compression.encode", count_encode
        )
        for module in (worker_mod, engine_mod, topology_mod):
            # Callers may pass a generator; list it so the counter can
            # walk the (context, tensors) pairs after the call.
            original = module.__dict__["compress_fused_batch"]
            traced = self._wrap("compression.encode", original, count_fused_batch)
            self._patches.append((module, "compress_fused_batch", original))
            module.compress_fused_batch = lambda items, _t=traced: _t(list(items))
        for cls in [Compressor, *_subclasses(Compressor)]:
            for attr in (
                "decompress",
                "decompress_bypass",
                "decompress_fused",
                "decompress_fused_bypass",
            ):
                if attr in cls.__dict__ and not getattr(
                    cls.__dict__[attr], "__isabstractmethod__", False
                ):
                    self._patch(cls, attr, "compression.decode", count_decode)

        # distributed, exchange, data, netsim, harness, tuner.
        self._patch(ParameterServer, "step", "distributed.server_step")
        self._patch(ParameterServer, "decompress_pull", "distributed.pull_decode")
        self._patch(
            ParameterServer, "decompress_fused_pull", "distributed.pull_decode"
        )
        self._patch(Worker, "apply_pull", "distributed.apply_pull")
        self._patch(ExchangeEngine, "train_step", "exchange.train_step")
        self._patch(ExchangeEngine, "evaluate", "exchange.evaluate")
        self._patch(ShardBatcher, "next_batch", "data.batch")
        self._patch(Augmenter, "__call__", "data.batch")
        self._patch(SyntheticImageDataset, "__init__", "data.generate")
        self._patch(SyntheticImageDataset, "sample", "data.generate")
        self._patch(NetworkSimulator, "simulate_run", "netsim.replay", count_replay)
        self._patch(ExperimentRunner, "run", "harness.run")
        self._patch(PlanEvaluator, "evaluate", "tuner.evaluate")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(inclusive, self)`` seconds per span name.

        Inclusive time counts a name once per outermost span, so nested
        calls of one layer are not double counted.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, _) in enumerate(spans):
            self_time[name] += end - start - child[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        return dict(inclusive), dict(self_time)

    def write(self, path) -> None:
        """Dump the spans as JSON lines (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
