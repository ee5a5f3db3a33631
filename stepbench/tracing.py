"""In-memory spans around the library's public functions, and the per-layer metrics.

``instrument`` replaces, for the duration of a ``with`` block, the public
functions of each layer with wrappers that open a span: the autodiff
primitives and ``backward``, ``Model.forward`` and ``Model.block_forward``,
and the ``quantize_weights``/``dequantize`` calls made by ``init_model``.
The library itself is not changed.  A span is
``[name, start_ns, end_ns, parent_index, step]``; ``summarize.py`` turns
the spans that ``run.py`` writes out into per-layer total and self times.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from lcsb import autodiff as ad
from lcsb import model as lm

# primitive kind -> function name in lcsb.autodiff
PRIMITIVES = {
    "matmul": "matmul",
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "scale": "scale",
    "embedding_lookup": "embedding_lookup",
    "rms_norm": "rms_norm",
    "softmax": "softmax",
    "silu": "silu",
    "transpose": "transpose",
    "reshape": "reshape",
    "slice": "slice_",
    "concat": "concat",
    "cross_entropy_logits": "cross_entropy_logits",
    "sum": "sum_all",
    "mean": "mean_all",
}

PER_LAYER_UNITS = {
    "model.forward_ms": "ms",
    "model.block_attached_ms": "ms",
    "model.block_detached_ms": "ms",
    "model.block_calls": "count",
    "model.init_mib": "MiB",
    "autodiff.backward_ms": "ms",
    "autodiff.tape_nodes": "count",
    "autodiff.nodes_per_attached_layer": "count",
    "autodiff.retained_mib": "MiB",
    "autodiff.untracked_inputs": "count",
    **{f"autodiff.prim.{kind}.{what}": unit
       for kind in PRIMITIVES for what, unit in (("calls", "count"), ("ms", "ms"))},
    "quant.quantize_ms": "ms",
    "quant.dequantize_ms": "ms",
    "bench.batch_ms": "ms",
    "bench.update_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Tracer:
    """Spans kept in memory, plus the count of untracked inputs of recorded nodes."""

    def __init__(self):
        self.spans: list[list] = []
        self.step = -1
        self.untracked_inputs = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.step])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)


def _tensors(args):
    for a in args:
        if isinstance(a, ad.Tensor):
            yield a
        elif isinstance(a, (list, tuple)):
            yield from (t for t in a if isinstance(t, ad.Tensor))


def _wrap(tracer: Tracer, name: str, fn, count_untracked: bool = False):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        # a primitive's output requires grad exactly when it was recorded
        if count_untracked and out.requires_grad:
            tracer.untracked_inputs += sum(1 for t in _tensors(args) if not t.requires_grad)
        return out
    return wrapper


def _wrap_block(tracer: Tracer, fn):
    def wrapper(self, h, layer_index, mode):
        idx = tracer.open(f"model.block_{lm.BlockMode(mode).value}")
        try:
            return fn(self, h, layer_index, mode)
        finally:
            tracer.close(idx)
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route the layers' public functions through ``tracer`` inside the block."""
    patches = [(ad, fn_name, _wrap(tracer, f"autodiff.{kind}", getattr(ad, fn_name), True))
               for kind, fn_name in PRIMITIVES.items() if hasattr(ad, fn_name)]
    patches += [
        (ad, "backward", _wrap(tracer, "autodiff.backward", ad.backward)),
        (lm.Model, "forward", _wrap(tracer, "model.forward", lm.Model.forward)),
        (lm.Model, "block_forward", _wrap_block(tracer, lm.Model.block_forward)),
        (lm, "quantize_weights", _wrap(tracer, "quant.quantize_weights", lm.quantize_weights)),
        (lm, "dequantize", _wrap(tracer, "quant.dequantize", lm.dequantize)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def per_step_ms(spans, name: str, steps: int) -> list[float]:
    """Total ms of spans called ``name`` in each step 0 .. steps - 1."""
    totals = [0.0] * steps
    for n, start, end, _, step in spans:
        if n == name and 0 <= step < steps:
            totals[step] += (end - start) / 1e6
    return totals


def layer_metrics(tracer: Tracer, steps: int, probes: dict) -> dict:
    """Every per-layer metric: from the traced steps 0 .. steps - 1 and ``probes``.

    ``probes`` holds what the spans do not: ``tape_nodes`` (list per step),
    ``nodes_per_attached_layer``, ``retained_mib``, ``init_mib`` and
    ``trace_overhead_ms``.
    """
    spans = tracer.spans
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    for name, start, end, _, step in spans:
        if step >= 0:
            calls[name] += 1
            total_ns[name] += end - start

    def median(name):
        return float(np.median(per_step_ms(spans, name, steps)))

    def per_call(name):
        return total_ns[name] / 1e6 / calls[name] if calls[name] else 0.0

    def setup_ms(name):
        return sum(end - start for n, start, end, _, _ in spans if n == name) / 1e6

    blocks = sum(calls[f"model.block_{m.value}"] for m in lm.BlockMode)
    values = {
        "model.forward_ms": median("model.forward"),
        "model.block_attached_ms": per_call("model.block_attached"),
        "model.block_detached_ms": per_call("model.block_detached"),
        "model.block_calls": blocks / steps,
        "model.init_mib": probes["init_mib"],
        "autodiff.backward_ms": median("autodiff.backward"),
        "autodiff.tape_nodes": float(np.mean(probes["tape_nodes"][:steps])),
        "autodiff.nodes_per_attached_layer": probes["nodes_per_attached_layer"],
        "autodiff.retained_mib": probes["retained_mib"],
        "autodiff.untracked_inputs": tracer.untracked_inputs / steps,
        "quant.quantize_ms": setup_ms("quant.quantize_weights"),
        "quant.dequantize_ms": setup_ms("quant.dequantize"),
        "bench.batch_ms": median("bench.batch"),
        "bench.update_ms": median("bench.update"),
        "trace.overhead_ms": probes["trace_overhead_ms"],
    }
    for kind in PRIMITIVES:
        name = f"autodiff.{kind}"
        values[f"autodiff.prim.{kind}.calls"] = calls[name] / steps
        values[f"autodiff.prim.{kind}.ms"] = total_ns[name] / 1e6 / steps
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
