"""The library names the step benchmark's tracer patches are still there and still called.

``stepbench/tracing.instrument`` wraps ``Model.forward``,
``Model.block_forward(h, layer_index, mode)``, ``autodiff.backward`` and the
``quantize_weights``/``dequantize`` that ``lcsb.model`` imports.  A refactor
that renames or moves one of them breaks only the benchmark; these tests
break with it.  ``stepbench`` is imported by path and not changed.

The benchmark's deterministic memory and graph-size probes are pinned here
too, so that a change to the library cannot give back what the tape saves
without a test failing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "stepbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"stepbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_one_traced_step_opens_the_benchmark_spans(name):
    workload = harness.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        trainer = harness.Trainer(workload, 0, harness.token_stream(0, 4 * workload.seq_len))
        tracer.step = 0
        trainer.step(tracer.span)
    spans = [span[0] for span in tracer.spans]
    assert spans.count("model.forward") == 1
    assert spans.count("autodiff.backward") == 1
    assert spans.count("model.block_attached") == workload.attached
    assert spans.count("model.block_detached") == trainer.n_layers - workload.attached
    if workload.quantize:
        assert "quant.quantize_weights" in spans
        assert "quant.dequantize" in spans


def test_all_attached_tape_size_and_retained_bytes():
    trainer = harness.Trainer(harness.WORKLOADS["attach_all"], 0, harness.token_stream(0))
    tokens, targets, plan = trainer.batch(0)
    trainer.model.forward(tokens)  # builds the causal mask, which every later step shares
    assert harness.tape_nodes(trainer.model, plan, tokens, targets) == 186
    # 3.64 MiB; 5.78 while the MLP was five nodes that kept gate and up, and
    # 7.71 while the projections kept the norm and SwiGLU outputs
    assert harness.retained_mib(trainer.model, plan, tokens) < 3.9


def test_all_attached_peak_memory():
    # 10.80 MiB; 12.71 while the MLP was five nodes that kept gate and up
    assert harness.peak_and_init_mib(harness.WORKLOADS["attach_all"], 0)[0] < 11.2
