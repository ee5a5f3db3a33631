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
    workload = harness.WORKLOADS["attach_all"]
    trainer = harness.Trainer(workload, 0, harness.token_stream(0))
    tokens, targets, plan = trainer.batch(0)
    trainer.model.forward(tokens)  # fills numpy's caches of small blocks, which later steps share
    # 4 per attached layer (its LoRA matrices are leaves, not nodes), the head and the loss
    assert harness.tape_nodes(trainer.model, plan, tokens, targets) == 4 * workload.attached + 2
    # 1.27 MiB; 1.28 while each fused node held its projections as
    # (base, a, b, scale) tuples, 1.41 while each layer kept o's and down's (T, rank)
    # products, 3.64 while the attention was six nodes that kept q, k, v and
    # the heads, 5.78 while the MLP was five nodes that kept gate and up, and
    # 7.71 while the projections kept the norm and SwiGLU outputs
    assert harness.retained_mib(trainer.model, plan, tokens) < 1.33


def test_all_attached_peak_memory():
    # 8.13 MiB; 8.14 while each fused node held its projections as (base,
    # a, b, scale) tuples, 8.26 while each attached layer kept o's and down's (T, rank)
    # products, 8.32 while a cached (T, T) causal mask outlived every
    # attention pass, 8.66 while the fused nodes formed every head's scores at once
    # and the SwiGLU derivative on whole (T, d_ff) arrays, 10.80 while the
    # attention was six nodes that kept q, k, v and the heads, and 12.71
    # while the MLP was five nodes that kept gate and up
    assert harness.peak_and_init_mib(harness.WORKLOADS["attach_all"], 0)[0] < 8.18


def test_paper_regime_peak_memory():
    # 2.83 MiB, of which init is 1.83: the embedding and the positions are
    # 4-bit too, decompressed on each use; 3.00 while the embedding and
    # positions were float32, and a 4-bit group scale was already an 8-bit
    # mantissa under one exponent per matrix; 3.04 while the scales were
    # float16 and the top layer's backward started 2.52 MiB up, 3.14 while
    # they were float32 and each attached layer kept o's and down's (T,
    # rank) products, 3.21 while a cached (T, T) causal mask outlived every attention pass,
    # 3.61 while the attention backward formed every head's scores and their
    # gradient at once
    peak, init = harness.peak_and_init_mib(harness.WORKLOADS["attach2_q4"], 0)
    assert peak < 2.87
    # 2.01 MiB while the embedding and positions were float32
    assert init < 1.86


def test_short_sequence_peak_memory():
    # 7.57 MiB, and 7.56 when every attached MLP re-forms gate and up in its
    # backward: at T=32 an MLP keeps them (68 KiB), fewer bytes than the
    # gradients it returns (88 KiB)
    assert harness.peak_and_init_mib(harness.WORKLOADS["attach_all_t32"], 0)[0] < 7.65
