"""Model contracts: plans, detached gradients, dropped blocks, tape size, 4-bit bases, input and checkpoint checks."""

import gc
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsb.autodiff as ad
import lcsb.model as lm
from lcsb import gradcheck
from lcsb.errors import ConfigError, CorruptionError, DimensionError, PlanError
from lcsb.gradcheck import micro_config, micro_q4_config
from lcsb.model import BlockMode, Linear, ModelConfig, init_model
from lcsb.quant import dequantize, quantize_weights
from scalar_loss import weighted_sum

CFG = micro_config()
ATTACHED, DETACHED, DROPPED = BlockMode.ATTACHED, BlockMode.DETACHED, BlockMode.DROPPED


def _model(config=CFG, seed=0):
    """Micro model with random LoRA B, so every LoRA matrix gets a nonzero gradient."""
    model = init_model(config, seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.trainable_params().values():
        p.data[...] = (rng.standard_normal(p.shape) * 0.1).astype(np.float32)
    return model


MODEL = _model()

plans = st.lists(st.sampled_from([ATTACHED, DETACHED]), min_size=CFG.n_layers, max_size=CFG.n_layers)
token_ids = st.lists(st.integers(0, CFG.vocab_size - 1), min_size=2, max_size=CFG.seq_len + 1)


def _plan(modes):
    return SimpleNamespace(modes=modes)


def _run(modes, tokens):
    """Logits and {id(param): grad} of a mean next-token loss under ``modes``."""
    with ad.Tape() as tape:
        logits = MODEL.forward(tokens[:-1], _plan(modes))
        loss = ad.cross_entropy_logits(logits, tokens[1:])
    return logits.data, {id(p): g for p, g in ad.backward(loss, tape).items()}


@settings(max_examples=25, deadline=None)
@given(modes=plans, tokens=token_ids)
def test_plans_agree_on_logits_and_upper_grads(modes, tokens):
    logits, grads = _run(modes, tokens)
    all_logits, all_grads = _run([ATTACHED] * CFG.n_layers, tokens)
    assert np.array_equal(logits, all_logits)

    for layer, params in enumerate(MODEL.lora_params_by_layer()):
        if modes[layer] is DETACHED:
            assert not any(id(p) in grads for p in params.values())
        elif all(m is ATTACHED for m in modes[layer:]):
            for p in params.values():
                assert np.array_equal(grads[id(p)], all_grads[id(p)])


@given(layer=st.integers(0, CFG.n_layers - 1), mode=st.sampled_from([DROPPED, "dropped"]))
def test_dropped_block_returns_its_input(layer, mode):
    h = ad.Tensor(np.ones((3, CFG.d_model)), requires_grad=True)
    with ad.Tape():
        assert MODEL.block_forward(h, layer, mode) is h


def _tape_nodes(modes) -> int:
    tokens = np.arange(CFG.seq_len + 1) % CFG.vocab_size
    with ad.Tape() as tape:
        ad.cross_entropy_logits(MODEL.forward(tokens[:-1], _plan(modes)), tokens[1:])
    return len(tape.nodes)


def test_detached_block_passes_the_output_gradient_to_its_input():
    rng = np.random.default_rng(2)
    h = ad.Tensor(rng.standard_normal((5, CFG.d_model)), requires_grad=True)
    weights = rng.standard_normal((5, CFG.d_model)).astype(np.float32)
    with ad.Tape() as tape:
        out = MODEL.block_forward(h, 1, DETACHED)
        loss = weighted_sum(out, weights)
    grads = ad.backward(loss, tape)
    assert list(grads) == [h]
    assert np.array_equal(grads[h], weights)


def test_lora_params_by_layer_splits_trainable_params_in_order():
    per_layer = MODEL.lora_params_by_layer()
    assert len(per_layer) == CFG.n_layers
    flat = [(name, t) for layer in per_layer for name, t in layer.items()]
    assert flat == list(MODEL.trainable_params().items())
    for i, layer in enumerate(per_layer):
        assert len(layer) == 2 * 7  # A and B of each projection
        for site, lin in MODEL.blocks[i].linears.items():
            assert layer[f"layers.{i}.{site}.lora_a"] is lin.a
            assert layer[f"layers.{i}.{site}.lora_b"] is lin.b


def test_tape_node_counts():
    # an attached layer above another: 9 op nodes and a leaf per LoRA matrix (2 x 7 sites)
    assert _tape_nodes([ATTACHED, ATTACHED]) - _tape_nodes([DETACHED, ATTACHED]) == 23
    # the lowest layer's input is a constant, so its first norm records nothing;
    # the output norm, the head and the loss add 3
    assert _tape_nodes([ATTACHED, ATTACHED]) == 22 + 23 + 3
    assert _tape_nodes([DETACHED, DETACHED]) == 0


def test_causal_attention_single_position_matches_reference():
    rng = np.random.default_rng(0)
    q, k, v = (ad.Tensor(rng.standard_normal((1, CFG.d_model)), requires_grad=True)
               for _ in range(3))
    weights = rng.standard_normal((1, CFG.d_model)).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.causal_attention(q, k, v, CFG.n_heads)
        loss = weighted_sum(out, weights)
    reference = gradcheck._ref_causal_attention(
        *(t.data.astype(np.float64) for t in (q, k, v)), CFG.n_heads)
    np.testing.assert_allclose(out.data, reference, rtol=1e-6)
    # one position attends only to itself: the output is v, and q and k get no gradient
    grads = ad.backward(loss, tape)
    assert np.array_equal(out.data, v.data)
    assert np.array_equal(grads[v], weights)
    assert not grads[q].any() and not grads[k].any()


@pytest.mark.parametrize("field, value", [
    ("lora_alpha", float("nan")),  # gave NaN LoRA scales, silently
    ("lora_alpha", float("inf")),
    ("lora_alpha", 0.0),
    ("d_model", 128.0),  # was a bare TypeError inside init_model
    ("n_layers", True),  # built a 1-layer model
    ("seq_len", "128"),
    ("quantize_base", "no"),  # quantized the base, as any truthy value did
])
def test_bad_config_values_raise_config_error(field, value):
    config = replace(ModelConfig(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        config.validate()
    with pytest.raises(ConfigError, match=field):
        init_model(config, 0)


def test_quantized_lora_forward_frees_its_base_before_the_delta():
    rng = np.random.default_rng(3)
    base = quantize_weights((rng.standard_normal((128, 256)) * 0.02).astype(np.float32), 32)
    linear = Linear(base, a=ad.Tensor(rng.standard_normal((16, 128)), requires_grad=True),
                    b=ad.Tensor(rng.standard_normal((256, 16)), requires_grad=True), scale=2.0)
    x = ad.Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    with ad.Tape():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = linear(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the output and the (T, d_out) delta, plus the adapters' small copies;
    # the 128 KiB decompressed base alongside them made it 3.2 outputs
    assert peak - before < 2.5 * out.data.nbytes


def test_wrong_length_plan_raises():
    with pytest.raises(PlanError, match="plan covers 1 layers"):
        MODEL.forward([1, 2], _plan([ATTACHED]))


def test_unknown_block_mode_raises():
    with pytest.raises(PlanError, match="bogus"):
        MODEL.forward([1, 2], _plan([ATTACHED, "bogus"]))


H = ad.Tensor(np.ones((3, CFG.d_model)))


@pytest.mark.parametrize("call", [
    lambda: MODEL.forward([1, 2], [ATTACHED, ATTACHED]),  # a bare AttributeError
    lambda: MODEL.forward([1, 2], _plan(None)),  # a bare TypeError
    lambda: MODEL.block_forward(H, -1, ATTACHED),  # ran the last layer, silently
    lambda: MODEL.block_forward(H, CFG.n_layers, ATTACHED),  # a bare IndexError
    lambda: MODEL.block_forward(H, 1.0, ATTACHED),  # a bare TypeError
    lambda: MODEL.block_forward(H, True, DROPPED),
], ids=["list_plan", "modes_none", "index_minus_one", "index_n_layers", "index_float", "index_bool"])
def test_bad_plans_and_layer_indices_raise_plan_error(call):
    with pytest.raises(PlanError, match="plan needs|layer index"):
        call()


def test_too_many_tokens_raises():
    with pytest.raises(DimensionError, match="seq_len=8"):
        MODEL.forward(np.zeros(CFG.seq_len + 1, dtype=np.int64))


def test_zero_tokens_raises():
    with pytest.raises(DimensionError, match="seq_len"):
        MODEL.forward([])


def test_two_dimensional_tokens_raise():
    with pytest.raises(DimensionError, match="1-d"):
        MODEL.forward(np.zeros((2, 3), dtype=np.int64))


@pytest.mark.parametrize("tokens", [[1.5, 2.2, 3.9], [1.0, 2.0], np.array([True, False])],
                         ids=["fractional", "integral_floats", "bool"])
def test_non_integer_tokens_raise(tokens):
    # a float cast would have run the logits of [1, 2, 3]
    with pytest.raises(DimensionError, match="integers"):
        MODEL.forward(tokens)


@pytest.mark.parametrize("token", [-1, CFG.vocab_size], ids=["minus_one", "vocab_size"])
def test_out_of_range_tokens_raise(token):
    # plain indexing would have read the embedding's last row for -1, silently
    with pytest.raises(DimensionError, match=rf"out of range \[0, {CFG.vocab_size}\)"):
        MODEL.forward([1, token])


def _tensors_held(obj, seen):
    """Every Tensor reachable from ``obj`` through containers and lcsb objects' fields."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, ad.Tensor):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _tensors_held(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _tensors_held(value, seen)
    elif type(obj).__module__.startswith("lcsb."):
        yield from _tensors_held(vars(obj), seen)


@pytest.mark.parametrize("quantize", [False, True], ids=["float", "q4"])
def test_only_lora_matrices_are_tensors(quantize):
    model = init_model(micro_q4_config() if quantize else CFG, 0)
    trainable = model.trainable_params()
    for name, array in model.state_arrays().items():
        if name not in trainable:
            assert type(array) is np.ndarray, name
    held = {id(t) for t in _tensors_held(model, set())}
    assert held == {id(t) for t in trainable.values()}
    assert all(t.requires_grad for t in trainable.values())


QCFG = micro_q4_config()


def _quantized_model(seed):
    return _model(QCFG, seed)


def _float_twin(qmodel):
    """A float-base model holding ``qmodel``'s decompressed bases and its other parameters."""
    arrays = {name: a for name, a in qmodel.state_arrays().items()
              if not name.endswith((".q4", ".q4_scales"))}
    for i, block in enumerate(qmodel.blocks):
        for site, lin in block.linears.items():
            arrays[f"layers.{i}.{site}.w"] = dequantize(lin.weight)
    twin = init_model(replace(qmodel.config, quantize_base=False), 1)
    twin.load_state_arrays(arrays)
    return twin


def _logits_and_named_grads(model, modes, tokens):
    with ad.Tape() as tape:
        logits = model.forward(tokens[:-1], _plan(modes))
        loss = ad.cross_entropy_logits(logits, tokens[1:])
    grads = ad.backward(loss, tape)
    return logits.data, {name: grads[p] for name, p in model.trainable_params().items() if p in grads}


def test_decompress_on_use_changes_no_number():
    qmodel = _quantized_model(0)
    twin = _float_twin(qmodel)
    tokens = np.arange(QCFG.seq_len + 1) * 5 % QCFG.vocab_size
    for modes in ([ATTACHED, ATTACHED], [ATTACHED, DETACHED], [DETACHED, ATTACHED]):
        q_logits, q_grads = _logits_and_named_grads(qmodel, modes, tokens)
        f_logits, f_grads = _logits_and_named_grads(twin, modes, tokens)
        assert np.array_equal(q_logits, f_logits)
        assert q_grads.keys() == f_grads.keys() and q_grads
        assert all(np.array_equal(q_grads[name], f_grads[name]) for name in q_grads)


def test_backward_decompresses_a_base_only_where_dx_is_needed(monkeypatch):
    model = _model(QCFG)
    calls = []

    def counting_dequantize(q):
        calls.append(q)
        return dequantize(q)

    monkeypatch.setattr(lm, "dequantize", counting_dequantize)
    tokens = np.arange(QCFG.seq_len + 1) % QCFG.vocab_size
    # q, k and v of the lowest attached layer read a constant (the frozen
    # embedding, or the output of detached blocks), so their dx is not needed.
    # The fused MLP decompresses five times: gate and up to re-form them, and
    # gate, up and down for dx.
    for modes, in_backward in (([ATTACHED, ATTACHED], 6 + 9), ([DETACHED, ATTACHED], 6),
                               ([DETACHED, DETACHED], 0)):
        calls.clear()
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(tokens[:-1], _plan(modes)), tokens[1:])
        assert len(calls) == 2 * 7  # every base once in the forward
        calls.clear()
        ad.backward(loss, tape)
        assert len(calls) == in_backward


def _init_bytes(config):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = init_model(config, 0)
        return model, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_quantized_bases_take_less_than_half_the_bytes():
    config = replace(CFG, d_model=64, d_ff=128)
    float_model, float_bytes = _init_bytes(config)
    _, q_bytes = _init_bytes(replace(config, quantize_base=True, quant_group_size=8))
    base_bytes = sum(lin.weight.nbytes for block in float_model.blocks
                     for lin in block.linears.values())
    # both models hold the same parameters apart from their bases
    assert q_bytes - (float_bytes - base_bytes) < base_bytes / 2


def test_head_reads_the_embedding_in_place():
    config = replace(CFG, vocab_size=4096)  # a 256 KiB embedding
    model, init_bytes = _init_bytes(config)
    assert not hasattr(model, "_emb_t")
    held = sum(a.nbytes for a in model.state_arrays().values())
    # Python objects take some KiB; a transposed copy of the embedding would take 256 KiB
    assert init_bytes - held < model.embed.nbytes / 4
    logits = model.forward(np.arange(CFG.seq_len) % CFG.vocab_size)
    assert logits.shape == (CFG.seq_len, config.vocab_size)


def test_backward_frees_the_tape_as_it_sweeps():
    # the default model at T=32, every layer attached
    model = init_model(lm.ModelConfig(seq_len=32), 0)
    lora_bytes = sum(p.data.nbytes for p in model.trainable_params().values())  # 1088 KiB
    tokens = np.arange(33) * 7 % model.config.vocab_size
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(tokens[:-1]), tokens[1:])
        end_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = ad.backward(loss, tape)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = end_forward - before  # about 1.5 MiB of activations on the tape
    # a tape that kept every node until the sweep ended rose 1165 KiB above the
    # forward's level, and still held 2216 KiB besides the gradients afterwards
    assert peak - end_forward < lora_bytes
    held_by_tape = after - before - sum(g.nbytes for g in grads.values())
    assert held_by_tape < 0.1 * retained
    assert len(tape.nodes) == 22 + 23 * 7 + 3  # the recorded count, kept after the sweep


@pytest.fixture(scope="module")
def default_model():
    ad._causal_mask(lm.ModelConfig().seq_len)  # built once per length, so not counted below
    return init_model(lm.ModelConfig(), 0)


def test_attached_layer_keeps_no_norm_or_swiglu_output(default_model):
    tokens = np.arange(128) * 7 % default_model.config.vocab_size
    n = default_model.config.n_layers

    def retained(k):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.Tape():
                logits = default_model.forward(tokens, _plan([DETACHED] * (n - k) + [ATTACHED] * k))
                return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    # 0.43 MiB; 0.70 while the MLP was five nodes that kept gate and up, and
    # 0.95 while the projections kept the normalized inputs and the SwiGLU
    # output for dA, rather than their rebuilds
    assert retained(2) - retained(1) < 0.5 * 2 ** 20


def test_detached_block_releases_its_intermediates(default_model):
    h = ad.Tensor(np.random.default_rng(0).standard_normal((128, default_model.config.d_model)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = default_model.block_forward(h, 0, DETACHED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == h.shape
    # 649 KiB; holding the normalized input through the attention, and gate
    # and up through the down projection, rose to 725 KiB
    assert peak - before < 700 * 1024


def test_models_loaded_from_one_state_share_no_buffers():
    source = _quantized_model(0)
    state = source.state_arrays()
    first, second = _quantized_model(1), _quantized_model(2)
    params = first.trainable_params()
    first.load_state_arrays(state)
    second.load_state_arrays(state)
    assert all(first.trainable_params()[name] is p for name, p in params.items())
    before = second.state_arrays()["layers.0.q.lora_a"].copy()
    params["layers.0.q.lora_a"].data += np.float32(1.0)
    assert np.array_equal(second.state_arrays()["layers.0.q.lora_a"], before)
    assert np.array_equal(source.state_arrays()["layers.0.q.lora_a"], before)


def test_quantized_state_round_trip_gives_identical_logits():
    source = _quantized_model(0)
    arrays = {name: a.copy() for name, a in source.state_arrays().items()}
    fresh = _quantized_model(1)
    fresh.load_state_arrays(arrays)
    tokens = np.arange(QCFG.seq_len) % QCFG.vocab_size
    assert np.array_equal(fresh.forward(tokens).data, source.forward(tokens).data)


def _without(arrays, name):
    return {k: a for k, a in arrays.items() if k != name}


def _with_last(array, value):
    out = array.copy()
    out.flat[-1] = value
    return out


def _beyond_float32(arrays, name):
    """``arrays`` with the last value of ``name`` a float64 1e39, which is inf in float32."""
    return {**arrays, name: _with_last(arrays[name].astype(np.float64), 1e39)}


CORRUPTIONS = {
    "missing": (lambda a: _without(a, "norm_out.gain"), "norm_out.gain"),
    "unexpected": (lambda a: {**a, "layers.9.q.w": a["layers.0.q.q4"]}, "layers.9.q.w"),
    "shape": (lambda a: {**a, "layers.1.up.lora_b": a["layers.1.up.lora_b"].T},
              "layers.1.up.lora_b"),
    # every byte is a valid pair of codes, so a packed array is checked by dtype and length
    "int8_codes": (lambda a: {**a, "layers.0.q.q4": np.zeros((CFG.d_model, CFG.d_model), np.int8)},
                   "layers.0.q.q4"),
    "wrong_length": (lambda a: {**a, "layers.1.down.q4": a["layers.1.down.q4"][:-1]},
                     "layers.1.down.q4"),
    "float_codes": (lambda a: {**a, "layers.0.k.q4": a["layers.0.k.q4"] + np.float32(0.5)},
                    "layers.0.k.q4"),
    "nan": (lambda a: {**a, "layers.0.q.lora_a": a["layers.0.q.lora_a"] * np.float32(np.nan)},
            "layers.0.q.lora_a"),
    "inf_scale": (lambda a: {**a, "layers.1.o.q4_scales": a["layers.1.o.q4_scales"] / np.float32(0)},
                  "layers.1.o.q4_scales"),
    # quantize_weights writes only positive scales; these decompressed to a zero or negated base
    "zero_scales": (lambda a: {**a, "layers.0.q.q4_scales": np.zeros_like(a["layers.0.q.q4_scales"])},
                    "layers.0.q.q4_scales"),
    "negative_scale": (lambda a: {**a, "layers.1.down.q4_scales": _with_last(
        a["layers.1.down.q4_scales"], -3.0)}, "layers.1.down.q4_scales"),
    "integer_floats": (lambda a: {**a, "norm_out.gain": a["norm_out.gain"].astype(np.int64)},
                       "norm_out.gain"),
    # finite in float64 but inf in float32, so the cast is checked before any key is written
    **{f"float32_overflow_{key}": (lambda a, key=key: _beyond_float32(a, key), key)
       for key in ("layers.0.q.lora_a", "layers.0.q.q4_scales", "embed.weight")},
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_state_raises_before_overwriting(case):
    corrupt, key = CORRUPTIONS[case]
    with np.errstate(invalid="ignore", divide="ignore"):
        arrays = corrupt(_quantized_model(0).state_arrays())
    target = _quantized_model(1)
    before = target.state_arrays()
    values = {k: a.copy() for k, a in before.items()}
    with pytest.raises(CorruptionError, match=re.escape(key)):
        target.load_state_arrays(arrays)
    after = target.state_arrays()
    assert after.keys() == before.keys() and all(after[k] is before[k] for k in before)
    assert all(np.array_equal(after[k], values[k]) for k in before)
