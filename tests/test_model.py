"""Model contracts: plans, detached gradients, dropped blocks, tape size, 4-bit bases, input and checkpoint checks."""

import gc
import re
import tracemalloc
from collections import Counter
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
from lcsb.quant import MAX_EXPONENT, MIN_EXPONENT, dequantize, quantize_weights
from scalar_loss import weighted_sum
from traced import traced

CFG = micro_config()
ATTACHED, DETACHED, DROPPED = BlockMode.ATTACHED, BlockMode.DETACHED, BlockMode.DROPPED


def _model(config=CFG, seed=0):
    """Micro model with random LoRA B, so every LoRA matrix gets a nonzero gradient."""
    model = init_model(config, seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.trainable_params().values():
        p.data.T[...] = (rng.standard_normal(p.shape[::-1]) * 0.1).astype(np.float32)
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
        for site, lin in MODEL.blocks[i].items():
            assert layer[f"layers.{i}.{site}.lora_a"] is lin.a
            assert layer[f"layers.{i}.{site}.lora_b"] is lin.b


def test_tape_node_counts():
    # an attached layer: 4 nodes (the fused attention and MLP and their
    # residual adds); its LoRA matrices are leaves the tape keeps, not nodes
    assert _tape_nodes([ATTACHED, ATTACHED]) - _tape_nodes([DETACHED, ATTACHED]) == 4
    # the lowest layer too, though its input is a constant; the head and the loss add 2
    assert _tape_nodes([ATTACHED] * CFG.n_layers) == 4 * CFG.n_layers + 2
    assert _tape_nodes([DETACHED, DETACHED]) == 0


def test_self_attention_single_position_matches_reference():
    rng = np.random.default_rng(0)
    q, k, v, o = (MODEL.blocks[0][site] for site in ("q", "k", "v", "o"))
    x = ad.Tensor(rng.standard_normal((1, CFG.d_model)), requires_grad=True)
    weights = rng.standard_normal((1, CFG.d_model)).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.self_attention(x, q, k, v, o, CFG.n_heads)
        loss = weighted_sum(out, weights)

    def operands(lin):
        return (lin.weight.astype(np.float64), lin.a.data.astype(np.float64),
                lin.b.data.astype(np.float64), lin.scale)

    reference = gradcheck._ref_self_attention(
        x.data.astype(np.float64), *(operands(lin) for lin in (q, k, v, o)), CFG.n_heads)
    np.testing.assert_allclose(out.data, reference, rtol=1e-5, atol=1e-7)
    # one position attends only to itself: the heads are v, and q and k get no gradient
    n = x.data * ad._rms_inv(x.data)
    heads, _ = ad._lora_forward(n, v, "v")
    assert np.array_equal(out.data, ad._lora_forward(heads, o, "o")[0])
    grads = ad.backward(loss, tape)
    assert all(grads[lin.a].any() and grads[lin.b].any() for lin in (v, o))
    assert not any(grads[m].any() for m in (q.a, q.b, k.a, k.b))


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
    linear = Linear(base, a=ad.Tensor(rng.standard_normal((16, 128)).T, requires_grad=True),
                    b=ad.Tensor(rng.standard_normal((256, 16)).T, requires_grad=True), scale=2.0)
    x = ad.Tensor(rng.standard_normal((128, 128)), requires_grad=True)
    with ad.Tape():
        (out, _), _, peak = traced(ad._lora_forward, x.data, linear, "q")
    # the output and the (T, d_out) delta; the 128 KiB decompressed base
    # alongside them made it 3.2 outputs
    assert peak < 2.5 * out.data.nbytes


def test_wrong_length_plan_raises():
    with pytest.raises(PlanError, match="plan covers 1 layers"):
        MODEL.forward([1, 2], _plan([ATTACHED]))


def test_unknown_block_mode_raises():
    with pytest.raises(PlanError, match="bogus"):
        MODEL.forward([1, 2], _plan([ATTACHED, "bogus"]))


H = ad.Tensor(np.ones((3, CFG.d_model)))


@pytest.mark.parametrize("mode", ["bogus", None, 3, ["attached"]],
                         ids=["string", "none", "int", "unhashable"])
def test_block_mode_refuses_an_unknown_mode_itself(mode):
    # the enum's own ValueError stays out of the report: no "During handling"
    with pytest.raises(PlanError, match="unknown block mode") as raised:
        BlockMode(mode)
    assert raised.value.__suppress_context__ and raised.value.__cause__ is None
    with pytest.raises(PlanError, match="unknown block mode"):
        MODEL.block_forward(H, 0, mode)


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


@pytest.mark.parametrize("tokens", [[1.5, 2.2, 3.9], [1.0, 2.0], np.array([True, False]),
                                    [[1, 2], [3]]],
                         ids=["fractional", "integral_floats", "bool", "ragged"])
def test_non_integer_tokens_raise(tokens):
    # a float cast would have run the logits of [1, 2, 3]; a ragged nesting
    # was a bare numpy ValueError
    with pytest.raises(DimensionError, match="integers"):
        MODEL.forward(tokens)


@pytest.mark.parametrize("token", [-1, CFG.vocab_size], ids=["minus_one", "vocab_size"])
def test_out_of_range_tokens_raise(token):
    # plain indexing would have read the embedding's last row for -1, silently
    with pytest.raises(DimensionError, match=rf"out of range \[0, {CFG.vocab_size}\)"):
        MODEL.forward([1, token])


# one id rule for token ids and loss targets: each case's message, after the
# name of what was checked, at both entry points
BAD_IDS = {
    "ragged": ([[1, 2], [3]], "must be integers in a 1-d sequence, got a ragged nesting"),
    "two_dimensional": (np.zeros((2, 3), dtype=np.int64), "must be a 1-d sequence, got shape (2, 3)"),
    "fractional": ([1.5, 2.2, 3.9], "must be integers, got dtype float64"),
    "integral_floats": ([1.0, 2.0], "must be integers, got dtype float64"),
    "bool": (np.array([True, False]), "must be integers, got dtype bool"),
    "object": (np.array([1, 2], dtype=object), "must be integers, got dtype object"),
    "minus_one": ([1, -1], f"out of range [0, {CFG.vocab_size}): -1..1"),
    "n_classes": ([1, CFG.vocab_size], f"out of range [0, {CFG.vocab_size}): 1..{CFG.vocab_size}"),
}
ID_ENTRY_POINTS = {
    "forward": ("token ids", MODEL.forward),
    "cross_entropy": ("cross_entropy targets", lambda ids: ad.cross_entropy_logits(
        ad.Tensor(np.zeros((2, CFG.vocab_size), np.float32)), ids)),
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
@pytest.mark.parametrize("entry", sorted(ID_ENTRY_POINTS))
def test_token_ids_and_targets_are_refused_by_one_id_rule(entry, case):
    what, call = ID_ENTRY_POINTS[entry]
    ids, reason = BAD_IDS[case]
    with pytest.raises(DimensionError) as raised:
        call(ids)
    assert str(raised.value) == f"{what} {reason}"


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "0"],
                         ids=["minus_one", "float", "bool", "none", "string"])
def test_a_seed_that_is_not_a_non_negative_int_raises(seed):
    # -1 and 1.5 were bare numpy errors, True seeded 1, and None drew OS
    # entropy, so each call built a different model
    with pytest.raises(ConfigError, match="seed"):
        init_model(CFG, seed)


def test_a_numpy_int_seed_builds_the_model_of_its_value():
    numpy_seeded = init_model(CFG, np.int64(3)).state_arrays()
    int_seeded = init_model(CFG, 3).state_arrays()
    assert numpy_seeded.keys() == int_seeded.keys()
    assert all(np.array_equal(numpy_seeded[k], int_seeded[k]) for k in int_seeded)


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
    """A float model holding ``qmodel``'s decompressed bases, embedding and positions and its other parameters."""
    arrays = {name: a for name, a in qmodel.state_arrays().items()
              if not name.endswith((".q4", ".q4_scales", ".q4_exponent"))}
    for stem, owner, attr in qmodel._frozen_matrices():
        arrays[stem] = dequantize(getattr(owner, attr))
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


def _decompressions(monkeypatch, model, modes, n_tokens) -> tuple:
    """What a step on ``n_tokens`` tokens decompresses, ``(forward, backward)``.

    Each counts the calls on the projection bases as ``"base"`` and those
    on the embedding and the positions as ``"embed"`` and ``"pos"``.
    """
    calls = Counter()
    tables = {id(model.embed): "embed", id(model.pos): "pos"}

    def counting_dequantize(q):
        calls[tables.get(id(q), "base")] += 1
        return dequantize(q)

    monkeypatch.setattr(lm, "dequantize", counting_dequantize)
    tokens = np.arange(n_tokens + 1) % model.config.vocab_size
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(tokens[:-1], _plan(modes)), tokens[1:])
    forward = calls.copy()
    calls.clear()
    ad.backward(loss, tape)
    return forward, calls


def _backward_decompressions(monkeypatch, model, modes, n_tokens) -> int:
    """The bases decompressed by the backward of a step on ``n_tokens`` tokens.

    Every base is decompressed once in the forward; the embedding and the
    positions once each for the lookup, and the embedding once in the
    head's forward and, when any layer is attached, once in its backward.
    """
    forward, backward = _decompressions(monkeypatch, model, modes, n_tokens)
    assert forward == {"base": len(modes) * 7, "embed": 2, "pos": 1}
    head = ATTACHED in modes  # else the head's input is a constant, and it records nothing
    assert (backward["embed"], backward["pos"]) == (int(head), 0)
    return backward["base"]


def test_a_float_model_decompresses_nothing(monkeypatch):
    for modes in ([ATTACHED, ATTACHED], [DETACHED, ATTACHED]):
        assert _decompressions(monkeypatch, MODEL, modes, CFG.seq_len) == ({}, {})


def test_backward_decompresses_a_base_only_where_dx_is_needed(monkeypatch):
    # The fused attention decompresses q, k and v to re-form them and o for
    # dx; the lowest attached layer reads a constant (the frozen embedding, or
    # the output of detached blocks), so its q, k and v need no dx, and a
    # layer above it decompresses three more times.  The fused MLP
    # decompresses gate, up and down for dx, and at 16 tokens gate and up
    # again to re-form them; at 8 the gradients it returns cover keeping them.
    for seq_len, mlp in ((8, 3), (16, 5)):
        model = _model(replace(QCFG, seq_len=seq_len))
        for modes, in_backward in (([ATTACHED, ATTACHED], 4 + mlp + 7 + mlp),
                                   ([DETACHED, ATTACHED], 4 + mlp), ([DETACHED, DETACHED], 0)):
            assert _backward_decompressions(monkeypatch, model, modes, seq_len) == in_backward


@pytest.mark.parametrize("t, keeps", [(32, True), (43, True), (44, True), (45, False),
                                      (64, False), (128, False)])
def test_attached_mlp_keeps_gate_and_up_while_its_lora_bytes_cover_them(monkeypatch, t, keeps):
    # At the default shapes gate, up and their (T, rank) products take 2176
    # bytes per token, and the gradients the MLP returns, of its input and
    # its six LoRA matrices, 512 bytes per token and 72 KiB: they fit up to
    # T=44.  The lone attached layer's attention decompresses 4 bases, its
    # MLP 3 or, re-forming, 5.
    model = init_model(ModelConfig(n_layers=1, quantize_base=True), 0)
    assert _backward_decompressions(monkeypatch, model, [ATTACHED], t) == (7 if keeps else 9)


def _init_bytes(config):
    model, kept, _ = traced(init_model, config, 0)
    return model, kept


def test_quantized_bases_take_less_than_half_the_bytes():
    config = replace(CFG, d_model=64, d_ff=128)
    float_model, float_bytes = _init_bytes(config)
    q_model, q_bytes = _init_bytes(replace(config, quantize_base=True, quant_group_size=8))
    frozen_bytes = float_model.embed.nbytes + float_model.pos.nbytes + sum(
        lin.weight.nbytes for block in float_model.blocks for lin in block.values())
    # both models hold the same parameters apart from their bases, embedding and positions
    assert q_bytes - (float_bytes - frozen_bytes) < frozen_bytes / 2
    # a 4-bit matrix holds its codes, one byte per group and a few bytes for its exponent
    stems = {"embed.weight": q_model.embed, "embed.pos": q_model.pos,
             **{f"layers.{i}.{site}": lin.weight for i, block in enumerate(q_model.blocks)
                for site, lin in block.items()}}
    for stem, weight in stems.items():
        rows, cols = weight.shape
        held = sum(a.nbytes for name, a in q_model.state_arrays().items()
                   if name.startswith(f"{stem}.q4"))
        assert held <= (rows * cols + 1) // 2 + rows // 8 * cols + 8


def test_head_reads_the_embedding_in_place():
    config = replace(CFG, vocab_size=4096)  # a 256 KiB embedding
    model, init_bytes = _init_bytes(config)
    assert not hasattr(model, "_emb_t")
    held = sum(a.nbytes for a in model.state_arrays().values())
    # Python objects take some KiB; a transposed copy of the embedding would take 256 KiB
    assert init_bytes - held < model.embed.nbytes / 4
    logits = model.forward(np.arange(CFG.seq_len) % CFG.vocab_size)
    assert logits.shape == (CFG.seq_len, config.vocab_size)


def test_a_4_bit_head_holds_one_vocabulary_sized_table_in_its_backward():
    # at V=8192 a (V, d) float table is 4 MiB: the step peaks 9.20 MiB above
    # the model, and 12.20 while the backward copied the decompressed head
    # into C order beside it; a float model's peaks 8.21
    model = init_model(ModelConfig(n_layers=2, vocab_size=8192, quantize_base=True), 0)
    plan = _plan([DETACHED, ATTACHED])
    tokens = np.arange(model.config.seq_len + 1) * 7 % model.config.vocab_size

    def step():
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(tokens[:-1], plan), tokens[1:])
        for p, g in ad.backward(loss, tape).items():
            p.data -= np.float32(0.02) * g

    step()  # fills numpy's caches at these shapes
    gc.collect()
    assert traced(step)[2] < 10 * 2 ** 20


def test_backward_frees_the_tape_as_it_sweeps():
    # the default model at T=32, every layer attached
    model = init_model(lm.ModelConfig(seq_len=32), 0)
    lora_bytes = sum(p.data.nbytes for p in model.trainable_params().values())  # 1088 KiB
    tokens = np.arange(33) * 7 % model.config.vocab_size

    def step():
        start = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(tokens[:-1]), tokens[1:])
        end_forward = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        return tape, ad.backward(loss, tape), end_forward

    gc.collect()
    (tape, grads, end_forward), kept, peak = traced(step)
    # a tape that kept every node until the sweep ended rose 1165 KiB above the
    # forward's level, and still held 2216 KiB besides the gradients afterwards
    # (this tape rises about 890 KiB: the LoRA gradients, less the 0.4 MiB of
    # activations it frees)
    assert peak - end_forward < lora_bytes
    # about 65 KiB of Python objects stay; the activations are gone
    held_by_tape = kept - sum(g.nbytes for g in grads.values())
    assert held_by_tape < 96 * 1024
    # the recorded count, kept after the sweep: 4 per attached layer, the head and the loss
    assert len(tape.nodes) == 4 * model.config.n_layers + 2


@pytest.fixture(scope="module")
def default_model():
    return init_model(lm.ModelConfig(), 0)


def test_attached_layer_keeps_no_norm_or_swiglu_output(default_model):
    tokens = np.arange(128) * 7 % default_model.config.vocab_size
    n = default_model.config.n_layers

    def retained(k):
        gc.collect()
        with ad.Tape():
            _, kept, _ = traced(default_model.forward, tokens,
                                _plan([DETACHED] * (n - k) + [ATTACHED] * k))
        return kept

    # 137 KiB; 0.43 MiB while q, k, v and the heads were kept, 0.70 while the
    # MLP was five nodes that kept gate and up, and 0.95 while the
    # projections kept the normalized inputs and the SwiGLU output for dA
    assert retained(2) - retained(1) < 0.2 * 2 ** 20


def test_detached_block_releases_its_intermediates(default_model):
    h = ad.Tensor(np.random.default_rng(0).standard_normal((128, default_model.config.d_model)))
    gc.collect()
    out, _, peak = traced(default_model.block_forward, h, 0, DETACHED)
    assert out.shape == h.shape
    # 613 KiB (649 before q was scaled in place); holding the normalized input
    # through the attention, and gate and up through the down projection,
    # rose to 725 KiB
    assert peak < 700 * 1024


def test_detached_block_keeps_no_gate_or_up(default_model):
    # a recorded MLP keeps gate and up up to T=44; a paused one has no
    # backward to keep them for (226 against 230 KiB at T=44 and T=45; 242
    # against 230 while it kept them)
    rng = np.random.default_rng(0)
    peaks = {}
    for t in (44, 45):
        h = ad.Tensor(rng.standard_normal((t, default_model.config.d_model)))
        default_model.block_forward(h, 0, DETACHED)  # fills numpy's caches at this length
        gc.collect()
        with ad.Tape():
            peaks[t] = traced(default_model.block_forward, h, 0, DETACHED)[2]
    assert peaks[44] <= peaks[45]


def test_an_attached_step_leaves_nothing_behind(default_model):
    # every (T, T) array lives within its attention pass; a process-wide
    # cache of additive masks held 57 KiB per length at T=120
    def step(t):
        tokens = np.arange(t + 1) * 7 % default_model.config.vocab_size
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(default_model.forward(tokens[:-1]), tokens[1:])
        ad.backward(loss, tape)

    def step_and_collect():
        step(120)  # a length no other test runs
        gc.collect()

    step(8)  # fills numpy's caches of small blocks
    gc.collect()
    _, left, _ = traced(step_and_collect)
    assert abs(left) < 4096


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


@pytest.mark.parametrize("config", [CFG, QCFG], ids=["float", "q4"])
def test_quantized_state_round_trip_gives_identical_logits(config):
    source = _model(config, 0)
    arrays = {name: a.copy() for name, a in source.state_arrays().items()}
    if not config.quantize_base:
        # a float matrix is saved under its stem, in the layout it is held in
        assert arrays["embed.weight"].shape == (config.d_model, config.vocab_size)
        assert "layers.0.q" in arrays and "layers.0.q.w" not in arrays
    fresh = _model(config, 1)
    fresh.load_state_arrays(arrays)
    tokens = np.arange(config.seq_len) % config.vocab_size
    assert np.array_equal(fresh.forward(tokens).data, source.forward(tokens).data)


@pytest.mark.parametrize("config", [CFG, QCFG], ids=["float", "q4"])
def test_a_checkpoint_file_round_trips(config, tmp_path):
    source, target = _model(config, 0), _model(config, 1)
    tokens = np.arange(config.seq_len) % config.vocab_size
    assert not np.array_equal(target.forward(tokens).data, source.forward(tokens).data)
    path = tmp_path / "checkpoint.npz"
    arrays = source.state_arrays()
    # the adapters in the paper's orientation, A (rank, d_in) and B (d_out, rank)
    assert arrays["layers.0.down.lora_a"].shape == (config.lora_rank, config.d_ff)
    assert arrays["layers.0.down.lora_b"].shape == (config.d_model, config.lora_rank)
    np.savez(path, **arrays)
    with np.load(path) as saved:  # an NpzFile, read lazily key by key
        target.load_state_arrays(saved)
    assert np.array_equal(target.forward(tokens).data, source.forward(tokens).data)


def test_a_float_checkpoint_of_the_older_layout_is_refused_before_overwriting():
    # it held the embedding and positions as (rows, d_model) and a base under
    # `{stem}.w`; at d_model == seq_len the transposed positions match the
    # shape of the held ones, so only the `.w` keys tell the layouts apart
    config = replace(CFG, seq_len=CFG.d_model)
    source, target = _model(config, 0), _model(config, 1)
    arrays = source.state_arrays()
    for stem, _, _ in source._frozen_matrices():
        if stem.startswith("layers."):
            arrays[f"{stem}.w"] = arrays.pop(stem)
        else:
            arrays[stem] = arrays[stem].T
    before = {k: a.copy() for k, a in target.state_arrays().items()}
    with pytest.raises(CorruptionError, match=r"unexpected key 'layers\.0\.down\.w'"):
        target.load_state_arrays(arrays)
    assert all(np.array_equal(target.state_arrays()[k], before[k]) for k in before)


@pytest.mark.parametrize("config", [CFG, QCFG], ids=["float", "q4"])
def test_every_float_array_in_a_checkpoint_is_a_matrix(config):
    # frozen matrices and LoRA matrices; a 4-bit matrix's exponent is a 0-d integer
    floats = {name: a.ndim for name, a in init_model(config, 0).state_arrays().items()
              if np.issubdtype(a.dtype, np.floating)}
    assert floats and set(floats.values()) == {2}


def _without(arrays, name):
    return {k: a for k, a in arrays.items() if k != name}


def _with_last(array, value):
    out = array.copy()
    out.flat[-1] = value
    return out


def _beyond_float32(arrays, name):
    """``arrays`` with the last value of ``name`` a float64 1e39, which is inf in float32."""
    return {**arrays, name: _with_last(arrays[name].astype(np.float64), 1e39)}


# The key the loader checks last, so a case there shows that no earlier key was written.
LAST = "layers.1.down.lora_b"
# case -> (corruption of a 4-bit micro model's state, the key, the reason its check reports)
CORRUPTIONS = {
    "missing": (lambda a: _without(a, LAST), LAST, "is missing key"),
    "unexpected": (lambda a: {**a, "layers.9.q.w": a["layers.0.q.q4"]}, "layers.9.q.w",
                   "unexpected key"),
    # norms have no parameters, so the gains an older model saved are unknown keys
    "norm_gains": (lambda a: {**a, **{key: np.ones(CFG.d_model, np.float32) for key in (
        *(f"layers.{i}.{norm}.gain" for i in range(CFG.n_layers) for norm in ("norm_attn", "norm_mlp")),
        "norm_out.gain")}}, "layers.0.norm_attn.gain", "unexpected key"),
    "output_norm_gain": (lambda a: {**a, "norm_out.gain": np.ones(CFG.d_model, np.float32)},
                         "norm_out.gain", "unexpected key"),
    "shape": (lambda a: {**a, "layers.1.up.lora_b": a["layers.1.up.lora_b"].T},
              "layers.1.up.lora_b", "has shape"),
    # every byte is a valid pair of codes, so a packed array is checked by dtype and length
    "int8_codes": (lambda a: {**a, "layers.0.q.q4": np.zeros((CFG.d_model, CFG.d_model), np.int8)},
                   "layers.0.q.q4", "not packed uint8"),
    "wrong_length": (lambda a: {**a, "layers.1.down.q4": a["layers.1.down.q4"][:-1]},
                     "layers.1.down.q4", "has shape"),
    "float_codes": (lambda a: {**a, "layers.0.k.q4": a["layers.0.k.q4"] + np.float32(0.5)},
                    "layers.0.k.q4", "not packed uint8"),
    "nan": (lambda a: {**a, "layers.0.q.lora_a": a["layers.0.q.lora_a"] * np.float32(np.nan)},
            "layers.0.q.lora_a", "not an array of finite float32"),
    # quantize_weights writes uint8 scale mantissas, and a float or signed
    # array would hold a value no mantissa has
    "inf_scale": (lambda a: {**a, "layers.1.o.q4_scales": a["layers.1.o.q4_scales"] / np.float16(0)},
                  "layers.1.o.q4_scales", "not uint8 scale mantissas"),
    "float32_scales": (lambda a: {**a, "layers.0.v.q4_scales": a["layers.0.v.q4_scales"].astype(
        np.float32)}, "layers.0.v.q4_scales", "not uint8 scale mantissas"),
    "negative_scale": (lambda a: {**a, "layers.1.down.q4_scales": _with_last(
        a["layers.1.down.q4_scales"].astype(np.int16), -3)}, "layers.1.down.q4_scales",
        "not uint8 scale mantissas"),
    # quantize_weights writes mantissas of 1 or more; these decompressed to
    # a zero base, or to a zero group of the embedding
    "zero_scales": (lambda a: {**a, "layers.0.q.q4_scales": np.zeros_like(a["layers.0.q.q4_scales"])},
                    "layers.0.q.q4_scales", "zero scale mantissa"),
    "zero_embedding_scale": (lambda a: {**a, "embed.weight.q4_scales": _with_last(
        a["embed.weight.q4_scales"], 0)}, "embed.weight.q4_scales", "zero scale mantissa"),
    # quantize_weights writes a 0-d integer exponent in [MIN_EXPONENT, MAX_EXPONENT]
    "float_exponent": (lambda a: {**a, "layers.0.k.q4_exponent": np.float64(-14.0)},
                       "layers.0.k.q4_exponent", "not an integer scale exponent"),
    "exponent_not_0d": (lambda a: {**a, "layers.1.up.q4_exponent": a["layers.1.up.q4_exponent"][None]},
                        "layers.1.up.q4_exponent", "has shape"),
    **{f"exponent_{side}_range": (lambda a, e=e: {**a, "layers.0.gate.q4_exponent": np.int64(e)},
                                  "layers.0.gate.q4_exponent", "outside the exponents")
       for side, e in (("below", MIN_EXPONENT - 1), ("above", MAX_EXPONENT + 1))},
    "positions_exponent_above_range": (lambda a: {**a, "embed.pos.q4_exponent": np.int16(
        MAX_EXPONENT + 1)}, "embed.pos.q4_exponent", "outside the exponents"),
    "integer_floats": (lambda a: {**a, LAST: a[LAST].astype(np.int64)}, LAST,
                       "not an array of finite float32"),
    # ragged nestings, on which np.asarray raises a bare ValueError
    "ragged": (lambda a: {**a, "layers.1.v.lora_a": [[1.0, 2.0], [3.0]]}, "layers.1.v.lora_a",
               "is ragged"),
    "ragged_codes": (lambda a: {**a, "layers.0.up.q4": [[1], [2, 3]]}, "layers.0.up.q4", "is ragged"),
    # a checkpoint of the wrong kind: a list of pairs was a bare TypeError
    # (unhashable), and unexpected keys of two types one from sorting them
    "list_of_pairs": (lambda a: list(a.items()), "list", "maps names to arrays"),
    "int_and_bytes_keys": (lambda a: {**a, 0: a[LAST], b"x": a[LAST]}, "0", "unexpected key 0"),
    # finite in float64 but inf in float32, so the cast is checked before any
    # key is written; a float64 array of scale mantissas is refused on its dtype
    **{f"float32_overflow_{key}": (lambda a, key=key: _beyond_float32(a, key), key, reason)
       for key, reason in (("layers.0.q.lora_a", "not an array of finite float32"),
                           ("layers.0.q.q4_scales", "not uint8 scale mantissas"),
                           (LAST, "not an array of finite float32"))},
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_state_raises_before_overwriting(case):
    corrupt, key, reason = CORRUPTIONS[case]
    with np.errstate(invalid="ignore", divide="ignore"):
        arrays = corrupt(_quantized_model(0).state_arrays())
    target = _quantized_model(1)
    before = target.state_arrays()
    values = {k: a.copy() for k, a in before.items()}
    buffers = {k: t.data for k, t in target.trainable_params().items()}
    with pytest.raises(CorruptionError, match=re.escape(key)) as raised:
        target.load_state_arrays(arrays)
    assert reason in str(raised.value)
    after = target.state_arrays()
    # an adapter's array is a new view of its tensor's buffer on each call
    assert after.keys() == before.keys() and all(
        after[k].base is buffers[k] if k in buffers else after[k] is before[k] for k in before)
    assert all(np.array_equal(after[k], values[k]) for k in before)
