"""Model contracts: plan bit-identity, detached gradients, dropped blocks, tape size, input checks."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcsb.autodiff as ad
from lcsb import gradcheck
from lcsb.errors import DimensionError, PlanError
from lcsb.gradcheck import micro_config
from lcsb.model import BlockMode, init_model

CFG = micro_config()
ATTACHED, DETACHED, DROPPED = BlockMode.ATTACHED, BlockMode.DETACHED, BlockMode.DROPPED


def _model():
    """Micro model with random LoRA B, so every LoRA matrix gets a nonzero gradient."""
    model = init_model(CFG, 0)
    rng = np.random.default_rng(1)
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


def test_tape_node_counts():
    # an attached layer above another: 16 op nodes and a leaf per LoRA matrix (2 x 7 sites)
    assert _tape_nodes([ATTACHED, ATTACHED]) - _tape_nodes([DETACHED, ATTACHED]) == 30
    # the lowest layer's input is a constant, so its first norm records nothing;
    # the output norm, the head and the loss add 3
    assert _tape_nodes([ATTACHED, ATTACHED]) == 29 + 30 + 3
    assert _tape_nodes([DETACHED, DETACHED]) == 0


def test_plain_projections_next_to_lora_ones_pass_gradcheck():
    # k, o and the MLP sites are plain matmuls; k of the first layer is a constant
    config = replace(CFG, lora_targets=("q", "v"))
    assert gradcheck.check_model_gradients(0, config) < 1e-3


def test_causal_attention_single_position_matches_reference():
    rng = np.random.default_rng(0)
    q, k, v = (ad.Tensor(rng.standard_normal((1, CFG.d_model)), requires_grad=True)
               for _ in range(3))
    weights = rng.standard_normal((1, CFG.d_model)).astype(np.float32)
    with ad.Tape() as tape:
        out = ad.causal_attention(q, k, v, CFG.n_heads, np.zeros((1, 1), dtype=np.float32))
        loss = ad.sum_all(ad.mul(out, ad.Tensor(weights)))
    reference = gradcheck._ref_causal_attention(
        *(t.data.astype(np.float64) for t in (q, k, v)), CFG.n_heads)
    np.testing.assert_allclose(out.data, reference, rtol=1e-6)
    # one position attends only to itself: the output is v, and q and k get no gradient
    grads = ad.backward(loss, tape)
    assert np.array_equal(out.data, v.data)
    assert np.array_equal(grads[v], weights)
    assert not grads[q].any() and not grads[k].any()


def test_wrong_length_plan_raises():
    with pytest.raises(PlanError, match="plan covers 1 layers"):
        MODEL.forward([1, 2], _plan([ATTACHED]))


def test_unknown_block_mode_raises():
    with pytest.raises(PlanError, match="bogus"):
        MODEL.forward([1, 2], _plan([ATTACHED, "bogus"]))


def test_too_many_tokens_raises():
    with pytest.raises(DimensionError, match="seq_len=8"):
        MODEL.forward(np.zeros(CFG.seq_len + 1, dtype=np.int64))


def test_zero_tokens_raises():
    with pytest.raises(DimensionError, match="seq_len"):
        MODEL.forward([])


def test_two_dimensional_tokens_raise():
    with pytest.raises(DimensionError, match="1-d"):
        MODEL.forward(np.zeros((2, 3), dtype=np.int64))
