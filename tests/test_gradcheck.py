"""Finite-difference suite: float32 values and analytic gradients vs the float64 oracle."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import lcsb.autodiff as ad
from lcsb import gradcheck
from lcsb.model import BlockMode, Linear, ModelConfig, init_model

PUBLIC = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
          if fn.__module__ == ad.__name__ and not name.startswith("_")}


def test_every_primitive_matches_finite_differences():
    # 20 randomized small-shape cases per primitive
    values, gradients = gradcheck.check_all_primitives(n_seeds=20)
    # every public function of the engine is a primitive, apart from these two
    assert set(values) == set(gradients) == PUBLIC - {"paused", "backward"}
    for kind in gradients:
        assert values[kind] < gradcheck.VALUE_TOL, f"{kind}: value error {values[kind]:.2e}"
        assert gradients[kind] < gradcheck.GRAD_TOL, f"{kind}: gradient error {gradients[kind]:.2e}"


def test_the_last_cases_run_the_mlp_on_each_path(monkeypatch):
    # the suite's last four MLP cases force its path by shape, on float and
    # then 4-bit bases: a node that keeps gate and up projects the normalized
    # input once, in its forward, and one that re-forms them again in its
    # backward
    calls = []
    project = ad._project
    monkeypatch.setattr(ad, "_project", lambda *args: calls.append(args[2]) or project(*args))
    for seed in range(20):
        cases = [case for case in gradcheck._primitive_cases(np.random.default_rng(seed))
                 if case[0].__name__ == "swiglu_mlp"][-4:]
        for (fn, inputs, kwargs, _), projections in zip(cases, (1, 2, 1, 2)):
            calls.clear()
            with ad.Tape() as tape:
                out = fn(*inputs, **kwargs)
            tape.nodes[-1][1](np.ones(out.shape, dtype=np.float32), (True,) * len(inputs))
            assert calls == ["swiglu_mlp"] * projections


def test_the_last_case_runs_the_head_on_a_4_bit_weight(monkeypatch):
    # its weight is decompressed on each fetch, once in the forward and once
    # in the backward, as the model's embedding is
    decoded = []
    dequantize = gradcheck.dequantize
    monkeypatch.setattr(gradcheck, "dequantize", lambda q: decoded.append(q) or dequantize(q))
    for seed in range(20):
        fn, inputs, kwargs, _ = list(gradcheck._primitive_cases(np.random.default_rng(seed)))[-1]
        assert fn is ad.norm_head
        decoded.clear()
        with ad.Tape() as tape:
            out = fn(*inputs, **kwargs)
        assert len(decoded) == 1
        tape.nodes[-1][1](np.ones(out.shape, dtype=np.float32), (True,))
        assert len(decoded) == 2


def test_a_forward_off_by_1e_4_fails_on_value_only():
    # an identity whose forward scales by 1.0001, with the identity's exact backward
    def off_identity(x):
        return ad._finish(x.data * np.float32(1.0001), (x,), lambda g, needs: (g,))

    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 5)), requires_grad=True)
    value_err, grad_err = gradcheck.check_primitive(off_identity, [x], {}, lambda d: d[0], rng)
    assert value_err > gradcheck.VALUE_TOL
    assert grad_err < gradcheck.GRAD_TOL


def test_a_row_of_small_norm_is_judged_right(monkeypatch):
    # a norm's curvature grows as its row's norm shrinks: this correct
    # swiglu_mlp gradient reads an error of 3.0e-6 with a half step of
    # FD_EPS, and of 2.8e-3, over GRAD_TOL, with one of 1e-3
    rng = np.random.default_rng(11)
    scales = rng.uniform(0.5, 2.0, size=3)
    bases = [rng.uniform(-1.0, 1.0, size=(2, 2)).astype(np.float32) for _ in range(3)]
    x = ad.Tensor([[0.0895, -0.0626]], requires_grad=True)
    adapters = [ad.Tensor(rng.uniform(-1.0, 1.0, size=(2, 2)).T, requires_grad=True) for _ in range(6)]

    def node(x, *adapters):
        return ad.swiglu_mlp(x, *(Linear(w, a, b, float(s)) for w, a, b, s
                                  in zip(bases, adapters[0::2], adapters[1::2], scales)))

    def reference(v):
        return gradcheck._ref_swiglu_mlp(v[0], *zip([w.astype(np.float64) for w in bases],
                                                    v[1::2], v[2::2], scales))

    def grad_err():
        return gradcheck.check_primitive(node, [x, *adapters], {}, reference,
                                         np.random.default_rng(11))[1]

    assert grad_err() < gradcheck.GRAD_TOL
    monkeypatch.setattr(gradcheck, "FD_EPS", 1e-3)
    assert grad_err() > gradcheck.GRAD_TOL


# Seeds in 20-399, beyond the suite's 0-19, at which a fused node has an
# adapter gradient far smaller than its node's others: judged tensor by
# tensor, float32 rounding alone reads errors from 1.1e-3 to 1.53 there.
# They are self_attention cases, and at 307 an MLP case.
ROUNDING_SEEDS = [110, 129, 286, 307, 381]
# Seeds that were hard under earlier draws of the cases, and no longer are;
# they stay as further seeds of the unit judgement.
EARLIER_SEEDS = [31, 37, 90, 93, 97, 138, 250, 256, 298, 383,
                 32, 78, 80, 127, 156, 188, 189, 240, 248, 251, 313, 326]


@pytest.mark.parametrize("seed", ROUNDING_SEEDS + EARLIER_SEEDS)
def test_a_fused_nodes_adapters_are_judged_as_one_unit(seed):
    rng = np.random.default_rng(seed)
    for fn, inputs, kwargs, reference in gradcheck._primitive_cases(rng):
        _, grad_err = gradcheck.check_primitive(fn, inputs, kwargs, reference, rng)
        assert grad_err < gradcheck.GRAD_TOL, f"{fn.__name__}: gradient error {grad_err:.2e}"


def _worst_alone(seed):
    """The largest error of any tracked input judged alone, over the cases drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fn, inputs, kwargs, reference in gradcheck._primitive_cases(rng):
        _, pairs = gradcheck._gradient_pairs(fn, inputs, kwargs, reference, rng)
        worst = max([worst, *(gradcheck._rel_err(*pair) for pair in pairs.values())])
    return worst


def test_every_rounding_seed_is_hard():
    # with the cotangent and finite differences check_primitive uses, each
    # listed seed has a correct gradient that fails when judged alone, so a
    # change to the cases' draws cannot leave the list easy unnoticed
    assert [seed for seed in ROUNDING_SEEDS if _worst_alone(seed) <= gradcheck.GRAD_TOL] == []


def test_a_q_gradient_one_percent_off_still_fails():
    # q's dA is its node's largest gradient at some seed of the suite's, so
    # judging the adapters as one unit still sees 1 % on it
    def q_da_off(fn):
        def node(*inputs, **kwargs):
            out = fn(*inputs, **kwargs)
            nodes = ad._active_tape().nodes
            handles, bw = nodes[-1]

            def off(g, needs):
                grads = list(bw(g, needs))
                grads[1] = grads[1] * np.float32(1.01)
                return grads

            nodes[-1] = (handles, off)
            return out
        return node

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for fn, inputs, kwargs, reference in gradcheck._primitive_cases(rng):
            if fn.__name__ == "self_attention":
                fn = q_da_off(fn)
            worst = max(worst, gradcheck.check_primitive(fn, inputs, kwargs, reference, rng)[1])
    assert worst > 5 * gradcheck.GRAD_TOL


@pytest.mark.parametrize("quantize", [False, True], ids=["float", "q4"])
def test_a_training_step_calls_every_public_function_of_the_engine(monkeypatch, quantize):
    # the engine holds nothing a step does not run
    called = set()
    for name in PUBLIC:
        def counted(*args, _fn=getattr(ad, name), _name=name, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    model = init_model(ModelConfig(quantize_base=quantize), 0)
    half = model.config.n_layers // 2
    plan = SimpleNamespace(modes=[BlockMode.DETACHED] * half + [BlockMode.ATTACHED] * half)
    tokens = np.arange(17) * 7 % model.config.vocab_size
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(tokens[:-1], plan), tokens[1:])
    ad.backward(loss, tape)
    assert called == PUBLIC


@pytest.mark.parametrize("seed", [0, 1])
def test_micro_model_lora_gradients(seed):
    assert gradcheck.check_model_gradients(seed) < gradcheck.GRAD_TOL


def test_quantized_micro_model_lora_gradients():
    # the oracle decompresses the 4-bit codes itself, in float64
    assert gradcheck.check_model_gradients(0, gradcheck.micro_q4_config()) < gradcheck.GRAD_TOL


def test_run_suite_reports_pass():
    report = gradcheck.run_suite(primitive_seeds=2, model_seeds=1)
    assert report["model"].keys() == report["model_values"].keys() == {"seed_0", "q4_seed_0"}
    assert report["primitives"].keys() == report["primitive_values"].keys()
    assert report["passed"]
    assert report["max_err"] < gradcheck.GRAD_TOL
    assert report["max_value_err"] < gradcheck.VALUE_TOL
