"""Finite-difference suite: float32 analytic gradients vs the float64 oracle."""

import pytest

from lcsb import gradcheck

TOL = 1e-3


def test_every_primitive_matches_finite_differences():
    # 20 randomized small-shape cases per primitive
    worst = gradcheck.check_all_primitives(n_seeds=20)
    assert set(worst) == {
        "matmul", "add", "mul", "scale", "embedding_lookup", "rms_norm",
        "softmax", "silu", "lora_linear", "causal_attention", "reshape",
        "cross_entropy_logits", "sum", "mean",
    }
    for kind, err in worst.items():
        assert err < TOL, f"{kind}: max relative error {err:.2e}"


@pytest.mark.parametrize("seed", [0, 1])
def test_micro_model_lora_gradients(seed):
    assert gradcheck.check_model_gradients(seed) < TOL


def test_run_suite_reports_pass():
    report = gradcheck.run_suite(primitive_seeds=2, model_seeds=1)
    assert report["passed"]
    assert report["max_err"] < TOL
