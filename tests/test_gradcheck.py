"""Finite-difference suite: float32 analytic gradients vs the float64 oracle."""

import inspect

import pytest

import lcsb.autodiff as ad
from lcsb import gradcheck

TOL = 1e-3


def test_every_primitive_matches_finite_differences():
    # 20 randomized small-shape cases per primitive
    worst = gradcheck.check_all_primitives(n_seeds=20)
    # every public function of the engine is a primitive, apart from these two
    public = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
              if fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert set(worst) == public - {"paused", "backward"}
    for kind, err in worst.items():
        assert err < TOL, f"{kind}: max relative error {err:.2e}"


@pytest.mark.parametrize("seed", [0, 1])
def test_micro_model_lora_gradients(seed):
    assert gradcheck.check_model_gradients(seed) < TOL


def test_quantized_micro_model_lora_gradients():
    # the oracle decompresses the 4-bit codes itself, in float64
    assert gradcheck.check_model_gradients(0, gradcheck.micro_q4_config()) < TOL


def test_run_suite_reports_pass():
    report = gradcheck.run_suite(primitive_seeds=2, model_seeds=1)
    assert report["model"].keys() == {"seed_0", "q4_seed_0"}
    assert report["passed"]
    assert report["max_err"] < TOL
