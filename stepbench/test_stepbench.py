"""Self-tests of the benchmark's deterministic fields.

Run from the repository root:

    python3 -m pytest stepbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _trainer(name: str, seed: int = 0) -> harness.Trainer:
    return harness.Trainer(harness.WORKLOADS[name], seed, harness.token_stream(seed))


@pytest.mark.parametrize("name", ["attach_all", "attach_all_t32"])
def test_tape_nodes_all_attached(name):
    trainer = _trainer(name)
    tokens, targets, plan = trainer.batch(0)
    assert harness.tape_nodes(trainer.model, plan, tokens, targets) == 863


def test_retained_bytes_linear_in_attached_layers():
    trainer = _trainer("attach_all")
    tokens = trainer.batch(0)[0]
    n = trainer.n_layers
    trainer.model.forward(tokens)  # builds the cached causal mask
    mib = {k: harness.retained_mib(trainer.model, harness.top_k_plan(n, k), tokens)
           for k in (1, 2, 4, 8)}
    per_layer = mib[2] - mib[1]
    assert per_layer > 0
    for k in (4, 8):
        assert mib[k] - mib[1] == pytest.approx((k - 1) * per_layer, rel=0.01)


def test_same_seed_repeats_loss_and_peak():
    """Two whole runs, each in a fresh process as the benchmark is run."""
    def one_run():
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "attach_all_t32",
             "--seed", "5", "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: result["metrics"][k]["value"] for k in ("loss_final", "peak_mib")}

    assert one_run() == one_run()


def test_seed_changes_token_stream():
    assert np.array_equal(harness.token_stream(3), harness.token_stream(3))
    assert not np.array_equal(harness.token_stream(3), harness.token_stream(4))


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
