"""Workloads, synthetic token stream and the training step the benchmark times.

One step is: build a plan and slice a batch, run ``Model.forward`` under a
``Tape``, then ``autodiff.cross_entropy_logits``, then ``autodiff.backward``,
then a plain SGD update of ``model.trainable_params()`` (the library has no
optimizer yet).  Library functions are looked up through their modules at
call time, so the wrappers installed by ``tracing.instrument`` see every call.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lcsb import autodiff as ad
from lcsb import gradcheck
from lcsb import model as lm

MIB = float(1 << 20)
VOCAB = 256
STREAM_LEN = 1 << 15
# Each byte has four possible successors, taken with these probabilities, so
# the next byte is predictable and the loss can fall within a short run
SUCCESSOR_P = (0.4, 0.3, 0.2, 0.1)
# Small enough that the first 10 steps learn little and the loss falls over
# the next 100 steps: from about 5.5 to about 5.1 nats on every workload.  At
# 1.5 the loss reached its plateau within the first 10 steps, so on some seeds
# their mean was barely above loss_final and the loss_falls check failed.
LR = 0.02
# loss_final is the mean loss over steps LOSS_STEPS - 10 .. LOSS_STEPS - 1,
# so it does not depend on how many steps fit into the timed window
LOSS_STEPS = 120
GRADCHECK_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    seq_len: int
    quantize: bool
    attached: int  # layers attached per step; the others run detached

    def config(self) -> lm.ModelConfig:
        return lm.ModelConfig(quantize_base=self.quantize)


WORKLOADS = {
    # float base, every layer on the tape: backward is about half the step
    "attach_all": Workload(seq_len=128, quantize=False, attached=8),
    # the paper's regime: 4-bit base, a random 2 of 8 layers attached per step;
    # forward dominates and most blocks run with the tape paused
    "attach2_q4": Workload(seq_len=128, quantize=True, attached=2),
    # same graph as attach_all with a quarter of the BLAS work, so the
    # per-node Python overhead of the tape dominates
    "attach_all_t32": Workload(seq_len=32, quantize=False, attached=8),
}


@dataclass(frozen=True)
class Plan:
    """Per-layer block modes; ``Model.forward`` reads ``modes``."""

    modes: tuple


def plan_from_layers(n_layers: int, attached) -> Plan:
    attached = set(attached)
    return Plan(tuple(
        lm.BlockMode.ATTACHED if i in attached else lm.BlockMode.DETACHED
        for i in range(n_layers)
    ))


def top_k_plan(n_layers: int, k: int) -> Plan:
    return plan_from_layers(n_layers, range(n_layers - k, n_layers))


def token_stream(seed: int, length: int = STREAM_LEN) -> np.ndarray:
    """Bytes from a sparse first-order Markov chain drawn from ``seed``."""
    # The chain's shape is fixed: successors are drawn by popularity, so
    # frequent bytes are frequent everywhere and a short window already holds
    # the stationary mix.  The seed relabels the bytes and samples the path,
    # so every seed has the same entropy rate.
    shape = np.random.default_rng(0)
    k = len(SUCCESSOR_P)
    popularity = 1.0 / np.arange(1, VOCAB + 1)
    popularity /= popularity.sum()
    ranked = np.stack([shape.choice(VOCAB, k, replace=False, p=popularity) for _ in range(VOCAB)])
    rng = np.random.default_rng([seed, 0])
    perm = rng.permutation(VOCAB)
    successors = np.empty_like(ranked)
    successors[perm] = perm[ranked]
    successors = successors.tolist()
    ranks = rng.choice(k, size=length - 1, p=SUCCESSOR_P).tolist()
    state = int(rng.integers(VOCAB))
    out = [state]
    for r in ranks:
        state = successors[state][r]
        out.append(state)
    return np.array(out, dtype=np.int64)


class Trainer:
    """One model with its token stream and plan stream; ``step`` trains once."""

    def __init__(self, workload: Workload, seed: int, stream: np.ndarray):
        self.workload = workload
        self.seed = seed
        self.stream = stream
        self.model = lm.init_model(workload.config(), seed)
        self.params = list(self.model.trainable_params().values())
        self.n_layers = self.model.config.n_layers
        self.steps = 0
        self.losses: list[float] = []
        self.tape_nodes: list[int] = []

    def batch(self, i: int):
        """Tokens, targets and plan of step ``i``; a pure function of (seed, i)."""
        t = self.workload.seq_len
        off = (i * t) % (len(self.stream) - t)
        tokens = self.stream[off:off + t]
        targets = self.stream[off + 1:off + t + 1]
        if self.workload.attached >= self.n_layers:
            attached = range(self.n_layers)
        else:
            rng = np.random.default_rng([self.seed, 1, i])
            attached = rng.choice(self.n_layers, self.workload.attached, replace=False).tolist()
        return tokens, targets, plan_from_layers(self.n_layers, attached)

    def step(self, span=lambda name: nullcontext()) -> float:
        """Run one training step and return its loss; ``span`` names harness phases."""
        with span("bench.batch"):
            tokens, targets, plan = self.batch(self.steps)
        with ad.Tape() as tape:
            logits = self.model.forward(tokens, plan)
            loss = ad.cross_entropy_logits(logits, targets)
        grads = ad.backward(loss, tape)
        with span("bench.update"):
            for p in self.params:
                g = grads.get(p)
                if g is not None:
                    p.data -= np.float32(LR) * g
        self.steps += 1
        value = float(loss.data)
        self.losses.append(value)
        self.tape_nodes.append(len(tape.nodes))
        return value


def setup(workload: Workload, seed: int):
    """Data generation, ``init_model`` and the first (untimed) step.

    Returns the trainer and the wall time the three took, in seconds.
    """
    t0 = time.perf_counter()
    trainer = Trainer(workload, seed, token_stream(seed))
    trainer.step()
    return trainer, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# memory and graph-size probes (untimed, deterministic)


def peak_and_init_mib(workload: Workload, seed: int, steps: int = 3):
    """``tracemalloc`` peak from just before ``init_model`` through ``steps`` steps.

    Also returns the bytes ``init_model`` leaves allocated (the parameters,
    including int8 codes, scales and the float ``w_t`` of quantized linears).
    """
    stream = token_stream(seed)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trainer = Trainer(workload, seed, stream)
        init = tracemalloc.get_traced_memory()[0] - base
        for _ in range(steps):
            trainer.step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / MIB, init / MIB


def retained_mib(model: lm.Model, plan: Plan, tokens) -> float:
    """Bytes allocated across ``Model.forward`` and still held by the tape and logits."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            logits = model.forward(tokens, plan)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / MIB


def memory_mib(workload: Workload, seed: int) -> dict:
    """``peak``, ``init`` and ``retained`` MiB of a fresh set-up.

    ``retained`` is the mean of ``retained_mib`` over the plans of steps 0-3.
    """
    peak, init = peak_and_init_mib(workload, seed)
    trainer, _ = setup(workload, seed)
    retained = float(np.mean([retained_mib(trainer.model, plan, tokens)
                              for tokens, _, plan in map(trainer.batch, range(4))]))
    return {"peak": peak, "init": init, "retained": retained}


def _memory_probe_main() -> None:
    """Entry point of the child started by ``isolated_memory_mib``."""
    name, seed = sys.stdin.read().split()
    print(json.dumps(memory_mib(WORKLOADS[name], int(seed))))


def isolated_memory_mib(name: str, seed: int, env: dict) -> dict:
    """``memory_mib`` measured in a child process whose start is always the same.

    CPython 3.11's type attribute cache keeps a reference to the name string
    of each lookup in a slot chosen by the string's address, so how many
    temporary names (numpy's ``"accumulate"``, looked up on every ``cumsum``)
    stay alive depends on where the heap lies.  That depends on the process's
    history: the length of its environment and arguments, even the order of
    the names in the directories it imports from.  ``tracemalloc`` counts then
    differ by some hundred bytes from one process to the next.  The child gets
    ``env`` and nothing else, the same arguments, and the seed on standard
    input padded to a fixed width.  It writes no bytecode caches, so it finds
    the same files in every run: those its parent, which has imported the
    same modules, wrote or did not write.  In a given checkout its counts
    then repeat exactly.
    """
    bench_dir = Path(__file__).resolve().parent
    child_env = {**env, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        [str(bench_dir.parent / "src"), str(bench_dir)])}
    out = subprocess.run(
        [sys.executable, "-c", "import harness; harness._memory_probe_main()"],
        input=f"{name:<32} {seed:024d}", env=child_env, cwd=bench_dir,
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def tape_nodes(model: lm.Model, plan: Plan, tokens, targets) -> int:
    """Nodes on the tape after forward and loss."""
    with ad.Tape() as tape:
        ad.cross_entropy_logits(model.forward(tokens, plan), targets)
    return len(tape.nodes)


# ---------------------------------------------------------------------------
# correctness gate (run outside the timed loop)


def _grads(model: lm.Model, plan: Plan, tokens, targets) -> dict:
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(tokens, plan), targets)
    return ad.backward(loss, tape)


def gate(trainer: Trainer) -> dict:
    """Named correctness checks on a trained model; each value is True when it passes."""
    model, n = trainer.model, trainer.n_layers
    tokens, targets, plan = trainer.batch(trainer.steps)
    every = top_k_plan(n, n)

    with ad.Tape():
        plan_logits = model.forward(tokens, plan).data
        all_logits = model.forward(tokens, every).data

    top2 = _grads(model, top_k_plan(n, 2), tokens, targets)
    full = _grads(model, every, tokens, targets)
    upper = [t for layer in model.lora_params_by_layer()[-2:] for t in layer.values()]

    losses = trainer.losses
    return {
        "losses_finite": all(math.isfinite(x) for x in losses),
        "plan_logits_identical": bool(np.array_equal(plan_logits, all_logits)),
        "top2_grads_identical": all(np.array_equal(top2[t], full[t]) for t in upper),
        "loss_falls": len(losses) >= LOSS_STEPS and loss_final(losses) < float(np.mean(losses[:10])),
        "gradcheck": gradcheck.check_model_gradients(trainer.seed) < GRADCHECK_TOL,
    }


def loss_final(losses) -> float:
    return float(np.mean(losses[LOSS_STEPS - 10:LOSS_STEPS]))
