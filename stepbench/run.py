"""Closed-loop training-step benchmark for lcsb.

One client runs training steps back to back; each starts when the previous
one ends.  Usage, from the repository root:

    python3 stepbench/run.py --workload attach_all --seed 1 --seconds 10 --trace 0
    python3 stepbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a traced
pass and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
environment included, is written to ``stepbench/results/``.  The exit code
is 0 only when every step and every correctness check passed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_ENV = {**{var: "1" for var in THREAD_VARS}, "PYTHONHASHSEED": "0"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 5
# A fixed numpy kernel runs before and after every set-up and every timed
# step.  On a shared VM the host's speed drifts by 10-25 % between runs and
# within one, and a step and the kernel runs beside it slow down together,
# so each set-up and step time is scaled to a host on which the kernel takes
# REF_MS (about its time on one unloaded core of a 2-vCPU x86-64 VM with
# OpenBLAS 0.3.31 on one thread), using the mean of its two neighbouring
# kernel runs.  The record keeps the raw values as well.
REF_MS = 5.0
# >= 100 timed steps, so that >= 10 samples lie beyond the 90th percentile
MIN_STEPS = 120
TRACE_STEPS = 40

END_TO_END_UNITS = {
    "tokens_per_s": "tok/s",
    "step_ms_p90": "ms",
    "peak_mib": "MiB",
    "loss_final": "nats",
    "setup_s": "s",
}


def reexec_reproducible() -> None:
    """Restart this process with PINNED_ENV and without address randomisation.

    One BLAS thread: on 2 vCPUs a second one was no faster and noisier.
    String hashing and address randomisation change the size of a few small
    allocations by numpy and the interpreter, and so ``peak_mib`` and
    ``autodiff.retained_mib``, by some hundred bytes from one process to the
    next.  Turning off address randomisation (as ``setarch -R`` does) affects
    this process and the memory probe it starts (``harness.isolated_memory_mib``)
    only; where it is not permitted the run goes on without it.
    """
    import ctypes

    os.environ.update(PINNED_ENV)
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(libc.personality(0xFFFFFFFF) | addr_no_randomize)
    except (OSError, AttributeError):
        pass
    os.execv(sys.executable, [sys.executable, *sys.argv])


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Reference:
    """A fixed matmul and elementwise kernel, independent of the library."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 128)).astype(np.float32)
        self.b = rng.standard_normal((128, 256)).astype(np.float32)

    def ms(self) -> float:
        """Run the kernel once and return its wall time in ms."""
        t0 = time.perf_counter()
        x = self.a
        for _ in range(30):
            z = np.tanh((x @ self.b)[:, :128]) * np.float32(0.5)
            x = z - z.mean(axis=-1, keepdims=True)
        return (time.perf_counter() - t0) * 1e3


def scaled(times: list, refs: list) -> list:
    """Each time scaled to REF_MS by the mean of the kernel runs on either side."""
    return [t * 2 * REF_MS / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness

    workload = harness.WORKLOADS[name]
    failures: list[str] = []

    reference = Reference()
    setup_ms, setup_refs = [], [reference.ms()]
    for _ in range(SETUP_REPS):
        trainer = None  # free the previous model before building the next
        trainer, elapsed = harness.setup(workload, seed)
        setup_ms.append(elapsed * 1e3)
        setup_refs.append(reference.ms())
    memory = harness.isolated_memory_mib(name, seed, PINNED_ENV)

    step_ms, step_refs = [], [reference.ms()]
    start = time.perf_counter()
    while len(step_ms) < MIN_STEPS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            loss = trainer.step()
        except Exception:
            failures.append(traceback.format_exc())
        else:
            if not math.isfinite(loss):
                failures.append(f"step {trainer.steps - 1}: non-finite loss {loss}")
        step_ms.append((time.perf_counter() - t0) * 1e3)
        step_refs.append(reference.ms())
    attempted = 1 + len(step_ms)
    checks = harness.gate(trainer)

    steps = scaled(step_ms, step_refs)
    values = {
        "tokens_per_s": workload.seq_len * 1e3 / statistics.median(steps),
        "step_ms_p90": float(np.percentile(steps, 90)),
        "peak_mib": memory["peak"],
        "loss_final": harness.loss_final(trainer.losses),
        "setup_s": statistics.median(scaled(setup_ms, setup_refs)) / 1e3,
    }
    raw = {
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "setup_s": statistics.median(setup_ms) / 1e3,
        "ref_ms_p50": statistics.median(step_refs),
    }
    correct = all(checks.values()) and not failures
    failed = len(failures) if all(checks.values()) else attempted
    record = {
        "workload": name,
        "environment": {**environment(seed), "steps": attempted, "timed_steps": len(step_ms)},
        "checks": checks,
        "failures": failures[:3],
        "fail_ratio": failed / attempted,
        "raw": raw,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }

    if trace:
        record["per_layer"] = per_layer(name, seed, statistics.median(steps), memory, reference)

    record.update(correct=correct, attempted=attempted, failed=failed)
    (RESULTS / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def per_layer(name: str, seed: int, untraced_p50: float, memory: dict,
              reference: Reference) -> dict:
    """Traced pass (set-up plus TRACE_STEPS steps) and the untraced probes.

    ``untraced_p50`` is the scaled step p50 of the untraced loop; the traced
    steps are scaled the same way to give the tracing overhead; ``memory`` is
    the result of ``harness.isolated_memory_mib``.  The spans
    are written to ``results/<name>-spans.json.gz``.
    """
    import harness
    import tracing

    workload = harness.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, _ = harness.setup(workload, seed)
        tracer.untracked_inputs = 0
        refs = [reference.ms()]
        for i in range(TRACE_STEPS):
            tracer.step = i
            with tracer.span("bench.step"):
                traced.step(tracer.span)
            refs.append(reference.ms())
    traced_p50 = statistics.median(
        scaled(tracing.per_step_ms(tracer.spans, "bench.step", TRACE_STEPS), refs))

    model, n = traced.model, traced.n_layers
    tokens, targets, _ = traced.batch(0)
    probes = {
        "tape_nodes": traced.tape_nodes[1:],
        "nodes_per_attached_layer": float(
            harness.tape_nodes(model, harness.top_k_plan(n, 2), tokens, targets)
            - harness.tape_nodes(model, harness.top_k_plan(n, 1), tokens, targets)),
        "retained_mib": memory["retained"],
        "init_mib": memory["init"],
        "trace_overhead_ms": traced_p50 - untraced_p50,
    }
    with gzip.open(RESULTS / f"{name}-spans.json.gz", "wt") as f:
        json.dump({"workload": name, "seed": seed, "steps": TRACE_STEPS,
                   "spans": tracer.spans}, f)
    return tracing.layer_metrics(tracer, TRACE_STEPS, probes)


def report(record: dict, trace: bool) -> None:
    env = record["environment"]
    print(f"== {record['workload']}  seed={env['seed']}  steps={env['steps']} "
          f"(timed {env['timed_steps']})  git={env['git_sha'][:12]}")
    print(f"   python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  threads {env['threads']}")
    raw = record["raw"]
    print(f"   raw: step p50 {raw['step_ms_p50']:.3f} ms, p90 {raw['step_ms_p90']:.3f} ms, "
          f"setup {raw['setup_s']:.4f} s, reference kernel {raw['ref_ms_p50']:.3f} ms "
          f"(timings below are scaled to {REF_MS} ms)")
    for check, ok in record["checks"].items():
        print(f"   check {check:24s} {'ok' if ok else 'FAILED'}")
    for failure in record["failures"]:
        print("   step failure: " + failure.strip().splitlines()[-1])
    shown = record["per_layer"] if trace else record["metrics"]
    for name, m in shown.items():
        print(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"   {'fail_ratio':40s} {record['fail_ratio']:14.6g} ratio")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="attach_all, attach2_q4, attach_all_t32 or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        reexec_reproducible()
    if not (SRC / "lcsb" / "__init__.py").is_file():
        print(f"stepbench: no lcsb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    # made before the memory probe lists this directory, so it sees the same
    # names in the first run in a checkout as in every later one
    RESULTS.mkdir(exist_ok=True)

    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")

    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record, bool(args.trace))
        records.append(record)

    key = "per_layer" if args.trace else "metrics"
    if len(records) == 1:
        metrics = records[0][key]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in records for m, v in r[key].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
