"""Per-layer summary of the spans written by ``run.py --trace 1``.

Usage, from the repository root, after one or more traced runs:

    python3 stepbench/summarize.py

For each workload it prints one row per layer (calls, total ms, self ms,
per traced step), then one row per span name, then the step split into
its direct children and the unaccounted remainder.  The rows for set-up
(``init_model`` and the first step) are printed apart.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name: str):
    """The layer (module) a span belongs to; None for the step span, the root,
    whose split into its children is printed on its own line."""
    return None if name == "bench.step" else name.split(".")[0]


def rows(spans, selfs, keep, key):
    """{key(name): [calls, total_ns, self_ns]} over the spans ``keep`` accepts.

    Spans whose key is None are left out.  A span counts toward the total
    only when its parent has a different key, so nested spans of one layer
    are not counted twice.
    """
    out = defaultdict(lambda: [0, 0, 0])
    for i, (name, start, end, parent, step) in enumerate(spans):
        k = key(name)
        if k is None or not keep(step):
            continue
        row = out[k]
        row[0] += 1
        row[2] += selfs[i]
        if parent < 0 or key(spans[parent][0]) != k:
            row[1] += end - start
    return out


def print_rows(title: str, table: dict, per: int) -> None:
    print(f"   {title:34s} {'calls':>10s} {'total ms':>10s} {'self ms':>10s}")
    for name, (calls, total, self_ns) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"   {name:34s} {calls / per:10.1f} {total / 1e6 / per:10.3f} {self_ns / 1e6 / per:10.3f}")


def summarize(path: Path) -> None:
    with gzip.open(path, "rt") as f:
        trace = json.load(f)
    spans, steps = trace["spans"], trace["steps"]
    selfs = self_times_ns(spans)

    print(f"== {trace['workload']}  seed={trace['seed']}  {steps} traced steps  (values per step)")
    def timed(step):
        return step >= 0

    def name_of(name):
        return name

    print_rows("layer", rows(spans, selfs, timed, layer_of), steps)
    print_rows("span", rows(spans, selfs, timed, name_of), steps)
    print_rows("set-up span (once)", rows(spans, selfs, lambda step: step < 0, name_of), 1)

    step_ns = 0
    children = defaultdict(int)
    for name, start, end, parent, step in spans:
        if step < 0:
            continue
        if name == "bench.step":
            step_ns += end - start
        elif parent >= 0 and spans[parent][0] == "bench.step":
            children[name] += end - start
    parts = "  ".join(f"{n} {ns / 1e6 / steps:.3f}" for n, ns in children.items())
    remainder = (step_ns - sum(children.values())) / 1e6 / steps
    print(f"   step {step_ns / 1e6 / steps:.3f} ms = {parts}  unaccounted {remainder:.3f}")


def main() -> int:
    paths = sorted(RESULTS.glob("*-spans.json.gz"))
    if not paths:
        print(f"no traces under {RESULTS}; run stepbench/run.py --trace 1 first", file=sys.stderr)
        return 1
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
