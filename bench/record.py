"""Record bench/reference.json: every pool input with its reference output.

Run from the root of a radolab checkout, at the commit whose outputs are the
reference (all workload outputs must stay identical across performance
work):

    python3 bench/record.py

The pools are regenerated from workloads.POOL_SEED; analyze and census
entries store a digest of the output, multi-row matrices whether a
columns-condition certificate exists.  Each entry also stores its cost,
which ranks the pool for the stratified draws of ``workloads.batch``.  ``src_sha256`` identifies the source
tree the outputs came from.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads as W  # noqa: E402

COST_RUNS = 3


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def outcome_and_cost(workload: str, kind: str, item) -> tuple:
    """The recorded outcome, and the operation's cost in ms: the median of
    COST_RUNS runs, each scaled by the speed probe around it.  The cost only
    ranks the pool's entries for stratified draws."""
    times = []
    for _ in range(COST_RUNS):
        before = speed.probe_seconds()
        t0 = perf_counter()
        output = W.run_op(workload, kind, item)
        dt = perf_counter() - t0
        after = speed.probe_seconds()
        times.append(dt * speed.REFERENCE_S / ((before + after) / 2))
    cost_ms = round(statistics.median(times) * 1e3, 3)
    return W.outcome(workload, kind, item, output), cost_ms


def main() -> int:
    reference = {"src_sha256": src_digest(), "pools": {}}
    for key, items in W.build_pools().items():
        workload, kind = key.split("/")
        reference["pools"][key] = [
            [item, *outcome_and_cost(workload, kind, item)] for item in items]
        print(f"{key}: {len(items)}", file=sys.stderr)
    # one pool entry per line keeps diffs of re-recorded references readable
    pools = ",\n".join(
        f"  {json.dumps(key)}: [\n" + ",\n".join("   " + json.dumps(e) for e in entries)
        + "\n  ]" for key, entries in reference["pools"].items())
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "src_sha256": {json.dumps(reference["src_sha256"])},\n'
                 f' "pools": {{\n{pools}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
