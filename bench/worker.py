"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py`` from the root of a radolab checkout; imports radolab
from ``./src``.  A closed loop with one client repeats the run's fixed batch
of operations until the summed operation time reaches ``--seconds``.  Each
operation's latency covers only the radolab calls; checking outputs happens
between operations, and every output of every repetition is checked.  An
operation's latency is scaled to a reference machine speed gauged by a
probe run between operations (see speed.py), and then taken as the median
over the repetitions.  Prints one JSON object.

With ``--trace 1`` repetitions alternate between untraced and traced, each
side getting half the time, and the traced ones give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import radolab  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_DETAILS = 20
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.02


def _side(n_ops: int) -> dict:
    return {"latencies": [[] for _ in range(n_ops)],
            "raw": [[] for _ in range(n_ops)], "reps": 0, "failures": 0,
            "details": [], "op_time_s": 0.0, "report_bytes": 0}


def run_batch(workload: str, ops: list, side: dict, tracer=None) -> None:
    """One repetition of the batch.  The speed probe runs whenever
    PROBE_EVERY_S of operation time has passed; each latency is scaled by
    the mean of the probes before and after it (see speed.py)."""
    pending, since = [], 0.0
    before = speed.probe_seconds()
    for i, (kind, item, ref) in enumerate(ops):
        if tracer is not None:
            tracer.op_id += 1
        t0 = perf_counter()
        try:
            output = workloads.run_op(workload, kind, item)
            dt = perf_counter() - t0
            ok = workloads.check_op(workload, kind, item, ref, output)
        except Exception:
            dt = perf_counter() - t0
            ok, output = False, None
            detail = traceback.format_exc(limit=3)
        else:
            detail = "output differs from reference"
        if not ok:
            side["failures"] += 1
            if len(side["details"]) < MAX_DETAILS:
                side["details"].append(f"{kind} {item!r}: {detail}")
        side["raw"][i].append(dt)
        side["op_time_s"] += dt
        if workload == "analyze" and output is not None:
            side["report_bytes"] += len(output[1].encode())
        pending.append((i, dt))
        since += dt
        if since >= PROBE_EVERY_S or i == len(ops) - 1:
            after = speed.probe_seconds()
            scale = speed.REFERENCE_S / ((before + after) / 2)
            for j, d in pending:
                side["latencies"][j].append(d * scale)
            pending, since, before = [], 0.0, after
    side["reps"] += 1


def measure(workload: str, ops: list, seconds: float, tracer=None) -> list[dict]:
    """Whole repetitions of the batch until each side has spent ``seconds``
    in operations.

    Without a tracer there is one side.  With one, repetitions alternate
    between an untraced and a traced side, so both see the same machine
    conditions and their throughputs give the tracing overhead.
    """
    sides = [_side(len(ops)), _side(len(ops))] if tracer else [_side(len(ops))]
    rep = 0
    while True:
        if tracer and rep % 2:
            tracer.install()
            try:
                run_batch(workload, ops, sides[1], tracer)
            finally:
                tracer.uninstall()
        else:
            run_batch(workload, ops, sides[0])
        rep += 1
        if rep % len(sides) == 0 and all(
                side["op_time_s"] >= seconds for side in sides):
            return sides


def check_fallback_edge(tracer) -> bool:
    """The traced run must see a call that crosses modules through an
    imported name.  No input in the certification sweep misses the
    predicted two-block certificate, so the prediction is made to fail for
    one call, forcing ``verify_hl_choice`` (linear) to fall back to
    ``columns_condition`` (linalg, imported by name into linear)."""
    linear = sys.modules["radolab.linear"]
    predicted = getattr(linear, "_fast_path_blocks", None)
    if predicted is None:  # the prediction was restructured: nothing to force
        return False
    linear._fast_path_blocks = lambda k, n: ((0,), tuple(range(1, 3 * n - 3)))
    tracer.install()
    try:
        cert = linear.verify_hl_choice([1, -1, 2], 2, 3)
    finally:
        tracer.uninstall()
        linear._fast_path_blocks = predicted
    edges = tracer.children_of("linear.verify_hl_choice", "linalg.columns_condition")
    tracer.reset()
    return cert is not None and edges == 1


def layer_metrics(tracer, untraced: dict, traced: dict, edge_ok: bool,
                  wrap_ok: bool) -> dict:
    """Self times and counts per repetition of the batch, ratios, and the
    tracing overhead."""
    layers = tracer.layers()
    reps = traced["reps"]

    def get(name, key="calls"):
        return layers[name][key] / reps if name in layers else 0

    def ratio(num, den):
        return num / den if den else 0.0

    hl_calls = get("linear.verify_hl_choice")
    fallbacks = tracer.children_of("linear.verify_hl_choice",
                                   "linalg.columns_condition") / reps
    cc = "linalg.columns_condition"
    census = "coloring.profile_census_many"
    untraced_rate = _summary(untraced)["ops_per_s"]
    traced_rate = _summary(traced)["ops_per_s"]
    out = {
        f"{cc}.calls": (get(cc), "count"),
        f"{cc}.found_ratio": (ratio(get(cc, "found"), get(cc)), "ratio"),
        "linalg.zero_sum_subsets.calls": (get("linalg.zero_sum_subsets"), "count"),
        "linalg.zero_sum_subsets.subsets_found":
            (get("linalg.zero_sum_subsets", "subsets_found"), "count"),
        "linear.verify_hl_choice.calls": (hl_calls, "count"),
        "linear.fast_path_ratio": (ratio(hl_calls - fallbacks, hl_calls), "ratio"),
        "model.trivial_constant_solution.calls":
            (get("model.trivial_constant_solution"), "count"),
        "parser.parse.calls": (get("parser.parse"), "count"),
        "univariate.has_positive_root.calls":
            (get("univariate.has_positive_root"), "count"),
        "cli.report_bytes": (traced["report_bytes"] / reps, "bytes"),
        f"{census}.solutions": (get(census, "solutions"), "count"),
        f"{census}.valid_ratio":
            (ratio(get(census, "valid"), get(census, "pairs")), "ratio"),
        "coloring.enumerate_solutions.yielded":
            (get("coloring.enumerate_solutions", "yielded"), "count"),
        "coloring.head_census.coordinates":
            (get("coloring.head_census", "coordinates"), "count"),
        "coloring.iter_records.records":
            (get("coloring.iter_records", "yielded"), "count"),
        "coloring.color_array.bytes":
            (get("coloring.color_array", "bytes"), "bytes_computed"),
        "coloring.color_array.wrap_probe_ok": (int(wrap_ok), "count"),
        "trace.overhead_ratio": (ratio(untraced_rate, traced_rate), "ratio"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.cross_module_edges": (tracer.cross_module_edges() / reps, "count"),
        "trace.fallback_edge_seen": (int(edge_ok), "count"),
    }
    for name in SELF_MS_LAYERS:
        out[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# layers whose self time per repetition is reported
SELF_MS_LAYERS = (
    "linalg.columns_condition",
    "linalg.verify_certificate", "linalg.in_span", "linalg.zero_sum_subsets",
    "linalg.first_zero_sum_subset", "linear.verify_hl_choice",
    "linear.hl_matrix", "linear.asymptotic_candidates_linear",
    "linear.linear_pr_verdict", "model.trivial_constant_solution",
    "parser.parse", "parser.pretty", "univariate.has_positive_root",
    "filters.filter_battery", "filters.filter_maximal_root",
    "filters.filter_fermat_catalan", "filters.filter_exponent_rado",
    "cli.main", "coloring.profile_census_many",
    "coloring.enumerate_solutions", "coloring.head_census",
    "coloring.witness_search", "coloring.iter_records",
    "coloring.color_array",
)


def wrap_probe(seed: int) -> tuple[bool, str]:
    """A census whose colors do not fit in the 16-bit color array, against
    an independent count.  Run once, untimed, in traced census runs; it is a
    per-layer result, not an operation of the workload."""
    p = workloads.wrap_params(seed)
    try:
        if workloads.census_output("census3", p) == workloads.wrap_truth(p):
            return True, ""
        return False, (f"wrap probe {p}: counts differ from the independent "
                       "multiples-of-m count")
    except Exception:
        return False, f"wrap probe {p}: " + traceback.format_exc(limit=3)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BATCH))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    reference = workloads.load_reference()
    ops = workloads.batch(args.workload, args.seed, reference)
    # one untimed pass lets lazy set-up (first-call imports, regex
    # compilation) finish before timing
    for kind, item, _ in ops:
        workloads.run_op(args.workload, kind, item)

    tracer = tracing.Tracer() if args.trace else None
    edge_ok = check_fallback_edge(tracer) if tracer else False
    seconds = args.seconds / 2 if tracer else args.seconds
    sides = measure(args.workload, ops, seconds, tracer)
    result = {"runs": [_summary(side) for side in sides], "notes": []}
    if tracer:
        wrap_ok = False
        if args.workload == "census":
            wrap_ok, note = wrap_probe(args.seed)
            if note:
                result["notes"].append(note)
        result["layers"] = layer_metrics(tracer, *sides, edge_ok, wrap_ok)
        if args.spans_out:
            tracer.write(args.spans_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["radolab_file"] = radolab.__file__
    print(json.dumps(result))
    return 0


def _summary(side: dict) -> dict:
    """Throughput, median and tail from each operation's median latency over
    the repetitions, scaled to the reference speed; the raw (unscaled)
    figures go alongside.  The tail is the highest percentile with at least
    ten operations beyond it."""
    out = {"ops": len(side["latencies"]), "reps": side["reps"],
           "attempted": len(side["latencies"]) * side["reps"],
           "op_time_s": side["op_time_s"], "failures": side["failures"],
           "details": side["details"]}
    for prefix, key in (("", "latencies"), ("raw_", "raw")):
        per_op = sorted(statistics.median(lat) for lat in side[key])
        n = len(per_op)
        tail_index = max(0, n - TAIL_BEYOND - 1)
        out.update({f"{prefix}ops_per_s": n / sum(per_op),
                    f"{prefix}p50_s": statistics.median(per_op),
                    f"{prefix}tail_s": per_op[tail_index]})
    out.update(tail_pct=100.0 * (tail_index + 1) / n,
               beyond_tail=n - tail_index - 1)
    return out


if __name__ == "__main__":
    sys.exit(main())
