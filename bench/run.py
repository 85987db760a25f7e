"""radolab benchmark.

Run from the root of a radolab checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  certify  two-class certificates and columns-condition searches (linear, linalg)
  analyze  `analyze` / `asymptotic` reports through radolab.cli.main
           (parser, model, univariate, filters, linear, linalg, cli)
  census   profile and head censuses, witness search, solution streaming
           (coloring)

Each run repeats one fixed batch of operations drawn from --seed.  With
--trace 0 it prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb.  The three operation metrics come from each
operation's median latency over the repetitions, scaled to a reference
machine speed gauged by a probe run between operations (bench/speed.py);
the unscaled figures are on the `meta` line.  With --trace 1 it prints the
per-layer metrics of a traced run, per repetition of the batch, and writes
its spans under .bench_out/; traced census runs also run the mod:65537
color-wrap probe.  Every operation's output is checked; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 11
RUN_TIMEOUT_S = 165

READY = ("import sys; sys.path.insert(0, 'src'); import radolab; "
         "sys.stdout.write(radolab.__file__ + '\\n'); sys.stdout.flush()")


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing radolab, from
    launch until it reports ready for its first call.  It is not scaled by
    the speed probe: start-up (file reads, module loading) does not slow
    down with the probe."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=30) != 0 or not _inside_src(line.strip()):
            raise RuntimeError("radolab did not import from ./src")
    return statistics.median(times)


def _inside_src(path: str) -> bool:
    return bool(path) and Path(path).resolve().is_relative_to((ROOT / "src").resolve())


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def metadata(args) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": platform.machine(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_line_count()}


def run_worker(args, spans_path) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        cmd += ["--spans-out", str(spans_path)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not _inside_src(result["radolab_file"]):
        raise RuntimeError("worker did not import radolab from ./src")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["analyze", "census", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "radolab" / "__init__.py").is_file():
        print("error: run from the root of a radolab checkout "
              "(src/radolab not found)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = setup_seconds()
        result = run_worker(args, OUT / f"spans-{tag}.json" if args.trace else None)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run = result["runs"][0]
    attempted = sum(side["attempted"] for side in result["runs"])
    failures = sum(side["failures"] for side in result["runs"])
    details = [d for side in result["runs"] for d in side["details"]]
    correct = failures == 0

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": run["p50_s"] * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": run["tail_s"] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    meta = metadata(args)
    meta.update(batch_ops=run["ops"], reps=run["reps"],
                raw={"ops_per_s": run["raw_ops_per_s"],
                     "op_p50_ms": run["raw_p50_s"] * 1e3,
                     "op_tail_ms": run["raw_tail_s"] * 1e3},
                tail_percentile=run["tail_pct"], tail_samples=run["ops"],
                tail_beyond=run["beyond_tail"], failed_frac=failures / attempted,
                notes=result["notes"])
    for detail in details:
        print(f"failed: {detail}", file=sys.stderr)
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name, m in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = (f"  (p{run['tail_pct']:.2f} of {run['ops']} operations, "
                     f"{run['beyond_tail']} beyond)")
        print(f"{name:52s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_frac':52s} {failures / attempted:.6g} fraction "
          f"({failures} of {attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    summary = {"correct": bool(correct), "attempted": attempted,
               "failed": failures, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "failures": details, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
