"""Run every workload several times and print, or record, the result.

    python3 perfbench/baseline.py [--runs 10] [--seconds S] [--record GIT_SHA]

Runs ``run.py`` on every workload: ``--runs`` untraced runs on seeds 1, 2, ...
and one traced run on the default seed.  Prints, per workload, the median of
every end-to-end metric with its unit, and its spread (interquartile range
over the median) against the bound in ``BENCHMARK.json``.  ``--record`` first
rewrites the corpus digests in ``record.json`` (so a deliberate change of the
generator shows in its diff), then appends a trajectory point: those numbers,
the traced per-layer table, the dominant layer against its prediction, and the
machine, Python, ``nproc`` and git SHA.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracer import LAYERS, PREDICTED_DOMINANT  # noqa: E402


def run(workload, seed, seconds, trace) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} is not correct:\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure(workload, runs, seconds, default_seed) -> dict:
    values = [run(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
    layers = run(workload, default_seed, seconds, 1)
    selfs = {layer: layers[f"{layer}.self_s"] for layer in LAYERS}
    dominant = max(selfs, key=selfs.get)
    return {
        "end_to_end": {k: {"median": statistics.median(v[k] for v in values),
                           "spread": spread([v[k] for v in values])} for k in values[0]},
        "per_layer": layers,
        "self_time_share": {layer: t / sum(selfs.values()) for layer, t in selfs.items()},
        "dominant_layer": {"predicted": PREDICTED_DOMINANT[workload], "traced": dominant,
                           "confirmed": dominant == PREDICTED_DOMINANT[workload]},
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--record", metavar="GIT_SHA")
    args = p.parse_args()
    path = HERE / "record.json"
    record = json.loads(path.read_text())
    if args.record:
        record["corpus_sha256"] = {
            w: corpus.request_digest(corpus.generate(w, record["default_seed"]))
            for w in corpus.WORKLOADS}
        path.write_text(json.dumps(record, indent=1) + "\n")

    workloads = {}
    for w in corpus.WORKLOADS:
        workloads[w] = measure(w, args.runs, args.seconds, record["default_seed"])
        print(f"{w}  ({args.runs} seeds; dominant layer {workloads[w]['dominant_layer']})")
        for m in spec["end_to_end"]:
            e = workloads[w]["end_to_end"][m["name"]]
            print(f"  {m['name']:<16} {e['median']:12.5g} {m['unit']:<6} "
                  f"spread {e['spread']:.3f} (bound {m['bound']})")
    if args.record:
        record.setdefault("trajectory", []).append({
            "git_sha": args.record, "machine": cpu_model(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seeds": f"1-{args.runs}", "run_seconds": args.seconds,
            "workloads": workloads})
        path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
