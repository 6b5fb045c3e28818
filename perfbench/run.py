"""The rigidmono benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/rigidmono``).  It
generates the workload's corpus from the seed, refuses to run when the corpus
at the default seed no longer matches the digest in ``record.json``, times the
set-up of fresh interpreters, then runs the closed loop in ``worker.py`` and
checks every distinct report against ``oracle.py``.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones.  All
times are scaled to the reference speed of ``reference.py``.  The last line
of standard output is one JSON object; the lines before it say the same for
people.  Scratch files go to ``.bench_build/perfbench``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_LAUNCHES = 11
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
DEADLINE_S = 170          # the whole run ends within this

sys.path.insert(0, str(HERE))


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path: Path):
    return json.loads(path.read_text())


def stratum(req) -> tuple:
    exp = req["expect"]
    return req["cmd"], exp.get("n"), exp.get("kind"), exp.get("op")


def setup_times(req, launches) -> list[float]:
    """Seconds from launching a fresh interpreter to the end of ``req``, once
    per launch, scaled to the reference speed measured before and after."""
    from reference import REFERENCE_S, kernel_s
    argv = [sys.executable, str(HERE / "worker.py"), "--first", req["cmd"],
            "--payload", json.dumps(req["payload"])]
    ref_before = kernel_s()
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        if line.strip() != "0" or proc.returncode != 0:
            fail(f"set-up request exited with {line.strip() or proc.returncode}", 4)
    scale = 2 * REFERENCE_S / (ref_before + kernel_s())
    return [t * scale for t in times]


def run_worker(workload, seed, requests, seconds, trace, deadline) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    corpus_file = WORK / f"corpus-{workload}-{seed}.json"
    out_file = WORK / f"result-{workload}-{seed}-{trace}.json"
    seen, warm = set(), []
    for i, req in enumerate(requests):
        if stratum(req) not in seen:
            seen.add(stratum(req))
            warm.append(i)
    argv = [[r["cmd"], "--input", json.dumps(r["payload"], separators=(",", ":"))]
            for r in requests]
    corpus_file.write_text(json.dumps({"argv": argv, "warm": warm}))
    out_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--corpus", str(corpus_file),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_file)]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        fail(f"worker failed: {exc}", 5)
    return load_json(out_file)


def verify(requests, reports) -> dict[int, list[str]]:
    """Oracle problems per request index, for the requests that have any."""
    import oracle
    bad = {}
    for i, (req, (status, text)) in enumerate(zip(requests, reports)):
        if status is None:
            bad[i] = [f"exception escaped cli.main: {text}"]
            continue
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            bad[i] = [f"report is not JSON: {exc}"]
            continue
        problems = oracle.check(req, status, report)
        if problems:
            bad[i] = problems
    return bad


def item_latencies(latencies) -> list[float]:
    """Each request's latency: the median of its timings over the passes."""
    return [statistics.median(xs) for xs in latencies]


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        fail(f"need more than {TAIL_BEYOND} requests for a tail", 6)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(result, setup_s, attempted, failed) -> dict[str, float]:
    """The six end-to-end metrics; items_per_s is one client's rate, the
    number of requests over the sum of their latencies."""
    run = result["untraced"]
    lat = item_latencies(run["latencies"])
    tail_s, pct = tail(lat)
    print(f"latency_tail_ms is p{pct:.2f} of {len(lat)} per-request latencies, "
          f"{TAIL_BEYOND} beyond it ({run['passes']} passes over the corpus)")
    return {"items_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "correct_share": 1.0 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(workload, requests, result) -> tuple[dict[str, float], list[str]]:
    from tracer import (COMMANDS, LAYERS, PREDICTED_BYPASS, PREDICTED_CALLS,
                        PREDICTED_DOMINANT)
    plain, traced = result["untraced"], result["traced"]
    metrics = dict(traced["layers"])
    # Per-command latency comes from the untraced half, free of tracing cost.
    lat = item_latencies(plain["latencies"])
    for cmd in COMMANDS:
        mine = [m for m, r in zip(lat, requests) if r["cmd"] == cmd]
        metrics[f"cli.{cmd}_p50_ms"] = statistics.median(mine) * 1e3 if mine else 0.0
    metrics["serialize.report_bytes"] = traced["report_bytes"] / traced["requests"]
    ips_plain = len(lat) / sum(lat)
    ips_traced = len(lat) / sum(item_latencies(traced["latencies"]))
    metrics["trace.overhead_share"] = 1.0 - ips_traced / ips_plain
    print(f"tracing overhead: {ips_traced:.2f} items/s traced against {ips_plain:.2f} "
          f"untraced ({metrics['trace.overhead_share']:.1%} slower), "
          f"{traced['wrapped']} functions wrapped")
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values())
    for layer, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  self time {layer:<11} {t * 1e3:9.3f} ms/request  "
              f"{t / total if total else 0:6.1%}  calls {traced['layer_calls'][layer]}")
    dominant = max(selfs, key=selfs.get)
    predicted = PREDICTED_DOMINANT[workload]
    print(f"dominant layer by self time: {dominant} (predicted {predicted}: "
          f"{'confirmed' if dominant == predicted else 'not confirmed'})")
    problems = [f"binding left unwrapped: {name}" for name in traced["unwrapped"]]
    problems += [f"predicted call never recorded: {name}"
                 for name in sorted(PREDICTED_CALLS[workload])
                 if not traced["calls"].get(name)]
    problems += [f"layer predicted bypassed was entered: {layer}"
                 for layer in sorted(PREDICTED_BYPASS[workload])
                 if traced["layer_calls"][layer]]
    if traced["changed"]:
        problems.append(f"{traced['changed']} traced reports differ from the untraced ones")
    return metrics, problems


def main():
    p = argparse.ArgumentParser(description="Run one workload of the rigidmono benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "rigidmono" / "cli.py").is_file():
        fail(f"no rigidmono sources under {ROOT / 'src'}; run from a source checkout", 2)
    sys.path.insert(0, str(ROOT / "src"))
    import corpus
    if args.workload not in corpus.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(corpus.WORKLOADS)}", 2)
    spec = load_json(ROOT / "BENCHMARK.json")
    record = load_json(HERE / "record.json")

    requests = corpus.generate(args.workload, args.seed)
    digest = corpus.request_digest(requests)
    default_seed = record["default_seed"]
    ref = digest if args.seed == default_seed else corpus.request_digest(
        corpus.generate(args.workload, default_seed))
    if ref != record["corpus_sha256"][args.workload]:
        fail(f"{args.workload} corpus at the default seed {default_seed} has digest "
             f"{ref[:16]}, record.json has {record['corpus_sha256'][args.workload][:16]}: "
             "the generator or the library it uses changed, so these runs are not "
             "comparable with recorded ones", 3)
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests, corpus sha256 "
          f"{digest[:16]}; default-seed corpus matches record.json")

    # Set-up is timed in two batches, before and after the loop, so that one
    # slow stretch of the host does not decide it.
    first = corpus.first_request(args.workload)
    setup = [] if args.trace else setup_times(first, SETUP_LAUNCHES // 2)
    result = run_worker(args.workload, args.seed, requests, args.seconds, args.trace, deadline)
    if not args.trace:
        setup += setup_times(first, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)

    bad = verify(requests, result["reports"])
    runs = [result[k] for k in ("untraced", "traced") if k in result]
    attempted = sum(r["requests"] for r in runs)
    passes = sum(r["passes"] for r in runs)
    failed = len(bad) * passes + sum(r["changed"] for r in runs)
    for i, problems in sorted(bad.items()):
        text = json.dumps(requests[i]["payload"])
        print(f"FAILED request {i} ({requests[i]['cmd']}): {'; '.join(problems)[:300]}\n"
              f"  input: {text[:300]}{'...' if len(text) > 300 else ''}")
    if bad:
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"failures-{args.workload}-{args.seed}.json").write_text(json.dumps(
            [{"request": requests[i], "problems": bad[i]} for i in sorted(bad)], indent=1))
    print(f"checked {len(requests)} distinct reports: {len(bad)} wrong; "
          f"{attempted} requests sent, {failed} failed")

    correct = not bad and not failed
    if args.trace:
        metrics, problems = per_layer(args.workload, requests, result)
        for problem in problems:
            print(f"TRACER SELF-CHECK FAILED: {problem}")
        correct = correct and not problems
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(result, statistics.median(setup), attempted, failed)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json", 7)
    for name in units:
        print(f"  {name:<32} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))


if __name__ == "__main__":
    main()
