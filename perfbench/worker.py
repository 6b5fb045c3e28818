"""The benchmark's client process: drives ``rigidmono.cli.main`` in-process.

Closed loop with one client: each request is one ``main([cmd, "--input",
json])`` call, and the next is sent only after it returns.  Two modes:

``worker.py --first CMD --payload JSON``
    run one request in this fresh interpreter, then print its exit status;
    ``run.py`` times launch-to-line as the set-up time.
``worker.py --corpus FILE --seconds S --trace 0|1 --out FILE``
    warm the lazy tables, then run whole passes over the corpus for about S
    seconds, scaling each latency to the reference speed of ``reference.py``.
    With ``--trace 1`` the first half of the time runs untraced and the second
    half traced, so the two can be compared report for report.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
REFERENCE_EVERY_S = 0.5   # re-time the reference kernel after this much work


def call(main, argv):
    """(seconds, exit status or None, output text or error) for one request."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = main(argv)
    except Exception as exc:  # an exception escaping the CLI is a failed request
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, status, buf.getvalue()


def run_passes(cli, argvs, seconds, reports):
    """Whole passes until the next one would overrun ``seconds``.

    Each latency is scaled by REFERENCE_S over the mean of the reference
    kernel's times just before and just after its stretch of requests.
    ``reports[i]`` holds the first (status, text) seen for request i; a later
    answer that differs is counted in ``changed``.
    """
    from reference import REFERENCE_S, kernel_s
    lat = [[] for _ in argvs]
    passes, changed, out_bytes, raw_s, scaled_s = 0, 0, 0, 0.0, 0.0
    pending, pending_s, ref_before = [], 0.0, kernel_s()
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for i, argv in enumerate(argvs):
            dt, status, text = call(cli.main, argv)
            pending.append((i, dt))
            pending_s += dt
            out_bytes += len(text)
            if reports[i] is None:
                reports[i] = (status, text)
            elif reports[i] != (status, text):
                changed += 1
            if pending_s >= REFERENCE_EVERY_S or i == len(argvs) - 1:
                ref_after = kernel_s()
                scale = 2 * REFERENCE_S / (ref_before + ref_after)
                for j, d in pending:
                    lat[j].append(d * scale)
                raw_s, scaled_s = raw_s + pending_s, scaled_s + pending_s * scale
                pending, pending_s, ref_before = [], 0.0, ref_after
        passes += 1
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    return {"latencies": lat, "passes": passes, "changed": changed, "scale": scaled_s / raw_s,
            "requests": len(argvs) * passes, "report_bytes": out_bytes}


def loop(args):
    from rigidmono import cli
    corpus = json.loads(Path(args.corpus).read_text())
    argvs = corpus["argv"]
    for i in corpus["warm"]:
        call(cli.main, argvs[i])
    reports = [None] * len(argvs)
    out = {}
    if args.trace:
        out["untraced"] = run_passes(cli, argvs, args.seconds / 2, reports)
        import rigidmono
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(rigidmono)
        traced = run_passes(cli, argvs, args.seconds / 2, reports)
        traced["layers"] = {name: value * traced["scale"] if name.endswith("_s") else value
                            for name, value in tracer.layer_metrics(traced["requests"]).items()}
        traced["layer_calls"] = tracer.layer_calls()
        traced["calls"] = dict(tracer.calls)
        traced["unwrapped"] = tracer.unwrapped_bindings(rigidmono)
        traced["wrapped"] = len(tracer.wrapped)
        out["traced"] = traced
    else:
        out["untraced"] = run_passes(cli, argvs, args.seconds, reports)
    out["reports"] = reports
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(out))


def first(args):
    from rigidmono import cli
    _, status, _ = call(cli.main, [args.first, "--input", args.payload])
    print(status, flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", metavar="CMD")
    p.add_argument("--payload")
    p.add_argument("--corpus")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()
    sys.path.insert(0, str(HERE))
    if args.first:
        first(args)
    else:
        loop(args)


if __name__ == "__main__":
    main()
