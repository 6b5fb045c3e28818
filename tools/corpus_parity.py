"""Replay the benchmark corpora through ``cli.main`` and hash the replies.

Every request of each workload, at each given seed, runs in this process as
``main([cmd, "--input", <payload JSON>])``, the argv the benchmark worker
uses.  One SHA-256 per workload is printed, over the (argv, exit status,
stdout) of its requests in corpus order, so two checkouts print equal hashes
exactly when they answer every request byte for byte alike.  The corpora come
from ``perfbench/corpus.py``, which is only imported.

    python tools/corpus_parity.py --seeds 101 102
    python tools/corpus_parity.py --root ../other-checkout --seeds 101 102
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=None,
                   help="workloads to replay (default: all)")
    args = p.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import corpus
    from rigidmono.cli import main as cli_main

    for workload in args.workloads or corpus.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in args.seeds:
            for req in corpus.generate(workload, seed):
                argv = [req["cmd"], "--input", json.dumps(req["payload"], separators=(",", ":"))]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = cli_main(argv)
                digest.update(json.dumps([argv, status, out.getvalue()]).encode() + b"\n")
                count += 1
        print(f"{workload}  {count} requests  seeds {' '.join(map(str, args.seeds))}  "
              f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
