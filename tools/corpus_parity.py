"""Replay the benchmark corpora through ``cli.main`` and hash the replies.

Every request of each workload, at each given seed, runs in this process as
``main([cmd, "--input", <payload JSON>])``, the argv the benchmark worker
uses.  One SHA-256 per workload is printed, over the (argv, exit status,
stdout) of its requests in corpus order, so two checkouts print equal hashes
exactly when they answer every request byte for byte alike.  The corpora come
from ``perfbench/corpus.py``, which is only imported.  With ``--compare
OTHER_ROOT`` the tool also runs itself on that checkout in a subprocess,
prints MATCH or DIFF per workload, and exits 1 on any DIFF.

    python tools/corpus_parity.py --seeds 101 102
    python tools/corpus_parity.py --root ../other-checkout --seeds 101 102
    python tools/corpus_parity.py --compare ../other-checkout --seeds 101 102
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=None,
                   help="workloads to replay (default: all)")
    p.add_argument("--compare", type=Path, metavar="OTHER_ROOT", default=None,
                   help="also hash OTHER_ROOT's answers and exit 1 unless every workload matches")
    args = p.parse_args()
    if args.compare is not None:
        # The other checkout runs in its own process: one process imports one rigidmono.
        cmd = [sys.executable, __file__, "--root", str(args.compare), "--seeds", *map(str, args.seeds)]
        if args.workloads:
            cmd += ["--workloads", *args.workloads]
        theirs = _digests(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import corpus
    from rigidmono.cli import main as cli_main

    ours = {}
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
        ours[workload] = digest.hexdigest()
        print(f"{workload}  {count} requests  seeds {' '.join(map(str, args.seeds))}  "
              f"sha256 {ours[workload]}")
    if args.compare is None:
        return 0
    for workload, digest in ours.items():
        print(f"{'MATCH' if theirs.get(workload) == digest else 'DIFF'}  {workload}  "
              f"against {args.compare}")
    return int(ours != theirs)


def _digests(text: str) -> dict[str, str]:
    # {workload: sha256} from the lines the tool prints.
    return {line.split()[0]: line.split()[-1] for line in text.splitlines() if " sha256 " in line}


if __name__ == "__main__":
    sys.exit(main())
