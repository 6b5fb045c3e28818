"""Replay seeded rank-2 eigenvalue data through ``classify`` and ``construct``.

The benchmark corpora hold roots of unity only.  This corpus, per seed, has
300 eigenvalue data at s = 3..7 over Q(zeta_n), n = 1..60: roots of unity,
some times a non-unit (+-2, 1/3, -3/2, 1 + zeta_n^a, zeta_n^a - 2), with
scalar and repeated pairs.  Half force one choice at the generating triple to
multiply to 1 with the scalars; nine in ten are rescaled so that the product
of all 2s values is 1.  Each datum runs ``classify`` once, and ``construct``
on the generating triple and on one other triple, in this process, as
``main([cmd, "--input", <payload JSON>])``.  It prints the request count,
exit statuses, members found and wall time per command, and one SHA-256 over
the (argv, exit status, stdout) of every request, so two checkouts print
equal hashes exactly when they answer every request byte for byte alike:

    python tools/moduli_parity.py --seeds 1 2
    python tools/moduli_parity.py --root ../other-checkout --seeds 1 2
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

DATA_PER_SEED = 300
SCALES = (2, -2, Fraction(1, 3), Fraction(-3, 2))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ is used (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    from rigidmono import EigenData, all_component_specs, one, rational, zeta
    from rigidmono import serialize as wire
    from rigidmono.cli import main as cli_main

    def datum(rng):
        s, n = rng.randint(3, 7), rng.randint(1, 60)
        triple = sorted(rng.sample(range(1, s + 1), 3))

        def value():
            u = zeta(n, rng.randrange(n))
            kind = rng.randrange(5)
            if kind == 1:
                return u * rational(rng.choice(SCALES))
            if kind == 2:
                a = zeta(n, rng.randrange(n))
                c = one() + a if rng.random() < 0.5 else a - rational(2)
                return u * c if c else u
            return u

        pts = []
        for i in range(1, s + 1):
            x = value()
            pts.append([x, x] if rng.randrange(4 if i in triple else 5) in (0, 4) else [x, value()])
        i1, i2, i3 = triple
        if rng.random() < 0.5:
            k = one()
            for i, pt in enumerate(pts, start=1):
                if i not in triple:
                    k = k * pt[0]
            x, y = pts[i1 - 1][rng.randrange(2)], pts[i2 - 1][rng.randrange(2)]
            pts[i3 - 1][0] = (x * y * k).inverse()
        if rng.randrange(10):
            prod = one()
            for pt in pts:
                prod = prod * pt[0] * pt[1]
            pts[i3 - 1][1] = pts[i3 - 1][1] / prod
        other = rng.choice(all_component_specs(s)).triple
        return EigenData.of(pts), triple, sorted(other)

    digest = hashlib.sha256()
    stats = collections.defaultdict(collections.Counter)
    sent, seconds = collections.Counter(), collections.Counter()
    for seed in args.seeds:
        rng = random.Random(seed)
        for _ in range(DATA_PER_SEED):
            e, triple, other = datum(rng)
            eigen = wire.eigen_to_json(e)
            requests = [("classify", eigen)] + [
                ("construct", {"eigen": eigen, "spec": {"s": e.punctures, "triple": t}})
                for t in (triple, other)]
            for cmd, payload in requests:
                argv = [cmd, "--input", json.dumps(payload, separators=(",", ":"))]
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    status = cli_main(argv)
                sent[cmd] += 1
                seconds[cmd] += time.perf_counter() - start
                digest.update(json.dumps([argv, status, out.getvalue()]).encode() + b"\n")
                stats[cmd][f"exit {status}"] += 1
                if cmd == "classify" and status == 0:
                    reply = json.loads(out.getvalue())
                    stats[cmd]["members"] += sum(c["member"] for c in reply["components"])
    for cmd in ("classify", "construct"):
        counts = "  ".join(f"{k} {v}" for k, v in sorted(stats[cmd].items()))
        print(f"{cmd:9s}  {sent[cmd]} requests  {counts}  {seconds[cmd]:.3f} s")
    print(f"seeds {' '.join(map(str, args.seeds))}  sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
