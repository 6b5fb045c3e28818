"""Replay monodromy tuples through the Burnside test and the centralizer count, and hash both.

The tuples are the distinct tuple payloads (``check``, ``mon`` and ``orbit``
requests) of the ``pipeline-cyclo`` and ``tuples-rational`` corpora at each
given seed, plus seeded Levelt triples: with A and B the companion matrices of
prod(x - a_i) and prod(x - b_j), a_i and b_j roots of unity at one conductor
n <= 60, the triple (A, A^-1 B, B^-1), at ranks 2 to 4, with a shared root in
half of them.  ``monodromy.is_irreducible`` runs on each (as the tuple's
cached ``irreducible``), and one SHA-256 over the (tuple, verdict) pairs is
printed, so two checkouts print equal hashes exactly when they give every
tuple the same verdict.  A second SHA-256 covers the (tuple, centralizer
dimensions) pairs of ``katz_report``, timed apart.  Each group also counts
the tuples by the decision steps ``is_irreducible`` called for them, by name
and number of calls, of those the checkout has: the rank-2 commutator
criterion (``monodromy._no_common_line``), and Burnside's span certificate
(``linalg._full_span_mod_p``) and exact span (``algebra_dim``).

    python tools/burnside_parity.py --seeds 1 2
    python tools/burnside_parity.py --root ../other-checkout --seeds 1 2
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import random
import sys
import time
from pathlib import Path

LEVELT_PER_RANK = {2: 40, 3: 30, 4: 20}
TUPLE_COMMANDS = ("check", "mon", "orbit")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import corpus
    from rigidmono import Matrix, MonodromyTuple, katz_report, one, zero, zeta
    from rigidmono import monodromy
    from rigidmono import serialize as wire
    steps = collections.Counter()  # the decision steps that one verdict called, by name

    def recorded(name, step):
        def call(*args):
            steps[name] += 1
            return step(*args)
        return call
    found = [name for name in ("_no_common_line", "_full_span_mod_p", "algebra_dim")
             if hasattr(monodromy, name)]
    for name in found:
        setattr(monodromy, name, recorded(name, getattr(monodromy, name)))

    def companion(roots):
        c = [one()]  # prod(x - z), lowest degree first
        for z in roots:
            c = [-z * c[0]] + [c[k - 1] - z * c[k] for k in range(1, len(c))] + [c[-1]]
        r = len(roots)
        return Matrix(r, r, tuple(-c[i] if j == r - 1 else (one() if i == j + 1 else zero())
                                  for i in range(r) for j in range(r)))

    groups = {}
    for workload in ("pipeline-cyclo", "tuples-rational"):
        seen = {}
        for seed in args.seeds:
            for req in corpus.generate(workload, seed):
                if req["cmd"] in TUPLE_COMMANDS:
                    text = json.dumps(req["payload"], sort_keys=True, separators=(",", ":"))
                    seen.setdefault(text, req["payload"])
        groups[workload] = [wire.tuple_from_json(obj) for obj in seen.values()]

    def levelt(rng, r):
        while True:
            n = rng.randint(1, 60)
            ks, ls = ([rng.randrange(n) for _ in range(r)] for _ in range(2))
            if rng.random() < 0.5:
                ls[rng.randrange(r)] = ks[rng.randrange(r)]
            if sorted(ks) != sorted(ls):  # equal multisets make the middle factor I
                break
        big_a, big_b = companion([zeta(n, k) for k in ks]), companion([zeta(n, k) for k in ls])
        return MonodromyTuple.of([big_a, big_a.inverse() @ big_b, big_b.inverse()])

    for r, count in LEVELT_PER_RANK.items():
        groups[f"levelt rank {r}"] = [levelt(rng, r) for seed in args.seeds
                                      for rng in (random.Random(f"levelt:{r}:{seed}"),)
                                      for _ in range(count)]

    digest, dims_digest = hashlib.sha256(), hashlib.sha256()
    for name, tuples in groups.items():
        irreducible, decided, t0 = 0, collections.Counter(), time.perf_counter()
        for t in tuples:
            steps.clear()
            verdict = t.irreducible  # is_irreducible, cached for katz_report below
            irreducible += verdict
            decided[" + ".join(name if k == 1 else f"{name} x{k}"
                               for name, k in steps.items()) or "no step"] += 1
            digest.update(json.dumps([wire.tuple_to_json(t), verdict],
                                     separators=(",", ":")).encode() + b"\n")
        elapsed, t0 = time.perf_counter() - t0, time.perf_counter()
        for t in tuples:  # the verdict is cached, so this times the centralizers
            dims = list(katz_report(t).centralizer_dims)
            dims_digest.update(json.dumps([wire.tuple_to_json(t), dims],
                                          separators=(",", ":")).encode() + b"\n")
        dims_s = time.perf_counter() - t0
        counts = ("".join(f"  {count} {step}" for step, count in sorted(decided.items()))
                  if found else "  (no decision steps found)")
        print(f"{name:16s} {len(tuples):4d} tuples  {irreducible} irreducible{counts}  "
              f"{elapsed:.3f} s  centralizers {dims_s:.3f} s")
    print(f"seeds {' '.join(map(str, args.seeds))}  sha256 {digest.hexdigest()}  "
          f"centralizer sha256 {dims_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
