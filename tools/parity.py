"""Replay seeded corpora through the package and hash the answers, one run per checkout.

Every replay in ``REPLAYS`` runs in this process on all the given seeds,
prints its counts and wall times, and returns SHA-256 digests over its
answers, each printed as a ``<name>  sha256 <hex>`` line; two checkouts print
equal digests exactly when they answer alike.  With ``--compare OTHER_ROOT``
this file also runs on that checkout, in a subprocess at the same time (so the
times printed share the machine), prints MATCH or DIFF for every digest name
either side printed, and exits 1 on any DIFF.

    python tools/parity.py --seeds 101 102
    python tools/parity.py --root ../other-checkout --seeds 101 102
    python tools/parity.py --compare ../other-checkout --seeds 101 102
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


def _cli_request(digest, cmd: str, payload) -> tuple[int, str]:
    """Run one request as ``main([cmd, "--input", <payload JSON>])``, the argv
    the benchmark worker uses, and hash its (argv, exit status, stdout)."""
    from rigidmono.cli import main as cli_main
    argv = [cmd, "--input", json.dumps(payload, separators=(",", ":"))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    digest.update(json.dumps([argv, status, out.getvalue()]).encode() + b"\n")
    return status, out.getvalue()


def corpus_replay(seeds) -> dict[str, str]:
    """Every request of each benchmark workload (``perfbench/corpus.py``, only
    imported), one digest per workload over its requests in corpus order."""
    import corpus

    digests = {}
    for workload in corpus.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in seeds:
            for req in corpus.generate(workload, seed):
                _cli_request(digest, req["cmd"], req["payload"])
                count += 1
        digests[workload] = digest.hexdigest()
        print(f"{workload}  {count} requests")
    return digests


# (name, rank, conductors, factors per conductor, kind of factor); the integer
# stratum's factors are all over Q, so its one conductor is only a placeholder
EIGEN_STRATA = (("rank 2", 2, range(1, 61), 70, "mixed"), ("rank 3", 3, range(1, 61), 10, "mixed"),
                ("rank 4", 4, range(1, 25), 3, "mixed"), ("rank 2 integer", 2, (1,), 600, "integer"),
                ("rank 4 repeated", 4, range(1, 25), 6, "repeated"))
HEAVY_NORM = 10 ** 11
# Rationals that are no square up to sign, so c zeta_n^k is the square of no c u.
NON_SQUARES = (2, 3, 5, 6, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(7, 9))


def eigen_replay(seeds) -> dict[str, str]:
    """``linalg.poly_roots_in_field`` on the characteristic polynomials of a
    seeded corpus of local monodromy factors, one digest per seed.

    The corpus has 70 rank-2 and 10 rank-3 matrices over Q(zeta_n) for each
    conductor n = 1..60, and 3 rank-4 matrices for each n = 1..24.  Half have
    random entries (small multiples of powers of zeta_n); the other half are
    block diagonals conjugated by a unimodular integer matrix, with 1 x 1
    blocks c zeta_n^k (c rational) and 2 x 2 blocks x^2 - a, where a is either
    c^2 zeta_n^k, so the roots lie in the degree-bounded extension, or a
    random entry.  A stratum of 600 integer 2 x 2 matrices is shaped like the
    rational benchmark tuples: random small entries, companions of
    x^2 - x + p with p near 10^11, conjugated Jordan blocks, and conjugated
    matrices with roots x +- y i, t zeta_3^(+-1) or two integers.  A
    repeated-root stratum has 6 rank-4 matrices for each n = 1..24: conjugated
    Jordan blocks of c zeta_n^k, and two copies of the companion block of
    x^2 - a, a the square of no c u, whose double roots lie outside every
    cyclotomic field and must be refused.  Per stratum it prints the count of
    factors, how many have rational characteristic polynomials, and the count
    and summed wall time of the factors that split and of those that do not."""
    from rigidmono import Matrix, charpoly, rational, zeta
    from rigidmono.linalg import poly_roots_in_field

    def entry(n):
        return sum((rational(rng.randint(-3, 3)) * zeta(n, rng.randrange(n))
                    for _ in range(rng.randint(1, 2))), rational(0))

    def unit_multiple(n, square):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        return rational(c * c if square else c) * zeta(n, rng.randrange(n))

    def conjugate(rows):
        r = len(rows)
        lower = Matrix.from_rows([[rng.randint(-2, 2) if j < i else int(i == j)
                                   for j in range(r)] for i in range(r)])
        upper = Matrix.from_rows([[rng.randint(-2, 2) if j > i else int(i == j)
                                   for j in range(r)] for i in range(r)])
        conj = lower @ upper
        return conj @ Matrix.from_rows(rows) @ conj.inverse()

    def factor(n, r):
        if rng.random() < 0.5:
            return Matrix.from_rows([[entry(n) for _ in range(r)] for _ in range(r)])
        rows = [[rational(0)] * r for _ in range(r)]
        i = 0
        while i < r:
            if i + 1 < r and rng.random() < 0.5:  # the companion block of x^2 - a
                a = unit_multiple(n, True) if rng.random() < 0.5 else entry(n)
                rows[i][i + 1], rows[i + 1][i], i = a, rational(1), i + 2
            else:
                rows[i][i], i = unit_multiple(n, False), i + 1
        return conjugate(rows)

    def size():
        # A small integer, or one near sqrt(10^11), so that norms reach about 10^11.
        bound = 5 if rng.random() < 0.75 else 3 * 10 ** 5
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    def repeated_factor(n, r):
        # Jordan blocks of c zeta_n^k (a repeated value may also recur across
        # blocks), or a 2 x 2 companion block of x^2 - a repeated, with
        # a = +-c zeta_n^k for a non-square c, so the double roots lie outside
        # every cyclotomic field.
        rows = [[rational(0)] * r for _ in range(r)]
        if rng.random() < 0.5:
            i, lam = 0, unit_multiple(n, False)
            while i < r:
                size = rng.randint(1, r - i)
                for j in range(i, i + size):
                    rows[j][j] = lam
                    if j + 1 < i + size:
                        rows[j][j + 1] = rational(1)
                i += size
                if rng.random() < 0.5:
                    lam = unit_multiple(n, False)
            if all(rows[j][j + 1] == rational(0) for j in range(r - 1)):
                rows[0][1], rows[1][1] = rational(1), rows[0][0]  # one block of size 2 at least
        else:
            a = rational(rng.choice((-1, 1)) * rng.choice(NON_SQUARES)) * zeta(n, rng.randrange(n))
            for i in range(0, r - 1, 2):
                rows[i][i + 1], rows[i + 1][i] = a, rational(1)
        return conjugate(rows)

    def integer_factor():
        kind = rng.randrange(6)
        if kind == 0:
            return Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if kind == 1:
            return Matrix.from_rows([[0, -rng.randrange(HEAVY_NORM, HEAVY_NORM * 101 // 100)],
                                     [1, 1]])
        x, y = size(), size()
        rows = {2: [[x, 1], [0, x]],             # the double root x
                3: [[x, -y], [y, x]],            # x +- y i
                4: [[0, -x * x], [1, -x]],       # x zeta_3^(+-1)
                5: [[x, 0], [0, y]]}[kind]
        return conjugate(rows)

    make = {"mixed": factor, "integer": lambda n, r: integer_factor(), "repeated": repeated_factor}
    digests = {}
    for seed in seeds:
        rng, digest = random.Random(seed), hashlib.sha256()
        for name, r, conductors, per, kind in EIGEN_STRATA:
            items = [charpoly(make[kind](n, r)) for n in conductors for _ in range(per)]
            count, seconds = {True: 0, False: 0}, {True: 0.0, False: 0.0}
            for poly in items:
                t0 = time.perf_counter()
                out = poly_roots_in_field(poly)
                elapsed = time.perf_counter() - t0
                count[out is not None] += 1
                seconds[out is not None] += elapsed
                digest.update(repr(out).encode() + b"\n")
            rational_count = sum(all(c.conductor == 1 for c in p.coeffs) for p in items)
            print(f"eigen seed {seed}  {name}  {len(items)} factors ({rational_count} rational)  "
                  f"{count[True]} split {seconds[True]:.3f} s  "
                  f"{count[False]} unsplit {seconds[False]:.3f} s")
        digests[f"eigen seed {seed}"] = digest.hexdigest()
    return digests


TORI_DIMS = range(1, 7)
TORI_PER_DIM = 120
MAX_DEN = 240
MAX_GRID = 5_000
LOCUS_S = (3, 4, 5, 8, 16, 32, 64, 128)
LOCUS_POINTS = 8
TORI_OPS = ("intersect", "preimage", "enumerate", "membership", "formula", "locus_build")


def tori_replay(seeds) -> dict[str, str]:
    """A seeded corpus of torsion-coset operations through the tori layer's
    public API, one digest per seed.

    For each ambient dimension N = 1..6 the corpus draws cosets whose relation
    rows are random, zero, unsaturated (a multiple of a random row) or
    redundant (the sum of two earlier rows), with translates of denominator up
    to 240 that may lie outside [0, 1).  On them it runs ``coset_intersect``
    (half of the pairs through a common point), ``monomial_preimage`` (maps
    into N from 1..6 coordinates), ``enumerate_torsion`` (order bounds with
    b^N at most 5,000, translates on and off the 1/b grid) and
    ``coset_membership`` (the translate, listed points and random points).
    ``formula_eval`` runs on random Boolean formulas over these cosets, and on
    ``nonsimple_locus_formula`` for s up to 128, at points on the locus (on
    every part of its intersection, so every leaf is evaluated) and at random
    points.  Listed points are hashed as Fraction strings.  It prints the
    number of calls, of non-empty or true answers, and the wall time of each
    operation."""
    from rigidmono import (TorsionCoset, TorusFormula, coset_intersect, coset_membership,
                           enumerate_torsion, formula_eval, monomial_preimage,
                           nonsimple_locus_formula)
    from rigidmono.serialize import coset_to_json, formula_to_json

    def timed(op, fn, *fargs):
        t0 = time.perf_counter()
        out = fn(*fargs)
        seconds[op] += time.perf_counter() - t0
        counts[op] += 1
        hits[op] += not out.empty if isinstance(out, TorsionCoset) else bool(out)
        if isinstance(out, TorsionCoset):
            wire = coset_to_json(out)
        elif isinstance(out, TorusFormula):
            wire = formula_to_json(out)
        elif isinstance(out, set):
            wire = sorted([str(Fraction(x, fargs[1])) for x in pt] for pt in out)
        else:
            wire = out
        digest.update(json.dumps([op, wire], sort_keys=True).encode() + b"\n")
        return out

    def frac(den=None):
        den = den or rng.randint(1, MAX_DEN)
        return Fraction(rng.randint(-den, 2 * den), den)

    def rows(n, count):
        out = []
        for _ in range(count):
            kind = rng.randrange(4)
            if kind == 1:
                out.append([0] * n)
            elif kind == 2:
                k = rng.randint(2, 6)
                out.append([k * rng.randint(-4, 4) for _ in range(n)])
            elif kind == 3 and len(out) >= 2:
                u, v = rng.sample(out, 2)
                out.append([x + y for x, y in zip(u, v)])
            else:
                out.append([rng.randint(-9, 9) for _ in range(n)])
        return out

    def coset(n, tau=None):
        return TorsionCoset.of(n, rows(n, rng.randint(0, n + 2)),
                               tau or [frac() for _ in range(n)])

    def point(n, den=None):
        return [frac(den) for _ in range(n)]

    digests = {}
    for seed in seeds:
        rng, digest, seconds = random.Random(seed), hashlib.sha256(), collections.defaultdict(float)
        counts, hits = collections.defaultdict(int), collections.defaultdict(int)
        for n in TORI_DIMS:
            bounds = [b for b in range(1, MAX_DEN + 1) if b ** n <= MAX_GRID]
            for _ in range(TORI_PER_DIM):
                x0 = point(n) if rng.random() < 0.5 else None
                a, b = coset(n, x0), coset(n, x0)
                timed("intersect", coset_intersect, a, b)
                m = rng.randint(1, 6)
                mat = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
                timed("preimage", monomial_preimage, a, mat)
                bound = rng.choice(bounds)
                grid = coset(n, point(n, bound) if rng.random() < 0.5 else None)
                listed = timed("enumerate", enumerate_torsion, grid, bound)
                on = [[Fraction(x, bound) for x in pt]
                      for pt in rng.sample(sorted(listed), min(3, len(listed)))]
                for q in on + [list(a.translate), point(n), point(n, bound)]:
                    timed("membership", coset_membership, q, grid)
                    timed("membership", coset_membership, q, a)
                leaves = [TorusFormula.leaf(c) for c in (a, b, grid)]
                f = TorusFormula.union(TorusFormula.intersection(*leaves[:2]),
                                       TorusFormula.complement(leaves[2]))
                timed("formula", formula_eval, f, point(n, bound))
        for s in LOCUS_S:
            for k in range(LOCUS_POINTS):
                triple = sorted(rng.sample(range(1, s + 1), 3))
                f = timed("locus_build", nonsimple_locus_formula, s, triple)
                timed("formula", formula_eval, f, _locus_point(rng, s, triple, on=k % 2 == 0))
        for op in TORI_OPS:
            print(f"tori seed {seed}  {op:<12} {counts[op]:>6} calls  "
                  f"{hits[op]:>6} non-empty or true  {seconds[op]:8.3f} s")
        digests[f"tori seed {seed}"] = digest.hexdigest()
    return digests


def _locus_point(rng, s, triple, on):
    """A point of the 2s exponent coordinates; on the locus it has scalar
    residues at the non-triple points, a trivial chosen monomial and an
    integral total exponent, so every part of the intersection holds."""
    q = [Fraction(rng.randrange(MAX_DEN), MAX_DEN) for _ in range(2 * s)]
    if not on:
        return q
    rest = [i for i in range(1, s + 1) if i not in triple]
    for i in rest:
        q[2 * i - 1] = q[2 * i - 2]
    choice = [2 * (i - 1) + rng.randrange(2) for i in triple]
    m = rng.randrange(2) if rest else 0
    choice += [2 * (i - 1) + m for i in rest]
    q[choice[0]] -= sum(q[c] for c in choice)
    q[choice[0] ^ 1] -= sum(q)
    return [x % 1 for x in q]


DATA_PER_SEED = 300
SCALES = (2, -2, Fraction(1, 3), Fraction(-3, 2))


def moduli_replay(seeds) -> dict[str, str]:
    """``classify`` and ``construct`` through ``cli.main`` on seeded rank-2
    eigenvalue data, one digest over all seeds.

    Per seed there are 300 data at s = 3..7 over Q(zeta_n), n = 1..60: roots
    of unity, some times a non-unit (+-2, 1/3, -3/2, 1 + zeta_n^a,
    zeta_n^a - 2), with scalar and repeated pairs.  Half force one choice at
    the generating triple to multiply to 1 with the scalars; nine in ten are
    rescaled so that the product of all 2s values is 1.  Each datum runs
    ``classify`` once, and ``construct`` on the generating triple and on one
    other triple.  It prints the request count, exit statuses, members found
    and wall time per command."""
    from rigidmono import EigenData, all_component_specs, one, rational, zeta
    from rigidmono import serialize as wire

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
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(DATA_PER_SEED):
            e, triple, other = datum(rng)
            eigen = wire.eigen_to_json(e)
            requests = [("classify", eigen)] + [
                ("construct", {"eigen": eigen, "spec": {"s": e.punctures, "triple": t}})
                for t in (triple, other)]
            for cmd, payload in requests:
                start = time.perf_counter()
                status, out = _cli_request(digest, cmd, payload)
                sent[cmd] += 1
                seconds[cmd] += time.perf_counter() - start
                stats[cmd][f"exit {status}"] += 1
                if cmd == "classify" and status == 0:
                    stats[cmd]["members"] += sum(c["member"] for c in json.loads(out)["components"])
    for cmd in ("classify", "construct"):
        counts = "  ".join(f"{k} {v}" for k, v in sorted(stats[cmd].items()))
        print(f"moduli {cmd:9s}  {sent[cmd]} requests  {counts}  {seconds[cmd]:.3f} s")
    return {"moduli": digest.hexdigest()}


LEVELT_PER_RANK = {2: 40, 3: 30, 4: 20}
COMMUTING_PER_SEED = 30
TUPLE_COMMANDS = ("check", "mon", "orbit")
DECISION_STEPS = ("_no_common_line", "_full_span_mod_p", "algebra_dim")


def burnside_replay(seeds) -> dict[str, str]:
    """``monodromy.is_irreducible`` and the centralizer count of ``katz_report``
    on monodromy tuples, one digest for the verdicts and one for the
    centralizer dimensions, over all seeds.

    The tuples are the distinct tuple payloads (``check``, ``mon`` and
    ``orbit`` requests) of the ``pipeline-cyclo`` and ``tuples-rational``
    corpora at each seed, plus seeded Levelt triples: with A and B the
    companion matrices of prod(x - a_i) and prod(x - b_j), a_i and b_j roots
    of unity at one conductor n <= 60, the triple (A, A^-1 B, B^-1), at ranks
    2 to 4, with a shared root in half of them; and seeded rank-2 tuples whose
    non-scalar factors all commute, (A, A^a, c I, c^-1 A^-(1+a)) for a
    non-scalar integer A, an integer a and a scalar c (or (A, A^a, A^-(1+a))),
    with at least two non-scalar factors, which the corpora seldom send and
    the commutator criterion must still call reducible.  Each group also counts
    the tuples by the decision steps ``is_irreducible`` called for them, by name
    and number of calls: the rank-2 commutator criterion
    (``monodromy._no_common_line``), and Burnside's span certificate
    (``linalg._full_span_mod_p``) and exact span (``algebra_dim``).  The
    counting wrappers are removed before it returns."""
    from rigidmono import monodromy

    originals = {name: getattr(monodromy, name) for name in DECISION_STEPS}
    steps = collections.Counter()  # the decision steps that one verdict called, by name

    def recorded(name, step):
        def call(*args):
            steps[name] += 1
            return step(*args)
        return call

    for name, step in originals.items():
        setattr(monodromy, name, recorded(name, step))
    try:
        return _burnside_groups(seeds, steps)
    finally:
        for name, step in originals.items():
            setattr(monodromy, name, step)


def _burnside_groups(seeds, steps) -> dict[str, str]:
    import corpus
    from rigidmono import Matrix, MonodromyTuple, katz_report, one, rational, zero, zeta
    from rigidmono import serialize as wire

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
        for seed in seeds:
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

    def power(g, k):
        out, base = Matrix.identity(2), (g if k >= 0 else g.inverse())
        for _ in range(abs(k)):
            out = out @ base
        return out

    scalars = (None, rational(2), rational(Fraction(-1, 3)), zeta(3), zeta(8, 3))

    def commuting(rng):
        # Every factor lies in Q[A], so all of them commute.
        while True:
            big_a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            if big_a.is_scalar() or not big_a.det():
                continue
            a, c = rng.choice((-3, -2, 1, 2, 3)), rng.choice(scalars)
            head, tail = [big_a, power(big_a, a)], power(big_a, -1 - a)
            gens = head + ([tail] if c is None else [Matrix.scalar(2, c), tail.scale(c.inverse())])
            if sum(not g.is_scalar() for g in gens) >= 2:
                return MonodromyTuple.of(gens)

    for r, count in LEVELT_PER_RANK.items():
        groups[f"levelt rank {r}"] = [levelt(rng, r) for seed in seeds
                                      for rng in (random.Random(f"levelt:{r}:{seed}"),)
                                      for _ in range(count)]

    groups["commuting rank 2"] = [commuting(rng) for seed in seeds
                                  for rng in (random.Random(f"commuting:{seed}"),)
                                  for _ in range(COMMUTING_PER_SEED)]

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
        counts = "".join(f"  {count} {step}" for step, count in sorted(decided.items()))
        print(f"burnside {name:16s} {len(tuples):4d} tuples  {irreducible} irreducible{counts}  "
              f"{elapsed:.3f} s  centralizers {dims_s:.3f} s")
    return {"burnside": digest.hexdigest(), "burnside centralizers": dims_digest.hexdigest()}


REPLAYS = (corpus_replay, eigen_replay, tori_replay, moduli_replay, burnside_replay)
DIGEST_LINE = re.compile(r"(.+)  sha256 ([0-9a-f]{64})")


def digest_line(name: str, hexdigest: str) -> str:
    return f"{name}  sha256 {hexdigest}"


def read_digests(text: str) -> dict[str, str]:
    """{name: sha256} from the digest lines among the tool's output."""
    return {m[1]: m[2] for m in map(DIGEST_LINE.fullmatch, text.splitlines()) if m}


def compare(ours: dict[str, str], theirs: dict[str, str]) -> tuple[list[str], int]:
    """MATCH or DIFF for every name either side printed (a name one side
    lacks is a DIFF), and the exit status: 1 on any DIFF."""
    lines = [f"{'MATCH' if ours.get(name) == theirs.get(name) else 'DIFF'}  {name}"
             for name in {**ours, **theirs}]
    return lines, int(ours != theirs)


def _replay_all(root: Path, seeds) -> dict[str, str]:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    print(f"root {root}  seeds {' '.join(map(str, seeds))}")
    digests = {}
    for replay in REPLAYS:
        for name, hexdigest in replay(seeds).items():
            digests[name] = hexdigest
            print(digest_line(name, hexdigest), flush=True)
    return digests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout whose src/ and perfbench/ are used (default: this one)")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--compare", type=Path, metavar="OTHER_ROOT",
                   help="also replay on OTHER_ROOT and exit 1 unless every digest matches")
    args = p.parse_args(argv)
    if args.compare is None:
        _replay_all(args.root, args.seeds)
        return 0
    # The other checkout runs in its own process: one process imports one rigidmono.
    with subprocess.Popen([sys.executable, __file__, "--root", str(args.compare), "--seeds",
                           *map(str, args.seeds)], stdout=subprocess.PIPE, text=True) as other:
        ours = _replay_all(args.root, args.seeds)
        theirs = read_digests(other.communicate()[0])
    if other.returncode:
        sys.exit(f"the replay on {args.compare} exited with status {other.returncode}")
    lines, status = compare(ours, theirs)
    print(f"against {args.compare}", *lines, sep="\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
