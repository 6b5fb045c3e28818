"""Seeded request corpora for the three benchmark workloads.

Every request is a dict ``{"cmd", "payload", "expect"}``: the CLI command,
the JSON input it receives, and the outcome the generator expects, written in
exponent and ``Fraction`` terms so that ``oracle.py`` can check the report
without calling ``rigidmono``.  The same seed gives the same corpus.

Only ``pipeline-cyclo`` calls the library, to build the rigid tuple of each
eigenvalue datum; ``run.py`` guards that dependency with the corpus digest
recorded in ``record.json``.

Each workload is stratified: the seed picks the numbers inside every cell of a
fixed grid (conductor and puncture count, tuple kind, torus dimension and grid
size), so the mix of request costs, and with it the metrics, stays put from
one seed to the next.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("pipeline-cyclo", "tuples-rational", "tori-calculus")

# Conjugating by a fixed integer matrix keeps the tuples off the triangular
# shortcut in eigenvalues_split, so mon and orbit run the real root search.
CONJUGATOR = ((2, 1), (1, 1))


def request_digest(requests) -> str:
    """SHA-256 over the commands and payloads, in corpus order."""
    body = json.dumps([[r["cmd"], r["payload"]] for r in requests],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def first_request(workload: str) -> dict:
    """The fixed request that ``setup_s`` times in a fresh interpreter."""
    return _FIRST[workload]


# ---------------------------------------------------------------------------
# Wire helpers.

def frac_str(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def unit_json(e: int, n: int):
    """zeta_n^e written at its own order m, as sum c_i zeta_m^i."""
    g = math.gcd(e % n, n)
    m, k = n // g, (e % n) // g
    if m == 1:
        return "1"
    if m == 2:
        return "-1"
    return {"n": m, "c": ["0"] * k + ["1"]}


def _rational_matrix_json(m) -> dict:
    return {"rows": 2, "cols": 2, "entries": [frac_str(x) for row in m for x in row]}


# ---------------------------------------------------------------------------
# 2x2 matrices over Q, as ((a, b), (c, d)) of Fractions.

def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def mdet(x):
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def mtr(x):
    return x[0][0] + x[1][1]


def minv(x):
    d = mdet(x)
    return ((x[1][1] / d, -x[0][1] / d), (-x[1][0] / d, x[0][0] / d))


def mscalar(c):
    c = Fraction(c)
    return ((c, Fraction(0)), (Fraction(0), c))


def is_scalar(x) -> bool:
    return x[0][1] == 0 and x[1][0] == 0 and x[0][0] == x[1][1]


def commutator_det(x, y):
    """det(xy - yx); for 2x2 matrices it vanishes iff x, y share an eigenvector."""
    a, b = mmul(x, y), mmul(y, x)
    return mdet(tuple(tuple(a[i][j] - b[i][j] for j in range(2)) for i in range(2)))


def conjugate(x, h=CONJUGATOR):
    h = mat(h)
    return mmul(mmul(h, x), minv(h))


def product(ms):
    acc = mscalar(1)
    for m in ms:
        acc = mmul(acc, m)
    return acc


# ---------------------------------------------------------------------------
# pipeline-cyclo: eigenvalue data made of roots of unity, and the rigid tuple
# with that data.

PIPE_CONDUCTORS = (8, 12, 24, 60)
PIPE_PUNCTURES = (3, 4, 5, 6, 7)
# Data per (conductor, s) cell.  A conductor-60 request costs about four times
# the others; one datum per cell keeps a pass near 8 s and puts the tail
# percentile among the conductor-24 orbits and conductor-60 checks, a group of
# similar requests, rather than at the edge of the five conductor-60 orbits.
PIPE_DATA_PER_CELL = {8: 3, 12: 3, 24: 3, 60: 1}


def exponent_member(n: int, pts, triple) -> bool:
    """Component membership of eigenvalue data zeta_n^e, in exponents mod n."""
    if sum(a + b for a, b in pts) % n:
        return False
    k = 0
    for i, (a, b) in enumerate(pts, start=1):
        if i not in triple:
            if (a - b) % n:
                return False
            k += a
    i1, i2, i3 = sorted(triple)
    return all((x + y + z + k) % n
               for x in pts[i1 - 1] for y in pts[i2 - 1] for z in pts[i3 - 1])


def _pipeline_datum(rng: random.Random, n: int, s: int):
    triple = sorted(rng.sample(range(1, s + 1), 3))
    while True:
        pts = []
        for i in range(1, s + 1):
            if i in triple:
                pts.append([rng.randrange(n), rng.randrange(n)])
            else:
                a = rng.randrange(n)
                pts.append([a, a])
        last = pts[triple[-1] - 1]
        last[1] = (last[1] - sum(a + b for a, b in pts)) % n
        flat = [e for pt in pts for e in pt]
        if math.gcd(n, *flat) == 1 and exponent_member(n, pts, triple):
            return triple, [sorted(pt) for pt in pts]


def _eigen_json(n: int, pts) -> dict:
    return {"r": 2, "s": len(pts), "points": [[unit_json(e, n) for e in pt] for pt in pts]}


def _pipeline_tuple_json(n: int, pts, triple) -> dict:
    # Built with the library, outside the timed path; the corpus digest in
    # record.json catches any behaviour change that would alter these bytes.
    from rigidmono import ComponentSpec, EigenData, Matrix, construct_representative, zeta
    from rigidmono import serialize as wire
    e = EigenData.of([[zeta(n, a), zeta(n, b)] for a, b in pts])
    t = construct_representative(e, ComponentSpec.of(len(pts), triple))
    return wire.tuple_to_json(t.conjugated(Matrix.from_rows(CONJUGATOR)))


def _gen_pipeline(rng: random.Random) -> list[dict]:
    out = []
    for n in PIPE_CONDUCTORS:
        for s in PIPE_PUNCTURES:
            for _ in range(PIPE_DATA_PER_CELL[n]):
                triple, pts = _pipeline_datum(rng, n, s)
                geom = {"genus": rng.randrange(3), "degH": rng.randrange(1, 4)}
                eigen = _eigen_json(n, pts)
                tup = _pipeline_tuple_json(n, pts, triple)
                base = {"n": n, "points": pts, "triple": triple}
                out.append({"cmd": "classify", "payload": eigen, "expect": base})
                out.append({"cmd": "construct", "expect": base,
                            "payload": {"eigen": eigen, "spec": {"s": s, "triple": triple}}})
                out.append({"cmd": "derham", "expect": {**base, "geometry": geom},
                            "payload": {"eigen": eigen, "geometry": geom}})
                for cmd in ("check", "mon", "orbit"):
                    out.append({"cmd": cmd, "payload": tup, "expect": base})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# tuples-rational: rank-2 tuples over Q.

RAT_PUNCTURES = (3, 4, 5, 6)
RAT_TUPLES_PER_CELL = 8          # per puncture count and kind
RAT_HEAVY_TUPLES = 8
HEAVY_NORM = 10 ** 11            # [[0, -p], [1, 1]] with p just above this
SCALARS = tuple(Fraction(x) for x in (1, -1, 2, -2, 3, "1/2", "-1/3"))


def _is_square(f: Fraction) -> bool:
    return f >= 0 and math.isqrt(f.numerator) ** 2 == f.numerator \
        and math.isqrt(f.denominator) ** 2 == f.denominator


def splits(m) -> bool:
    """Whether eigenvalues_split finds the roots of x^2 - t x + d over Q.

    Its search reaches the rational roots, the roots r u with r rational and u
    a root of unity in Q(zeta_12), and the roots (t +- w)/2 with w^2 the
    discriminant and w in Q or Q i.  For a quadratic over Q that is: the
    discriminant is a square or minus a square, or t^2 = d (roots t zeta_6^{+-1}).
    """
    t, d = mtr(m), mdet(m)
    disc = t * t - 4 * d
    return _is_square(disc) or _is_square(-disc) or (t != 0 and t * t == d)


# Characteristic polynomials over Q whose roots are all roots of unity:
# (x-1)^2, (x+1)^2, x^2-1, x^2+1, x^2+x+1, x^2-x+1, as (trace, det).
_TORSION_CHARPOLYS = {(2, 1), (-2, 1), (0, -1), (0, 1), (-1, 1), (1, 1)}


def _random_int_matrix(rng, bound=4):
    while True:
        m = mat([[rng.randint(-bound, bound) for _ in range(2)] for _ in range(2)])
        if mdet(m) and not is_scalar(m):
            return m


def _norm_size(m) -> int:
    """The larger of the integerized constant and leading coefficients of the
    characteristic polynomial: the number trial division runs up to the root of."""
    t, d = mtr(m), mdet(m)
    den = math.lcm(t.denominator, d.denominator)
    return max(abs(d * den), den)


def _rational_expect(kind: str, ms, irreducible: bool) -> dict:
    return {"kind": kind, "irreducible": irreducible,
            "matrices": [[[frac_str(x) for x in row] for row in m] for m in ms],
            "split": [splits(m) for m in ms],
            "torsion": [(int(mtr(m)), int(mdet(m))) in _TORSION_CHARPOLYS
                        if mtr(m).denominator == mdet(m).denominator == 1 else False
                        for m in ms]}


def _rigid_rational(rng, s, split):
    """Three non-scalar factors G1 = (k G2 G3)^-1, G2, G3 on a random triple and
    scalars elsewhere.  With ``split`` the factors are built as in
    construct_representative from rational eigenvalues, so every local
    polynomial splits; otherwise G2 and G3 are random integer matrices."""
    triple = sorted(rng.sample(range(1, s + 1), 3))
    while True:
        scalars = {i: rng.choice(SCALARS) for i in range(1, s + 1) if i not in triple}
        k = math.prod(scalars.values(), start=Fraction(1))
        if split:
            a1, a2, b1, b2, c1 = (rng.choice(SCALARS) for _ in range(5))
            c2 = 1 / (a1 * a2 * b1 * b2 * c1 * k * k)
            if any(x * y * z * k == 1 for x in (a1, a2) for y in (b1, b2) for z in (c1, c2)):
                continue
            u = 1 / (k * a1) + 1 / (k * a2) - b1 * c1 - b2 * c2
            g2, g3 = mat([[b1, 1], [0, b2]]), mat([[c1, 0], [u, c2]])
        else:
            g2, g3 = _random_int_matrix(rng, 3), _random_int_matrix(rng, 3)
        if commutator_det(g2, g3):
            break
    g1 = minv(mmul(mscalar(k), mmul(g2, g3)))
    placed = dict(zip(triple, (g1, g2, g3)))
    ms = [placed[i] if i in placed else mscalar(scalars[i]) for i in range(1, s + 1)]
    return [conjugate(m) for m in ms], True


def _reducible_rational(rng, s):
    while True:
        ups = [mat([[rng.choice(SCALARS), rng.randint(-3, 3)], [0, rng.choice(SCALARS)]])
               for _ in range(s - 1)]
        ups.append(minv(product(ups)))
        if sum(not is_scalar(u) for u in ups) >= 2:
            return [conjugate(u) for u in ups], False


def _is_prime(p: int) -> bool:
    # Deterministic Miller-Rabin for p < 3.4e14.
    if p < 2:
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _random_rational(rng, s, heavy=False):
    while True:
        if heavy:
            # A prime p, so the rational-root candidates are few and every
            # heavy request spends its time in the same trial divisions.
            p = rng.randrange(HEAVY_NORM, HEAVY_NORM + HEAVY_NORM // 100)
            if not _is_prime(p):
                continue
            # A unimodular second factor keeps the norms of the first and last
            # factors at p; the last must not split either, so both searches
            # trial-divide p in full.
            g2 = _random_int_matrix(rng, 2)
            if abs(mdet(g2)) != 1:
                continue
            ms = [mat([[0, -p], [1, 1]]), g2]
        else:
            ms = [_random_int_matrix(rng, 3) for _ in range(s - 1)]
        ms.append(minv(product(ms)))
        if is_scalar(ms[-1]) or not any(commutator_det(x, y)
                                         for x, y in itertools.combinations(ms, 2)):
            continue
        if heavy:
            if not splits(ms[-1]):
                return ms, True
        elif max(map(_norm_size, ms)) <= 10 ** 8:
            return ms, True


def _gen_rational(rng: random.Random) -> list[dict]:
    tuples = []
    for s in RAT_PUNCTURES:
        for j in range(RAT_TUPLES_PER_CELL):
            tuples.append(("rigid", *_rigid_rational(rng, s, split=j % 2 == 0)))
            tuples.append(("reducible", *_reducible_rational(rng, s)))
            tuples.append(("random", *_random_rational(rng, s)))
    for _ in range(RAT_HEAVY_TUPLES):
        tuples.append(("heavy", *_random_rational(rng, 3, heavy=True)))
    out = []
    for kind, ms, irr in tuples:
        payload = {"r": 2, "s": len(ms), "matrices": [_rational_matrix_json(m) for m in ms]}
        expect = _rational_expect(kind, ms, irr)
        for cmd in ("check", "mon", "orbit"):
            out.append({"cmd": cmd, "payload": payload, "expect": expect})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# tori-calculus: torsion-coset operations.

TORI_ENUM_DIMS = (1, 2, 3, 4)
TORI_ENUM_BOUNDS = (6, 8, 10, 12)
TORI_SOLVE_DIMS = (2, 3, 4, 5, 6)
TORI_ENUM_PER_SLOT = 2
TORI_SOLVE_PER_DIM = 8            # every fourth one is empty
TORI_LOCUS_PUNCTURES = (3, 4, 5, 6)
TORI_LOCUS_PER_S = 12


def _rand_frac(rng, max_den=12) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randrange(q), q)


def _coset_json(n, rows, tau) -> dict:
    return {"N": n, "L": [list(r) for r in rows], "tau": [frac_str(t % 1) for t in tau]}


def _rand_rows(rng, count, n, bound):
    rows = []
    while len(rows) < count:
        row = [rng.randint(-bound, bound) for _ in range(n)]
        if any(row):
            rows.append(row)
    return rows


def _gen_enumerate(rng, n, b, on_grid):
    # Rows with an identity 2x2 minor (one row +-1 when n = 1) fix the number of
    # points: b^(n-2) (or 1) for a translate on the 1/b grid, none once a pivot
    # coordinate moves by 1/2b.  So the scan costs the same for every seed.
    if n == 1:
        rows, pivot = [[rng.choice((1, -1))]], 0
    else:
        base = [[1, 0] + [rng.randint(-4, 4) for _ in range(n - 2)],
                [0, 1] + [rng.randint(-4, 4) for _ in range(n - 2)]]
        cols = rng.sample(range(n), n)
        rows = [[row[c] for c in cols] for row in base]
        pivot = cols.index(0)
    tau = [Fraction(rng.randrange(b), b) for _ in range(n)]
    if not on_grid:
        tau[pivot] += Fraction(1, 2 * b)
    payload = {"op": "enumerate", "coset": _coset_json(n, rows, tau), "order_bound": b}
    return {"cmd": "tori", "payload": payload,
            "expect": {"op": "enumerate", "rows": rows,
                       "tau": [frac_str(t) for t in tau], "bound": b}}


def _gen_intersect(rng, n, empty):
    x0 = [_rand_frac(rng) for _ in range(n)]
    ra = _rand_rows(rng, rng.randint(1, n - 1), n, 9)
    rb = _rand_rows(rng, rng.randint(1, n - 1), n, 9)
    tb = list(x0)
    if empty:
        # b repeats a row of a with a target moved by 1/2: no common point.
        v = ra[0]
        rb[0] = list(v)
        j = next(i for i, x in enumerate(v) if x)
        tb[j] += Fraction(1, 2 * v[j])
    payload = {"op": "intersect", "a": _coset_json(n, ra, x0), "b": _coset_json(n, rb, tb)}
    return {"cmd": "tori", "payload": payload,
            "expect": {"op": "intersect", "empty": empty, "n": n,
                       "a": [ra, [frac_str(t % 1) for t in x0]],
                       "b": [rb, [frac_str(t % 1) for t in tb]]}}


def _gen_preimage(rng, m, empty):
    n = rng.randint(2, 6)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    x0 = [_rand_frac(rng) for _ in range(n)]
    t = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
    rows = _rand_rows(rng, rng.randint(1, m), m, 9)
    if empty:
        # A zero row of the map, with target 1/2 on that coordinate.
        a[0] = [0] * n
        t[0] = Fraction(1, 2)
        rows[0] = [1] + [0] * (m - 1)
    payload = {"op": "preimage", "coset": _coset_json(m, rows, t), "matrix": a}
    return {"cmd": "tori", "payload": payload,
            "expect": {"op": "preimage", "empty": empty, "n": n, "rows": rows,
                       "matrix": a, "tau": [frac_str(x % 1) for x in t]}}


def locus_choices(s, triple):
    """Coordinate index lists whose sums define the non-simple locus."""
    rest = [i for i in range(1, s + 1) if i not in triple]
    i1, i2, i3 = sorted(triple)
    out = []
    for j, k, l in itertools.product((0, 1), repeat=3):
        for m in ((0, 1) if rest else (0,)):
            out.append([2 * (i1 - 1) + j, 2 * (i2 - 1) + k, 2 * (i3 - 1) + l]
                       + [2 * (i - 1) + m for i in rest])
    return out


def _gen_locus(rng, s):
    triple = sorted(rng.sample(range(1, s + 1), 3))
    rest = [i for i in range(1, s + 1) if i not in triple]
    q = [_rand_frac(rng) for _ in range(2 * s)]
    if rng.random() < 0.5:
        # Put the point on the locus: scalar rest points, one chosen monomial
        # trivial, and the total exponent integral.
        for i in rest:
            q[2 * i - 1] = q[2 * i - 2]
        choice = rng.choice(locus_choices(s, triple))
        q[choice[0]] -= sum(q[c] for c in choice)
        other = choice[0] ^ 1
        q[other] -= sum(q)
        q = [x % 1 for x in q]
    payload = {"op": "nonsimple_locus", "s": s, "triple": triple,
               "point": [frac_str(x) for x in q]}
    return {"cmd": "tori", "payload": payload,
            "expect": {"op": "nonsimple_locus", "s": s, "triple": triple,
                       "point": [frac_str(x) for x in q]}}


def _gen_tori(rng: random.Random) -> list[dict]:
    out = []
    for n in TORI_ENUM_DIMS:
        for b in TORI_ENUM_BOUNDS:
            for on_grid in (True, False) * TORI_ENUM_PER_SLOT:
                out.append(_gen_enumerate(rng, n, b, on_grid))
    for n in TORI_SOLVE_DIMS:
        for k in range(TORI_SOLVE_PER_DIM):
            empty = k % 4 == 3
            out.append(_gen_intersect(rng, n, empty))
            out.append(_gen_preimage(rng, n, empty))
    for s in TORI_LOCUS_PUNCTURES:
        for _ in range(TORI_LOCUS_PER_S):
            out.append(_gen_locus(rng, s))
    rng.shuffle(out)
    return out


_GENERATORS = {"pipeline-cyclo": _gen_pipeline,
               "tuples-rational": _gen_rational,
               "tori-calculus": _gen_tori}

# Fixed requests, independent of the seed, for the set-up measurement.
_FIRST = {
    "pipeline-cyclo": {
        "cmd": "construct",
        "payload": {"eigen": _eigen_json(24, [[1, 7], [0, 0], [3, 5], [0, 8]]),
                    "spec": {"s": 4, "triple": [1, 3, 4]}},
    },
    "tuples-rational": {
        "cmd": "check",
        "payload": {"matrices": [_rational_matrix_json(m) for m in
                                 ([[1, -1], [4, -3]], [[1, 1], [0, 1]], [[1, 0], [-4, 1]])]},
    },
    "tori-calculus": {
        "cmd": "tori",
        "payload": {"op": "enumerate", "order_bound": 12,
                    "coset": {"N": 3, "L": [[1, 2, -1]], "tau": ["1/4", "0", "1/3"]}},
    },
}
