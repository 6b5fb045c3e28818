"""Independent answer checks for the benchmark's CLI reports.

Nothing here imports ``rigidmono``.  Expected outcomes come from the
generator's exponent and ``Fraction`` data (see ``corpus.py``); cyclotomic
values in a report are compared in ``Field``, a separate implementation of
Q(zeta_N) as Q[x] modulo the N-th cyclotomic polynomial.  Every check returns
a list of problems, empty when the report is right.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from corpus import exponent_member, frac_str, is_scalar, locus_choices, mat, mdet, mmul, mtr

ZERO, ONE = Fraction(0), Fraction(1)


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    # x^n - 1 divided by Phi_d for every proper divisor d; lowest degree first.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = _cyclotomic(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for k in range(len(quot) - 1, -1, -1):
                q = poly[k + len(div) - 1]
                quot[k] = q
                for i, c in enumerate(div):
                    poly[k + i] -= q * c
            poly = quot
    return tuple(poly)


class Field:
    """Q(zeta_N) as vectors of phi(N) Fractions reduced modulo Phi_N."""

    def __init__(self, n: int):
        self.n = n
        phi = _cyclotomic(n)
        self.dim = len(phi) - 1
        cur = [ONE] + [ZERO] * (self.dim - 1)
        self.powers = []
        for _ in range(n):
            self.powers.append(tuple(cur))
            lead = cur[-1] if self.dim > 0 else ZERO
            cur = [ZERO] + cur[:-1]
            if lead:
                cur = [c - lead * p for c, p in zip(cur, phi)]
        self.index = {p: j for j, p in reversed(list(enumerate(self.powers)))}

    def _collect(self, terms) -> tuple[Fraction, ...]:
        out = [ZERO] * self.dim
        for k, c in terms:
            if c:
                for i, p in enumerate(self.powers[k % self.n]):
                    if p:
                        out[i] += c * p
        return tuple(out)

    def const(self, c) -> tuple[Fraction, ...]:
        return self._collect([(0, Fraction(c))])

    def unit(self, e: int) -> tuple[Fraction, ...]:
        return self.powers[e % self.n]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        conv = {}
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] = conv.get(i + j, ZERO) + x * y
        return self._collect(conv.items())

    def unit_exponent(self, a) -> int | None:
        """The e with a = zeta_N^e, or None when a is not an N-th root of unity."""
        return self.index.get(tuple(a))

    def parse(self, obj) -> tuple[Fraction, ...]:
        """A scalar as the CLI reads or writes it: a fraction, or {n, c}."""
        if isinstance(obj, (str, int)):
            return self.const(Fraction(obj))
        m = obj["n"]
        if self.n % m:
            raise ValueError(f"conductor {m} does not divide {self.n}")
        step = self.n // m
        coeffs = [Fraction(int(c[0]), int(c[1])) if isinstance(c, list) else Fraction(c)
                  for c in obj["c"]]
        return self._collect((j * step, c) for j, c in enumerate(coeffs))


@lru_cache(maxsize=None)
def field(n: int) -> Field:
    return Field(n)


def _cyc_rational(f) -> dict:
    f = Fraction(f)
    return {"n": 1, "c": [[str(f.numerator), str(f.denominator)]]}


def _compare(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check(request: dict, status: int | None, report) -> list[str]:
    """Problems with one (exit status, parsed report) pair; [] when right."""
    try:
        return _CHECKS[_family(request)](request["cmd"], request["expect"], status, report)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _family(request) -> str:
    exp = request["expect"]
    if "op" in exp:
        return "tori"
    return "rational" if "kind" in exp else "pipeline"


# ---------------------------------------------------------------------------
# pipeline-cyclo.

def _katz_rank2(s, nonscalar, irreducible) -> tuple[dict, dict]:
    dims = [2 if i in nonscalar else 4 for i in range(1, s + 1)]
    total, threshold = sum(dims), 4 * (s - 2) + 2
    verdict = ("not-applicable(reducible)" if not irreducible
               else "rigid" if total == threshold else "not-rigid")
    katz = {"centralizer_dims": dims, "sum": total, "threshold": threshold,
            "defect": threshold - total, "is_irreducible": irreducible, "verdict": verdict}
    if irreducible:
        rigid = len(nonscalar) == 3
        rank2 = {"nonscalar_points": sorted(nonscalar), "rigid": rigid,
                 "component_triple": sorted(nonscalar) if rigid else None}
    else:
        rank2 = {"applicable": False, "reason": "reducible"}
    return katz, rank2


def _orbit_set(n, pts) -> set:
    return {tuple(tuple(sorted((k * e) % n for e in pt)) for pt in pts)
            for k in range(1, n) if math.gcd(k, n) == 1}


def _unit_points(f: Field, eigen_json) -> tuple:
    out = []
    for pt in eigen_json["points"]:
        exps = [f.unit_exponent(f.parse(v)) for v in pt]
        if None in exps:
            raise ValueError(f"eigenvalue is not a root of unity of order {f.n}")
        out.append(tuple(sorted(exps)))
    return tuple(out)


def _check_pipeline(cmd, exp, status, rep) -> list[str]:
    n, pts, triple = exp["n"], exp["points"], exp["triple"]
    s, f = len(pts), field(n)
    z = f.unit
    problems: list[str] = []
    if status != 0:
        return [f"exit status {status}, want 0"]
    if cmd == "classify":
        comps = [{"triple": list(c), "member": exponent_member(n, pts, c)}
                 for c in itertools.combinations(range(1, s + 1), 3)]
        _compare(problems, "classify", rep, {"s": s, "components": comps})
    elif cmd == "construct":
        problems += _check_constructed(f, pts, triple, rep)
    elif cmd == "derham":
        geom = exp["geometry"]
        res = [[Fraction(e, n) for e in pt] for pt in pts]
        total = sum(sum(pt) for pt in res)
        want = {"residues": {"r": 2, "s": s, "points": [[frac_str(a) for a in pt] for pt in res]},
                "degE": frac_str(-total), "degE_integral": total.denominator == 1,
                "hilbert": [frac_str(2 * (1 - geom["genus"]) - total), frac_str(2 * geom["degH"])]}
        _compare(problems, "derham", rep, want)
    elif cmd == "check":
        katz, rank2 = _katz_rank2(s, set(triple), True)
        body = {k: v for k, v in rep.items() if k != "trace_chart"}
        _compare(problems, "check", body,
                 {"r": 2, "s": s, "is_irreducible": True, "katz": katz, "rank2": rank2})
        if s == 3:
            (a1, a2), (b1, b2), (c1, c2) = pts
            chart = rep["trace_chart"]
            for key, want in (("tr_g1", f.add(z(a1), z(a2))), ("tr_g2", f.add(z(b1), z(b2))),
                              ("tr_g1g2", f.add(z(-c1), z(-c2))),
                              ("det_g1_inv", z(-a1 - a2)), ("det_g2_inv", z(-b1 - b2))):
                if f.parse(chart[key]) != want:
                    problems.append(f"trace chart {key} is wrong")
        elif "trace_chart" in rep:
            problems.append("trace chart reported for s != 3")
    elif cmd == "mon":
        for i, ((a, b), cp, d) in enumerate(zip(pts, rep["charpolys"], rep["det"]), start=1):
            want = [z(a + b), f.neg(f.add(z(a), z(b))), f.const(1)]
            if [f.parse(c) for c in cp] != want:
                problems.append(f"charpoly {i} is wrong")
            if f.parse(d) != z(a + b):
                problems.append(f"det {i} is wrong")
        _compare(problems, "eigenvalue exponents", _unit_points(f, rep["eigen"]),
                 tuple(map(tuple, pts)))
    elif cmd == "orbit":
        _compare(problems, "absolute verdict", rep["absolute"],
                 {"is_rigid": True, "det_torsion": True, "mon_torsion": True,
                  "verdict": "absolute-point-candidate"})
        orbit = _orbit_set(n, pts)
        got = [_unit_points(f, e) for e in rep["orbit"]]
        _compare(problems, "orbit size", len(got), len(orbit))
        if set(got) != orbit or len(set(got)) != len(got):
            problems.append("orbit elements differ from the exponent orbit")
    return problems


def _check_constructed(f: Field, pts, triple, rep) -> list[str]:
    problems: list[str] = []
    s = len(pts)
    _compare(problems, "tuple shape", (rep["r"], rep["s"], len(rep["matrices"])), (2, s, s))
    mats = []
    for m in rep["matrices"]:
        _compare(problems, "matrix shape", (m["rows"], m["cols"]), (2, 2))
        mats.append([f.parse(v) for v in m["entries"]])
    z = f.unit
    prod = [f.const(1), f.const(0), f.const(0), f.const(1)]
    for i, ((a, b), g) in enumerate(zip(pts, mats), start=1):
        if f.add(g[0], g[3]) != f.add(z(a), z(b)):
            problems.append(f"matrix {i}: trace is not the sum of its eigenvalues")
        if f.add(f.mul(g[0], g[3]), f.neg(f.mul(g[1], g[2]))) != z(a + b):
            problems.append(f"matrix {i}: det is not the product of its eigenvalues")
        if i not in triple and (any(g[1]) or any(g[2]) or g[0] != z(a) or g[3] != z(a)):
            problems.append(f"matrix {i} should be scalar")
        p = prod
        prod = [f.add(f.mul(p[0], g[0]), f.mul(p[1], g[2])),
                f.add(f.mul(p[0], g[1]), f.mul(p[1], g[3])),
                f.add(f.mul(p[2], g[0]), f.mul(p[3], g[2])),
                f.add(f.mul(p[2], g[1]), f.mul(p[3], g[3]))]
    if prod != [f.const(1), f.const(0), f.const(0), f.const(1)]:
        problems.append("ordered product is not the identity")
    return problems


# ---------------------------------------------------------------------------
# tuples-rational.

def _check_rational(cmd, exp, status, rep) -> list[str]:
    ms = [mat([[Fraction(x) for x in row] for row in m]) for m in exp["matrices"]]
    s, irr, split = len(ms), exp["irreducible"], exp["split"]
    nonscalar = {i for i, m in enumerate(ms, start=1) if not is_scalar(m)}
    problems: list[str] = []
    if cmd == "orbit" and not all(split):
        if status != 2 or rep.get("error") != "indeterminate":
            problems.append(f"want exit 2 indeterminate, got {status} {rep.get('error')!r}")
        return problems
    if status != 0:
        return [f"exit status {status}, want 0"]
    if cmd == "check":
        katz, rank2 = _katz_rank2(s, nonscalar, irr)
        want = {"r": 2, "s": s, "is_irreducible": irr, "katz": katz, "rank2": rank2}
        if s == 3:
            g1, g2 = ms[0], ms[1]
            want["trace_chart"] = {
                "tr_g1": _cyc_rational(mtr(g1)), "tr_g2": _cyc_rational(mtr(g2)),
                "tr_g1g2": _cyc_rational(mtr(mmul(g1, g2))),
                "det_g1_inv": _cyc_rational(1 / mdet(g1)),
                "det_g2_inv": _cyc_rational(1 / mdet(g2))}
        _compare(problems, "check", rep, want)
    elif cmd == "mon":
        _compare(problems, "charpolys", rep["charpolys"],
                 [[_cyc_rational(mdet(m)), _cyc_rational(-mtr(m)), _cyc_rational(1)]
                  for m in ms])
        _compare(problems, "det", rep["det"], [_cyc_rational(mdet(m)) for m in ms])
        if all(split):
            problems += _check_rational_eigen(ms, rep["eigen"])
        elif rep["eigen"] is not None:
            problems.append("eigenvalues reported for data that does not split")
    elif cmd == "orbit":
        if len(rep["orbit"]) != 1:
            problems.append(f"orbit of rational data has {len(rep['orbit'])} elements, want 1")
        else:
            problems += _check_rational_eigen(ms, rep["orbit"][0])
        rigid = irr and len(nonscalar) == 3
        det_t = all(mdet(m) in (1, -1) for m in ms)
        mon_t = all(exp["torsion"])
        _compare(problems, "absolute verdict", rep["absolute"],
                 {"is_rigid": rigid, "det_torsion": det_t, "mon_torsion": mon_t,
                  "verdict": "absolute-point-candidate" if rigid and det_t and mon_t
                  else "not-absolute"})
    return problems


def _check_rational_eigen(ms, eigen) -> list[str]:
    # The roots of x^2 - t x + d are fixed by their sum and product, so this
    # check is exact.  Every root the search can find lies in Q(zeta_12).
    if eigen is None:
        return ["eigenvalues missing for data that splits"]
    f = field(12)
    problems = []
    for i, (m, pt) in enumerate(zip(ms, eigen["points"]), start=1):
        x, y = (f.parse(v) for v in pt)
        if f.add(x, y) != f.const(mtr(m)) or f.mul(x, y) != f.const(mdet(m)):
            problems.append(f"point {i}: eigenvalues disagree with trace and det")
    return problems


# ---------------------------------------------------------------------------
# tori-calculus.

def _integral(f: Fraction) -> bool:
    return f.denominator == 1


def _dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), ZERO)


def _solves(tau, rows, targets) -> bool:
    return all(_integral(_dot(tau, r) - t) for r, t in zip(rows, targets))


def _coset_tau(rep_coset, n) -> list[Fraction]:
    tau = [Fraction(x) for x in rep_coset["tau"]]
    if rep_coset["N"] != n or len(tau) != n or not all(0 <= x < 1 for x in tau):
        raise ValueError("bad translate")
    return tau


def _grid_points(rows, tau, b) -> set:
    # Direct congruence test: <i/b - tau, v> is an integer, i.e.
    # q <i, v> = b p (mod b q) where <tau, v> = p/q.
    conds = []
    for v in rows:
        t = _dot(tau, v)
        conds.append((v, t.numerator, t.denominator))
    out = set()
    for idx in itertools.product(range(b), repeat=len(tau)):
        if all((q * sum(i * x for i, x in zip(idx, v)) - b * p) % (b * q) == 0
               for v, p, q in conds):
            out.add(tuple(Fraction(i, b) for i in idx))
    return out


def _check_tori(cmd, exp, status, rep) -> list[str]:
    if status != 0:
        return [f"exit status {status}, want 0"]
    problems: list[str] = []
    op = exp["op"]
    if op == "enumerate":
        tau = [Fraction(x) for x in exp["tau"]]
        want = _grid_points(exp["rows"], tau, exp["bound"])
        got = [tuple(Fraction(x) for x in p) for p in rep["points"]]
        if set(got) != want or len(got) != len(want):
            problems.append(f"enumerate: {len(got)} points, want {len(want)}")
        if rep["points"] != sorted(rep["points"]):
            problems.append("enumerate: points are not in canonical order")
    elif op in ("intersect", "preimage"):
        coset = rep["coset"]
        if exp["empty"]:
            if not coset.get("empty"):
                problems.append(f"{op}: want the empty coset")
            return problems
        if coset.get("empty"):
            return [f"{op}: reported empty, but the witness point lies on it"]
        n = exp["n"]
        tau = _coset_tau(coset, n)
        if op == "intersect":
            pairs = []
            for rows, t in (exp["a"], exp["b"]):
                t = [Fraction(x) for x in t]
                pairs += [(r, _dot(t, r)) for r in rows]
            want_rows = [r for r, _ in pairs]
            targets = [t for _, t in pairs]
        else:
            a, rows, t = exp["matrix"], exp["rows"], [Fraction(x) for x in exp["tau"]]
            want_rows = [[sum(v[i] * a[i][j] for i in range(len(a))) for j in range(n)]
                         for v in rows]
            targets = [_dot(t, v) for v in rows]
        _compare(problems, f"{op} relations", coset["L"], want_rows)
        if not _solves(tau, want_rows, targets):
            problems.append(f"{op}: translate does not solve the congruences")
    elif op == "nonsimple_locus":
        q = [Fraction(x) for x in exp["point"]]
        s, triple = exp["s"], exp["triple"]
        rest = [i for i in range(1, s + 1) if i not in triple]
        on = (_integral(sum(q))
              and all(_integral(q[2 * i - 2] - q[2 * i - 1]) for i in rest)
              and any(_integral(sum(q[c] for c in ch)) for ch in locus_choices(s, triple)))
        _compare(problems, "nonsimple_locus", rep, {"value": on})
    return problems


_CHECKS = {"pipeline": _check_pipeline, "rational": _check_rational, "tori": _check_tori}
