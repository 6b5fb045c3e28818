"""JSON wire formats: what the CLI reads and writes.

All rationals travel as strings so no reader ever rounds them; multisets are
serialized in the canonical order (conductor, then coordinates), making
reports byte-stable.  Parsers are strict: unknown keys are rejected, and a
failed check builds its message only then.  A ``conductor_cap`` (by default
``DEFAULT_CONDUCTOR_CAP``, the CLI's default too) is enforced before any
field arithmetic: on each declared conductor as its entry is read;
on the lcm of a matrix's declared conductors, within which its entries,
rational or not, are brought once to that lcm over one denominator (an entry
declared there with at most phi(lcm) coordinates, as every rational and every
value a report writes, is placed as read; any other is lifted) and the
matrix descends once, a prime at a time, to its least conductor (past it,
each entry descends alone and the cap holds on their least conductors before
any lift); then on the lcm of a tuple's matrices (or of all
the eigenvalues of eigenvalue data) before they are multiplied.  Eigenvalue
data parses and checks every value, and decodes each distinct (declared
conductor, coordinates) once per payload.  A plain
rational string, ``"p"`` or ``"p/q"`` in ASCII digits, is read with ``int``;
every other spelling goes through ``Fraction``.  Every integer a report writes
as text passes :func:`int_text`, which refuses one past the interpreter's
digit limit.
"""
from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction

from .cyclotomic import CycNum, _from_ratios, _make, sort_key
from .errors import BudgetExceeded, SchemaError
from .galois import AbsoluteVerdict
from .linalg import Matrix, Polynomial
from .moduli import ComponentSpec, TraceChartPoint
from .monodromy import EigenData, MonodromyTuple, Rank2Classification, RigidityReport
from .residues import CurveGeometry, ResidueData
from .tori import TorsionCoset, TorusFormula

DEFAULT_CONDUCTOR_CAP = 240


def _require(cond: bool, msg: str, *args):
    # The message is msg.format(*args), built only when the check fails.
    if not cond:
        raise SchemaError(msg.format(*args))


def is_int(obj) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return type(obj) is int


def check_keys(obj, allowed: set[str], what: str) -> dict:
    """``obj``, checked to be a JSON object with no key outside ``allowed``."""
    _require(isinstance(obj, dict), "{}: expected a JSON object", what)
    if not allowed.issuperset(obj):
        raise SchemaError(f"{what}: unknown keys {sorted(obj.keys() - allowed)}")
    return obj


def _check_declared(obj: dict, what: str, rank: int, punctures: int):
    # The optional declared 'r' and 's' must be integers equal to the decoded shape.
    for key, name, value in (("r", "rank", rank), ("s", "punctures", punctures)):
        if key in obj:
            _require(is_int(obj[key]) and obj[key] == value,
                     "{}: declared {} {!r} != {}", what, name, obj[key], value)


def _enforce_conductor_cap(values, cap: int):
    n = 1
    for v in values:
        n = math.lcm(n, v.conductor)
        if n > cap:
            raise BudgetExceeded(f"working conductor {n} exceeds the cap of {cap}")


# -- rationals ---------------------------------------------------------------

def int_text(n: int) -> str:
    """``str(n)``; an integer past the interpreter's digit limit exceeds the report budget."""
    try:
        return int.__repr__(n)
    except ValueError:
        raise BudgetExceeded("a report integer has more digits than the integer-to-text limit "
                             f"of {sys.get_int_max_str_digits()}") from None


def rational_to_json(f: Fraction) -> str:
    # "p/q", or "p" when q == 1
    q = f.denominator
    return int_text(f.numerator) if q == 1 else f"{int_text(f.numerator)}/{int_text(q)}"


_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?", re.ASCII)


def _str_ratio(s: str, what: str) -> tuple[int, int]:
    # (p, q), q > 0, of a rational string: a plain "p" or "p/q" by int, any other spelling
    # ('+', spaces, '_', decimals, exponents, non-ASCII digits) by one Fraction, whose
    # decimal exponent is first held to the digit limit (Fraction expands it in full).
    try:
        if s.isascii() and s.isdigit():   # the commonest spelling, such as "0" or "1"
            return int(s), 1
        m = _PLAIN.fullmatch(s)
        if m is None:
            _, e, exp = s.lower().rpartition("e")
            if e and abs(int(exp)) > sys.get_int_max_str_digits():
                raise ValueError(exp)
            return Fraction(s).as_integer_ratio()
        p, q = int(m[1]), int(m[2] or 1)
        if q:
            return p, q
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"{what}: bad fraction {s!r}")


def _ratio_from_json(obj, what: str) -> tuple[int, int]:
    # (p, q), q != 0, from a rational string, an int or a pair of ints or int strings (no bool).
    if isinstance(obj, list) and len(obj) == 2:
        p, q = obj
        if type(p) in (int, str) and type(q) in (int, str):
            try:
                p, q = int(p), int(q)
                if q:
                    return p, q
            except ValueError:
                pass
            raise SchemaError(f"{what}: bad fraction {obj!r}")
    elif isinstance(obj, str):
        return _str_ratio(obj, what)
    elif type(obj) is int:
        return obj, 1
    raise SchemaError(f"{what}: expected a fraction string, got {obj!r}")


def rational_from_json(obj, what: str = "rational") -> Fraction:
    return Fraction(*_ratio_from_json(obj, what))


# -- scalars -----------------------------------------------------------------

def cyc_to_json(z: CycNum) -> dict:
    den = z.den
    if den == 1:   # an integral value, such as a root of unity: no gcd, one int_text each
        return {"n": z.conductor, "c": [[int_text(c), "1"] for c in z.num]}
    return {"n": z.conductor,
            "c": [[int_text(c // g), int_text(den // g)]
                  for c in z.num for g in (math.gcd(c, den),)]}


def _cyc_parts(obj, what: str, conductor_cap: int) -> tuple[int, tuple]:
    # (declared conductor, coordinate pairs (p, q), q != 0) of a scalar, checked in this
    # order: keys, conductor, declared cap, the 'c' list.  A rational is at conductor 1.
    if isinstance(obj, (str, int)):
        return 1, (_ratio_from_json(obj, what),)
    check_keys(obj, {"n", "c"}, what)
    _require("n" in obj and "c" in obj, "{}: needs keys 'n' and 'c'", what)
    n = obj["n"]
    _require(is_int(n) and n >= 1, "{}: bad conductor {!r}", what, n)
    if n > conductor_cap:
        raise BudgetExceeded(f"{what}: declared conductor {n} exceeds the cap of {conductor_cap}")
    c = obj["c"]
    _require(isinstance(c, list) and len(c) <= n,
             "{}: 'c' must be a list of at most n = {} coordinates", what, n)
    return n, tuple(_ratio_from_json(x, what) for x in c)


def _cyc(n: int, pairs) -> CycNum:
    # The scalar of _cyc_parts; a rational (at most one pair, q of either sign) as read.
    if n > 1:
        return CycNum.from_ratios(pairs, n)
    p, q = pairs[0] if pairs else (0, 1)
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return _make(1, (p // g,), q // g)


def cyc_from_json(obj, what: str = "cyclotomic number",
                  conductor_cap: int = DEFAULT_CONDUCTOR_CAP) -> CycNum:
    return _cyc(*_cyc_parts(obj, what, conductor_cap))


# -- matrices and tuples -----------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [cyc_to_json(v) for v in m.entries]}


def matrix_from_json(obj, conductor_cap: int = DEFAULT_CONDUCTOR_CAP) -> Matrix:
    check_keys(obj, {"rows", "cols", "entries"}, "matrix")
    rows, cols = obj.get("rows"), obj.get("cols")
    _require(is_int(rows) and is_int(cols) and rows >= 1 and cols >= 1,
             "matrix: 'rows' and 'cols' must be positive integers")
    ent = obj.get("entries")
    _require(isinstance(ent, list) and len(ent) == rows * cols,
             "matrix: expected {} entries", rows * cols)
    parts = [_cyc_parts(v, "matrix entry", conductor_cap) for v in ent]
    n = math.lcm(*[k for k, _ in parts])
    if n > conductor_cap:
        # Entry by entry: past the cap the least conductors first, which the
        # cap then bounds before any lift.
        ent = [_cyc(k, pairs) for k, pairs in parts]
        _enforce_conductor_cap(ent, conductor_cap)
        return Matrix(rows, cols, ent)
    n, num, den = _from_ratios(n, parts)   # one lift and one descent of the whole matrix
    return Matrix.from_coords(rows, cols, n, tuple(map(tuple, num)), den)


def tuple_to_json(t: MonodromyTuple) -> dict:
    return {"r": t.rank, "s": t.punctures,
            "matrices": [matrix_to_json(m) for m in t.matrices]}


def tuple_from_json(obj, conductor_cap: int = DEFAULT_CONDUCTOR_CAP) -> MonodromyTuple:
    check_keys(obj, {"r", "s", "matrices"}, "monodromy tuple")
    mats = obj.get("matrices")
    _require(isinstance(mats, list) and mats, "monodromy tuple: 'matrices' must be a non-empty list")
    mats = [matrix_from_json(m, conductor_cap) for m in mats]
    _enforce_conductor_cap(mats, conductor_cap)  # before validation multiplies the factors
    t = MonodromyTuple.of(mats)
    _check_declared(obj, "monodromy tuple", t.rank, t.punctures)
    return t


# -- eigenvalue and residue data ---------------------------------------------

def eigen_to_json(e: EigenData, cyc=None) -> dict:
    """The wire form of ``e``, each value converted by ``cyc`` (default :func:`cyc_to_json`)."""
    cyc = cyc or cyc_to_json
    return {"r": e.rank, "s": e.punctures, "points": [[cyc(v) for v in pt] for pt in e.points]}


def eigen_from_json(obj, conductor_cap: int = DEFAULT_CONDUCTOR_CAP) -> EigenData:
    check_keys(obj, {"r", "s", "points"}, "eigenvalue data")
    pts = obj.get("points")
    _require(isinstance(pts, list) and pts, "eigenvalue data: 'points' must be a non-empty list")
    _require(all(isinstance(pt, list) for pt in pts), "eigenvalue data: each point must be a list")
    cyc = functools.cache(_cyc)   # each value parsed and checked, each distinct one decoded once
    e = EigenData.of([[cyc(*_cyc_parts(v, "eigenvalue", conductor_cap)) for v in pt] for pt in pts])
    _enforce_conductor_cap((v for pt in e.points for v in pt), conductor_cap)
    _check_declared(obj, "eigenvalue data", e.rank, e.punctures)
    return e


def residues_to_json(rd: ResidueData) -> dict:
    return {"r": rd.rank, "s": rd.punctures,
            "points": [[rational_to_json(a) for a in pt] for pt in rd.points]}


def geometry_from_json(obj) -> CurveGeometry:
    check_keys(obj, {"genus", "degH"}, "curve geometry")
    _require(is_int(obj.get("genus")) and is_int(obj.get("degH")),
             "curve geometry: 'genus' and 'degH' must be integers")
    return CurveGeometry(obj["genus"], obj["degH"])


def spec_from_json(obj) -> ComponentSpec:
    check_keys(obj, {"s", "triple"}, "component spec")
    _require(is_int(obj.get("s")), "component spec: 's' must be an integer")
    tri = obj.get("triple")
    _require(isinstance(tri, list) and all(is_int(i) for i in tri),
             "component spec: 'triple' must be a list of integers")
    return ComponentSpec.of(obj["s"], tri)


# -- polynomials and reports --------------------------------------------------

def polynomial_to_json(p: Polynomial) -> list:
    return [cyc_to_json(c) for c in p.coeffs]


def rational_polynomial_to_json(p: Polynomial) -> list[str]:
    return [rational_to_json(c.as_rational()) for c in p.coeffs]


def report_to_json(rep: RigidityReport) -> dict:
    return {"centralizer_dims": list(rep.centralizer_dims),
            "sum": rep.total,
            "threshold": rep.threshold,
            "defect": rep.defect,
            "is_irreducible": rep.is_irreducible,
            "verdict": rep.verdict}


def classification_to_json(cls: Rank2Classification) -> dict:
    return {"nonscalar_points": sorted(cls.nonscalar_points),
            "rigid": cls.rigid,
            "component_triple": sorted(cls.component_triple)
            if cls.component_triple is not None else None}


def verdict_to_json(v: AbsoluteVerdict) -> dict:
    return {"is_rigid": v.is_rigid,
            "det_torsion": v.det_torsion,
            "mon_torsion": v.mon_torsion,
            "verdict": v.verdict}


def chart_to_json(cp: TraceChartPoint) -> dict:
    return {"tr_g1": cyc_to_json(cp.t1), "tr_g2": cyc_to_json(cp.t2),
            "tr_g1g2": cyc_to_json(cp.t12),
            "det_g1_inv": cyc_to_json(cp.d1inv), "det_g2_inv": cyc_to_json(cp.d2inv)}


# -- tori ----------------------------------------------------------------------

def coset_to_json(c: TorsionCoset) -> dict:
    den = c.den   # each tau is str(Fraction(x, den)), from one gcd
    for row in c.relations:   # written as integers, but refused here, where the item is known
        for x in row:
            int_text(x)
    out = {"N": c.dim,
           "L": [list(row) for row in c.relations],
           "tau": [int_text(x // g) if g == den else f"{int_text(x // g)}/{int_text(den // g)}"
                   for x in c.num for g in (math.gcd(x, den),)]}
    if c.empty:
        out["empty"] = True
    return out


def coset_from_json(obj) -> TorsionCoset:
    check_keys(obj, {"N", "L", "tau", "empty"}, "torsion coset")
    n = obj.get("N")
    _require(is_int(n) and n >= 1, "torsion coset: bad ambient dimension")
    rel = obj.get("L", [])
    _require(isinstance(rel, list), "torsion coset: 'L' must be a list of rows")
    for row in rel:
        _require(isinstance(row, list) and all(is_int(x) for x in row),
                 "torsion coset: relation rows must be integer lists")
    tau = obj.get("tau")
    _require(isinstance(tau, list), "torsion coset: 'tau' must be a list")
    empty = obj.get("empty", False)
    _require(isinstance(empty, bool), "torsion coset: 'empty' must be true or false")
    c = TorsionCoset.of(n, rel, [rational_from_json(t, "translate") for t in tau])
    return TorsionCoset.empty_set(n) if empty else c


def formula_to_json(f: TorusFormula) -> dict:
    if f.op == "leaf":
        return coset_to_json(f.coset)
    return {"op": f.op, "args": [formula_to_json(g) for g in f.args]}


def formula_from_json(obj) -> TorusFormula:
    _require(isinstance(obj, dict), "formula: expected a JSON object")
    if "op" not in obj:
        return TorusFormula.leaf(coset_from_json(obj))
    check_keys(obj, {"op", "args"}, "formula")
    op = obj["op"]
    _require(op in ("union", "intersection", "complement"), "formula: unknown operation {!r}", op)
    args = obj.get("args")
    _require(isinstance(args, list) and args, "formula: 'args' must be a non-empty list")
    parsed = tuple(formula_from_json(a) for a in args)
    return TorusFormula(op, parsed)


def point_from_json(obj, what: str = "torsion point") -> list[Fraction]:
    _require(isinstance(obj, list), "{}: expected a list of fractions", what)
    return [rational_from_json(x, what) for x in obj]


def eigen_sort_key(e: EigenData):
    return tuple(tuple(sort_key(v) for v in pt) for pt in e.points)
