"""JSON wire formats: what the CLI reads and writes.

All rationals travel as strings so no reader ever rounds them; multisets are
serialized in the canonical order (conductor, then coordinates), making
reports byte-stable.  Parsers are strict: unknown keys are rejected.  A
``conductor_cap`` is enforced before any field arithmetic: first on each
declared conductor, then on the lcm of one matrix's decoded entries before
the matrix lifts them, then on the lcm of a tuple's matrices (or of all the
eigenvalues of eigenvalue data) before they are multiplied.  A plain rational
string, ``"p"`` or ``"p/q"`` in ASCII digits, is read with ``int``; every other
spelling goes through ``Fraction``.  Every integer a report writes as text
passes :func:`int_text`, which refuses one past the interpreter's digit limit
as a budget.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .cyclotomic import CycNum, _make, sort_key
from .errors import BudgetExceeded, SchemaError
from .galois import AbsoluteVerdict
from .linalg import Matrix, Polynomial
from .moduli import ComponentSpec, TraceChartPoint
from .monodromy import EigenData, MonodromyTuple, Rank2Classification, RigidityReport
from .residues import CurveGeometry, ResidueData
from .tori import TorsionCoset, TorusFormula


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def is_int(obj) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return type(obj) is int


def check_keys(obj, allowed: set[str], what: str) -> dict:
    """``obj``, checked to be a JSON object with no key outside ``allowed``."""
    _require(isinstance(obj, dict), f"{what}: expected a JSON object")
    unknown = set(obj) - allowed
    _require(not unknown, f"{what}: unknown keys {sorted(unknown)}")
    return obj


def _check_declared(obj: dict, what: str, rank: int, punctures: int):
    # The optional declared 'r' and 's' must be integers equal to the decoded shape.
    for key, name, value in (("r", "rank", rank), ("s", "punctures", punctures)):
        if key in obj:
            _require(is_int(obj[key]) and obj[key] == value,
                     f"{what}: declared {name} {obj[key]!r} != {value}")


def _enforce_conductor_cap(values, cap: int | None):
    n = 1
    for v in values:
        n = math.lcm(n, v.conductor)
        if cap is not None and n > cap:
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
    m = _PLAIN.fullmatch(s)
    try:
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
    if isinstance(obj, str):
        return _str_ratio(obj, what)
    if type(obj) is int:
        return obj, 1
    try:
        if (isinstance(obj, list) and len(obj) == 2 and type(obj[0]) in (int, str)
                and type(obj[1]) in (int, str)):
            p, q = int(obj[0]), int(obj[1])
            _require(q != 0, f"{what}: bad fraction {obj!r}")
            return p, q
    except ValueError as exc:
        raise SchemaError(f"{what}: bad fraction {obj!r}") from exc
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


def cyc_from_json(obj, what: str = "cyclotomic number", conductor_cap: int | None = None) -> CycNum:
    if isinstance(obj, (str, int)):   # a rational, at conductor 1 in lowest terms
        p, q = _ratio_from_json(obj, what)
        g = math.gcd(p, q)
        return _make(1, (p // g,), q // g)
    check_keys(obj, {"n", "c"}, what)
    _require("n" in obj and "c" in obj, f"{what}: needs keys 'n' and 'c'")
    n = obj["n"]
    _require(is_int(n) and n >= 1, f"{what}: bad conductor {n!r}")
    if conductor_cap is not None and n > conductor_cap:
        raise BudgetExceeded(f"{what}: declared conductor {n} exceeds the cap of {conductor_cap}")
    _require(isinstance(obj["c"], list) and len(obj["c"]) <= n,
             f"{what}: 'c' must be a list of at most n = {n} coordinates")
    return CycNum.from_ratios([_ratio_from_json(c, what) for c in obj["c"]], n)


# -- matrices and tuples -----------------------------------------------------

def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [cyc_to_json(v) for v in m.entries]}


def matrix_from_json(obj, conductor_cap: int | None = None) -> Matrix:
    check_keys(obj, {"rows", "cols", "entries"}, "matrix")
    rows, cols = obj.get("rows"), obj.get("cols")
    _require(is_int(rows) and is_int(cols),
             "matrix: 'rows' and 'cols' must be integers")
    ent = obj.get("entries")
    _require(isinstance(ent, list) and len(ent) == rows * cols,
             f"matrix: expected {rows * cols} entries")
    ent = tuple(cyc_from_json(v, "matrix entry", conductor_cap) for v in ent)
    _enforce_conductor_cap(ent, conductor_cap)  # before the entries are lifted to their lcm
    return Matrix(rows, cols, ent)


def tuple_to_json(t: MonodromyTuple) -> dict:
    return {"r": t.rank, "s": t.punctures,
            "matrices": [matrix_to_json(m) for m in t.matrices]}


def tuple_from_json(obj, conductor_cap: int | None = None) -> MonodromyTuple:
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


def eigen_from_json(obj, conductor_cap: int | None = None) -> EigenData:
    check_keys(obj, {"r", "s", "points"}, "eigenvalue data")
    pts = obj.get("points")
    _require(isinstance(pts, list) and pts, "eigenvalue data: 'points' must be a non-empty list")
    _require(all(isinstance(pt, list) for pt in pts), "eigenvalue data: each point must be a list")
    e = EigenData.of([[cyc_from_json(v, "eigenvalue", conductor_cap) for v in pt] for pt in pts])
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
    _require(op in ("union", "intersection", "complement"),
             f"formula: unknown operation {op!r}")
    args = obj.get("args")
    _require(isinstance(args, list) and args, "formula: 'args' must be a non-empty list")
    parsed = tuple(formula_from_json(a) for a in args)
    return TorusFormula(op, parsed)


def point_from_json(obj, what: str = "torsion point") -> list[Fraction]:
    _require(isinstance(obj, list), f"{what}: expected a list of fractions")
    return [rational_from_json(x, what) for x in obj]


def eigen_sort_key(e: EigenData):
    return tuple(tuple(sort_key(v) for v in pt) for pt in e.points)
