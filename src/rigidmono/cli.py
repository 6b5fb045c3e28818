"""Batch command-line front end with JSON input and output.

Commands
    check      validate a tuple, test simplicity, run the rigidity count and
               the rank-2 classification
    mon        per-puncture characteristic polynomials, eigenvalues, determinants
    classify   component membership of eigenvalue data over all triples
    construct  build the rigid tuple realizing admissible eigenvalue data
    derham     residue exponents, bundle degree, Hilbert polynomial
    orbit      Galois orbit of the eigenvalue data plus the torsion verdict
    tori       torsion-coset operations and formula evaluation

Exit status: 0 success, 1 parse or schema failure, 2 mathematical
precondition violation, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from . import serialize as wire
from .errors import BudgetExceeded, MathError, SchemaError, ShapeError
from .galois import absolute_point_test, galois_orbit_eigen
from .moduli import all_component_specs, component_membership, construct_representative, trace_chart
from .monodromy import katz_report, rank2_classify
from .residues import deligne_residues, fuchs_degree, hilbert_poly
from .tori import (coset_intersect, coset_membership, enumerate_torsion, formula_eval,
                   monomial_preimage, nonsimple_locus_formula)


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_source: str
    output: str | None
    order_bound: int
    conductor_cap: int
    batch: bool


def _load_input(source: str):
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _run_check(payload, cfg: RunConfig) -> dict:
    t = wire.tuple_from_json(payload, cfg.conductor_cap)
    rep = katz_report(t)
    out = {"r": t.rank, "s": t.punctures,
           "is_irreducible": rep.is_irreducible,
           "katz": wire.report_to_json(rep)}
    if t.rank == 2 and rep.is_irreducible:
        out["rank2"] = wire.classification_to_json(rank2_classify(t))
    else:
        out["rank2"] = {"applicable": False,
                        "reason": "reducible" if t.rank == 2 else "rank != 2"}
    if t.rank == 2 and t.punctures == 3:
        out["trace_chart"] = wire.chart_to_json(trace_chart(t))
    return out


def _run_mon(payload, cfg: RunConfig) -> dict:
    t = wire.tuple_from_json(payload, cfg.conductor_cap)
    data = t.mon_data
    cyc = functools.cache(wire.cyc_to_json)  # one dict per distinct value, shared where it recurs
    return {"charpolys": [wire.polynomial_to_json(p, cyc) for p in data.charpolys],
            "eigen": wire.eigen_to_json(data.eigen, cyc) if data.eigen else None,
            "det": [cyc(d) for d in t.dets]}


def _run_classify(payload, cfg: RunConfig) -> dict:
    e = wire.eigen_from_json(payload, cfg.conductor_cap)
    comps = []
    for spec in all_component_specs(e.punctures):
        comps.append({"triple": sorted(spec.triple),
                      "member": component_membership(e, spec)})
    return {"s": e.punctures, "components": comps}


def _run_construct(payload, cfg: RunConfig) -> dict:
    obj = wire.check_keys(payload, {"eigen", "spec"}, "construct input")
    e = wire.eigen_from_json(obj.get("eigen"), cfg.conductor_cap)
    spec = wire.spec_from_json(obj.get("spec"))
    return wire.tuple_to_json(construct_representative(e, spec), functools.cache(wire.cyc_to_json))


def _run_derham(payload, cfg: RunConfig) -> dict:
    obj = wire.check_keys(payload, {"eigen", "geometry"}, "derham input")
    e = wire.eigen_from_json(obj.get("eigen"), cfg.conductor_cap)
    geom = wire.geometry_from_json(obj.get("geometry"))
    rd = deligne_residues(e)
    deg = fuchs_degree(rd)
    return {"residues": wire.residues_to_json(rd),
            "degE": wire.rational_to_json(deg.value),
            "degE_integral": deg.integral,
            "hilbert": wire.rational_polynomial_to_json(hilbert_poly(rd, geom))}


def _run_orbit(payload, cfg: RunConfig) -> dict:
    t = wire.tuple_from_json(payload, cfg.conductor_cap)
    verdict = absolute_point_test(t)
    orbit = sorted(galois_orbit_eigen(t.mon_data.eigen), key=wire.eigen_sort_key)
    cyc = functools.cache(wire.cyc_to_json)  # one dict per distinct value, shared where it recurs
    return {"orbit": [wire.eigen_to_json(e, cyc) for e in orbit],
            "absolute": wire.verdict_to_json(verdict)}


def _tori_membership(obj, cfg: RunConfig) -> dict:
    c = wire.coset_from_json(obj.get("coset"))
    q = wire.point_from_json(obj.get("point"))
    return {"member": coset_membership(q, c)}


def _tori_intersect(obj, cfg: RunConfig) -> dict:
    out = coset_intersect(wire.coset_from_json(obj.get("a")),
                          wire.coset_from_json(obj.get("b")))
    return {"coset": wire.coset_to_json(out)}


def _tori_preimage(obj, cfg: RunConfig) -> dict:
    mat = obj.get("matrix")
    if not (isinstance(mat, list) and
            all(isinstance(r, list) and all(wire.is_int(x) for x in r) for r in mat)):
        raise SchemaError("tori preimage: 'matrix' must be a list of integer rows")
    out = monomial_preimage(wire.coset_from_json(obj.get("coset")), mat)
    return {"coset": wire.coset_to_json(out)}


def _tori_enumerate(obj, cfg: RunConfig) -> dict:
    c = wire.coset_from_json(obj.get("coset"))
    bound = obj.get("order_bound", cfg.order_bound)
    if not wire.is_int(bound) or bound < 1:
        raise SchemaError("tori enumerate: 'order_bound' must be a positive integer")
    pts = enumerate_torsion(c, bound)
    # One string per residue that occurs; b may be as large as the grid budget.
    text = {i: wire.rational_to_json(Fraction(i, bound)) for i in set().union(*pts)}
    return {"points": sorted([text[i] for i in p] for p in pts)}


def _tori_formula(obj, cfg: RunConfig) -> dict:
    f = wire.formula_from_json(obj.get("formula"))
    q = wire.point_from_json(obj.get("point"))
    return {"value": formula_eval(f, q)}


def _tori_nonsimple_locus(obj, cfg: RunConfig) -> dict:
    s, triple = obj.get("s"), obj.get("triple")
    if not (wire.is_int(s) and isinstance(triple, list) and all(wire.is_int(i) for i in triple)):
        raise SchemaError("tori nonsimple_locus: needs integer 's' and integer list 'triple'")
    q = wire.point_from_json(obj.get("point"))
    if len(q) != 2 * s:
        raise ShapeError(f"tori nonsimple_locus: the point needs 2s = {2 * s} coordinates, "
                         f"got {len(q)}")
    return {"value": formula_eval(nonsimple_locus_formula(s, triple), q)}


# op -> (keys besides "op", handler)
_TORI_OPS = {
    "membership": ({"coset", "point"}, _tori_membership),
    "intersect": ({"a", "b"}, _tori_intersect),
    "preimage": ({"coset", "matrix"}, _tori_preimage),
    "enumerate": ({"coset", "order_bound"}, _tori_enumerate),
    "formula": ({"formula", "point"}, _tori_formula),
    "nonsimple_locus": ({"s", "triple", "point"}, _tori_nonsimple_locus),
}


def _run_tori(payload, cfg: RunConfig) -> dict:
    if not isinstance(payload, dict) or "op" not in payload:
        raise SchemaError("tori input: needs an 'op' key")
    op = payload["op"]
    if not (isinstance(op, str) and op in _TORI_OPS):
        raise SchemaError(f"tori input: unknown op {op!r}")
    keys, handler = _TORI_OPS[op]
    return handler(wire.check_keys(payload, {"op", *keys}, f"tori {op}"), cfg)


_TUPLE_SCHEMA = {"r": 2, "s": 3, "matrices": ["<matrix>"]}
_EIGEN_SCHEMA = {"r": 2, "s": "<punctures>", "points": [["<cycnum>", "<cycnum>"]]}

# command -> (runner, the input schema printed by --describe-schema)
_COMMANDS = {
    "check": (_run_check, {"r": 2, "s": 3,
                           "matrices": ["<matrix: {rows, cols, entries: [cycnum]}>"]}),
    "mon": (_run_mon, _TUPLE_SCHEMA),
    "classify": (_run_classify, _EIGEN_SCHEMA),
    "construct": (_run_construct, {"eigen": _EIGEN_SCHEMA,
                                   "spec": {"s": "<punctures>", "triple": [1, 2, 3]}}),
    "derham": (_run_derham, {"eigen": _EIGEN_SCHEMA, "geometry": {"genus": 0, "degH": 1}}),
    "orbit": (_run_orbit, _TUPLE_SCHEMA),
    "tori": (_run_tori, {"op": "|".join(_TORI_OPS),
                         "...": "op-specific keys: coset/a/b/matrix/point/formula/s/triple/"
                                "order_bound"}),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig) -> tuple[int, dict | list]:
    """Execute one configured run; returns (exit status, JSON report)."""
    try:
        payload = _load_input(cfg.input_source)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON, digits
        return 1, {"error": "parse-error", "message": str(exc)}
    runner = _COMMANDS[cfg.command][0]
    if cfg.batch:
        if not isinstance(payload, list):
            return 1, {"error": "schema-error",
                       "message": "batch mode expects a JSON list of inputs"}
        reports = []
        status = 0
        for item in payload:
            code, rep = _run_one(runner, item, cfg)
            if code == 0:
                reports.append({"ok": True, "report": rep})
            else:
                reports.append({"ok": False, **rep})
                if status == 0:
                    status = code
        return status, reports
    return _run_one(runner, payload, cfg)


def _run_one(runner, payload, cfg: RunConfig) -> tuple[int, dict]:
    try:
        return 0, runner(payload, cfg)
    except SchemaError as exc:
        return 1, {"error": exc.code, "message": str(exc)}
    except (MathError, ZeroDivisionError) as exc:
        code = getattr(exc, "code", "arithmetic-error")
        return 2, {"error": code, "message": str(exc)}
    except BudgetExceeded as exc:
        return 3, {"error": exc.code, "message": str(exc)}
    except RecursionError:
        return 1, {"error": SchemaError.code, "message": "input nested too deeply"}


_PLAIN_TEXT = re.compile(r"[ !#-\[\]-~]*")   # the strings _escape only quotes


@functools.cache
def _value_frame(indent: str) -> tuple[str, str, str, str]:
    # The fixed text of a value dict at this indent: before the first string, between the two
    # strings of a pair, between pairs, and after the last string up to the conductor.
    i2, i4, i6 = indent + "  ", indent + "    ", indent + "      "
    return (f'{{\n{i2}"c": [\n{i4}[\n{i6}"', f'",\n{i6}"', f'"\n{i4}],\n{i4}[\n{i6}"',
            f'"\n{i4}]\n{i2}],\n{i2}"n": ')


def _value_text(obj: dict, indent: str) -> str | None:
    # The text of a value dict {"c": [[str, str], ...], "n": int}, "c" not empty and no string
    # needing an escape, filled into one template; None for any other dict.
    c, n = obj.get("c"), obj.get("n")
    if len(obj) != 2 or type(c) is not list or not c or type(n) is not int:
        return None
    for pair in c:
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            return None
    if not _PLAIN_TEXT.fullmatch("".join(itertools.chain.from_iterable(c))):
        return None
    head, mid, sep, tail = _value_frame(indent)
    return f"{head}{sep.join(map(mid.join, c))}{tail}{wire.int_text(n)}\n{indent}}}"


def _write(obj) -> str:
    # json.dumps(obj, indent=2, sort_keys=True) on dict, list, tuple, str, int, bool and None
    # only, subclasses refused: a container's text is one ",\n" + indent join over its items,
    # string items escaped inline, and framed by one f-string: a chain of + would copy a long
    # body once per piece.  Each dict is rendered once: the memo keys on its id, which stays
    # its own while the report holds it, and a dict that recurs at another depth (mon, orbit
    # and construct share one per distinct value) is placed by one replace of the indent that
    # follows each newline.  A value dict is filled into one template (_value_text), as the
    # writer's commonest object; every other dict takes the generic walk.
    # Integers pass the report's digit guard, wire.int_text.
    memo = {}

    def write(obj, indent: str) -> str:
        t = type(obj)
        if t is list or t is tuple:
            if not obj:
                return "[]"
            inner = indent + "  "
            body = f",\n{inner}".join([_escape(v) if type(v) is str else write(v, inner)
                                       for v in obj])
            return f"[\n{inner}{body}\n{indent}]"
        if t is dict:
            if not obj:
                return "{}"
            hit = memo.get(id(obj))
            if hit is not None:
                text, at = hit
                return text if at == indent else text.replace("\n" + at, "\n" + indent)
            text = _value_text(obj, indent)
            if text is None:
                inner = indent + "  "
                # _escape raises TypeError on a key that is not a str.
                body = f",\n{inner}".join([
                    f"{_escape(k)}: {_escape(v) if type(v) is str else write(v, inner)}"
                    for k in sorted(obj) for v in (obj[k],)])
                text = f"{{\n{inner}{body}\n{indent}}}"
            memo[id(obj)] = text, indent
            return text
        if t is str:
            return _escape(obj)
        if t is int:
            return wire.int_text(obj)
        if obj is None or t is bool:
            return "null" if obj is None else "true" if obj else "false"
        raise TypeError(f"{t.__name__} is not a report type")

    return write(obj, "")


def _emit(status: int, report, output: str | None) -> int:
    # Writes the report and returns the exit status: 3 with an error report when an
    # integer in it is too long to write, 1 (the OS error on stderr) when it cannot be written.
    try:
        text = _write(report) + "\n"
    except BudgetExceeded as exc:
        status, text = 3, _write({"error": exc.code, "message": str(exc)}) + "\n"
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.stderr.write(f"rigidmono: error: {exc}\n")
        return 1
    return status


class _Parser(argparse.ArgumentParser):
    # Usage errors belong to the parse-failure exit family, not argparse's 2.
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigidmono",
        description="Exact computations with rank-2 monodromy tuples: rigidity, "
                    "moduli coordinates, residues, Galois transport, torsion tori.")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to compute")
    parser.add_argument("--input", "-i", default="-",
                        help="input file, inline JSON, or '-' for stdin")
    parser.add_argument("--output", "-o", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--order-bound", type=int, default=12,
                        help="torsion order bound for enumeration (default 12)")
    parser.add_argument("--conductor-cap", type=int, default=wire.DEFAULT_CONDUCTOR_CAP,
                        help="largest working conductor accepted (default %(default)s)")
    parser.add_argument("--batch", action="store_true",
                        help="treat the input as a list and map the command over it")
    parser.add_argument("--describe-schema", metavar="COMMAND", choices=COMMANDS,
                        help="print the expected input schema for a command and exit")
    return parser


_parser = functools.cache(build_parser)   # one parser per process, built by the first main()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.describe_schema:
        return _emit(0, _COMMANDS[args.describe_schema][1], args.output)
    if not args.command:
        parser.error("a command is required (or use --describe-schema)")
    if args.order_bound < 1 or args.conductor_cap < 1:
        parser.error("budgets must be positive")
    cfg = RunConfig(args.command, args.input, args.output,
                    args.order_bound, args.conductor_cap, args.batch)
    status, report = run(cfg)
    return _emit(status, report, cfg.output)


if __name__ == "__main__":
    sys.exit(main())
