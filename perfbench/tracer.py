"""Per-module tracing from outside the package.

``Tracer.install()`` replaces every public function and method of the
``rigidmono`` modules with a wrapper, in every namespace that holds it
(``cli.py`` and ``galois.py`` import functions by name), so the package itself
is not changed.  Two kinds of wrapper:

* spans, for the analysis, linear-algebra, tori, wire and CLI layers: each
  call is timed, and a layer's self time is its spans' time minus the time of
  the spans and scalar operations they called;
* aggregated scalar operations, for ``cyclotomic``: tens of thousands run per
  request, so they only bump counters and add their time to the layer and to
  the enclosing span's children, without a span of their own.  Only the
  outermost scalar operation is timed; nested ones are counted.

Spans are aggregated in memory as they close, rather than kept one by one:
a traced run closes millions of them.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cyclotomic", "linalg", "monodromy", "moduli", "residues", "galois", "tori",
          "serialize", "cli")
COMMANDS = ("check", "mon", "classify", "construct", "derham", "orbit", "tori")

# Operator methods to wrap besides the public (non-underscore) ones.
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__matmul__",
            "__call__", "__post_init__"}

# Counters named by the per-layer metrics: wrapped name -> counter.
_COUNTED = {
    "cyclotomic.CycNum.__mul__": "mul", "cyclotomic.CycNum.__rmul__": "mul",
    "cyclotomic.CycNum.__add__": "add", "cyclotomic.CycNum.__radd__": "add",
    "cyclotomic.CycNum.inverse": "inverse", "cyclotomic.galois_apply": "galois_apply",
}

# Functions each workload is predicted to call; the traced run asserts it.
_COMMON_TUPLE = {
    "cli.main", "serialize.tuple_from_json", "serialize.cyc_to_json",
    "monodromy.MonodromyTuple.__post_init__", "monodromy.katz_report",
    "monodromy.is_irreducible", "monodromy.centralizer_dim", "monodromy.rank2_classify",
    "monodromy.mon", "monodromy.det_data", "linalg.Matrix.__matmul__", "linalg.charpoly",
    "linalg.eigenvalues_split", "linalg.poly_roots_in_field", "linalg.Polynomial.__call__",
    "linalg.rank_and_kernel_dim", "moduli.trace_chart", "galois.absolute_point_test",
    "galois.galois_orbit_eigen", "cyclotomic.CycNum.__mul__", "cyclotomic.CycNum.__add__",
    "cyclotomic.root_of_unity_order",
}
PREDICTED_CALLS = {
    "pipeline-cyclo": _COMMON_TUPLE | {
        "serialize.eigen_from_json", "serialize.spec_from_json",
        "serialize.geometry_from_json", "serialize.tuple_to_json",
        "serialize.residues_to_json", "moduli.all_component_specs",
        "moduli.component_membership", "moduli.construct_representative",
        "residues.deligne_residues", "residues.fuchs_degree", "residues.hilbert_poly",
        "cyclotomic.CycNum.inverse", "cyclotomic.galois_apply", "cyclotomic.unit_log"},
    "tuples-rational": _COMMON_TUPLE,
    "tori-calculus": {
        "cli.main", "serialize.coset_from_json", "serialize.coset_to_json",
        "serialize.point_from_json", "serialize.rational_to_json", "tori.enumerate_torsion",
        "tori.coset_intersect", "tori.monomial_preimage", "tori.smith_normal_form",
        "tori.solve_congruences", "tori.nonsimple_locus_formula", "tori.formula_eval",
        "tori.coset_membership"},
}
# The layer with the most self time, predicted from scratch profiles.
PREDICTED_DOMINANT = {"pipeline-cyclo": "cyclotomic", "tuples-rational": "linalg",
                      "tori-calculus": "tori"}
# Layers each workload is predicted not to enter at all.
PREDICTED_BYPASS = {
    "pipeline-cyclo": {"tori"},
    "tuples-rational": {"tori", "residues"},
    "tori-calculus": {"cyclotomic", "linalg", "monodromy", "moduli", "residues", "galois"},
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for everything to wrap."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                if isinstance(member, classmethod) or inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", obj, attr, member
        elif callable(obj):
            yield f"{layer}.{name}", module, name, obj


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)   # outermost calls only
        self.extra = Counter()                  # counters read from arguments and results
        self._stack = [[0.0]]                   # child time of each open span
        self._depth = Counter()
        self._in_scalar = False
        self._originals = {}                    # id(function) -> function
        self.wrapped = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, qual, layer, fn, after=None):
        calls, stack, depth = self.calls, self._stack, self._depth
        self_s, inclusive_s = self.self_s, self.inclusive_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[qual] += 1
            frame = [0.0]
            stack.append(frame)
            depth[qual] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[qual] -= 1
                self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                if not depth[qual]:
                    inclusive_s[qual] += dt
            if after is not None:
                after(args, result)
            return result
        return span

    def _scalar(self, qual, fn):
        calls, stack, extra, self_s = self.calls, self._stack, self.extra, self.self_s
        counter = _COUNTED.get(qual)
        tracer = self

        @functools.wraps(fn)
        def scalar(*args, **kwargs):
            calls[qual] += 1
            if counter is not None:
                extra[counter] += 1
                if counter in ("mul", "add") and (
                        args[0].conductor != 1 or getattr(args[1], "conductor", 1) != 1):
                    extra[counter + "_nonrational"] += 1
            if tracer._in_scalar:
                return fn(*args, **kwargs)
            tracer._in_scalar = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_scalar = False
                self_s["cyclotomic"] += dt
                stack[-1][0] += dt
        return scalar

    def _after(self, qual):
        extra = self.extra
        if qual == "linalg.eigenvalues_split":
            def after(args, result):
                if result is not None:
                    extra["split"] += 1
                    extra["roots"] += len(result)
            return after
        if qual == "galois.galois_orbit_eigen":
            def after(args, result):
                extra["orbit_size"] += len(result)
            return after
        if qual == "tori.enumerate_torsion":
            def after(args, result):
                coset, bound = args[0], args[1]
                if not coset.empty:
                    extra["grid_points"] += bound ** coset.dim
                    extra["grid_hits"] += len(result)
            return after
        return None

    def _category(self, qual):
        # Inclusive-time groups read by the metrics, keyed like the spans.
        if qual.startswith("serialize.") and qual.endswith("_from_json"):
            return "decode"
        if qual.startswith("serialize.") and qual.endswith("_to_json"):
            return "encode"
        return None

    def _wrap(self, qual, fn):
        layer = qual.split(".", 1)[0]
        if layer == "cyclotomic":
            return self._scalar(qual, fn)
        span = self._span(qual, layer, fn, self._after(qual))
        category = self._category(qual)
        if category is None:
            return span
        # Count a decode or encode once, at its outermost call.
        depth, inclusive_s = self._depth, self.inclusive_s

        @functools.wraps(fn)
        def grouped(*args, **kwargs):
            depth[category] += 1
            t0 = perf_counter()
            try:
                return span(*args, **kwargs)
            finally:
                depth[category] -= 1
                if not depth[category]:
                    inclusive_s[category] += perf_counter() - t0
        return grouped

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Wrap every public function of every module of ``package``."""
        modules = [sys.modules[f"{package.__name__}.{m}"] for m in LAYERS]
        replacement = {}
        for module in modules:
            for qual, owner, attr, member in _public_callables(module):
                if isinstance(member, classmethod):
                    fn = member.__func__
                    new = classmethod(self._wrap(qual, fn))
                else:
                    fn = member
                    new = self._wrap(qual, fn)
                self._originals[id(fn)] = fn
                if inspect.isclass(owner):
                    setattr(owner, attr, new)
                else:
                    replacement[id(fn)] = new
                self.wrapped.append(qual)
        # Rebind every name that holds an original, in every module.
        for module in sys.modules.values():
            if module is None or not module.__name__.startswith(package.__name__):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replacement and self._originals.get(id(obj)) is obj:
                    setattr(module, name, replacement[id(obj)])

    def unwrapped_bindings(self, package) -> list[str]:
        """Names in any package module that still hold an original function."""
        left = []
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith(package.__name__):
                continue
            holders = [(module.__name__, vars(module))]
            holders += [(f"{module.__name__}.{k}", vars(v)) for k, v in vars(module).items()
                        if inspect.isclass(v) and v.__module__ == module.__name__]
            for where, space in holders:
                for name, obj in space.items():
                    fn = obj.__func__ if isinstance(obj, classmethod) else obj
                    if id(fn) in self._originals and self._originals[id(fn)] is fn:
                        left.append(f"{where}.{name}")
        return left

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics, counts and seconds per request."""
        c, x, inc = self.calls, self.extra, self.inclusive_s
        per = 1.0 / requests

        def ratio(a, b):
            return a / b if b else 0.0

        scalar = x["mul"] + x["add"]
        m = {
            "cyclotomic.mul_calls": x["mul"] * per,
            "cyclotomic.add_calls": x["add"] * per,
            "cyclotomic.inverse_calls": x["inverse"] * per,
            "cyclotomic.nonrational_share":
                ratio(x["mul_nonrational"] + x["add_nonrational"], scalar),
            "linalg.matmul_calls": c["linalg.Matrix.__matmul__"] * per,
            "linalg.charpoly_calls": c["linalg.charpoly"] * per,
            "linalg.eigen_calls": c["linalg.eigenvalues_split"] * per,
            "linalg.eigen_s": inc["linalg.eigenvalues_split"] * per,
            "linalg.poly_evals": c["linalg.Polynomial.__call__"] * per,
            "linalg.evals_per_root": ratio(c["linalg.Polynomial.__call__"], x["roots"]),
            "linalg.split_ratio": ratio(x["split"], c["linalg.eigenvalues_split"]),
            "monodromy.irreducible_calls": c["monodromy.is_irreducible"] * per,
            "monodromy.mon_calls": c["monodromy.mon"] * per,
            "monodromy.centralizer_calls": c["monodromy.centralizer_dim"] * per,
            "monodromy.tuple_validations": c["monodromy.MonodromyTuple.__post_init__"] * per,
            "moduli.membership_calls": c["moduli.component_membership"] * per,
            "moduli.construct_calls": c["moduli.construct_representative"] * per,
            "galois.orbit_size": ratio(x["orbit_size"], c["galois.galois_orbit_eigen"]),
            "galois.apply_calls": x["galois_apply"] * per,
            "tori.snf_calls": c["tori.smith_normal_form"] * per,
            "tori.snf_s": inc["tori.smith_normal_form"] * per,
            "tori.grid_points": x["grid_points"] * per,
            "tori.grid_hit_ratio": ratio(x["grid_hits"], x["grid_points"]),
            "serialize.decode_s": inc["decode"] * per,
            "serialize.encode_s": inc["encode"] * per,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer] * per
        return m

    def layer_calls(self) -> dict[str, int]:
        out = Counter()
        for qual, n in self.calls.items():
            out[qual.split(".", 1)[0]] += n
        return {layer: out[layer] for layer in LAYERS}
