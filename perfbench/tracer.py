"""Per-layer tracing of latclif from outside the package.

``Tracer.install()`` wraps the functions listed in ``LAYERS`` with spans.
Each wrapper replaces every binding of the original function: the defining
module or class, every latclif module that imported it by name, and
module-level dicts and lists that hold it (``opexpr._SIGNED``).

Time accounting, per span:

* ``foreign`` is the time spent in child spans of *other* layers;
  same-layer child spans pass their own foreign time up instead.
* a layer's self time sums ``duration - foreign`` over the spans that
  enter the layer (whose parent span belongs to another layer), so nested
  same-layer spans are not counted twice;
* a function's self time sums ``duration - foreign`` over its outermost
  (non-recursive) calls, so it includes same-layer callees.

Spans are aggregated in memory as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, [names]); "Class.method" names patch the class.
LAYERS = {
    "scalars": ("latclif.scalars", [
        "Scalar.__add__", "Scalar.__sub__", "Scalar.__rsub__", "Scalar.__neg__",
        "Scalar.__mul__", "Scalar.__truediv__", "Scalar.__rtruediv__",
    ]),
    "coeffs": ("latclif.coeffs", [
        "ExactPolynomial.add", "ExactPolynomial.sub", "ExactPolynomial.mul",
        "ExactPolynomial.scale", "ExactPolynomial.neg", "ExactPolynomial.conj",
        "ExactPolynomial.shift", "ExactPolynomial.coord_mul",
        "ExactPolynomial.evaluate", "ExactPolynomial.sample",
        "ExactPolynomial.scale_variables",
        "BoxFunction.add", "BoxFunction.sub", "BoxFunction.mul",
        "BoxFunction.scale", "BoxFunction.neg", "BoxFunction.conj",
        "BoxFunction.shift", "BoxFunction.coord_mul", "BoxFunction.is_zero",
        "BoxFunction.value_at",
        "shift", "diff", "sym_diff", "skew_diff", "star_laplacian",
        "coord_shift_mul",
    ]),
    "universal": ("latclif.universal", [
        "UForm.add", "UForm.sub", "UForm.scale", "UForm.neg", "UForm.uproduct",
        "UForm.uderiv", "UForm.translate", "Reduction.canonicalize",
        "upath_form", "delta_form", "function_form", "unit_form", "theta",
        "allowed_steps", "adjacency", "g_power", "check_graded_bracket",
        "commutator_with_adjacency", "random_uform",
    ]),
    "forms": ("latclif.forms", [
        "Form.add", "Form.sub", "Form.scale", "Form.neg", "Form.map_coeffs",
        "Form.mul", "Form.component", "Form.is_zero", "Form.first_difference",
        "blade_from_factors", "all_blades", "_d_signed", "involution",
        "reversion", "dagger", "to_universal", "from_universal",
        "periodic_box_function",
    ]),
    "operators": ("latclif.operators", [
        "Operator.__call__", "verify_identity", "operators_equal",
        "spanning_coeffs", "spanning_forms",
    ]),
    "opexpr": ("latclif.opexpr", ["parse_expression"]),
    "dirac": ("latclif.dirac", [
        "build_family", "intertwining_relations", "verify_intertwining",
        "determine_convention",
    ]),
    "polynomials": ("latclif.polynomials", [
        "factorial_power", "euler_operator", "check_monomial_principle",
        "check_basicness", "homogeneous_space", "ambient_space",
        "form_coordinates", "reduce_candidates", "assemble_matrix",
        "solve_kernel", "oracle_kernel_dimension", "joint_euler_eigenbasis",
        "hermitian_monogenic_basis", "independent_over_scalars",
        "classical_scaling_residual",
    ]),
    "linalg": ("latclif.linalg", [
        "rref", "rank", "kernel_basis", "scalars_to_gaussian", "bareiss_rank",
    ]),
    "formfile": ("latclif.formfile", [
        "dump_form", "parse_form", "read_form", "write_form",
    ]),
    "suites": ("latclif.suites", [
        "Check.run", "core_suite", "universal_suite", "reduction_suite",
        "forms_suite", "endo_suite", "dirac_suite", "intertwine_suite",
        "poly_suite", "monogenic_suite",
    ]),
    "cli": ("latclif.cli", ["main"]),
}

# Per-function metrics: metric prefix -> (layer, [function names]).
FUNCTIONS = {
    "coeffs.poly_shift": ("coeffs", ["ExactPolynomial.shift"]),
    "coeffs.poly_mul": ("coeffs", ["ExactPolynomial.mul"]),
    "coeffs.poly_sample": ("coeffs", ["ExactPolynomial.sample"]),
    "universal.uderiv": ("universal", ["UForm.uderiv"]),
    "universal.uproduct": ("universal", ["UForm.uproduct"]),
    "universal.canonicalize": ("universal", ["Reduction.canonicalize"]),
    "forms.mul": ("forms", ["Form.mul"]),
    "forms.d": ("forms", ["_d_signed"]),
    "forms.blade_from_factors": ("forms", ["blade_from_factors"]),
    "forms.bridge": ("forms", ["to_universal", "from_universal", "periodic_box_function"]),
    "operators.verify_identity": ("operators", ["verify_identity"]),
    "opexpr.parse": ("opexpr", ["parse_expression"]),
    "dirac.build_family": ("dirac", ["build_family"]),
    "polynomials.reduce_candidates": ("polynomials", ["reduce_candidates"]),
    "polynomials.assemble_matrix": ("polynomials", ["assemble_matrix"]),
    "linalg.rref": ("linalg", ["rref"]),
    "linalg.bareiss_rank": ("linalg", ["bareiss_rank"]),
    "linalg.scalars_to_gaussian": ("linalg", ["scalars_to_gaussian"]),
    "linalg.kernel_basis": ("linalg", ["kernel_basis"]),
    "formfile.parse_form": ("formfile", ["parse_form"]),
    "formfile.dump_form": ("formfile", ["dump_form"]),
    "suites.check": ("suites", ["Check.run"]),
}

# Counts taken by the boundary hooks below.
COUNTERS = (
    "operators.prim.calls", "coeffs.box_points", "formfile.bytes_in",
    "formfile.bytes_out", "polynomials.candidates", "polynomials.matrix_rows",
    "polynomials.matrix_cols", "polynomials.matrix_nnz",
)


def _form_key(form):
    """Hashable value of a form; touches no wrapped function."""
    terms = []
    for blade, c in form.terms.items():
        if c.kind == "box":
            terms.append((blade, c.support, c.validity, frozenset(c.values.items())))
        else:
            terms.append((blade, frozenset(c.terms.items())))
    return (form.n, form.h, frozenset(terms))


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = Counter()
        self.fn_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.prim_inputs = set()
        self._depth = Counter()
        self._patched = []

    # -- wrapping ----------------------------------------------------------
    def _span(self, fn, layer, qualname, before=None, after=None):
        stack, calls, fn_self = self.stack, self.calls, self.fn_self
        layer_self, depth = self.layer_self, self._depth
        clock = time.perf_counter
        key = f"{layer}:{qualname}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                if stack:
                    stack[-1][1] += clock() - t  # bookkeeping belongs to no layer
            frame = [layer, 0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                if stack and stack[-1][0] == layer:
                    stack[-1][1] += frame[1]
                else:
                    layer_self[layer] += own
                    if stack:
                        stack[-1][1] += dur
                depth[key] -= 1
                if not depth[key]:
                    fn_self[key] += own
                calls[key] += 1
            if after is not None:
                t = clock()
                after(args, result)
                if stack:
                    stack[-1][1] += clock() - t
            return result

        return wrapper

    def _hooks(self, qualname):
        """Counters observed at a boundary, outside the layer's time."""
        counts = self.counts
        if qualname == "Operator.__call__":
            inputs = self.prim_inputs

            def before(args):
                op, form = args
                if op.kind == "prim":
                    counts["operators.prim.calls"] += 1
                    inputs.add((op.name, _form_key(form)))
            return before, None
        if qualname == "reduce_candidates":
            def before(args):
                counts["polynomials.candidates"] += len(args[0])
            return before, None
        if qualname == "assemble_matrix":
            def after(args, rows):
                counts["polynomials.matrix_rows"] += len(rows)
                counts["polynomials.matrix_cols"] += len(args[1])
                counts["polynomials.matrix_nnz"] += sum(1 for r in rows for v in r if v)
            return None, after
        if qualname == "parse_form":
            def before(args):
                counts["formfile.bytes_in"] += len(args[0].encode())
            return before, None
        if qualname == "dump_form":
            def after(args, text):
                counts["formfile.bytes_out"] += len(text.encode())
            return None, after
        return None, None

    def _count_box_points(self, box_points):
        counts = self.counts

        @functools.wraps(box_points)
        def wrapper(box):
            counts["coeffs.box_points"] += math.prod(hi - lo + 1 for lo, hi in box)
            return box_points(box)

        return wrapper

    def install(self):
        """Wrap every listed function at every binding; returns self."""
        replace = {}
        for layer, (modname, names) in LAYERS.items():
            module = importlib.import_module(modname)
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                before, after = self._hooks(qualname)
                replace[original] = self._span(original, layer, qualname, before, after)
        coeffs = importlib.import_module("latclif.coeffs")
        replace[coeffs.box_points] = self._count_box_points(coeffs.box_points)
        self._rebind(replace)
        return self

    def _rebind(self, replace):
        def swap(container, key, value):
            try:
                hit = value in replace
            except TypeError:  # unhashable value
                return
            if hit:
                self._patched.append((container, key, value))
                if isinstance(container, type):
                    setattr(container, key, replace[value])
                else:
                    container[key] = replace[value]

        for modname, module in list(sys.modules.items()):
            if modname != "latclif" and not modname.startswith("latclif."):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                swap(namespace, name, value)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        swap(value, k, v)
                elif isinstance(value, list):
                    for i, v in enumerate(list(value)):
                        swap(value, i, v)
                elif isinstance(value, type) and value.__module__ == modname:
                    for k, v in list(vars(value).items()):
                        swap(value, k, v)

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def metrics(self):
        """Flat per-layer metrics, in the names BENCHMARK.json lists."""
        out = {name: self.counts[name] for name in COUNTERS}
        out["scalars.ops"] = sum(v for k, v in self.calls.items() if k.startswith("scalars:"))
        for prefix, (layer, names) in FUNCTIONS.items():
            keys = [f"{layer}:{n}" for n in names]
            out[f"{prefix}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{prefix}.self_s"] = sum(self.fn_self[k] for k in keys)
        out["coeffs.box_op.calls"] = sum(
            v for k, v in self.calls.items() if k.startswith("coeffs:BoxFunction.")
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        prim_calls = out["operators.prim.calls"]
        out["operators.prim.distinct"] = len(self.prim_inputs)
        out["operators.reuse_ratio"] = len(self.prim_inputs) / prim_calls if prim_calls else 0.0
        return out
