"""Per-layer tracing from outside the package.

``Tracer.install`` wraps each named public function or method at every
place it is bound: the defining module, every other ``openwires`` module
that imported it by name, and, for methods, the class (including
operator aliases such as ``__rmul__ = __mul__``).  ``uninstall`` puts
the originals back.  Nothing in ``src/`` is edited.

A span records name, start, end, parent span and query id; a layer's
self time is its span minus the time covered by its child spans.
Scalar operations only count calls, so the tracing cost stays bounded.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute path) of every spanned call
SPANNED = (
    ("lti.snf", "openwires.lti", "snf"),
    ("lti.solve_left", "openwires.lti", "solve_left"),
    ("lti.kernel_basis", "openwires.lti", "kernel_basis"),
    ("lti.compose_mat_cospans", "openwires.lti", "compose_mat_cospans"),
    ("symplectic.kernel_of_matrix", "openwires.symplectic", "kernel_of_matrix"),
    ("symplectic.Subspace.constraints", "openwires.symplectic", "Subspace.constraints"),
    ("symplectic.black_box", "openwires.symplectic", "black_box"),
    ("symplectic.apply_relation", "openwires.symplectic", "apply_relation"),
    ("symplectic.compose_lagrangian", "openwires.symplectic", "compose_lagrangian"),
    ("sfg.tick_relation", "openwires.sfg", "tick_relation"),
    ("sfg.check_trace", "openwires.sfg", "check_trace"),
    ("sfg.sample_biinfinite_window", "openwires.sfg", "sample_biinfinite_window"),
    ("sfg.sfg_denote", "openwires.sfg", "sfg_denote"),
    ("dirichlet.power_functional", "openwires.dirichlet", "power_functional"),
    ("circuit.compose_circuits", "openwires.circuit", "compose_circuits"),
    ("finset.pushout_composition", "openwires.finset", "pushout_composition"),
    ("cli.parse_term", "openwires.cli", "parse_term"),
    ("cli.parse_circuit_document", "openwires.cli", "parse_circuit_document"),
    ("cli.main", "openwires.cli", "main"),
)

# (metric prefix, module, attribute path) of every counted-only call
COUNTED = (
    ("scalars.LaurentPoly.mul", "openwires.scalars", "LaurentPoly.__mul__"),
    ("scalars.LaurentPoly.divmod", "openwires.scalars", "LaurentPoly.__divmod__"),
    ("scalars.RationalFunction.add", "openwires.scalars", "RationalFunction.__add__"),
    ("scalars.RationalFunction.mul", "openwires.scalars", "RationalFunction.__mul__"),
    ("dirichlet.eliminate_node", "openwires.dirichlet", "eliminate_node"),
)

# spans that also report their p95 and max time and, from the returned
# factors, a coefficient bit-size high-water mark
DETAILED = ("lti.snf",)


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _bindings(owner, original):
    """Every (namespace, attribute) where ``original`` is bound."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in vars(owner).items() if v is original]
    found = []
    for name, module in list(sys.modules.items()):
        if name == "openwires" or name.startswith("openwires."):
            found += [(module, k) for k, v in vars(module).items() if v is original]
    return found


class Tracer:
    """Spans and counters of one traced pass over the queries."""

    def __init__(self):
        self.spans = []  # (name, start, end, span id, parent id, query id)
        self.counts = Counter()
        self.kept = defaultdict(list)
        self.query = None
        self._stack = []
        self._patched = []

    def install(self):
        for name, module, path in SPANNED:
            self._patch(module, path, self._span_wrapper(name))
        for name, module, path in COUNTED:
            self._patch(module, path, self._count_wrapper(name))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _patch(self, module, path, make_wrapper):
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        for namespace, key in _bindings(owner, original):
            self._patched.append((namespace, key, original))
            setattr(namespace, key, wrapper)

    def _span_wrapper(self, name):
        spans, stack = self.spans, self._stack
        kept = self.kept[name] if name in DETAILED else None

        def make(original):
            def wrapper(*args, **kwargs):
                span_id = len(spans) + len(stack)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans.append((name, start, end, span_id, parent, self.query))
                if kept is not None:
                    kept.append(result)
                return result

            return wrapper

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def summary(self, bit_size):
        """Per-layer figures of the spans and counters recorded so far."""
        child_time = defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for name, start, end, span_id, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
            durations[name].append(end - start)
        out = {}
        for name, _, _ in SPANNED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in DETAILED:
            ordered = sorted(durations[name]) or [0.0]
            out[f"{name}.p95_ms"] = 1000 * ordered[math.ceil(0.95 * len(ordered)) - 1]
            out[f"{name}.max_ms"] = 1000 * ordered[-1]
            out[f"{name}.bits_max"] = max((_max_bits(r, bit_size) for r in self.kept[name]), default=0)
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        return out


def _max_bits(snf_result, bit_size):
    """Largest single coefficient (numerator plus denominator) in the factors."""
    best = 0
    for matrix in (snf_result.u, snf_result.d, snf_result.v, snf_result.u_inv, snf_result.v_inv):
        for row in matrix.entries:
            for entry in row:
                for c in entry.coeffs:
                    best = max(best, bit_size(c))
    return best
