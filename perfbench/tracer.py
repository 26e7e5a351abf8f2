"""
Spans and counters around the calls between the modules of ``hx``.

``install()`` replaces the functions each module of ``src/hx/`` offers the
others with wrappers, in every ``hx`` namespace that holds them (class
attributes, module globals and ``from`` imports alike), before any of them
runs. Each wrapper counts the call, records a span on a stack, and charges
the span's time minus its child spans to the layer that owns the function.
``main`` runs the ``hx`` CLI under the tracer and writes the totals as
JSON. Nothing here changes what ``hx`` computes or prints.

Hashing, equality and truth tests of ``Element`` and ``LaurentPoly`` run
inside every dict lookup and ``if``; they stay unwrapped, so their time is
charged to the layer whose code runs them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("laurent", "coxeter", "hecke", "klbasis", "positivity", "cli")

# (module, attribute path, span name); the first part of a span name is its
# layer. Spans that share a name (aliases, left/right twins) add up.
SPANS = [
    ("laurent", "LaurentPoly.__init__", "laurent.new"),
    ("laurent", "LaurentPoly.__add__", "laurent.add"),
    ("laurent", "LaurentPoly.__radd__", "laurent.add"),
    ("laurent", "LaurentPoly.__sub__", "laurent.sub"),
    ("laurent", "LaurentPoly.__rsub__", "laurent.sub"),
    ("laurent", "LaurentPoly.__neg__", "laurent.neg"),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__pow__", "laurent.pow"),
    ("laurent", "LaurentPoly.monomial", "laurent.monomial"),
    ("laurent", "LaurentPoly.from_pairs", "laurent.from_pairs"),
    ("laurent", "LaurentPoly.shift", "laurent.shift"),
    ("laurent", "LaurentPoly.bar", "laurent.bar"),
    ("laurent", "LaurentPoly.negative_part", "laurent.negative_part"),
    ("laurent", "LaurentPoly.coeff", "laurent.coeff"),
    ("laurent", "LaurentPoly.evaluate", "laurent.evaluate"),
    ("laurent", "LaurentPoly.to_pairs", "laurent.to_pairs"),
    ("laurent", "in_cone", "laurent.in_cone"),
    ("coxeter", "build_system", "coxeter.build"),
    ("coxeter", "CoxeterSystem.__init__", "coxeter.init"),
    ("coxeter", "CoxeterSystem._elem", "coxeter.elem"),
    ("coxeter", "CoxeterSystem.left_mul_gen", "coxeter.gen_mul"),
    ("coxeter", "CoxeterSystem.right_mul_gen", "coxeter.gen_mul"),
    ("coxeter", "CoxeterSystem.normal_form", "coxeter.normal_form"),
    ("coxeter", "CoxeterSystem.multiply", "coxeter.multiply"),
    ("coxeter", "CoxeterSystem.inverse", "coxeter.inverse"),
    ("coxeter", "CoxeterSystem.left_descents", "coxeter.descents"),
    ("coxeter", "CoxeterSystem.right_descents", "coxeter.descents"),
    ("coxeter", "CoxeterSystem.enumerate_elements", "coxeter.enumerate"),
    ("coxeter", "CoxeterSystem.order", "coxeter.order"),
    ("coxeter", "CoxeterSystem.bruhat_leq", "coxeter.bruhat_leq"),
    ("coxeter", "CoxeterSystem.bruhat_interval_below", "coxeter.bruhat_interval"),
    ("coxeter", "CoxeterSystem.conjugacy_classes", "coxeter.classes"),
    ("coxeter", "CoxeterSystem.class_of", "coxeter.class_of"),
    ("coxeter", "CoxeterSystem.coxeter_element", "coxeter.coxeter_element"),
    ("coxeter", "CoxeterSystem.longest_element", "coxeter.longest_element"),
    ("coxeter", "CoxeterSystem.matrix_json", "coxeter.matrix_json"),
    ("hecke", "WeightFunction.__init__", "hecke.weight"),
    ("hecke", "WeightFunction.__call__", "hecke.weight"),
    ("hecke", "HeckeAlgebra.__init__", "hecke.init"),
    ("hecke", "HeckeAlgebra._lmul_gen", "hecke.gen_step"),
    ("hecke", "HeckeAlgebra._rmul_gen", "hecke.gen_step"),
    ("hecke", "HeckeAlgebra._t_word_mul", "hecke.t_word_mul"),
    ("hecke", "HeckeAlgebra.mul", "hecke.mul"),
    ("hecke", "HeckeAlgebra._bar_basis", "hecke.bar_basis"),
    ("hecke", "HeckeAlgebra.bar", "hecke.bar"),
    ("hecke", "HeckeElement.__add__", "hecke.element_add"),
    ("hecke", "HeckeElement.scale", "hecke.element_scale"),
    ("klbasis", "KLBasis.coords", "klbasis.coords"),
    ("klbasis", "KLBasis.element", "klbasis.element"),
    ("klbasis", "KLBasis.from_c_basis", "klbasis.from_c_basis"),
    ("klbasis", "KLBasis.to_c_basis", "klbasis.to_c_basis"),
    ("klbasis", "KLBasis.h_constants", "klbasis.hconst"),
    ("klbasis", "a_function", "klbasis.afunction"),
    ("klbasis", "j_table", "klbasis.jtable"),
    ("klbasis", "j_associativity_check", "klbasis.jcheck"),
    ("klbasis", "j_find_unit", "klbasis.junit"),
    ("positivity", "n_trace", "positivity.n_trace"),
    ("positivity", "class_report", "positivity.class_report"),
    ("positivity", "classify_positive", "positivity.classify"),
    ("positivity", "TraceReport.to_jsonable", "positivity.to_jsonable"),
    ("cli", "main", "cli.main"),
    ("cli", "_dumps", "cli.serialize"),
    ("cli", "_cache_lookup", "cli.cache_replay"),
    ("cli", "_cache_store", "cli.cache_store"),
]


def _two_terms(p) -> bool:
    coeffs = getattr(p, "coeffs", None)
    return coeffs is not None and len(coeffs) - coeffs.count(0) == 2


# extra counters: span name -> function(args) -> number to add
EXTRA_COUNTS = {
    "laurent.mul": ("two_term_calls",
                    lambda args: _two_terms(args[0]) or _two_terms(args[1])),
    "hecke.gen_step": ("terms",
                       lambda args: len(args[2] if isinstance(args[2], dict) else args[1])),
}

# span name -> function(args) -> key whose distinct values are counted
DISTINCT_KEYS = {
    "coxeter.gen_mul": lambda args: (args[1], args[2]),
    "hecke.bar_basis": lambda args: args[1],
    "klbasis.coords": lambda args: args[1],
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.extra = defaultdict(int)
        self.distinct = defaultdict(set)
        self.layer_self = defaultdict(float)
        self._depth = defaultdict(int)
        self._child = [0.0]  # time covered by child spans, one slot per open span

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        calls, inclusive, depth = self.calls, self.inclusive, self._depth
        layer_self, child = self.layer_self, self._child
        extra = EXTRA_COUNTS.get(name)
        distinct_key = DISTINCT_KEYS.get(name)
        distinct = self.distinct[name] if distinct_key is not None else None
        extra_counts = self.extra

        def traced(*args, **kwargs):
            calls[name] += 1
            if extra is not None:
                extra_counts[f"{name}.{extra[0]}"] += extra[1](args)
            if distinct_key is not None:
                distinct.add(distinct_key(args))
            depth[name] += 1
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                layer_self[layer] += took - child.pop()
                child[-1] += took
                depth[name] -= 1
                if not depth[name]:  # recursive calls count once, outermost
                    inclusive[name] += took

        return traced

    def totals(self) -> dict:
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.inclusive[name]
        out.update(self.extra)
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = len(keys)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS, wherever hx holds a reference to it."""
    import importlib

    modules = {name: importlib.import_module(f"hx.{name}") for name in LAYERS}
    modules["hx"] = importlib.import_module("hx")
    replaced = {}
    for module, path, name in SPANS:
        owner = modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__))
        else:
            wrapped = tracer.wrap(name, raw)
            replaced[id(raw)] = wrapped
        setattr(owner, attr, wrapped)
    # module-level functions are also reachable through `from x import f`
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])


def main(argv) -> int:
    """Run ``hx`` under the tracer: ``tracer.py OUT.json -- hx arguments``."""
    out_path, sep, *hx_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- HX_ARGS...")
    tracer = Tracer()
    install(tracer)
    import hx.cli

    try:
        code = hx.cli.main(hx_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
