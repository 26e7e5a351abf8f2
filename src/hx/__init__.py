"""
Exact-arithmetic workbench for Iwahori-Hecke algebras of finite and
affine Coxeter systems with general weight functions: Kazhdan-Lusztig
bases, structure constants, the a-function, the asymptotic ring J, and
conjugacy-class trace positivity. Library plus the ``hx`` batch CLI.

``import hx`` loads ``coxeter``, ``hecke`` and ``laurent``. The names of
``klbasis`` (``KLBasis``, ``AFunction``, ``a_function``, ``JRing`` and the
``j_*`` functions) and of ``positivity`` (``n_trace``, ``class_report``,
``classify_positive``, ``TraceReport``), and the attributes ``hx.klbasis``
and ``hx.positivity``, load their module on first use (PEP 562), so a
command that needs neither never imports them.
"""

from .coxeter import (ConjugacyClass, CoxeterSystem, Element, GatingError,
                      InfiniteGroupError, InternalCheckError, build_system)
from .hecke import (HeckeAlgebra, HeckeElement, UnequalParametersError,
                    WeightFunction, weight_catalog)
from .laurent import LaurentPoly, NEG_INF, ONE, V, ZERO, in_cone

__version__ = "0.1.0"

__all__ = [
    "build_system", "CoxeterSystem", "Element", "ConjugacyClass",
    "GatingError", "InfiniteGroupError", "InternalCheckError",
    "LaurentPoly", "ZERO", "ONE", "V", "NEG_INF", "in_cone",
    "WeightFunction", "weight_catalog", "HeckeAlgebra", "HeckeElement",
    "UnequalParametersError",
    "KLBasis", "AFunction", "a_function", "JRing", "j_table",
    "j_associativity_check", "j_find_unit",
    "n_trace", "class_report", "classify_positive", "TraceReport",
    "__version__",
]

# name -> the submodule that defines it, or that is it, imported on first use
_LAZY = {**dict.fromkeys(["klbasis", "KLBasis", "AFunction", "a_function", "JRing",
                          "j_table", "j_associativity_check", "j_find_unit"], "klbasis"),
         **dict.fromkeys(["positivity", "n_trace", "class_report", "classify_positive",
                          "TraceReport"], "positivity")}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    owner = import_module(f"{__name__}.{module}")
    return owner if name == module else getattr(owner, name)
