"""Reference implementation of the trace N^w, kept as the oracle for the
packed-integer kernel in ``hx.positivity``.

This is the T-basis computation over ``LaurentPoly`` coefficients that
``n_trace`` ran before the kernel replaced it, unchanged apart from its
name. It shares no arithmetic with the kernel: it multiplies through
``HeckeAlgebra`` generator steps keyed by ``Element``, in the basis T_w
rather than v^{|w|} T_w.
"""

from __future__ import annotations

from hx.coxeter import Element
from hx.hecke import HeckeAlgebra
from hx.laurent import LaurentPoly, ONE, ZERO
from hx.positivity import _gate


def reference_n_trace(algebra: HeckeAlgebra, w: Element, *,
                      route: str = "direct") -> LaurentPoly:
    """The trace of h -> v^{2|w|} T_w h T_{w^{-1}} over the T-basis.

    route "direct" accumulates [T_x](T_w T_x T_{w^{-1}}) per basis element
    x, straight from the definition. route "cyclic" accumulates
    [T_{w^{-1}}](T_x T_{w^{-1}} T_{x^{-1}}) instead, which is the same
    trace because the coefficient-of-T_e functional is a symmetrizing
    trace form; its partial products extend by a single generator on each
    side per element, making long w much cheaper. The two routes are
    checked against each other exhaustively in the test suite; "direct"
    is the reference."""
    _gate(algebra)
    if route not in ("direct", "cyclic"):
        raise ValueError(f"unknown trace route {route!r}")
    system = algebra.system
    system._check_same_system(w)
    winv = system.inverse(w)
    wword = w.word
    total = ZERO
    elements = system.enumerate_elements()
    levels: dict[int, list[Element]] = {}
    for x in elements:
        levels.setdefault(x.length, []).append(x)
    # direct: partial[x] = T_x * T_{w^{-1}}; cyclic: T_x * T_{w^{-1}} * T_{x^{-1}}
    partial = {system.identity: {winv: ONE}}
    for length in range(max(levels) + 1):
        for x in levels.get(length, ()):
            if route == "direct":
                coeff = algebra._t_word_mul(wword, partial[x]).get(x)
            else:
                coeff = partial[x].get(winv)
            if coeff:
                total = total + coeff
        nxt = {}
        for y in levels.get(length + 1, ()):
            # canonical-word tail is the canonical word of s_{y0} y
            s = y.word[0]
            parent = system._elem(y.word[1:])
            q = algebra._lmul_gen(s, partial[parent])
            if route == "cyclic":
                q = algebra._rmul_gen(q, s)
            nxt[y] = q
        partial = nxt
    return total.shift(2 * w.length)
