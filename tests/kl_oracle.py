"""Reference implementation of bar(T_w) and of the KL basis, kept as the
oracle for ``HeckeAlgebra.bar`` and the packed c_s recursion in
``hx.klbasis``.

These are the ``LaurentPoly`` recursions that ``HeckeAlgebra._bar_basis``
and ``KLBasis.coords`` ran before the packed kernels replaced them,
unchanged apart from living on a class of their own with their own memos.
bar(T_w) is built here memoized along canonical-word tails, from
``HeckeAlgebra`` generator steps: (T_s - xi_s) bar(T_{w'}) as T_s times
it minus xi_s times it, where ``HeckeAlgebra.bar`` makes one pass per
letter with no memo. c_w comes from the bar-expansion triangular solve
over [e, w], which pulls sum_{y > x} bar(p_{y,w}) R_{x,y} per x; the
kernel builds c_w from c_s c_{w'} and never reads a bar(T_y) row.
"""

from __future__ import annotations

from hx.coxeter import Element, InternalCheckError
from hx.hecke import HeckeAlgebra, Terms, add_into
from hx.laurent import ONE, ZERO


class LaurentKL:
    """bar(T_w) and the c_w coordinates over Laurent coefficients."""

    def __init__(self, algebra: HeckeAlgebra):
        self.algebra = algebra
        self.system = algebra.system
        self._bar_t: dict[Element, Terms] = {
            self.system.identity: {self.system.identity: ONE}}
        self._coords: dict[Element, Terms] = {}

    def bar_basis(self, w: Element) -> Terms:
        """bar(T_w) in T-coordinates, memoized per element.

        bar(T_s) = T_s - (v^{L(s)} - v^{-L(s)}) T_e is T_s^{-1}; for longer
        words bar is multiplicative along the canonical word."""
        hit = self._bar_t.get(w)
        if hit is not None:
            return hit
        i = w.word[0]
        rest = self.bar_basis(self.system._elem(w.word[1:]))
        out = add_into(self.algebra._lmul_gen(i, rest), rest,
                       -self.algebra._xi[i])
        self._bar_t[w] = out
        return out

    def coords(self, w: Element) -> Terms:
        """The map y -> p_{y,w} with c_w = sum_y p_{y,w} T_y."""
        hit = self._coords.get(w)
        if hit is not None:
            return hit
        interval = self.system.bruhat_interval_below(w)
        bar_basis = self.bar_basis
        p: Terms = {w: ONE}
        pbar: Terms = {w: ONE}  # bar(p_{y,w}), one bar per y
        for x in reversed(interval[:-1]):  # interval[-1] is w, the unique top
            q = ZERO
            xlen = x.length
            for y, pyb in pbar.items():
                if y.length <= xlen:
                    continue
                r = bar_basis(y).get(x)
                if r is not None:
                    q = q + pyb * r
            if q:
                if q.coeff(0) != 0 or q.bar() != -q:
                    raise InternalCheckError(
                        f"KL solve lost bar-antisymmetry at x={x!r}, w={w!r}")
                px = q.negative_part()
                if px:
                    p[x] = px
                    pbar[x] = px.bar()
        self._coords[w] = p
        return p
