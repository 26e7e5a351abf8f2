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

``gen_product``, ``_action_rows`` and ``_h_columns`` are the Laurent h-scan
that ``hx.klbasis`` ran before the packed dense-id scan replaced it, moved
here unchanged (``gen_product`` was a ``KLBasis`` method): the c-coordinates
of c_s c_w by one generator step and ``to_c_basis``, and the column
recursion on x = s x' over ``Element``-keyed dicts of ``LaurentPoly``.

``solve_unit`` is the integral row reduction that ``j_find_unit`` ran
before it read the unit off the J table, moved here unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from hx.coxeter import Element, InternalCheckError
from hx.hecke import HeckeAlgebra, HeckeElement, Terms, add_into
from hx.klbasis import JRing, KLBasis
from hx.laurent import ONE, ZERO, LaurentPoly


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


def gen_product(kl: KLBasis, s: int, w: Element) -> Terms:
    """The c-coordinates of c_s c_w for the generator s (an index):
    (T_s + v^{-L(s)}) c_w in one generator step, then ``to_c_basis``."""
    algebra, cw = kl.algebra, kl.coords(w)
    low = LaurentPoly.monomial(-algebra.weight.values[s])
    return kl.to_c_basis(HeckeElement(
        algebra, add_into(algebra._lmul_gen(s, cw), cw, low)))


def _action_rows(kl: KLBasis) -> list[dict[Element, Terms]]:
    """rows[s][w] = gen_product(kl, s, w) for every generator s and every w
    of a finite W, each checked against the shape Thm 6.6 gives it."""
    system = kl.system
    elements = system.enumerate_elements()
    rows = []
    for s, L in enumerate(kl.algebra.weight.values):
        twice = LaurentPoly.monomial(L) + LaurentPoly.monomial(-L)
        row: dict[Element, Terms] = {}
        for w in elements:
            a = row[w] = gen_product(kl, s, w)
            sw, sign = system.left_mul_gen(s, w)
            if sign < 0:
                ok = a == {w: twice}
            else:
                below = set(system.bruhat_interval_below(w))
                ok = a.get(sw) == ONE and all(
                    z == sw or (z in below and z != w and m.bar() == m
                                and system.left_mul_gen(s, z)[1] < 0)
                    for z, m in a.items())
            if not ok:
                raise InternalCheckError(
                    f"c_s c_w at s={s}, w={w!r} is not of the shape of "
                    f"Lusztig's Thm 6.6: {a}")
        rows.append(row)
    return rows


def _h_columns(kl: KLBasis) -> Iterator[tuple[Element, dict[Element, Terms]]]:
    """(y, x -> (z -> h_{x,y,z})) for each y of a finite W in length order,
    one column at a time, by the recursion on x = s x' in the module
    docstring: c_x = c_s c_x' - sum_{z != x} A_s[x'][z] c_z, and each such
    z is shorter than x', so its entry is already in the column."""
    system = kl.system
    elements = system.enumerate_elements()
    rows = _action_rows(kl)
    tails = [(x.word[0], system.left_mul_gen(x.word[0], x)[0])
             for x in elements[1:]]
    for y in elements:
        column = {elements[0]: {y: ONE}}
        for x, (s, tail) in zip(elements[1:], tails):
            act = rows[s]
            acc: Terms = {}
            for u, h in column[tail].items():
                add_into(acc, act[u], h)
            for z, m in act[tail].items():
                if z != x:
                    add_into(acc, column[z], -m)
            column[x] = acc
        yield y, column


def solve_unit(ring: JRing) -> Optional[dict[Element, int]]:
    """Solve u * t_w = t_w * u = t_w for all w, over the integers.

    Returns the unit as a coefficient map, or None if the system has no
    integral solution. A solvable system is automatically unique (two
    two-sided units of a ring coincide), so a unique rational solution
    that is not integral rules out a unit in J."""
    elements = ring.elements
    n = len(elements)
    index = {w: k for k, w in enumerate(elements)}

    # rows of the linear system: sum_x u_x * coeff = rhs
    def equations():
        for w in elements:
            left_rows: dict[Element, dict[int, int]] = {}
            right_rows: dict[Element, dict[int, int]] = {}
            for x in elements:
                for z, g in ring.table.get((x, w), {}).items():
                    left_rows.setdefault(z, {})[index[x]] = g
                for z, g in ring.table.get((w, x), {}).items():
                    right_rows.setdefault(z, {})[index[x]] = g
            # in first-seen order: the equations, and so the solve, are
            # reproducible
            for z in {**left_rows, **right_rows, w: None}:
                rhs = 1 if z == w else 0
                yield left_rows.get(z, {}), rhs
                yield right_rows.get(z, {}), rhs

    # online reduced row echelon form over Q
    pivots: dict[int, tuple[list[Fraction], Fraction]] = {}
    for row_sparse, rhs in equations():
        row = [Fraction(0)] * n
        for k, g in row_sparse.items():
            row[k] = Fraction(g)
        b = Fraction(rhs)
        for col, (prow, pb) in pivots.items():
            if row[col]:
                f = row[col]
                row = [a - f * c for a, c in zip(row, prow)]
                b -= f * pb
        lead = next((k for k in range(n) if row[k]), None)
        if lead is None:
            if b:
                return None  # inconsistent: no unit
            continue
        inv = row[lead]
        row = [a / inv for a in row]
        b /= inv
        for col, (prow, pb) in list(pivots.items()):
            if prow[lead]:
                f = prow[lead]
                pivots[col] = ([a - f * c for a, c in zip(prow, row)], pb - f * b)
        pivots[lead] = (row, b)

    # a solvable system is unique; zero-fill any (degenerate) free columns
    solution = [Fraction(0)] * n
    for col, (_row, b) in pivots.items():
        solution[col] = b
    unit = {}
    for w, val in zip(elements, solution):
        if val:
            if val.denominator != 1:
                return None  # unique rational solution is not integral
            unit[w] = int(val)

    # verify (guards the degenerate free-column path)
    for w in elements:
        if (ring.product(unit, {w: 1}) != {w: 1}
                or ring.product({w: 1}, unit) != {w: 1}):
            return None
    return unit
