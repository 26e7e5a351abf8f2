"""
Kazhdan-Lusztig basis, c-basis structure constants, the a-function, and
the asymptotic ring J, for general weight functions.

The basis element $c_w$ is the unique bar-invariant element of
$H_{\\le 0}$ with $c_w - T_w \\in v^{-1} H_{\\le 0}$. It is computed by a
triangular solve over the Bruhat interval $[e, w]$: writing
$bar(T_y) = \\sum_x R_{x,y} T_x$, bar-invariance of
$c_w = \\sum_y p_{y,w} T_y$ reads

    p_{x,w} - bar(p_{x,w}) = sum_{y > x} bar(p_{y,w}) R_{x,y},

and since $p_{x,w}$ has only negative powers of v for $x \\ne w$, it is
exactly the negative-exponent part of the right-hand side. This works
verbatim for unequal parameters.

The solve runs in packed integers, on the rows $R_{x,y} v^{L(y)}$ at
$v = 2^B$ that ``HeckeAlgebra`` keeps for the bar involution. It pushes
rather than pulls: it walks $[e, w]$ downward keeping one packed sum
acc[x] per x, and once $p_{y,w}$ is known it adds
$bar(p_{y,w}) v^{L(w)-L(y)}$, packed, times row y into acc[x] for every x
of that row. When the walk reaches x, acc[x] holds the right-hand side
times $v^{L(w)}$; it is decoded once into signed base-$2^B$ digits, the
bar-antisymmetry of the result is checked, and its negative part is
$p_{x,w}$. Width guard: a row's digits lie within $3^{\\ell(y)}$, so every
digit of acc[x] lies within $3^{\\ell(w)} \\sum_y \\|p_{y,w}\\|_1$ over the y
pushed so far. When that bound needs more than B - 1 bits, the algebra
doubles B, drops its rows and the solve starts again; a digit outside the
bound at a decode raises ``InternalCheckError``.

From $c_x c_y = \\sum_z h_{x,y,z} c_z$ one gets $a(z)$ as the largest
degree of $h_{x,y,z}$ over all pairs, and the leading coefficients
$\\gamma$ at $v^{a(z)}$ become the structure constants of the ring J on
the basis $\\{t_w\\}$ (finite systems only: for infinite W the needed
uniform degree bound is an open problem).

The h-scan multiplies in the c-basis, through the left action of
$c_s = T_s + v^{-L(s)}$ (Lusztig, *Hecke algebras with unequal
parameters*, arXiv:math/0208154, Thm 6.6): for every w,

    c_s c_w = (v^{L(s)} + v^{-L(s)}) c_w                        if sw < w,
    c_s c_w = c_{sw} + sum_{z < w, sz < z} mu^s_{z,w} c_z        if sw > w,

with every $\\mu^s_{z,w}$ bar-invariant. Once per algebra the scan
computes the action rows $A_s[w]$, the c-coordinates of $c_s c_w$, for
every s and w, each by one generator step on $c_w$ and ``to_c_basis``, and
checks that each has exactly this shape. Then, for one y at a time, it
walks x in length order with x = s x' (x' the canonical tail):

    h_{x,y,.} = sum_u h_{x',y,u} A_s[u] - sum_{z != x} A_s[x'][z] h_{z,y,.},

starting from $h_{e,y,.} = \\{y: 1\\}$; the z of the second sum are
shorter than x', so their entries are already in the column. That is one
generator step per (s, w) instead of a T-basis product per pair, and one
column of entries alive at a time. Every $h_{x,y,z}$ must be
bar-invariant, and on a seeded sample of pairs the scan must agree with
``KLBasis.h_constants``, the T-basis product that stays behind
``hx kl hconst`` (and serves infinite W); a failure of any of these
checks raises ``InternalCheckError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .coxeter import (CoxeterSystem, Element, InfiniteGroupError,
                      InternalCheckError)
from .hecke import (HeckeAlgebra, HeckeElement, Terms, WeightFunction, add_into,
                    pack, row_bound, unpack)
from .laurent import ONE, LaurentPoly

__all__ = [
    "KLBasis",
    "AFunction",
    "a_function",
    "JRing",
    "j_table",
    "JAssociativityReport",
    "j_associativity_check",
    "j_find_unit",
]


class KLBasis:
    """The c-basis of a Hecke algebra, with the {T} <-> {c} conversions.

    All computed coordinates are cached per element (write-once memo,
    idempotent under concurrent fills).
    """

    def __init__(self, algebra: HeckeAlgebra):
        self.algebra = algebra
        self.system = algebra.system
        self._coords: dict[Element, Terms] = {}

    def coords(self, w: Element) -> Terms:
        """The map y -> p_{y,w} with c_w = sum_y p_{y,w} T_y."""
        hit = self._coords.get(w)
        if hit is not None:
            return hit
        interval = self.system.bruhat_interval_below(w)
        p = self._solve(w, interval)
        while p is None:  # the digit bound outgrew the width
            self.algebra._widen()
            p = self._solve(w, interval)
        self._coords[w] = p
        return p

    def _solve(self, w: Element, interval: list[Element]) -> Optional[Terms]:
        """The push-form solve at the algebra's current digit width, or None
        when the proven digit bound stops fitting in it."""
        algebra = self.algebra
        rows, weight, width = algebra._bar_basis, algebra.weight, algebra._width
        top = weight(w)
        scale = row_bound(w.length)
        limit = 1 << (width - 1)
        mass = 1  # sum of ||p_{y,w}||_1 over the y pushed so far
        if scale >= limit:
            return None
        # acc[x] = sum_y bar(p_{y,w}) R_{x,y} v^{L(w)}, packed
        acc = dict(rows(w))
        get = acc.get
        p: Terms = {w: ONE}
        for x in reversed(interval[:-1]):  # interval[-1] is w, the unique top
            packed = acc.pop(x, 0)
            if not packed:
                continue
            # digits[k] is the coefficient of v^(k - top) of the right-hand
            # side q; bar(q) = -q reads digits[top + e] == -digits[top - e]
            digits = unpack(packed, width, scale * mass)
            digits += [0] * (2 * top + 1 - len(digits))
            if len(digits) > 2 * top + 1 or digits[top:] != [
                    -d for d in reversed(digits[:top + 1])]:
                raise InternalCheckError(
                    f"KL solve lost bar-antisymmetry at x={x!r}, w={w!r}")
            px = LaurentPoly(-top, digits[:top])
            if not px:
                continue
            p[x] = px
            mass += sum(map(abs, px.coeffs))
            if scale * mass >= limit:
                return None
            # bar(p_{x,w}) v^{L(w)-L(x)}, a polynomial in v, packed
            c = pack(px.coeffs[::-1], width) << width * (
                top - weight(x) - px.degree)
            for z, r in rows(x).items():
                acc[z] = get(z, 0) + c * r
        return p

    def element(self, w: Element) -> HeckeElement:
        """The basis element c_w in T-coordinates."""
        return HeckeElement(self.algebra, dict(self.coords(w)))

    def from_c_basis(self, coords: Terms) -> HeckeElement:
        """Expand a c-coordinate vector into T-coordinates."""
        acc: Terms = {}
        for w, q in coords.items():
            add_into(acc, self.coords(w), q)
        return HeckeElement(self.algebra, acc)

    def to_c_basis(self, h: HeckeElement) -> Terms:
        """Coordinates of h in the c-basis (unitriangular change of basis)."""
        rem = dict(h.terms)
        out: Terms = {}
        while rem:
            w = max(rem, key=lambda el: el.sort_key)
            q = rem[w]
            out[w] = q
            add_into(rem, self.coords(w), -q)
        return out

    def h_constants(self, x: Element, y: Element) -> Terms:
        """The map z -> h_{x,y,z} where c_x c_y = sum_z h_{x,y,z} c_z, from
        the T-basis product (any W; the oracle of the finite h-scan)."""
        return self.to_c_basis(self.algebra.mul(self.element(x), self.element(y)))

    def gen_product(self, s: int, w: Element) -> Terms:
        """The c-coordinates of c_s c_w for the generator s (an index):
        (T_s + v^{-L(s)}) c_w in one generator step, then ``to_c_basis``."""
        algebra, cw = self.algebra, self.coords(w)
        low = LaurentPoly.monomial(-algebra.weight.values[s])
        return self.to_c_basis(HeckeElement(
            algebra, add_into(algebra._lmul_gen(s, cw), cw, low)))


@dataclass(frozen=True)
class AFunction:
    """a(z) = max degree of h_{x,y,z} over all pairs, plus attaining pairs."""

    values: dict[Element, int]
    witnesses: dict[Element, tuple[Element, Element]]

    def __getitem__(self, z: Element) -> int:
        return self.values[z]


def _action_rows(kl: KLBasis) -> list[dict[Element, Terms]]:
    """rows[s][w] = kl.gen_product(s, w) for every generator s and every w
    of a finite W, each checked against the shape Thm 6.6 gives it."""
    system = kl.system
    elements = system.enumerate_elements()
    rows = []
    for s, L in enumerate(kl.algebra.weight.values):
        twice = LaurentPoly.monomial(L) + LaurentPoly.monomial(-L)
        row: dict[Element, Terms] = {}
        for w in elements:
            a = row[w] = kl.gen_product(s, w)
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


# pairs per scan whose column entries are recomputed by ``h_constants``
CROSS_CHECK_PAIRS = 8


def _h_scan(kl: KLBasis, progress: Optional[Callable[[int, int], None]]
            ) -> tuple[AFunction, dict[tuple[Element, Element], dict[Element, int]]]:
    """One |W|^2 pass over the h-table, streamed one column c_* c_y at a time.

    For each z it keeps the largest degree of h_{x,y,z}, and the leading
    coefficients of every pair that attains it; those coefficients are
    the J table, and the witness is the first such pair in x-major
    order. h_{e,z,z} = 1 puts every z in the table with a(z) >= 0.
    Every h_{x,y,z} must be bar-invariant, and on a seeded sample of
    CROSS_CHECK_PAIRS pairs equal to ``h_constants``."""
    elements = kl.system.enumerate_elements()
    n = len(elements)
    # pair (x, y) is number x_index * n + y_index
    sample = set(random.Random(0).sample(range(n * n), min(CROSS_CHECK_PAIRS, n * n)))
    values: dict[Element, int] = {}
    # z -> [(x index, y index, leading coefficient)] for the pairs at a(z)
    leading: dict[Element, list[tuple[int, int, int]]] = {}
    for yi, (y, column) in enumerate(_h_columns(kl)):
        for xi, x in enumerate(elements):
            hs = column[x]
            for z, h in hs.items():
                if h.bar() != h:
                    raise InternalCheckError(
                        f"h_(x,y,z) is not bar-invariant at x={x!r}, y={y!r}, "
                        f"z={z!r}: {h}")
                d = h.degree
                best = values.get(z)
                if best is None or d > best:
                    values[z] = best = d
                    leading[z] = []
                if d == best:
                    leading[z].append((xi, yi, h.coeffs[-1]))
            if xi * n + yi in sample and hs != kl.h_constants(x, y):
                raise InternalCheckError(
                    f"the h-scan disagrees with h_constants at x={x!r}, y={y!r}")
        if progress is not None:
            progress((yi + 1) * n, n * n)
    index = {z: k for k, z in enumerate(elements)}
    witnesses = {z: tuple(elements[k] for k in min(leading[z])[:2])
                 for z in elements}
    # rows in x-major pair order, each z-map in descending z, as h_constants
    # lists it
    table: dict[tuple[Element, Element], dict[Element, int]] = {}
    for xi, yi, minus_zi, g in sorted((xi, yi, -index[z], g)
                                      for z, entries in leading.items()
                                      for xi, yi, g in entries):
        table.setdefault((elements[xi], elements[yi]), {})[elements[-minus_zi]] = g
    afn = AFunction(values={z: values[z] for z in elements}, witnesses=witnesses)
    return afn, table


def a_function(kl: KLBasis,
               progress: Optional[Callable[[int, int], None]] = None) -> AFunction:
    """Full |W|^2 scan of the h-table; only per-z data is kept in memory."""
    if not kl.system.is_finite:
        raise InfiniteGroupError("the a-function scan needs a finite system")
    return _h_scan(kl, progress)[0]


@dataclass(frozen=True)
class JRing:
    """The asymptotic ring J on the basis {t_w} of a finite system.

    ``table[(x, y)]`` maps z to the t_z-coefficient of t_x * t_y, which by
    definition is coeff(h_{x,y,z}, a(z)) = gamma_{x,y,z^{-1}}."""

    system: CoxeterSystem
    weight: WeightFunction
    elements: tuple[Element, ...]
    a: AFunction
    table: dict[tuple[Element, Element], dict[Element, int]]

    def structure_coeff(self, x: Element, y: Element, z: Element) -> int:
        """Coefficient of t_z in t_x * t_y."""
        return self.table.get((x, y), {}).get(z, 0)

    def gamma(self, x: Element, y: Element, z: Element) -> int:
        """gamma_{x,y,z} in the standard indexing: the t_{z^{-1}}-coefficient
        of t_x * t_y."""
        return self.structure_coeff(x, y, self.system.inverse(z))

    def product(self, a: dict[Element, int], b: dict[Element, int]) -> dict[Element, int]:
        out: dict[Element, int] = {}
        for x, cx in a.items():
            for y, cy in b.items():
                row = self.table.get((x, y))
                if row:
                    add_into(out, row, cx * cy)
        return out


def j_table(kl: KLBasis, afn: Optional[AFunction] = None,
            progress: Optional[Callable[[int, int], None]] = None) -> JRing:
    """Tabulate the J multiplication from the h-table leading coefficients.

    The a-function comes from the same scan; an `afn` passed in must agree
    with it."""
    system = kl.system
    if not system.is_finite:
        raise InfiniteGroupError("the J ring is only built for finite systems")
    scanned, table = _h_scan(kl, progress)
    if afn is not None and afn.values != scanned.values:
        raise ValueError("afn is not the a-function of this KL basis")
    return JRing(system=system, weight=kl.algebra.weight,
                 elements=tuple(system.enumerate_elements()),
                 a=scanned if afn is None else afn, table=table)


@dataclass(frozen=True)
class JAssociativityReport:
    """Outcome of checking (t_x t_y) t_z = t_x (t_y t_z)."""

    passed: bool
    triples_checked: int
    triples_total: int
    exhaustive: bool
    seed: Optional[int]
    counterexample: Optional[tuple[Element, Element, Element]]


def j_associativity_check(ring: JRing, *, exhaustive_limit: int = 400,
                          sample_size: int = 4096, seed: int = 0,
                          force_exhaustive: bool = False) -> JAssociativityReport:
    """Associativity check on basis triples.

    Exhaustive for |W| <= exhaustive_limit (or when forced); otherwise a
    deterministic seeded sample of sample_size triples."""
    elements = ring.elements
    n = len(elements)
    total = n ** 3
    exhaustive = force_exhaustive or n <= exhaustive_limit

    def triples():
        if exhaustive:
            for x in elements:
                for y in elements:
                    for z in elements:
                        yield x, y, z
        else:
            rng = random.Random(seed)
            for _ in range(sample_size):
                yield (elements[rng.randrange(n)], elements[rng.randrange(n)],
                       elements[rng.randrange(n)])

    checked = 0
    for x, y, z in triples():
        checked += 1
        left = ring.product(ring.table.get((x, y), {}), {z: 1})
        right = ring.product({x: 1}, ring.table.get((y, z), {}))
        if left != right:
            return JAssociativityReport(
                passed=False, triples_checked=checked, triples_total=total,
                exhaustive=exhaustive, seed=None if exhaustive else seed,
                counterexample=(x, y, z))
    return JAssociativityReport(
        passed=True, triples_checked=checked, triples_total=total,
        exhaustive=exhaustive, seed=None if exhaustive else seed,
        counterexample=None)


def j_find_unit(ring: JRing) -> Optional[dict[Element, int]]:
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
            support = set(left_rows) | set(right_rows) | {w}
            for z in support:
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
