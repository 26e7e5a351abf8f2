"""
Kazhdan-Lusztig basis, c-basis structure constants, the a-function, and
the asymptotic ring J, for general weight functions.

The basis element $c_w$ is the unique bar-invariant element of
$H_{\\le 0}$ with $c_w - T_w \\in v^{-1} H_{\\le 0}$. It is built by the
recursion of Lusztig, *Hecke algebras with unequal parameters*
(arXiv:math/0208154, Thm 6.6), which holds verbatim for unequal weights:
with $s$ the first letter of the canonical word of w and $w' = s w$ its
tail,

    c_w = c_s c_{w'} - sum_{z < w', sz < z} mu^s_{z,w'} c_z,

where every $\\mu^s_{z,w'}$ is bar-invariant of degree below $L(s)$ (du
Cloux's Coxeter3 rests on the same recursion). The coefficient of $T_z$ in
$c_s c_{w'}$ minus the terms already subtracted is $p_{z,w} + \\mu_z$, and
$p_{z,w}$ has only negative powers of v, so $\\mu_z$ is the mirror image of
its part at exponents $\\ge 0$.

The build runs in packed integers: $P_w[y] = v^{L(w)} p_{y,w}$, a
polynomial in v, is evaluated at $v = 2^B$ (Kronecker substitution), one
Python int per y. The generator step

    v^{L(s)} (T_s + v^{-L(s)}) T_y = v^{L(s)} T_{sy} + (v^{2L(s)} if sy < y else 1) T_y

is shifts and adds only, and gives $R = v^{L(w)} c_s c_{w'}$ from
$P_{w'}$. The build then walks $[e, w]$ downward and decodes each R[z]
once into signed base-$2^B$ digits: the digits at exponents $\\ge L(w)$
give $\\mu_z$, and $\\mu_z v^{L(w)-L(z)} P_z$ is subtracted from R; what
remains is $P_w$. The build is lazy: it makes $c_{w'}$ and the $c_z$ with
$\\mu_z \\ne 0$ only, and it is iterative, each build a generator on an
explicit stack that it suspends while a $P$ it needs is built.

Width guard: with $mass(u) = \\sum_y \\|p_{y,u}\\|_1$, every digit of R lies
within $2\\,mass(w') + \\sum_z \\|\\mu_z\\|_1 mass(z)$ over the $\\mu_z$
subtracted so far. When that bound needs more than B - 1 bits, ``KLBasis``
doubles its B, drops its packed memo and starts the build again. Hard
checks, each an ``InternalCheckError``: a digit outside the bound; a
$T_w$ coefficient of R other than $v^{L(w)}$; a $\\mu_z \\ne 0$ with z
outside $[e, w'] \\setminus \\{w'\\}$, with $sz > z$ or of degree $\\ge L(s)$;
support outside $[e, w]$; and, at equal parameters, support other than
all of $[e, w]$, a negative coefficient, or an exponent without the
parity of $\\ell(w) - \\ell(y)$ (Kazhdan-Lusztig positivity; Elias-Williamson
2014).

From $c_x c_y = \\sum_z h_{x,y,z} c_z$ one gets $a(z)$ as the largest
degree of $h_{x,y,z}$ over all pairs, and the leading coefficients
$\\gamma$ at $v^{a(z)}$ become the structure constants of the ring J on
the basis $\\{t_w\\}$ (finite systems only: for infinite W the needed
uniform degree bound is an open problem).

The h-scan multiplies in the c-basis, through the left action of
$c_s = T_s + v^{-L(s)}$ that the same theorem gives: for every w,

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
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional

from .coxeter import (CoxeterSystem, Element, InfiniteGroupError,
                      InternalCheckError)
from .hecke import (HeckeAlgebra, HeckeElement, Terms, WeightFunction, add_into,
                    pack, unpack)
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


class _Overflow(Exception):
    """A build's digit bound outgrew the basis's digit width."""


class KLBasis:
    """The c-basis of a Hecke algebra, with the {T} <-> {c} conversions.

    All computed coordinates are cached per element (write-once memo,
    idempotent under concurrent fills). The packed rows P_w the recursion
    builds from are a second memo, valid at the basis's own digit width
    and dropped when that width doubles.
    """

    def __init__(self, algebra: HeckeAlgebra):
        self.algebra = algebra
        self.system = algebra.system
        e = self.system.identity
        self._coords: dict[Element, Terms] = {e: {e: ONE}}
        # w -> (P_w as y -> v^{L(w)} p_{y,w} at v = 2^_width, mass(w))
        self._packed: dict[Element, tuple[dict[Element, int], int]] = {
            e: ({e: 1}, 1)}
        self._width = 32  # the digit width B, doubled on overflow

    def coords(self, w: Element) -> Terms:
        """The map y -> p_{y,w} with c_w = sum_y p_{y,w} T_y."""
        hit = self._coords.get(w)
        if hit is not None:
            return hit
        while True:
            stack = [self._build(w)]
            try:
                while stack:
                    need = next(stack[-1], None)
                    if need is None:
                        stack.pop()
                    else:
                        stack.append(self._build(need))
            except _Overflow:
                self._width *= 2
                e = self.system.identity
                self._packed = {e: ({e: 1}, 1)}
                continue
            return self._coords[w]

    def _step(self, s: int, row: dict[Element, int]) -> dict[Element, int]:
        """v^{L(s)} c_s times the packed element row, term by term:
        v^{L(s)} T_{sy} + (v^{2L(s)} if sy < y else 1) T_y."""
        up = self._width * self.algebra.weight.values[s]
        out: dict[Element, int] = {}
        stay: dict[Element, int] = {}
        for (y, p), (sy, sign) in zip(
                row.items(), map(self.system.left_mul_gen, repeat(s), row)):
            out[sy] = p << up
            stay[y] = p << 2 * up if sign < 0 else p
        return add_into(out, stay)

    def _build(self, w: Element) -> Iterator[Element]:
        """Build P_w and c_w by the recursion in the module docstring.

        A generator: it yields each u whose packed row it needs and the
        memo lacks, and resumes once the caller has built it."""
        system, packed, width = self.system, self._packed, self._width
        weight = self.algebra.weight
        s = w.word[0]
        tail = system.left_mul_gen(s, w)[0]
        if tail not in packed:
            yield tail
        row, mass = packed[tail]
        L, top = weight.values[s], weight(w)
        acc = self._step(s, row)
        if acc.pop(w, 0) != 1 << width * top:
            raise InternalCheckError(
                f"the T_w coefficient of c_s c_w' is not 1 at w={w!r}")
        limit = 1 << (width - 1)
        bound = 2 * mass  # on every digit of acc, raised by each mu subtracted
        if bound >= limit:
            raise _Overflow
        equal = weight.is_equal_parameters
        below_tail: Optional[set[Element]] = None
        p: Terms = {w: ONE}
        out = {w: 1 << width * top}
        new_mass = 1
        for z in reversed(system.bruhat_interval_below(w)[:-1]):
            r = acc.pop(z, 0)
            # digits[k] is the coefficient of v^(low + k) in R[z]; the zero
            # digits below the lowest set bit are skipped, not decoded
            low = ((r & -r).bit_length() - 1) // width if r else 0
            digits = unpack(r >> width * low, width, bound)
            n_mu = low + len(digits) - top
            if n_mu > 0:  # c_s c_w' holds mu_z c_z, mu_z of degree n_mu - 1
                if below_tail is None:
                    below_tail = set(system.bruhat_interval_below(tail))
                if (n_mu > L or z == tail or z not in below_tail
                        or system.left_mul_gen(s, z)[1] > 0):
                    raise InternalCheckError(
                        f"mu of degree {n_mu - 1} at z={z!r} in c_s c_w' for "
                        f"w={w!r} is off the shape of Lusztig's Thm 6.6")
                # restore the skipped digits: the mirror image of mu_z may
                # reach below them
                digits[:0] = [0] * low
                low = 0
                mu = digits[top:]
                del digits[top:]
                for k in range(1, n_mu):
                    digits[top - k] -= mu[k]
                if z not in packed:
                    yield z
                zrow, zmass = packed[z]
                # mu_z v^{L(w)-L(z)}, a polynomial in v
                m = pack(mu[:0:-1] + mu, width) << width * (
                    top - weight(z) - n_mu + 1)
                for y, q in zrow.items():
                    if y is not z:
                        acc[y] = acc.get(y, 0) - m * q
                bound += (2 * sum(map(abs, mu)) - abs(mu[0])) * zmass
                if bound >= limit:
                    raise _Overflow
            if equal and (not any(digits) or min(digits) < 0
                          or any(digits[(z.length + 1 - low) % 2::2])):
                raise InternalCheckError(
                    f"p_(y,w) = {LaurentPoly(low - top, digits)} at y={z!r}, "
                    f"w={w!r} breaks Kazhdan-Lusztig positivity")
            if any(digits):
                p[z] = LaurentPoly(low - top, digits)
                out[z] = pack(digits, width) << width * low
                new_mass += sum(map(abs, digits))
        if any(acc.values()):
            raise InternalCheckError(
                f"c_w has support outside [e, w] at w={w!r}")
        packed[w] = (out, new_mass)
        self._coords.setdefault(w, p)

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


class AFunction(NamedTuple):
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


class JRing(NamedTuple):
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


class JAssociativityReport(NamedTuple):
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
