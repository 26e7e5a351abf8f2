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
$P_{w'}$. The build then walks $[e, w]$ downward. At equal parameters it
first tests each R[z] = r with int masks, at C speed: 0 < r < 2^{B L(w)}
(no $\\mu_z$), no digit with its top bit set (every digit >= 0), every
digit at most the digit bound of the width guard below (one SWAR
add-and-mask: adding 2^{B-1} - 1 - bound to every digit sets a top bit
exactly where a digit exceeds the bound, and carries nowhere), and zero
digits at the exponents of the wrong parity. These accept exactly the r
that the decode path would accept with no $\\mu_z$, and such an r is
stored as it is. The masks serve while L(w) times the bound stays below
2^B - 1, so that the digit sum of r, its share of mass(w), is
r mod 2^B - 1. Every other R[z], and every
R[z] at unequal weights, is decoded once into signed base-$2^B$ digits:
the digits at exponents $\\ge L(w)$ give $\\mu_z$,
$\\mu_z v^{L(w)-L(z)} P_z$ is subtracted from R, and the checks below run
on the digits; what remains is $P_w$. The packed rows are the only memo
of the build: ``coords`` decodes Laurent coordinates from them on demand,
and ``coord_pairs`` the serialized pairs. The build is lazy: it makes
$c_{w'}$ and the $c_z$ with $\\mu_z \\ne 0$ only, and it is iterative, each
build a generator on an explicit stack that it suspends while a $P$ it
needs is built.

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

with every $\\mu^s_{z,w}$ bar-invariant of degree below L(s). Once per
algebra the scan computes the action rows $A_s[w]$, the c-coordinates of
$c_s c_w$, for every s and w. At a descent
$v^{L(s)} c_s P_w = (v^{2L(s)} + 1) P_w$ must hold, which is
$P_w[sy] = v^{L(s)} P_w[y]$ for every y < sy, one lookup per y, with the
support closed under y -> sy. At an ascent the row is 1 at sw
and the $\\mu_z$ of ``KLBasis._split``, the build's split above and the
one place that splits $c_s c_w$, with all its checks. When s is the
first letter of sw, the build of $c_{sw}$ made that split already, and
the row is the $\\mu_z$ it kept: |W| - 1 of the rank |W| / 2 ascent rows.
Every other ascent runs the split again on rows already built, and the
$P_{sw}$ it gives must equal the one built from the canonical tail:
$c_{sw}$ is unique, so it cannot depend on the left ascent that reaches
it. Then, for one y at a time, the scan walks x in length order with
x = s x' (x' the canonical tail):

    h_{x,y,.} = sum_u h_{x',y,u} A_s[u] - sum_{z != x} A_s[x'][z] h_{z,y,.},

starting from $h_{e,y,.} = \\{y: 1\\}$; the z of the second sum are
shorter than x', so their entries are already in the column.

The scan runs on the dense ids of ``CoxeterSystem.dense_tables`` and in
the digit width B of ``KLBasis``. Each $h_{x,y,z}$ is one int, $h v^D$ at
$v = 2^B$ with D = L(w_0), which bounds the degree of every h; each row
coefficient a is one int, $a v^{L(s)}$. A column update is then packed
multiplies, and one exact shift back by L(s) B per entry: a set bit below
it is an ``InternalCheckError``. Width guard: with the l1 norms of the
entries of the tail and of the z subtracted known exactly, the largest row
norm times their sum bounds the l1 norm of the new entries; when that
needs B bits, the scan widens B and starts again, and entries above it
raise. The entries are checked at C speed: at equal parameters, one mask
finds a negative digit or a degree above D (positivity of the
$h_{x,y,z}$, Elias-Williamson 2014), the l1 norm is the digit sum, the
value mod $2^B - 1$, and bar-invariance is one comparison per x of the
joined ``int.to_bytes`` digits against their reversal; other weights read
each entry's digits the same way. On a seeded sample of 8 pairs the entries
must satisfy $c_x c_y = \\sum_z h_{x,y,z} c_z$, with the left side built in
packed $\\tilde T$-coordinates, $\\tilde T_w = v^{L(w)} T_w$, by
``hecke.tilde_step`` along the tail tree of $[e, x]$, independently of the
action rows. ``h_constants``, the Laurent T-basis product, stays behind
``hx kl hconst`` and serves infinite W. A failure of any of these checks
raises ``InternalCheckError``.

The unit of J is $\\sum_{d \\in D} n_d t_d$ (Lusztig, ibid., ch. 18), and
``j_find_unit`` reads it off the J table. D is the set of d with $t_d$ in
$t_d t_d$ and in no product $t_x t_y$ with $x \\ne y^{-1}$, and $n_d$ is
the coefficient of $t_d$ in $t_d t_d$. Under P1-P15 (ibid., ch. 14) this
is Lusztig's D: by P2 and P6 a d in D occurs only in products
$t_{y^{-1}} t_y$, and by P13 $\\gamma_{d,d,d} \\ne 0$; a z outside D occurs
in $t_z t_d$ for a d with $z \\ne d^{-1}$, since $t_z = \\sum_d n_d t_z t_d$;
and P5 with y = d gives $\\gamma_{d,d,d} = n_d$. Then $u t_w = t_w = t_w u$
is checked for every w. A two-sided unit is unique, so a u that passes is
the unit at any weights, with no conjecture used. A u that fails raises
``InternalCheckError`` at equal parameters, where P1-P15 are theorems for
finite W (ibid., ch. 15, with positivity from Elias-Williamson 2014); at
other weights it gives None, which says that P1-P15 fail there.

``j_associativity_check`` tests $(t_x t_y) t_z = t_x (t_y t_z)$ on all
$|W|^3$ basis triples, for every finite W, and reads the triples to visit
off the J table: both sides are zero unless $t_x t_y \ne 0$, or
$t_x t_u \ne 0$ for some $t_u$ in some $t_y t_z$. It visits only those
(x, y), and for each builds both sides for every z at once, one pass
over the table rows each.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Generator, Iterator, NamedTuple, Optional, Sequence

from .coxeter import (CoxeterSystem, Element, InfiniteGroupError,
                      InternalCheckError)
from .hecke import (HeckeAlgebra, HeckeElement, Terms, WeightFunction, add_into,
                    pack, tilde_step, unpack)
from .laurent import LaurentPoly

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


# (P_su, mass(su), z -> the coefficients of mu_z at v^0, v^1, ...)
_Split = tuple[dict[Element, int], int, dict[Element, list[int]]]
# the (exponent, coefficient) pairs of a polynomial, exponents ascending
_Pairs = tuple[tuple[int, int], ...]


class _Overflow(Exception):
    """A build's digit bound outgrew the basis's digit width."""


def _masks(width: int, top: int) -> tuple[int, int, int, tuple[int, int]]:
    """The masks of ``KLBasis._build`` for a w with L(w) = top, at digit
    width B: 2^{B top}; a 1 in each digit below top; the top bit of each
    such digit; and, by the parity of l(z), all bits of the digits at the
    exponents where R[z] must be 0 at equal parameters."""
    ones = pack([1] * top, width)
    full = (1 << width) - 1
    wrong = tuple(pack([full if (k + parity) % 2 else 0 for k in range(top)],
                       width) for parity in (0, 1))
    return 1 << width * top, ones, ones << (width - 1), wrong


class KLBasis:
    """The c-basis of a Hecke algebra, with the {T} <-> {c} conversions.

    All computed coordinates are cached per element (write-once memo,
    idempotent under concurrent fills). The packed rows P_w the recursion
    builds from, with the mu_z each build subtracted, are a second memo,
    valid at the basis's own digit width and dropped when that width
    doubles.
    """

    def __init__(self, algebra: HeckeAlgebra):
        self.algebra = algebra
        self.system = algebra.system
        e = self.system.identity
        self._coords: dict[Element, Terms] = {}  # decoded from _packed on demand
        # w -> (P_w as y -> v^{L(w)} p_{y,w} at v = 2^_width, mass(w))
        self._packed: dict[Element, tuple[dict[Element, int], int]] = {
            e: ({e: 1}, 1)}
        # w -> the mu_z that the build of P_w subtracted, as _split gives them
        self._mus: dict[Element, dict[Element, list[int]]] = {}
        self._width = 32  # the digit width B, doubled on overflow
        self._pairs: dict[tuple[int, int], _Pairs] = {}  # by (P_w[y], L(w))
        self._shared: dict[_Pairs, _Pairs] = {}  # by value, kept across widths

    def coords(self, w: Element) -> Terms:
        """The map y -> p_{y,w} with c_w = sum_y p_{y,w} T_y."""
        hit = self._coords.get(w)
        if hit is None:
            row = self._packed_row(w)[0]
            top = self.algebra.weight(w)
            read = _digit_reader(self._width, top + 1)
            hit = self._coords[w] = {y: LaurentPoly(-top, read(P))
                                     for y, P in row.items()}
        return hit

    def coord_pairs(self, w: Element) -> list[tuple[Element, _Pairs]]:
        """(y, the (exponent, coefficient) pairs of p_{y,w}, exponents
        ascending) for each y of the support of c_w, in
        ``bruhat_interval_below(w)`` order: ``coords`` as ``to_pairs``
        writes it, as tuples, read off the packed row with no Laurent
        polynomial made. Equal pairs share one tuple, which the report
        writer formats once."""
        row = self._packed_row(w)[0]
        top = self.algebra.weight(w)
        read = _digit_reader(self._width, top + 1)
        memo, shared = self._pairs, self._shared
        out = []
        for y, P in reversed(row.items()):  # see _build: w, then z descending
            pairs = memo.get((P, top))
            if pairs is None:
                pairs = tuple((k - top, d) for k, d in enumerate(read(P)) if d)
                pairs = memo[P, top] = shared.setdefault(pairs, pairs)
            out.append((y, pairs))
        return out

    def _packed_row(self, w: Element) -> tuple[dict[Element, int], int]:
        """(P_w, mass(w)) at the current digit width, built if missing."""
        while True:
            hit = self._packed.get(w)
            if hit is not None:
                return hit
            stack = [self._build(w)]
            try:
                while stack:
                    need = next(stack[-1], None)
                    if need is None:
                        stack.pop()
                    else:
                        stack.append(self._build(need))
            except _Overflow:
                self._widen()

    def _widen(self) -> None:
        """Double the digit width and drop what was packed at the old one."""
        self._width *= 2
        e = self.system.identity
        self._packed = {e: ({e: 1}, 1)}
        self._mus = {}
        self._pairs = {}

    def _step(self, s: int, row: dict[Element, int]) -> dict[Element, int]:
        """v^{L(s)} c_s times the packed element row, term by term:
        v^{L(s)} T_{sy} + (v^{2L(s)} if sy < y else 1) T_y."""
        up = self._width * self.algebra.weight.values[s]
        out: dict[Element, int] = {}
        stay: dict[Element, int] = {}
        for (y, p), (sy, sign) in zip(row.items(),
                                      self.system._left_mul_row(s, row)):
            out[sy] = p << up
            stay[y] = p << 2 * up if sign < 0 else p
        return add_into(out, stay)

    def _build(self, w: Element) -> Iterator[Element]:
        """Build P_w as the split of c_s c_{w'}, s the first letter of w,
        and keep the mu_z it subtracted. A generator, as ``_split``."""
        s = w.word[0]
        row, mass, mus = yield from self._split(
            s, self.system.left_mul_gen(s, w)[0])
        self._packed[w] = (row, mass)
        self._mus[w] = mus

    def _split(self, s: int, u: Element) -> Generator[Element, None, _Split]:
        """Split v^{L(su)} c_s c_u, su > u, by the recursion in the module
        docstring into (P_su, mass(su), mus), where mus maps each z with
        mu_z != 0 to the coefficients of mu_z at v^0, v^1, ...; mu_z is
        bar-invariant, so they and their mirror image make all of it.

        A generator: it yields each z whose packed row it needs and the
        memo lacks, and resumes once the caller has built it."""
        system, packed, width = self.system, self._packed, self._width
        weight = self.algebra.weight
        w = system.left_mul_gen(s, u)[0]
        if u not in packed:
            yield u
        row, mass = packed[u]
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
        cap, ones, high, wrong = _masks(width, top)
        modulus = (1 << width) - 1
        # the masks check digits <= bound; the digit sum is r mod 2^B - 1
        # while it stays below 2^B - 1
        fast = equal and top * bound < modulus
        lift = (limit - 1 - bound) * ones
        below_u: Optional[set[Element]] = None
        # w, then the z below it in descending (length, ShortLex) order, so
        # that reversed it is in bruhat_interval_below(w) order
        out = {w: 1 << width * top}
        new_mass = 1
        mus: dict[Element, list[int]] = {}
        for z in reversed(system.bruhat_interval_below(w)[:-1]):
            r = acc.pop(z, 0)
            if (fast and 0 < r < cap and not r & high and not (r + lift) & high
                    and not r & wrong[z.length & 1]):
                out[z] = r  # digits in [0, bound], of the parity of l(z)
                new_mass += r % modulus
                continue
            # digits[k] is the coefficient of v^(low + k) in R[z]; the zero
            # digits below the lowest set bit are skipped, not decoded
            low = ((r & -r).bit_length() - 1) // width if r else 0
            digits = unpack(r >> width * low, width, bound)
            n_mu = low + len(digits) - top
            if n_mu > 0:  # c_s c_u holds mu_z c_z, mu_z of degree n_mu - 1
                if below_u is None:
                    below_u = set(system.bruhat_interval_below(u))
                if (n_mu > L or z == u or z not in below_u
                        or system.left_mul_gen(s, z)[1] > 0):
                    raise _thm66(s, u, f"mu of degree {n_mu - 1} at z={z!r}")
                # restore the skipped digits: the mirror image of mu_z may
                # reach below them
                digits[:0] = [0] * low
                low = 0
                mu = mus[z] = digits[top:]
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
                fast = equal and top * bound < modulus
                lift = (limit - 1 - bound) * ones
                r = pack(digits, width)
            if equal and (not any(digits) or min(digits) < 0
                          or any(digits[(z.length + 1 - low) % 2::2])):
                raise InternalCheckError(
                    f"p_(y,w) = {LaurentPoly(low - top, digits)} at y={z!r}, "
                    f"w={w!r} breaks Kazhdan-Lusztig positivity")
            if r:
                out[z] = r
                new_mass += sum(map(abs, digits))
        if any(acc.values()):
            raise InternalCheckError(
                f"c_w has support outside [e, w] at w={w!r}")
        return out, new_mass, mus

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


class AFunction(NamedTuple):
    """a(z) = max degree of h_{x,y,z} over all pairs, plus attaining pairs."""

    values: dict[Element, int]
    witnesses: dict[Element, tuple[Element, Element]]

    def __getitem__(self, z: Element) -> int:
        return self.values[z]


def _thm66(s: int, w: Element, what: str) -> InternalCheckError:
    return InternalCheckError(
        f"c_s c_w at s={s}, w={w!r} is not of the shape of Lusztig's Thm 6.6: "
        f"{what}")


def _packed_action_rows(kl: KLBasis) -> tuple[list[list[dict[int, int]]], list[int]]:
    """rows[s][u] maps z to the coefficient of c_z in c_s c_u times v^{L(s)},
    at v = 2^B, for every generator s and every u of a finite W (dense ids);
    also, per s, the largest l1 norm of a row, its coefficients summed.

    At a descent the row is v^{L(s)} + v^{-L(s)} at u, checked on P_u by
    lookup: T_s c_u = v^{L(s)} c_u iff P_u[sy] = P_u[y] v^{L(s)} for every
    y < sy, and the support is closed under y -> sy. At an ascent it is 1
    at su and the mu_z of the split of c_s c_u: the build's own when s is
    the first letter of su, and otherwise those of ``KLBasis._split`` run
    again, whose P_su must be the one built."""
    dense = kl.system.dense_tables()
    elements, index, first = dense.elements, dense.index, dense.first
    while True:  # every P_u at one width
        width = kl._width
        for u in elements:
            kl._packed_row(u)
        if kl._width == width:
            break
    packed, built = kl._packed, kl._mus
    lmul = kl.system.left_mul_gen
    rows, norms = [], []
    for s, L in enumerate(kl.algebra.weight.values):
        up = width * L
        twice = (1 << 2 * up) + 1  # (v^L + v^-L) v^L
        left = dense.left[s]
        row: list[dict[int, int]] = []
        norm = 2
        for k, u in enumerate(elements):
            j = left[k]
            if j < 0:  # c_s c_u = (v^L + v^-L) c_u
                P = packed[u][0]
                if any(sy not in P if sign < 0 else P.get(sy) != p << up
                       for p, (sy, sign) in zip(P.values(),
                                                map(lmul, repeat(s), P))):
                    raise _thm66(s, u, "not (v^L + v^-L) c_w at a descent")
                row.append({k: twice})
                continue
            su = elements[j]
            if first[j] == s:
                mus = built[su]
            else:
                split = kl._split(s, u)
                try:
                    need = next(split)
                except StopIteration as done:
                    P, _, mus = done.value
                else:
                    raise InternalCheckError(
                        f"the split of c_s c_u at s={s}, u={u!r} needs c_z at "
                        f"z={need!r}, which is not built")
                if P != packed[su][0]:
                    raise InternalCheckError(
                        f"c_s c_u at s={s}, u={u!r} does not reproduce P_su at "
                        f"su={su!r}: c_su is not unique")
            entry = {j: 1 << up}
            size = 1  # the l1 norm of the row
            for z, mu in mus.items():
                # mu_z v^{L(s)}, mu_z of degree len(mu) - 1
                entry[index[z]] = pack(mu[:0:-1] + mu, width) << width * (
                    L - len(mu) + 1)
                size += 2 * sum(map(abs, mu)) - abs(mu[0])
            row.append(entry)
            norm = max(norm, size)
        rows.append(row)
        norms.append(norm)
    return rows, norms


def _typecode(width: int) -> Optional[str]:
    """The ``array`` typecode of signed width-bit ints, if there is one."""
    from array import array  # here: no other command needs it

    return next((c for c in "bhiq" if array(c).itemsize * 8 == width), None)


def _digit_reader(width: int, count: int) -> Callable[[int], Sequence[int]]:
    """A map from an int to its signed base-2^width digits, each in
    [-2^(width - 1), 2^(width - 1)), at positions 0 to count - 1.

    An int with a digit beyond those positions raises OverflowError. With
    an array typecode for the width this runs at C speed: adding 2^(width-1)
    to every digit makes them all >= 0 with no carry, and flipping each
    digit's top bit then leaves the digit in two's complement, which
    ``int.to_bytes`` writes; other widths are read digit by digit."""
    half = 1 << (width - 1)
    high = pack([half] * count, width)
    code = _typecode(width)
    if code is not None:
        from array import array

        size = width // 8 * count

        def read(h: int) -> Sequence[int]:
            return array(code, ((h + high) ^ high).to_bytes(size, "little"))
        return read
    mask = (1 << width) - 1

    def read_slowly(h: int) -> Sequence[int]:
        h += high
        if h < 0 or h >> width * count:
            raise OverflowError
        return [(h >> width * k & mask) - half for k in range(count)]
    return read_slowly


def _palindrome_test(width: int) -> Callable[[list[bytes]], bool]:
    """A test of whether each block, little-endian base-2^width digits,
    reads the same reversed digit by digit. With an array typecode for the
    width it runs at C speed over all blocks at once: the digits of the
    joined blocks, reversed, are the reversed blocks joined, each reversed."""
    code = _typecode(width)
    if code is not None:
        from array import array

        def mirrored(blocks: list[bytes]) -> bool:
            digits = array(code, b"".join(blocks))
            digits.reverse()
            return digits.tobytes() == b"".join(reversed(blocks))
        return mirrored
    step = width // 8

    def mirrored_slowly(blocks: list[bytes]) -> bool:
        return all(d == d[::-1] for d in (
            [block[k:k + step] for k in range(0, len(block), step)]
            for block in blocks))
    return mirrored_slowly


def _packed_columns(kl: KLBasis, rows: list[list[dict[int, int]]],
                    norms: list[int]) -> Iterator[tuple[int, list[dict[int, int]]]]:
    """(y, column) for each y of a finite W in dense-id order, where
    column[x] maps z to h_{x,y,z} v^D at v = 2^B, with D = L(w0).

    One column at a time, by the recursion on x = s x' in the module
    docstring. Each new entry is shifted back by L(s) B exactly, and must
    be bar-invariant, of degree at most D, positive at equal parameters,
    and within the digit bound. The bound on the l1 norm of the entries of
    one x comes from the l1 norms of the entries they are built from; when
    it stops fitting the width, _Overflow."""
    dense = kl.system.dense_tables()
    elements, first, tail = dense.elements, dense.first, dense.tail
    weight = kl.algebra.weight
    equal = weight.is_equal_parameters
    width = kl._width
    if width % 8:
        raise _Overflow  # the checks read whole bytes
    offset = weight(kl.system.longest_element())
    count = 2 * offset + 1
    size = width // 8 * count
    read = _digit_reader(width, count)
    mirrored = _palindrome_test(width)
    half = 1 << (width - 1)
    # set in a nonnegative h iff a digit is >= 2^(B-1) or beyond position 2D
    outside = pack([half] * count, width) | -1 << width * count
    # at equal parameters the l1 norm is the digit sum, the value mod 2^B - 1
    modulus = (1 << width) - 1

    def fault(x: int, y: int, z: int, what: str) -> InternalCheckError:
        return InternalCheckError(
            f"h_(x,y,z) at x={elements[x]!r}, y={elements[y]!r}, "
            f"z={elements[z]!r} {what}")

    for y in range(len(elements)):
        column = [{y: 1 << width * offset}]
        masses = [1]  # the l1 norm of the entries of each x
        for x in range(1, len(elements)):
            s, t = first[x], tail[x]
            act = rows[s]
            acc: dict[int, int] = {}
            get = acc.get
            for u, h in column[t].items():
                for z, a in act[u].items():
                    acc[z] = get(z, 0) + h * a
            bound = masses[t]
            for z, a in act[t].items():
                if z != x:
                    bound += masses[z]
                    for w, h in column[z].items():
                        acc[w] = get(w, 0) - a * h
            bound *= norms[s]  # on the l1 norm of the new entries
            if bound >= half:
                raise _Overflow
            shift = width * weight.values[s]
            low = (1 << shift) - 1
            entry: dict[int, int] = {}
            for z, r in acc.items():
                if r:
                    if r & low:
                        raise fault(x, y, z, f"times v^{offset} is not a "
                                    f"polynomial: inexact shift")
                    entry[z] = r >> shift
            mass = 0
            for z, h in entry.items():
                if equal and not h & outside:
                    continue
                try:
                    digits = read(h)
                except OverflowError:
                    raise fault(x, y, z, f"has degree above L(w0) = "
                                f"{offset}") from None
                if equal:
                    raise fault(x, y, z, "has a negative coefficient: "
                                "positivity fails")
                if digits != digits[::-1]:
                    raise fault(x, y, z, "is not bar-invariant")
                mass += sum(map(abs, digits))
            if equal:
                mass = sum(entry.values()) % modulus
            if mass > bound:
                raise InternalCheckError(
                    f"the l1 norm {mass} of c_x c_y at x={elements[x]!r}, "
                    f"y={elements[y]!r} exceeds its proven bound {bound}: "
                    f"digit width {width} overflowed")
            if equal and not mirrored([h.to_bytes(size, "little")
                                       for h in entry.values()]):
                z = next(z for z, h in entry.items()
                         if not mirrored([h.to_bytes(size, "little")]))
                raise fault(x, y, z, "is not bar-invariant")
            column.append(entry)
            masses.append(mass)
        yield y, column


def _check_pair(kl: KLBasis, x: int, y: int, hs: dict[int, int]) -> None:
    """c_x c_y = sum_z h_{x,y,z} c_z, in packed T-coordinates (dense ids).

    Left: v^{L(x)+L(y)} c_x c_y in T~-coordinates, T~_w = v^{L(w)} T_w:
    v^{L(y)} c_y = sum_u (P_y[u] / v^{L(u)}) T~_u, and T~_w times it is one
    ``tilde_step`` from its canonical tail's, walked depth first over the
    tail tree of [e, x] and weighted by P_x[w] / v^{L(w)}; each T~_u
    coefficient times v^{L(u)+D} then gives T-coordinates times v^D.
    Right: sum_z h_{x,y,z} v^D P_z v^{L(x)+L(y)-L(z)}. Both sides are exact
    values at v = 2^B, so equal ints are equal polynomials while every
    coefficient of either side stays below 2^(B-1). The c_z are a basis,
    so this is the identity that defines the h_{x,y,z}, and it does not
    use the action rows."""
    system, width = kl.system, kl._width
    dense = system.dense_tables()
    elements, index, first, tail = dense.elements, dense.index, dense.first, dense.tail
    weight = kl.algebra.weight
    packed = kl._packed
    ex, ey = elements[x], elements[y]
    offset = weight(system.longest_element())
    below: dict[int, list[int]] = {}
    for w in system.bruhat_interval_below(ex)[1:]:
        below.setdefault(tail[index[w]], []).append(index[w])

    def untilde(p: int, w: Element, name: str, row: Element) -> int:
        """p / v^{L(w)}, with p the entry of P_row at w; it must be exact."""
        shift = width * weight(w)
        if p & ((1 << shift) - 1):
            raise InternalCheckError(
                f"v^L(w) does not divide P_{name}[w] at {name}={row!r}, w={w!r}: "
                f"inexact shift")
        return p >> shift

    px = packed[ex][0]
    lhs: dict[int, int] = {}
    # (w, T~_w' v^{L(y)} c_y for the tail w' of w): each product is made
    # when popped, so only those on the path to the root stay alive
    stack = [(0, {index[u]: untilde(p, u, "y", ey) for u, p in packed[ey][0].items()})]
    while stack:
        w, terms = stack.pop()
        if w:
            s = first[w]
            terms = tilde_step(dense.left[s], terms, 2 * width * weight.values[s])
        ew = elements[w]
        p = px.get(ew)
        if p:
            p = untilde(p, ew, "x", ex)
            for u, q in terms.items():
                lhs[u] = lhs.get(u, 0) + p * q
        for c in below.get(w, ()):
            stack.append((c, terms))
    rhs: dict[int, int] = {}
    for z, h in hs.items():
        ez = elements[z]
        shift = weight(ex) + weight(ey) - weight(ez)
        if shift < 0:
            raise InternalCheckError(
                f"c_{ez!r} is longer than c_x c_y allows at x={ex!r}, y={ey!r}")
        h <<= width * shift
        for u, q in packed[ez][0].items():
            k = index[u]
            rhs[k] = rhs.get(k, 0) + h * q
    if ({u: q << width * (offset + weight(elements[u])) for u, q in lhs.items() if q}
            != {u: q for u, q in rhs.items() if q}):
        raise InternalCheckError(
            f"the h-scan disagrees with h_constants at x={ex!r}, y={ey!r}: "
            f"c_x c_y is not sum_z h_(x,y,z) c_z in the T-basis")


# pairs per scan whose column entries are checked against the T-basis product
CROSS_CHECK_PAIRS = 8


def _h_scan(kl: KLBasis, progress: Optional[Callable[[int, int], None]]
            ) -> tuple[AFunction, dict[tuple[Element, Element], dict[Element, int]]]:
    """One |W|^2 pass over the h-table, streamed one column c_* c_y at a time.

    For each z it keeps the largest degree of h_{x,y,z}, and the leading
    coefficients of every pair that attains it; those coefficients are
    the J table, and the witness is the first such pair in x-major
    order. h_{e,z,z} = 1 puts every z in the table with a(z) >= 0. On a
    seeded sample of CROSS_CHECK_PAIRS pairs the column entries must
    satisfy the T-basis identity of ``_check_pair``. When a digit bound
    outgrows the width, the scan widens it and starts again."""
    while True:
        try:
            return _scan_once(kl, progress)
        except _Overflow:
            kl._widen()


def _scan_once(kl: KLBasis, progress: Optional[Callable[[int, int], None]]
               ) -> tuple[AFunction, dict[tuple[Element, Element], dict[Element, int]]]:
    elements = kl.system.dense_tables().elements
    n = len(elements)
    rows, norms = _packed_action_rows(kl)
    width = kl._width
    offset = kl.algebra.weight(kl.system.longest_element())
    # pair (x, y) is number x * n + y
    sample: dict[int, list[int]] = {}
    for pair in sorted(random.Random(0).sample(range(n * n),
                                               min(CROSS_CHECK_PAIRS, n * n))):
        sample.setdefault(pair % n, []).append(pair // n)
    top = [0] * n  # the top digit of the entries of h_{.,.,z} at v = 2^B
    # an int h, digits below 2^(B-1), has its top digit at k or above iff
    # |h| > 2^(Bk-1); floor[z] is that bound for k = top[z]
    floor = [0] * n
    # z -> [(x, y, leading coefficient)] for the pairs at a(z)
    leading: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for y, column in _packed_columns(kl, rows, norms):
        for x, hs in enumerate(column):
            for z, h in hs.items():
                if abs(h) > floor[z]:
                    k = abs(h).bit_length() // width
                    if k > top[z]:
                        top[z] = k
                        floor[z] = 1 << width * k >> 1
                        leading[z] = []
                    shift = width * k
                    leading[z].append(
                        (x, y, (h + (1 << shift >> 1)) >> shift))
        for x in sample.get(y, ()):
            _check_pair(kl, x, y, column[x])
        if progress is not None:
            progress((y + 1) * n, n * n)
    witnesses = {}
    for z, entries in enumerate(leading):
        x, y, _ = min(entries)
        witnesses[elements[z]] = (elements[x], elements[y])
    # rows in x-major pair order, each z-map in descending z, as h_constants
    # lists it
    table: dict[tuple[Element, Element], dict[Element, int]] = {}
    for x, y, minus_z, g in sorted((x, y, -z, g) for z, entries in enumerate(leading)
                                   for x, y, g in entries):
        table.setdefault((elements[x], elements[y]), {})[elements[-minus_z]] = g
    afn = AFunction(values={elements[z]: top[z] - offset for z in range(n)},
                    witnesses=witnesses)
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


def j_table(kl: KLBasis, *,
            progress: Optional[Callable[[int, int], None]] = None) -> JRing:
    """Tabulate the J multiplication from the h-table leading coefficients;
    the a-function comes from the same scan."""
    system = kl.system
    if not system.is_finite:
        raise InfiniteGroupError("the J ring is only built for finite systems")
    afn, table = _h_scan(kl, progress)
    return JRing(system=system, weight=kl.algebra.weight,
                 elements=tuple(system.enumerate_elements()), a=afn, table=table)


class JAssociativityReport(NamedTuple):
    """Outcome of checking (t_x t_y) t_z = t_x (t_y t_z)."""

    passed: bool
    triples_checked: int
    triples_total: int
    counterexample: Optional[tuple[Element, Element, Element]]


def j_associativity_check(ring: JRing) -> JAssociativityReport:
    """Check (t_x t_y) t_z = t_x (t_y t_z) on all |W|^3 basis triples.

    Both sides are zero unless t_x t_y != 0, or t_x t_u != 0 for some t_u
    in some t_y t_z, so only those (x, y) are visited, in dense-id order.
    For each, both sides are built for every z at once, one pass over the
    table rows each. Every triple counts as checked; a counterexample is
    the first in (x, y, z) order, with its place in that order as
    triples_checked."""
    elements = ring.elements
    n = len(elements)
    index = {w: k for k, w in enumerate(elements)}
    table = ring.table
    rows: dict[Element, dict[Element, dict[Element, int]]] = {}  # x -> u -> t_x t_u
    lefts: dict[Element, list[Element]] = {}  # u -> the x with (x, u) in table
    for (x, u), row in table.items():
        rows.setdefault(x, {})[u] = row
        lefts.setdefault(u, []).append(x)
    pairs = set(table)
    for (y, _), row in table.items():
        for u in row:
            pairs.update((x, y) for x in lefts.get(u, ()))
    checked, counterexample = n ** 3, None
    for x, y in sorted(pairs, key=lambda p: (index[p[0]], index[p[1]])):
        # c = 1, the common coefficient, adds the row with no scaled copy
        lhs: dict[Element, dict[Element, int]] = {}  # z -> (t_x t_y) t_z
        for w, c in table.get((x, y), {}).items():
            for z, row in rows.get(w, {}).items():
                add_into(lhs.setdefault(z, {}), row, None if c == 1 else c)
        rhs: dict[Element, dict[Element, int]] = {}  # z -> t_x (t_y t_z)
        xrows = rows.get(x, {})
        for z, row in rows.get(y, {}).items():
            for u, c in row.items():
                if u in xrows:
                    add_into(rhs.setdefault(z, {}), xrows[u], None if c == 1 else c)
        if lhs != rhs:  # a side that cancelled to {} is zero, as a missing one
            diff = [index[z] for z in lhs.keys() | rhs.keys()
                    if lhs.get(z, {}) != rhs.get(z, {})]
            if diff:
                k = min(diff)
                checked = (index[x] * n + index[y]) * n + k + 1
                counterexample = (x, y, elements[k])
                break
    return JAssociativityReport(
        passed=counterexample is None, triples_checked=checked,
        triples_total=n ** 3, counterexample=counterexample)


def j_find_unit(ring: JRing) -> Optional[dict[Element, int]]:
    """The two-sided unit u = sum_{d in D} n_d t_d of J, as a coefficient
    map, read off ``ring.table`` in one pass (module docstring).

    u * t_w = t_w = t_w * u is checked for every w, so a returned u is the
    unit exactly. A u that fails raises ``InternalCheckError`` at equal
    parameters, and gives None at other weights: there P1-P15 fail."""
    dense = ring.system.dense_tables()
    inverse = {w: dense.elements[k] for w, k in zip(dense.elements, dense.inverse)}
    off: set[Element] = set()  # the z in some t_x t_y with x != y^{-1}
    for (x, y), row in ring.table.items():
        if x is not inverse[y]:
            off.update(row)
    unit = {d: n for d in ring.elements
            if (n := ring.structure_coeff(d, d, d)) and d not in off}
    for w in ring.elements:
        if (ring.product(unit, {w: 1}) != {w: 1}
                or ring.product({w: 1}, unit) != {w: 1}):
            if ring.weight.is_equal_parameters:
                raise InternalCheckError(
                    f"the sum of n_d t_d over D is not a unit of J at w={w!r}")
            return None
    return unit
