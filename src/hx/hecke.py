"""
The Iwahori-Hecke algebra $H$ of a Coxeter system with a weight function.

$H$ is the free $Z[v,v^{-1}]$-module on $\\{T_w\\}$ with
$(T_{s} + v^{-L(s)})(T_{s} - v^{L(s)}) = 0$ and $T_w T_{w'} = T_{ww'}$
whenever lengths add. Products are computed by peeling generators off
the canonical word of the left factor, so no group-sized multiplication
table is ever needed and everything works over infinite systems too
(supports stay finite).

Weight functions assign a positive integer to each generator, equal
across odd bonds (additivity along the braid word forces this). The
equal-parameter case is ``WeightFunction.equal_parameters(system)``.

An element is a dict from group elements to coefficients that never holds
a zero value, so equal elements are equal dicts and ``not terms`` tests
for zero. Every sum here and in ``klbasis`` goes through ``add_into``,
which keeps that invariant.

The bar involution is computed along the canonical word: bar is a ring
map, so $bar(T_w) = bar(T_{s_1}) \\cdots bar(T_{s_k})$ with
$bar(T_s) = T_s - (v^{L(s)} - v^{-L(s)})$, one pass over the terms per
letter. It serves ``bar`` only: the KL basis in ``klbasis`` is built
without it, and ``bar`` is the independent test that each $c_w$ is
bar-invariant. ``pack`` and ``unpack`` are the Kronecker substitution
(a polynomial in v evaluated at $v = 2^B$, one Python int) that the
packed kernels of ``klbasis`` and ``positivity`` run in, and
``tilde_step`` is their one generator step on dense packed rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Union

from .coxeter import (CoxeterSystem, Element, GatingError, InfiniteGroupError,
                      InternalCheckError)
from .laurent import LaurentPoly, ONE, ZERO

__all__ = [
    "WeightFunction",
    "UnequalParametersError",
    "WEIGHT_CATALOG",
    "weight_catalog",
    "HeckeElement",
    "HeckeAlgebra",
    "FBoundProbe",
]


class UnequalParametersError(GatingError):
    """Raised where the underlying statement assumes L = |.|."""


class WeightFunction:
    """A weight function L, determined by its values on the generators."""

    __slots__ = ("system", "values")

    def __init__(self, system: CoxeterSystem, values: Iterable[int]):
        vals = tuple(int(x) for x in values)
        if len(vals) != system.rank:
            raise ValueError(
                f"need {system.rank} weight values, got {len(vals)}")
        for i, x in enumerate(vals):
            if x < 1:
                raise ValueError(f"weight L(s{i}) = {x} must be positive")
        for i in range(system.rank):
            for j in range(i + 1, system.rank):
                m = system.matrix[i][j]
                if m is not None and m % 2 == 1 and vals[i] != vals[j]:
                    raise ValueError(
                        f"odd bond m({i},{j}) = {m} forces L(s{i}) = L(s{j}); "
                        f"got {vals[i]} != {vals[j]}")
        self.system = system
        self.values = vals

    @classmethod
    def equal_parameters(cls, system: CoxeterSystem) -> "WeightFunction":
        return cls(system, (1,) * system.rank)

    @property
    def is_equal_parameters(self) -> bool:
        return all(x == 1 for x in self.values)

    def __call__(self, w: Element) -> int:
        """L(w), the sum of the generator weights along a reduced word."""
        return sum(self.values[i] for i in w.word)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightFunction)
                and self.system is other.system and self.values == other.values)

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"WeightFunction{self.values}"


# Admissible weight tuples, carried only for the affine types whose full
# tables are known; other types have no catalog here.
WEIGHT_CATALOG: dict[str, tuple[tuple[int, ...], ...]] = {
    "~F4": ((1, 1, 1, 1, 1), (1, 1, 1, 2, 2), (2, 2, 2, 1, 1), (1, 1, 1, 4, 4)),
    "~G2": ((1, 1, 1), (1, 1, 3), (3, 3, 1), (1, 1, 9)),
}


def weight_catalog(label: str) -> tuple[tuple[int, ...], ...]:
    try:
        return WEIGHT_CATALOG[label.strip()]
    except KeyError:
        raise ValueError(
            f"no weight catalog for type {label!r} (available: "
            f"{', '.join(sorted(WEIGHT_CATALOG))})") from None


Terms = dict[Element, LaurentPoly]


def add_into(acc: dict, terms: dict, c=None) -> dict:
    """acc += c * terms in place (c = 1 when None), and return acc.

    A key whose sum is zero is dropped, so acc never holds a zero value.
    Coefficients and c may be ints or LaurentPolys."""
    items = terms.items() if c is None else [(k, c * p) for k, p in terms.items()]
    for k, p in items:
        q = acc.get(k)
        q = p if q is None else q + p
        if q:
            acc[k] = q
        else:
            acc.pop(k, None)
    return acc


def pack(coeffs, width: int) -> int:
    """sum_k coeffs[k] v^k at v = 2^width."""
    out = 0
    for c in reversed(coeffs):
        out = (out << width) + c
    return out


def unpack(packed: int, width: int, bound: int) -> list[int]:
    """The signed base-2^width digits of packed, lowest first (the inverse
    of ``pack`` up to trailing zeros).

    Every digit must lie within `bound`; a digit outside it means the width
    was too small for the value, and is raised rather than returned."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits: list[int] = []
    while packed:
        d = packed & mask
        if d >= half:
            d -= 1 << width
        if abs(d) > bound:
            raise InternalCheckError(
                f"packed digit {d} exceeds the proven bound {bound}: "
                f"digit width {width} overflowed")
        digits.append(d)
        packed = (packed - d) >> width
    return digits


def tilde_step(col: tuple[int, ...], terms: dict[int, int],
               shift: int) -> dict[int, int]:
    """T~_s times a packed element in the basis T~_w = v^{L(w)} T_w
    (Geck-Pfeiffer 2000, 8.1), on dense ids.

    col is the left action table's row of s: col[u] = su at an ascent and
    ~su at a descent. T~_s T~_u is T~_{su} at an ascent and
    q T~_{su} + (q - 1) T~_u at a descent, q = v^{2L(s)}, so every
    coefficient stays in Z[v]. With coefficients packed at v = 2^B, q is
    a shift by 2 L(s) B bits; with q itself the packed variable (the N^w
    trace, L = 1), the shift is its width."""
    out: dict[int, int] = {}
    get = out.get
    for u, p in terms.items():
        j = col[u]
        if j >= 0:
            out[j] = get(j, 0) + p
        else:
            j = ~j
            pq = p << shift
            out[j] = get(j, 0) + pq
            out[u] = get(u, 0) + pq - p
    return out


class HeckeElement:
    """A finite A-linear combination of T-basis elements."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "HeckeAlgebra", terms: Terms):
        self.algebra = algebra
        self.terms = terms  # no zero values; treated as immutable

    def coeff(self, w: Element) -> LaurentPoly:
        return self.terms.get(w, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(self.algebra, add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.algebra, {w: -p for w, p in self.terms.items()})

    def scale(self, c: Union[int, LaurentPoly]) -> "HeckeElement":
        if isinstance(c, int):
            c = LaurentPoly(0, (c,))
        if not c:
            return HeckeElement(self.algebra, {})
        return HeckeElement(self.algebra, {w: p * c for w, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return self.algebra.mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        raise TypeError("HeckeElement is not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = [f"({p})*T[{','.join(map(str, w.word)) or 'e'}]"
                for w, p in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key)]
        return " + ".join(bits)


class FBoundProbe(NamedTuple):
    """Empirical bound for the degrees of the T-basis structure constants."""

    radius: Optional[int]          # None means the whole (finite) group
    n_emp: int
    witness: Optional[tuple[Element, Element, Element]]
    pairs_scanned: int


class HeckeAlgebra:
    """$H$ for a fixed system and weight function."""

    def __init__(self, system: CoxeterSystem,
                 weight: Optional[WeightFunction] = None):
        self.system = system
        self.weight = weight or WeightFunction.equal_parameters(system)
        if self.weight.system is not system:
            raise ValueError("weight function belongs to a different system")
        # xi_i = v^{L(s_i)} - v^{-L(s_i)}, the coefficient in the down-step
        self._xi = tuple(
            LaurentPoly.monomial(L) - LaurentPoly.monomial(-L)
            for L in self.weight.values)

    # -- building blocks -----------------------------------------------------

    @property
    def one(self) -> HeckeElement:
        return HeckeElement(self, {self.system.identity: ONE})

    def t(self, w: Union[Element, Iterable[int]]) -> HeckeElement:
        """The T-basis element T_w."""
        if not isinstance(w, Element):
            w = self.system.normal_form(w)
        return HeckeElement(self, {w: ONE})

    def element(self, terms: Terms) -> HeckeElement:
        return HeckeElement(self, {w: p for w, p in terms.items() if p})

    # -- multiplication --------------------------------------------------------

    def _lmul_gen(self, i: int, terms: Terms) -> Terms:
        """T_{s_i} * (sum of terms), one generator step."""
        return self._gen_step(
            self._xi[i], terms, map(self.system.left_mul_gen, repeat(i), terms))

    def _rmul_gen(self, terms: Terms, i: int) -> Terms:
        """(sum of terms) * T_{s_i}, one generator step."""
        return self._gen_step(
            self._xi[i], terms, map(self.system.right_mul_gen, terms, repeat(i)))

    def _gen_step(self, xi: LaurentPoly, terms: Terms, moves) -> Terms:
        """One generator step: ``moves`` yields (s_i w, sign) or (w s_i, sign)
        for each w of terms in order, with sign < 0 at a descent.

        Multiplying by a generator permutes W, so the moved terms land on
        distinct keys; a descent also leaves xi * p at w itself (xi = xi_i
        for T_{s_i})."""
        out: Terms = {}
        down: Terms = {}
        for (w, p), (sw, sign) in zip(terms.items(), moves):
            out[sw] = p
            if sign < 0:
                down[w] = p
        return add_into(out, down, xi)

    def _t_word_mul(self, word: tuple[int, ...], terms: Terms) -> Terms:
        """T_w * (sum of terms) along the reduced word of w."""
        for i in reversed(word):
            terms = self._lmul_gen(i, terms)
        return terms

    def mul(self, h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
        """h1 h2 from T_w h2 for each w of h1's support, each one generator
        step from its canonical tail's product: the tails form a tree, walked
        depth first, so products of a shared tail are made once."""
        if h1.algebra is not self or h2.algebra is not self:
            raise ValueError("operands live in different Hecke algebras")
        system = self.system
        e = system.identity
        built_from: dict[Element, list[Element]] = {}  # tail -> its extensions
        linked = set()
        for w in h1.terms:
            while w.word and w not in linked:
                linked.add(w)
                tail = system.left_mul_gen(w.word[0], w)[0]
                built_from.setdefault(tail, []).append(w)
                w = tail
        acc: Terms = {}
        # (w, T_w' h2 for the tail w' of w): each product is made when popped
        stack = [(e, h2.terms)]
        while stack:
            w, terms = stack.pop()
            if w.word:
                terms = self._lmul_gen(w.word[0], terms)
            p = h1.terms.get(w)
            if p is not None:
                add_into(acc, terms, p)
            for u in built_from.get(w, ()):
                stack.append((u, terms))
        return HeckeElement(self, acc)

    # -- the bar involution -------------------------------------------------------

    def _bar_basis(self, w: Element) -> Terms:
        """bar(T_w) in T-coordinates.

        bar(T_s) = T_s - xi_s is T_s^{-1}, and bar is multiplicative along
        the canonical word, so the factors are applied from the right, one
        generator step per letter: T_s^{-1} T_x is T_{sx} - xi_s T_x when
        sx > x and T_{sx} alone at a descent, the step of T_s with the roles
        of ascent and descent swapped and -xi_s in place of xi_s."""
        lmul = self.system.left_mul_gen
        terms: Terms = {self.system.identity: ONE}
        for i in reversed(w.word):
            swapped = ((sx, -sign) for sx, sign in map(lmul, repeat(i), terms))
            terms = self._gen_step(-self._xi[i], terms, swapped)
        return terms

    def bar(self, h: HeckeElement) -> HeckeElement:
        """The bar involution: v -> v^{-1}, T_w -> (T_{w^{-1}})^{-1}."""
        acc: Terms = {}
        for w, p in h.terms.items():
            add_into(acc, self._bar_basis(w), p.bar())
        return HeckeElement(self, acc)

    # -- structure constants and probes ----------------------------------------------

    def f_constants(self, x: Element, y: Element) -> Terms:
        """The map z -> f_{x,y,z} where T_x T_y = sum_z f_{x,y,z} T_z."""
        return self._t_word_mul(x.word, {y: ONE})

    def f_bound_probe(self, radius: Optional[int] = None) -> FBoundProbe:
        """Scan f_{x,y,z} degrees over all x, y of length <= radius.

        Reports the largest degree seen and an attaining triple; by
        construction v^{-n_emp} f_{x,y,z} has no positive powers of v for
        every scanned triple. radius=None scans a whole finite group."""
        if radius is None and not self.system.is_finite:
            raise InfiniteGroupError(
                "a radius is required to probe an infinite system")
        ball = self.system.enumerate_elements(max_length=radius)
        best = 0
        witness = None
        pairs = 0
        for x in ball:
            for y in ball:
                pairs += 1
                for z, p in sorted(self.f_constants(x, y).items(),
                                   key=lambda kv: kv[0].sort_key):
                    d = p.degree
                    if d > best:
                        best = int(d)
                        witness = (x, y, z)
        return FBoundProbe(radius=radius, n_emp=best,
                           witness=witness, pairs_scanned=pairs)
