"""
Exact arithmetic in the coefficient ring $A = Z[v, v^{-1}]$ of integer
Laurent polynomials, plus the cone-membership tests the rest of the
package quantifies over ($Z[v^{-1}]$ and its shifts, $Z[v^2]$, $N[v^2]$).

Values are immutable and normalized: two polynomials are mathematically
equal iff they compare equal structurally, so they can be used as dict
keys and set members. Coefficients are Python ints (arbitrary precision);
no floating point anywhere.
"""

from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only: importing typing costs every process
    from typing import Iterable

__all__ = ["LaurentPoly", "ZERO", "ONE", "V", "NEG_INF", "in_cone"]

# degree of the zero polynomial
NEG_INF = float("-inf")


class LaurentPoly:
    """An element of $Z[v, v^{-1}]$.

    Stored densely over the support interval: ``coeffs[k]`` is the
    coefficient of ``v**(val + k)``, with both ends of ``coeffs`` nonzero.
    The zero polynomial is the empty run with ``val == 0``.
    """

    __slots__ = ("val", "coeffs", "_hash")

    def __init__(self, val: int = 0, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        lo = 0
        hi = len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.val = 0
            self.coeffs = ()
        else:
            self.val = val + lo
            self.coeffs = tuple(cs[lo:hi])
        self._hash = hash((self.val, self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls(exp, (coeff,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        acc: dict[int, int] = {}
        for exp, c in pairs:
            acc[exp] = acc.get(exp, 0) + c
        if not acc:
            return ZERO
        lo = min(acc)
        hi = max(acc)
        return cls(lo, [acc.get(e, 0) for e in range(lo, hi + 1)])

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient; NEG_INF for zero."""
        return NEG_INF if not self.coeffs else self.val + len(self.coeffs) - 1

    @property
    def valuation(self):
        """Smallest exponent with nonzero coefficient; +inf for zero."""
        return float("inf") if not self.coeffs else self.val

    def coeff(self, exp: int) -> int:
        k = exp - self.val
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def to_pairs(self) -> list[list[int]]:
        """Serialized form: sorted [exponent, coefficient] pairs."""
        return [[self.val + k, c] for k, c in enumerate(self.coeffs) if c]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Scalar) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        cs = [0] * (hi - lo)
        for k, c in enumerate(self.coeffs):
            cs[self.val - lo + k] += c
        for k, c in enumerate(other.coeffs):
            cs[other.val - lo + k] += c
        return LaurentPoly(lo, cs)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.val, [-c for c in self.coeffs])

    def __sub__(self, other: Scalar) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(0, (other,))
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentPoly(self.val, [c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        cs = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    cs[i + j] += ca * cb
        return LaurentPoly(self.val + other.val, cs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[v, v^-1]")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by the monomial v**n."""
        if not self.coeffs:
            return self
        return LaurentPoly(self.val + n, self.coeffs)

    # -- the bar involution and truncations --------------------------------

    def bar(self) -> "LaurentPoly":
        """Substitute v -> v^{-1}; an involutive ring automorphism."""
        if not self.coeffs:
            return self
        return LaurentPoly(-(self.val + len(self.coeffs) - 1),
                           tuple(reversed(self.coeffs)))

    def negative_part(self) -> "LaurentPoly":
        """The sum of the terms with strictly negative exponent."""
        if not self.coeffs or self.val + len(self.coeffs) - 1 < 0:
            return self
        return LaurentPoly(self.val, self.coeffs[:max(0, -self.val)])

    # -- evaluation --------------------------------------------------------

    def evaluate(self, c):
        """Exact evaluation at a nonzero integer or Fraction.

        Returns an int when the value is integral, otherwise a Fraction. At
        an int point with no negative power, or at v = 1 or -1, where
        c^-k = c^k, the value is summed in ints and no Fraction is made.
        """
        if c == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        if type(c) is int and (self.val >= 0 or c * c == 1):
            acc = 0
            for coeff in reversed(self.coeffs):  # Horner, from the top
                acc = acc * c + coeff
            return acc * c ** abs(self.val)
        from fractions import Fraction  # here: off every command's import path

        c = Fraction(c)
        acc = Fraction(0)
        power = c ** self.val
        for coeff in self.coeffs:
            acc += coeff * power
            power *= c
        return int(acc) if acc.denominator == 1 else acc

    # -- comparisons & display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ()) and self.val == 0
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.val == other.val and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            e = self.val + k
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}v^{e}" if e != 1 else f"{mag}v"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_pairs()})"


# what LaurentPoly's arithmetic takes as its other operand
Scalar = int | LaurentPoly

ZERO = LaurentPoly()
ONE = LaurentPoly(0, (1,))
V = LaurentPoly.monomial(1)


def in_cone(p: LaurentPoly, cone) -> bool:
    """Membership of ``p`` in one of the cones the package quantifies over.

    ``cone`` is ``"Zv-"`` (all exponents <= 0), ``("shifted", a)`` (all
    exponents <= a), ``"Zv2"`` (only even exponents), or ``"Nv2"``
    (only even exponents, all coefficients >= 0).
    """
    if cone == "Zv-":
        return p.degree <= 0
    if cone == "Zv2":
        return all((p.val + k) % 2 == 0 for k, c in enumerate(p.coeffs) if c)
    if cone == "Nv2":
        return in_cone(p, "Zv2") and all(c >= 0 for c in p.coeffs)
    if isinstance(cone, tuple) and len(cone) == 2 and cone[0] == "shifted":
        return p.degree <= cone[1]
    raise ValueError(f"unknown cone {cone!r}")
