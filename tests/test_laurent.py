"""Ring arithmetic in Z[v, v^-1]: normalization, bar, cones, evaluation."""

import random

import pytest
from fractions import Fraction

from hx.laurent import LaurentPoly, NEG_INF, ONE, V, ZERO, in_cone


def poly(*pairs):
    return LaurentPoly.from_pairs(pairs)


def rand_poly(rng, span=4, size=3):
    return LaurentPoly.from_pairs(
        (rng.randint(-span, span), rng.randint(-5, 5)) for _ in range(size))


def test_normalization_is_canonical():
    assert poly((2, 0), (0, 0)) == ZERO
    assert poly((3, 1), (3, -1)) == ZERO
    assert poly((1, 2), (-1, 3)) == poly((-1, 3), (1, 2))
    assert LaurentPoly(5, (0, 1, 0)) == LaurentPoly.monomial(6)
    assert hash(poly((0, 1))) == hash(ONE)


def test_arithmetic_identities():
    vm1 = V - LaurentPoly.monomial(-1)
    assert vm1 * vm1 == poly((2, 1), (0, -2), (-2, 1))  # (v - v^-1)^2
    assert rand_poly(random.Random(0)) * ZERO == ZERO
    assert ZERO.degree == NEG_INF
    p = poly((4, 1), (0, 1))
    assert p.coeff(4) == 1 and p.coeff(2) == 0 and p.coeff(0) == 1


def test_degree_valuation():
    p = poly((-2, 3), (5, -1))
    assert p.degree == 5 and p.valuation == -2
    assert ZERO.degree == NEG_INF
    assert ZERO.valuation == float("inf")
    assert (V ** 3).degree == 3


@pytest.mark.parametrize("seed", range(5))
def test_ring_axioms_random(seed):
    rng = random.Random(seed)
    a, b, c = (rand_poly(rng) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a


def test_bar_involution():
    assert LaurentPoly.monomial(3).bar() == LaurentPoly.monomial(-3)
    vm1 = V - LaurentPoly.monomial(-1)
    assert vm1.bar() == -vm1
    rng = random.Random(7)
    for _ in range(30):
        p, q = rand_poly(rng), rand_poly(rng)
        assert p.bar().bar() == p
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()
        if p:
            assert p.bar().degree == -p.valuation


def test_negative_part_and_shift():
    p = poly((-2, 1), (0, 5), (3, -4))
    assert p.negative_part() == poly((-2, 1))
    assert p.shift(2) == poly((0, 1), (2, 5), (5, -4))
    assert ZERO.negative_part() == ZERO


def test_cones():
    assert in_cone(poly((4, 1), (0, 1)), "Nv2")
    q = poly((2, 1), (0, -1))
    assert not in_cone(q, "Nv2") and in_cone(q, "Zv2")
    r = V + LaurentPoly.monomial(-1)
    assert in_cone(r, ("shifted", 1)) and not in_cone(r, ("shifted", 0))
    assert in_cone(ZERO, "Nv2") and in_cone(ZERO, "Zv-")
    # Nv2 implies Zv2; shifted(a) monotone in a
    rng = random.Random(3)
    for _ in range(50):
        p = rand_poly(rng)
        if in_cone(p, "Nv2"):
            assert in_cone(p, "Zv2")
        for a in range(-3, 3):
            if in_cone(p, ("shifted", a)):
                assert in_cone(p, ("shifted", a + 1))
    with pytest.raises(ValueError):
        in_cone(ONE, "Qv")


def test_evaluate():
    assert poly((4, 1), (0, 1)).evaluate(1) == 2
    assert (V - LaurentPoly.monomial(-1)).evaluate(1) == 0
    assert (V * V).evaluate(3) == 9
    assert LaurentPoly.monomial(-1).evaluate(2) == Fraction(1, 2)
    assert poly((-2, 1)).evaluate(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        ONE.evaluate(0)


def test_evaluate_at_int_points_matches_fractions():
    # the int route (v = 1 or -1, or no negative power) against the sum of
    # coeff * c^k in Fractions, and an int whenever that sum is integral
    rng = random.Random(19)
    for _ in range(200):
        p = rand_poly(rng, span=6, size=4)
        for c in (1, -1, 2, -3, 5):
            exact = sum(Fraction(c) ** k * d for k, d in p.to_pairs())
            got = p.evaluate(c)
            assert got == exact, (p, c)
            assert type(got) is (int if exact.denominator == 1 else Fraction), (p, c)
    assert LaurentPoly.monomial(-3).evaluate(-1) == -1
    assert ZERO.evaluate(-1) == 0 and type(ZERO.evaluate(2)) is int


def test_serialization_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        p = rand_poly(rng)
        assert LaurentPoly.from_pairs(p.to_pairs()) == p
    assert ZERO.to_pairs() == []


def test_str():
    assert str(poly((2, 1), (0, -2), (-2, 1))) == "v^2 - 2 + v^-2"
    assert str(ZERO) == "0"
    assert str(-V) == "-v"
