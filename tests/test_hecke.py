"""Hecke algebra: weight validation, T-basis relations, bar involution,
f-constants, the degree probe, and specialization."""

import random
from fractions import Fraction

import pytest

from hx.coxeter import InfiniteGroupError
from hx.hecke import (HeckeAlgebra, WeightFunction, add_into, pack, tilde_step,
                      unpack, weight_catalog)
from hx.laurent import LaurentPoly, ONE, V
from support import algebra, specialize, system

xi = lambda L: LaurentPoly.monomial(L) - LaurentPoly.monomial(-L)


# -- weight functions --------------------------------------------------------

def test_weight_validation():
    A2 = system("A2")
    assert WeightFunction(A2, (1, 1)).is_equal_parameters
    with pytest.raises(ValueError, match="odd bond"):
        WeightFunction(A2, (1, 2))
    with pytest.raises(ValueError, match="positive"):
        WeightFunction(A2, (1, 0))
    with pytest.raises(ValueError, match="values"):
        WeightFunction(A2, (1,))
    B2 = system("B2")
    assert WeightFunction(B2, (1, 2)).values == (1, 2)  # even bond: free


def test_weight_catalog():
    assert weight_catalog("~F4") == ((1, 1, 1, 1, 1), (1, 1, 1, 2, 2),
                                     (2, 2, 2, 1, 1), (1, 1, 1, 4, 4))
    assert weight_catalog("~G2") == ((1, 1, 1), (1, 1, 3), (3, 3, 1), (1, 1, 9))
    G2a = system("~G2")
    for values in weight_catalog("~G2"):
        WeightFunction(G2a, values)  # all catalog entries validate
    with pytest.raises(ValueError, match="no weight catalog"):
        weight_catalog("~B3")


def test_weight_additivity_on_reduced_products():
    W = system("B3")
    L = WeightFunction(W, (1, 1, 2))
    rng = random.Random(2)
    els = W.enumerate_elements()
    for _ in range(150):
        a, b = rng.choice(els), rng.choice(els)
        ab = W.multiply(a, b)
        if ab.length == a.length + b.length:
            assert L(ab) == L(a) + L(b)


def test_weight_independent_of_reduced_word():
    W = system("B3")
    L = WeightFunction(W, (2, 2, 5))
    rng = random.Random(3)
    for _ in range(50):
        word = [rng.randrange(3) for _ in range(rng.randint(0, 8))]
        w = W.normal_form(word)
        # L along any reduced word equals L of the canonical word
        total = sum(L.values[i] for i in w.word)
        assert L(w) == total


# -- T-basis relations ----------------------------------------------------------

@pytest.mark.parametrize("label,weights", [
    ("A2", (1, 1)), ("B2", (1, 2)), ("B3", (1, 1, 2)), ("G2", (3, 1)),
    ("~G2", (1, 1, 9)),
])
def test_quadratic_relation(label, weights):
    H = algebra(label, weights)
    for i in range(H.system.rank):
        Ts = H.t([i])
        L = weights[i]
        # (T_s + v^-L)(T_s - v^L) = 0
        lhs = H.mul(Ts + H.one.scale(LaurentPoly.monomial(-L)),
                    Ts - H.one.scale(LaurentPoly.monomial(L)))
        assert lhs.is_zero()
        assert H.mul(Ts, Ts) == H.one + Ts.scale(xi(L))


def test_lengths_add_rule():
    H = algebra("A2")
    assert H.mul(H.t([0]), H.t([1])) == H.t([0, 1])
    A3 = system("A3")
    H3 = algebra("A3")
    for a in A3.enumerate_elements():
        for b in A3.enumerate_elements():
            if A3.multiply(a, b).length == a.length + b.length:
                assert H3.mul(H3.t(a), H3.t(b)) == H3.t(A3.multiply(a, b))


@pytest.mark.parametrize("label,weights,count", [
    ("B3", (1, 1, 2), 200),
    ("A3", None, 200),
    ("~G2", (1, 1, 9), 200),
])
def test_associativity_random_triples(label, weights, count):
    H = algebra(label, weights)
    W = H.system
    pool = W.enumerate_elements(max_length=None if W.is_finite else 5)
    rng = random.Random(42)
    for _ in range(count):
        a, b, c = (H.t(rng.choice(pool)) for _ in range(3))
        assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


def test_mixed_algebras_rejected():
    H1, H2 = algebra("A2"), algebra("A3")
    with pytest.raises(ValueError, match="different"):
        H1.mul(H1.one, H2.one)


# -- bar involution ---------------------------------------------------------------

def test_bar_basics():
    H = algebra("A2")
    e = H.system.identity
    assert H.bar(H.one) == H.one
    for n in (-2, 3):
        scaled = H.one.scale(LaurentPoly.monomial(n))
        assert H.bar(scaled) == H.one.scale(LaurentPoly.monomial(-n))
    for i in range(2):
        # bar(T_s) is the inverse of T_s
        assert H.mul(H.bar(H.t([i])), H.t([i])) == H.one


def test_bar_inverts_t_basis():
    # bar(T_w) * T_{w^-1} = T_e for every w (the defining identity)
    H = algebra("B2", (1, 2))
    W = H.system
    for w in W.enumerate_elements():
        assert H.mul(H.bar(H.t(w)), H.t(W.inverse(w))) == H.one


def test_bar_is_involutive_ring_map():
    # +, -, mul and bar keep the no-zero-values invariant of HeckeElement.terms
    for label, weights in (("A3", None), ("B3", (1, 1, 2))):
        H = algebra(label, weights)
        els = H.system.enumerate_elements()
        rng = random.Random(9)
        def rand_h():
            out = H.element({})
            for _ in range(3):
                c = LaurentPoly.from_pairs([(rng.randint(-3, 3), rng.randint(-4, 4))])
                out = out + H.t(rng.choice(els)).scale(c)
            return out
        for _ in range(25):
            h1, h2 = rand_h(), rand_h()
            assert H.bar(H.bar(h1)) == h1
            assert H.bar(H.mul(h1, h2)) == H.mul(H.bar(h1), H.bar(h2))
            assert (h1 + h2) - h2 == h1 and (h1 - h1).is_zero()
            for h in (h1, h1 + h2, h1 - h2, H.mul(h1, h2), H.bar(h1)):
                assert all(h.terms.values())


def test_add_into():
    terms = {"x": V, "y": ONE}
    acc = {"x": -V, "z": V}
    assert add_into(acc, terms) is acc
    assert acc == {"y": ONE, "z": V}  # x cancelled and left
    assert terms == {"x": V, "y": ONE}
    assert add_into({"y": V}, terms, -V) == {"x": -(V * V)}
    assert add_into({}, terms, 2) == {"x": V * 2, "y": ONE * 2}
    assert add_into({"x": V}, terms, 0) == {"x": V}
    # integer coefficients, as in the J ring
    assert add_into({"a": 6, "b": 1}, {"a": 2, "c": 5}, -3) == {"b": 1, "c": -15}
    assert add_into({"a": -2}, {"a": 2}) == {}



@pytest.mark.parametrize("label,weights", [("G2", (2, 1)), ("B3", (1, 1, 2))])
def test_tilde_step_is_v_to_the_l_times_the_generator_step(label, weights):
    # T~_s h = v^L(s) T_s h, with T~_w = v^L(w) T_w and coefficients in Z[v]
    # packed at v = 2^B
    H = algebra(label, weights)
    dense = H.system.dense_tables()
    L, width, bound = H.weight, 16, 1 << 14
    rng = random.Random(label)

    def in_t_basis(packed):
        """Laurent T-coordinates of an element in packed T~-coordinates."""
        return H.element({dense.elements[u]: LaurentPoly(
            L(dense.elements[u]), unpack(p, width, bound)) for u, p in packed.items()})

    for _ in range(20):
        packed = {u: pack([rng.randint(-9, 9) for _ in range(3)], width)
                  for u in rng.sample(range(len(dense.elements)), 8)}
        for s in range(H.system.rank):
            stepped = tilde_step(dense.left[s], packed, 2 * width * L.values[s])
            expected = H.element(H._lmul_gen(s, in_t_basis(packed).terms))
            assert in_t_basis(stepped) == expected * LaurentPoly.monomial(L.values[s])

# -- f-constants and the degree probe ------------------------------------------------

def test_f_constants_unit():
    H = algebra("B2", (1, 2))
    W = H.system
    for x in W.enumerate_elements():
        assert H.f_constants(x, W.identity) == {x: ONE}
        assert H.f_constants(W.identity, x) == {x: ONE}


def test_f_constants_a1_values():
    H = algebra("A1")
    s = H.system.generator(0)
    f = H.f_constants(s, s)
    assert f == {H.system.identity: ONE, s: V - LaurentPoly.monomial(-1)}


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_f_at_1_is_group_algebra(label):
    H = algebra(label)
    W = H.system
    for x in W.enumerate_elements():
        for y in W.enumerate_elements():
            xy = W.multiply(x, y)
            for z, p in H.f_constants(x, y).items():
                assert p.evaluate(1) == (1 if z == xy else 0)


def test_f_degree_weak_bound_and_parity():
    H = algebra("B3", (1, 1, 2))
    W = H.system
    L = H.weight
    rng = random.Random(4)
    els = W.enumerate_elements()
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        bound = L(x) + L(y)
        parity = (L(x) + L(y)) % 2
        for z, p in H.f_constants(x, y).items():
            assert p.degree <= bound
            assert z.length <= x.length + y.length
            # every exponent of f_{x,y,z} is congruent to
            # L(x) + L(y) - L(z) mod 2
            for exp, _c in p.to_pairs():
                assert exp % 2 == (parity - L(z)) % 2


def test_f_bound_probe():
    H = algebra("A1")
    s = H.system.generator(0)
    probe = H.f_bound_probe()
    assert probe.n_emp == 1 and probe.witness == (s, s, s)
    assert probe.pairs_scanned == 4
    assert algebra("B2").f_bound_probe(radius=0).n_emp == 0
    aff = algebra("~A1")
    values = [aff.f_bound_probe(radius=r).n_emp for r in range(5)]
    assert values == sorted(values)  # monotone in the radius
    with pytest.raises(InfiniteGroupError):
        aff.f_bound_probe()


def test_f_probe_certifies_bound():
    H = algebra("B2")
    W = H.system
    probe = H.f_bound_probe()
    for x in W.enumerate_elements():
        for y in W.enumerate_elements():
            for p in H.f_constants(x, y).values():
                assert p.degree <= probe.n_emp


# -- specialization ------------------------------------------------------------------

def test_specialize_basics():
    H = algebra("A2")
    s = H.system.generator(0)
    # at c = 1 the quadratic relation collapses to the group algebra
    assert specialize(H.mul(H.t(s), H.t(s)), 1) == {H.system.identity: 1}
    for w in H.system.enumerate_elements():
        assert specialize(H.t(w), Fraction(3, 2)) == {w: 1}
    with pytest.raises(ZeroDivisionError):
        specialize(H.one, 0)


def test_specialize_is_ring_map_at_2():
    H = algebra("B2")
    W = H.system
    els = W.enumerate_elements()
    rng = random.Random(6)
    for _ in range(30):
        a, b = rng.choice(els), rng.choice(els)
        lhs = specialize(H.mul(H.t(a), H.t(b)), 2)
        rhs = {}
        for z, p in H.f_constants(a, b).items():
            val = p.evaluate(2)
            if val:
                rhs[z] = val
        assert lhs == rhs
