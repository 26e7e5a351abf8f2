"""KL basis via the bar-expansion triangular solve, h-constants, the
a-function, gamma constants, and the ring J."""

import random

import pytest

from hx import HeckeAlgebra, KLBasis, WeightFunction, build_system
from hx.coxeter import InfiniteGroupError, InternalCheckError
from hx.klbasis import a_function, j_associativity_check, j_find_unit, j_table
from hx.laurent import LaurentPoly, ONE, V, in_cone
from kl_oracle import _h_columns, solve_unit
from support import (algebra, kl, specialize, system, tampered_j_table,
                     without_generator_square)


def test_c_of_identity_and_generators():
    A2 = system("A2")
    k = kl("A2")
    e = A2.identity
    assert k.coords(e) == {e: ONE}
    for i in range(2):
        s = A2.generator(i)
        assert k.coords(s) == {s: ONE, e: LaurentPoly.monomial(-1)}
    # unequal parameters: c_s = T_s + v^-L(s) T_e
    kB = kl("B2", (1, 2))
    B2 = kB.system
    for i, L in enumerate((1, 2)):
        s = B2.generator(i)
        assert kB.coords(s) == {s: ONE, B2.identity: LaurentPoly.monomial(-L)}


def test_c_w0_in_a2():
    A2 = system("A2")
    k = kl("A2")
    w0 = A2.longest_element()
    coords = k.coords(w0)
    assert set(coords) == set(A2.enumerate_elements())
    for y, p in coords.items():
        assert p == LaurentPoly.monomial(y.length - 3)


@pytest.mark.parametrize("label,weights", [
    ("A3", None), ("B3", None), ("B2", (1, 2)), ("G2", (2, 1)),
])
def test_kl_defining_properties(label, weights):
    k = kl(label, weights)
    W = k.system
    H = k.algebra
    for w in W.enumerate_elements():
        c = k.element(w)
        assert H.bar(c) == c                       # bar invariance
        coords = k.coords(w)
        assert coords[w] == ONE                    # p_{w,w} = 1
        for y, p in coords.items():
            assert W.bruhat_leq(y, w)              # triangular support
            if y != w:
                assert in_cone(p, ("shifted", -1))  # c_w - T_w in v^-1 H_<=0
        assert k.to_c_basis(c) == {w: ONE}         # round trip


def test_classical_nontrivial_kl_polynomial_in_a3():
    # the 3412 pattern: c_w for w = s1 s0 s2 s1 has the nontrivial
    # coefficient v^-4 + v^-2 on T_e, i.e. P_{e,w}(q) = 1 + q
    k = kl("A3")
    A3 = k.system
    w = A3.normal_form([1, 0, 2, 1])
    coords = k.coords(w)
    assert coords[A3.identity] == LaurentPoly.from_pairs([(-4, 1), (-2, 1)])
    assert coords[A3.generator(1)] == LaurentPoly.from_pairs([(-3, 1), (-1, 1)])


def test_dihedral_kl_polynomials_all_trivial():
    # in dihedral groups every p_{y,w} is the bare monomial v^{l(y)-l(w)}
    for label in ["B2", "G2"]:
        k = kl(label)
        for w in k.system.enumerate_elements():
            for y, p in k.coords(w).items():
                assert p == LaurentPoly.monomial(y.length - w.length)


def test_kl_on_affine_interval():
    # the solve only needs the finite Bruhat interval, so affine works
    k = kl("~A1")
    W = k.system
    w = W.normal_form([0, 1, 0])
    coords = k.coords(w)
    assert coords[w] == ONE
    assert k.algebra.bar(k.element(w)) == k.element(w)
    for y, p in coords.items():
        if y != w:
            assert in_cone(p, ("shifted", -1))


def test_change_of_basis_round_trip_both_ways():
    k = kl("B2", (1, 2))
    W = k.system
    rng = random.Random(8)
    els = W.enumerate_elements()
    H = k.algebra
    for _ in range(20):
        h = H.element({})
        for _ in range(3):
            c = LaurentPoly.from_pairs([(rng.randint(-2, 2), rng.randint(-3, 3))])
            h = h + H.t(rng.choice(els)).scale(c)
        assert k.from_c_basis(k.to_c_basis(h)) == h


def test_h_constants_identity_row():
    k = kl("B2")
    W = k.system
    for y in W.enumerate_elements():
        assert k.h_constants(W.identity, y) == {y: ONE}
        assert k.h_constants(y, W.identity) == {y: ONE}


def test_h_constants_a1():
    k = kl("A1")
    s = k.system.generator(0)
    assert k.h_constants(s, s) == {s: V + LaurentPoly.monomial(-1)}


def test_h_constants_a2_product_of_generators():
    k = kl("A2")
    A2 = k.system
    s0, s1 = A2.generator(0), A2.generator(1)
    assert k.h_constants(s0, s1) == {A2.normal_form([0, 1]): ONE}


@pytest.mark.parametrize("label,weights", [
    ("A1", None), ("A2", None), ("A3", None), ("G2", None),
    ("B2", None), ("B2", (1, 2)),
    ("B3", None), ("B3", (1, 1, 2)), ("B3", (2, 2, 1)),
])
def test_h_scan_matches_h_constants(label, weights):
    # the c-basis recursion against the T-basis product, on every pair
    k = kl(label, weights)
    elements = k.system.enumerate_elements()
    columns = 0
    for y, column in _h_columns(k):
        assert list(column) == elements
        for x, hs in column.items():
            assert hs == k.h_constants(x, y), (x, y)
        columns += 1
    assert columns == len(elements)


def test_h_specialization_consistency_at_1():
    # sum_z h_{x,y,z}(1) c_z(1) must equal the group-algebra product of
    # c_x(1) and c_y(1); checks basis change against specialization
    k = kl("A2")
    W = k.system
    H = k.algebra
    def spec1(h):
        return specialize(h, 1)
    for x in W.enumerate_elements():
        for y in W.enumerate_elements():
            lhs = spec1(H.mul(k.element(x), k.element(y)))
            rhs = {}
            for z, h in k.h_constants(x, y).items():
                hv = h.evaluate(1)
                if not hv:
                    continue
                for u, cv in spec1(k.element(z)).items():
                    val = rhs.get(u, 0) + hv * cv
                    if val:
                        rhs[u] = val
                    else:
                        rhs.pop(u, None)
            assert lhs == rhs


def test_a_function_small_types():
    af1 = a_function(kl("A1"))
    A1 = system("A1")
    assert af1.values[A1.identity] == 0
    assert af1.values[A1.generator(0)] == 1

    af2 = a_function(kl("A2"))
    A2 = system("A2")
    w0 = A2.longest_element()
    for z in A2.enumerate_elements():
        expected = 0 if z.is_identity() else (3 if z == w0 else 1)
        assert af2.values[z] == expected


def test_a_function_identity_always_zero():
    for label, weights in [("A2", None), ("B2", (1, 2)), ("B2", (2, 1))]:
        k = kl(label, weights)
        af = a_function(k)
        assert af.values[k.system.identity] == 0
        assert all(a >= 0 for a in af.values.values())


def test_a_function_bounds_h_degrees_with_equality():
    k = kl("B2", (1, 2))
    W = k.system
    af = a_function(k)
    attained = {z: False for z in af.values}
    for x in W.enumerate_elements():
        for y in W.enumerate_elements():
            for z, h in k.h_constants(x, y).items():
                assert h.degree <= af.values[z]
                if h.degree == af.values[z]:
                    attained[z] = True
    assert all(attained.values())


def test_a_function_gated_to_finite():
    with pytest.raises(InfiniteGroupError):
        a_function(kl("~A1"))


def test_gamma_and_j_on_a1():
    k = kl("A1")
    A1 = k.system
    e, s = A1.identity, A1.generator(0)
    ring = j_table(k)
    assert ring.product({s: 1}, {s: 1}) == {s: 1}
    assert ring.product({e: 1}, {s: 1}) == {}
    assert ring.product({e: 1}, {e: 1}) == {e: 1}
    assert ring.gamma(e, e, e) == 1
    assert j_find_unit(ring) == {e: 1, s: 1}


def test_gamma_matrix_unit_pattern_in_a2():
    k = kl("A2")
    A2 = k.system
    s0, s1 = A2.generator(0), A2.generator(1)
    ring = j_table(k)
    w01 = A2.normal_form([0, 1])
    assert ring.product({s0: 1}, {w01: 1}) == {w01: 1}
    assert ring.product({s0: 1}, {s1: 1}) == {}
    assert ring.gamma(A2.identity, A2.identity, A2.identity) == 1


def test_gamma_integer_table_and_finite_supports():
    ring = j_table(kl("B2", (1, 2)))
    for (x, y), row in ring.table.items():
        assert row  # empty rows are dropped
        for z, g in row.items():
            assert isinstance(g, int) and g != 0
            # definition: gamma_{x,y,z^-1} = coeff of v^{a(z)} in h_{x,y,z}
            h = kl("B2", (1, 2)).h_constants(x, y).get(z, None)
            assert h is not None and h.coeff(ring.a.values[z]) == g


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_j_associativity_equal_parameters(label):
    ring = j_table(kl(label))
    n = system(label).order()
    rep = j_associativity_check(ring)
    assert rep.passed
    assert rep.triples_checked == n ** 3


def test_j_associativity_unequal_parameters_reports():
    # outcome is evidence, not asserted in advance; the report must be
    # complete either way
    rep = j_associativity_check(j_table(kl("B2", (1, 2))))
    assert rep.triples_checked == 512
    assert rep.counterexample is None or not rep.passed


def _walk_every_triple(ring):
    """The (x, y, z) walk over all |W|^3 triples: (checked, counterexample)."""
    checked = 0
    for x in ring.elements:
        for y in ring.elements:
            for z in ring.elements:
                checked += 1
                xy, yz = ring.table.get((x, y)), ring.table.get((y, z))
                if (xy or yz) and (ring.product(xy or {}, {z: 1})
                                   != ring.product({x: 1}, yz or {})):
                    return checked, (x, y, z)
    return checked, None


@pytest.mark.parametrize("label,weights", [
    ("A2", None), ("A3", None), ("B2", (1, 2)), ("G2", (2, 1)), ("B3", None),
    ("B3", (1, 1, 2)),
])
def test_j_associativity_matches_the_walk_over_every_triple(label, weights):
    ring = j_table(kl(label, weights))
    rep = j_associativity_check(ring)
    assert (rep.triples_checked, rep.counterexample) == _walk_every_triple(ring)
    assert rep.passed == (rep.counterexample is None)
    assert rep.triples_total == len(ring.elements) ** 3


@pytest.mark.parametrize("tamper", ["scale", "add", "drop"])
def test_j_associativity_walk_finds_the_first_counterexample(tamper):
    tampered = tampered_j_table(j_table(kl("A3")), tamper)
    checked, counterexample = _walk_every_triple(tampered)
    assert counterexample is not None
    rep = j_associativity_check(tampered)
    assert not rep.passed
    assert (rep.triples_checked, rep.counterexample) == (checked, counterexample)
    assert rep.triples_total == 24 ** 3


def test_j_unit_a2_and_rank0():
    ring = j_table(kl("A2"))
    unit = j_find_unit(ring)
    assert unit is not None
    for w in ring.elements:
        assert ring.product(unit, {w: 1}) == {w: 1}
        assert ring.product({w: 1}, unit) == {w: 1}
    # degenerate rank-0 system W = {e}
    from hx import HeckeAlgebra, KLBasis, build_system
    trivial = j_table(KLBasis(HeckeAlgebra(build_system([]))))
    assert j_find_unit(trivial) == {trivial.system.identity: 1}


@pytest.mark.parametrize("label,weights", [
    *[(label, None) for label in ["A1", "A2", "A3", "A4", "B2", "B3", "G2"]],
    ([[1, 2], [2, 1]], None),  # A1 x A1
    *[("B2", w) for w in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]],
    *[("G2", w) for w in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]],
    *[("B3", w) for w in [(1, 1, 2), (2, 2, 1), (1, 1, 3), (3, 3, 1), (2, 2, 3)]],
])
def test_j_unit_read_off_the_table_matches_the_solve(label, weights):
    W = build_system(label)
    ring = j_table(KLBasis(HeckeAlgebra(
        W, WeightFunction(W, weights) if weights else None)))
    unit = j_find_unit(ring)
    assert unit is not None and unit == solve_unit(ring)
    if weights is None:
        assert set(unit.values()) == {1}


def test_j_unit_that_fails_the_check():
    # at equal parameters P1-P15 are theorems, so a failed check is an
    # internal error; at other weights it only says that they fail there
    with pytest.raises(InternalCheckError, match="not a unit of J"):
        j_find_unit(without_generator_square(j_table(kl("A2"))))
    assert j_find_unit(without_generator_square(j_table(kl("B2", (1, 2))))) is None


def test_j_gated_to_finite():
    with pytest.raises(InfiniteGroupError):
        j_table(kl("~A1"))
