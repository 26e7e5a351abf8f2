"""Property tests over random crystallographic Coxeter matrices of rank
<= 3 (finite, affine and hyperbolic alike) with random admissible weights:
the Laurent ring and its bar involution, the Hecke relations, the KL
solve, the h-scan, and the group arithmetic under them."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from coxeter_oracle import assert_matches_word_walk  # noqa: E402
from hx.coxeter import CoxeterSystem, build_system  # noqa: E402
from hx.hecke import HeckeAlgebra, WeightFunction  # noqa: E402
from hx.klbasis import KLBasis  # noqa: E402
from hx.laurent import ONE, ZERO, LaurentPoly  # noqa: E402
from kl_oracle import LaurentKL, _h_columns  # noqa: E402

BONDS = (2, 3, 4, 6, None)  # None is an infinite bond


@st.composite
def algebras(draw, matrix=None):
    """A Hecke algebra with random admissible weights, on a random matrix
    unless one is given."""
    if matrix is None:
        rank = draw(st.integers(1, 3))
        matrix = [[1] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                matrix[i][j] = matrix[j][i] = draw(st.sampled_from(BONDS))
    rank = len(matrix)
    # odd bonds force equal weights: one value per odd-bond component
    component = list(range(rank))
    for i in range(rank):
        for j in range(i + 1, rank):
            m = matrix[i][j]
            if m is not None and m % 2 == 1:
                old, new = component[j], component[i]
                component = [new if c == old else c for c in component]
    values = {c: draw(st.integers(1, 3)) for c in sorted(set(component))}
    W = CoxeterSystem(matrix)
    return HeckeAlgebra(W, WeightFunction(W, [values[c] for c in component]))


@st.composite
def kl_cases(draw):
    """(KLBasis, an element of length <= 6) on a random system."""
    H = draw(algebras())
    word = draw(st.lists(st.integers(0, H.system.rank - 1), max_size=6))
    return KLBasis(H), H.system.normal_form(word)


laurent = st.builds(
    lambda val, coeffs: LaurentPoly(val, coeffs),
    st.integers(-4, 4), st.lists(st.integers(-3, 3), min_size=1, max_size=4))

SETTINGS = settings(max_examples=100, deadline=None)


@SETTINGS
@given(kl_cases())
def test_packed_coords_match_oracle(case):
    k, w = case
    oracle = LaurentKL(HeckeAlgebra(k.system, k.algebra.weight))
    assert k.coords(w) == oracle.coords(w)


@SETTINGS
@given(kl_cases())
def test_c_w_is_bar_invariant(case):
    k, w = case
    c = k.element(w)
    assert k.algebra.bar(c) == c


@SETTINGS
@given(kl_cases(), st.data())
def test_c_basis_round_trip(case, data):
    k, w = case
    below = k.system.bruhat_interval_below(w)
    coords = {}
    for y in data.draw(st.lists(st.sampled_from(below), max_size=4)):
        p = data.draw(laurent)
        if p:
            coords[y] = p
    assert k.to_c_basis(k.from_c_basis(coords)) == coords


@SETTINGS
@given(kl_cases())
def test_root_data_arithmetic_matches_word_walk(case):
    k, w = case
    W = k.system
    assert_matches_word_walk(W, [w.word])
    # the whole length ball below w, on a fresh system
    ball = W.enumerate_elements(max_length=w.length)
    assert_matches_word_walk(CoxeterSystem(W.matrix_json()),
                             [u.word for u in reversed(ball)])
    assert W.bruhat_interval_below(w) == [y for y in ball if W.bruhat_leq(y, w)]


@settings(max_examples=40, deadline=None)
@given(kl_cases())
def test_h_scan_column_matches_h_constants(case):
    # the column of c_* c_w from the c-basis recursion, on a finite system
    k, w = case
    assume(k.system.is_finite)
    for y, column in _h_columns(k):
        if y == w:
            for x, hs in column.items():
                assert hs == k.h_constants(x, y)
            return
    raise AssertionError(f"the scan never reached column {w!r}")


@SETTINGS
@given(laurent, laurent, laurent)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and a + (-a) == ZERO and -(-a) == a
    assert a * 3 == a + a + a and 2 - a == ONE + ONE - a
    assert (a == b) == (a.to_pairs() == b.to_pairs())
    assert a != b or hash(a) == hash(b)


@SETTINGS
@given(laurent, laurent)
def test_bar_is_an_involutive_ring_automorphism(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().evaluate(2) == a.evaluate(Fraction(1, 2))


# affine matrices, drawn directly: random ones hit them only by chance
AFFINE = [build_system(label).matrix for label in ("~A1", "~A2", "~C2", "~G2")]


@st.composite
def hecke_cases(draw):
    """(HeckeAlgebra, a random element supported in the ball of length 3)."""
    H = draw(st.one_of(algebras(), st.sampled_from(AFFINE).flatmap(
        lambda m: algebras(matrix=m))))
    ball = H.system.enumerate_elements(max_length=3)
    terms = {}
    for w in draw(st.lists(st.sampled_from(ball), max_size=4)):
        terms[w] = draw(laurent)
    return H, H.element(terms)


@SETTINGS
@given(hecke_cases())
def test_quadratic_relation(case):
    # T_s^2 = (v^L - v^-L) T_s + 1, applied to a random element
    H, h = case
    for i, L in enumerate(H.weight.values):
        t = H.t((i,))
        xi = LaurentPoly.monomial(L) - LaurentPoly.monomial(-L)
        assert t * (t * h) == (t * h).scale(xi) + h


@SETTINGS
@given(hecke_cases())
def test_braid_relations(case):
    # T_s T_t T_s ... = T_t T_s T_t ... (m factors each) = T_w for every
    # finite bond, applied to a random element
    H, h = case
    W = H.system
    for i in range(W.rank):
        for j in range(i + 1, W.rank):
            m = W.matrix[i][j]
            if m is None:
                continue
            sides = []
            for word in ((i, j) * m)[:m], ((j, i) * m)[:m]:
                acc = h
                for g in reversed(word):
                    acc = H.t((g,)) * acc
                sides.append(acc)
                assert acc == H.t(word) * h
            assert sides[0] == sides[1]
