"""Property tests of the KL solve and of the group arithmetic under it over
random crystallographic Coxeter matrices of rank <= 3 (finite, affine and
hyperbolic alike) with random admissible weights."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coxeter_oracle import assert_matches_word_walk  # noqa: E402
from hx.coxeter import CoxeterSystem  # noqa: E402
from hx.hecke import HeckeAlgebra, WeightFunction  # noqa: E402
from hx.klbasis import KLBasis  # noqa: E402
from hx.laurent import LaurentPoly  # noqa: E402
from kl_oracle import LaurentKL  # noqa: E402

BONDS = (2, 3, 4, 6, None)  # None is an infinite bond


@st.composite
def kl_cases(draw):
    """(KLBasis, an element of length <= 6) on a random system."""
    rank = draw(st.integers(1, 3))
    matrix = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from(BONDS))
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
    H = HeckeAlgebra(W, WeightFunction(W, [values[c] for c in component]))
    word = draw(st.lists(st.integers(0, rank - 1), max_size=6))
    return KLBasis(H), W.normal_form(word)


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
