"""The packed-integer bar(T_y) rows and KL solve against the Laurent oracle
in ``kl_oracle``, and the digit-width guard."""

import pytest

import hx.hecke
import hx.klbasis
from hx.coxeter import InternalCheckError
from hx.hecke import HeckeAlgebra, WeightFunction, pack, unpack
from hx.klbasis import KLBasis
from kl_oracle import LaurentKL
from support import run_cli, system

FINITE_CASES = [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("D4", None),
    ("G2", (1, 3)),
    ("B2", None), ("B2", (1, 2)), ("B2", (2, 1)),
    ("B3", None), ("B3", (1, 1, 2)), ("B3", (2, 2, 1)),
]

AFFINE_CASES = [
    ("~A2", None, 6), ("~C2", (1, 2, 1), 6), ("~C2", (2, 1, 3), 5),
    ("~G2", None, 6), ("~G2", (1, 1, 3), 5), ("~G2", (3, 3, 1), 5),
]


def fresh(label, weights=None):
    """A new algebra, so no memo or width is shared with other tests."""
    W = system(label)
    return HeckeAlgebra(W, WeightFunction(W, weights) if weights else None)


def assert_matches_oracle(H, elements):
    k, oracle = KLBasis(H), LaurentKL(HeckeAlgebra(H.system, H.weight))
    for w in elements:
        assert H.bar(H.t(w)).terms == oracle.bar_basis(w), w
        assert k.coords(w) == oracle.coords(w), w


@pytest.mark.parametrize("label,weights", FINITE_CASES)
def test_packed_solve_matches_oracle(label, weights):
    H = fresh(label, weights)
    assert_matches_oracle(H, system(label).enumerate_elements())


@pytest.mark.parametrize("label,weights,radius", AFFINE_CASES)
def test_packed_solve_matches_oracle_affine(label, weights, radius):
    H = fresh(label, weights)
    assert_matches_oracle(H, system(label).enumerate_elements(max_length=radius))


def test_pack_unpack_round_trip():
    coeffs = [3, 0, -2, 0, 0, 1]
    packed = pack(coeffs, 4)
    assert packed == 3 - 2 * 16 ** 2 + 16 ** 5
    assert unpack(packed, 4, 3) == coeffs
    assert unpack(-packed, 4, 3) == [-c for c in coeffs]
    with pytest.raises(InternalCheckError, match="bound"):
        unpack(packed, 4, 2)


@pytest.mark.parametrize("label,weights", [("A3", None), ("B3", (1, 1, 2))])
def test_tiny_width_widens_and_matches_oracle(label, weights):
    H = fresh(label, weights)
    H._width = 2
    assert_matches_oracle(H, system(label).enumerate_elements())
    assert H._width > 2


def test_tiny_width_bar_widens():
    H, oracle = fresh("~G2", (3, 3, 1)), LaurentKL(fresh("~G2", (3, 3, 1)))
    H._width = 2
    for w in system("~G2").enumerate_elements(max_length=4):
        assert H.bar(H.t(w)).terms == oracle.bar_basis(w), w
    assert H._width > 2


def test_out_of_bound_digit_exits_3(monkeypatch):
    # a bound of 0 never asks for a wider digit, and any nonzero digit of
    # the solve then lies outside it
    monkeypatch.setattr(hx.klbasis, "row_bound", lambda length: 0)
    W = system("A2")
    with pytest.raises(InternalCheckError, match="overflowed"):
        KLBasis(fresh("A2")).coords(W.longest_element())
    code, out, err = run_cli("kl", "basis", "--type", "A2")
    assert code == 3 and "INTERNAL" in err and not out


def test_out_of_bound_row_digit_raises(monkeypatch):
    monkeypatch.setattr(hx.hecke, "row_bound", lambda length: 0)
    H = fresh("A2")
    with pytest.raises(InternalCheckError, match="overflowed"):
        H.bar(H.t(system("A2").generator(0)))


@pytest.mark.parametrize("digit", [0, 3, 7])  # v^-3, v^0 and beyond v^3
def test_bar_antisymmetry_violation_exits_3(monkeypatch, digit):
    # one extra unit in the packed row of w0 = s0 s1 s0 at x = e puts a
    # digit into acc[e] that no mirror digit cancels
    genuine = HeckeAlgebra._bar_basis

    def tampered(self, y):
        row = genuine(self, y)
        if y.word != (0, 1, 0):
            return row
        e = self.system.identity
        return {**row, e: row[e] + (1 << self._width * digit)}

    monkeypatch.setattr(HeckeAlgebra, "_bar_basis", tampered)
    with pytest.raises(InternalCheckError, match="antisymmetry at x=Element"):
        KLBasis(fresh("A2")).coords(system("A2").longest_element())
    code, out, err = run_cli("kl", "basis", "--type", "A2")
    assert code == 3 and "antisymmetry" in err and not out
