"""The packed c_s recursion of the KL basis and the word-product bar(T_w)
against the Laurent oracle in ``kl_oracle``, the recursion's digit-width
guard and hard checks, and bar on long affine words; the packed dense-id
h-scan and its action rows against the Laurent column recursion and rows
there, and the scan's width guard."""

import inspect
import random
import sys
import tracemalloc

import pytest

import hx.klbasis
from hx.coxeter import InternalCheckError
from hx.hecke import HeckeAlgebra, WeightFunction, pack, unpack
from hx.klbasis import (KLBasis, _check_pair, _digit_reader, _h_scan,
                        _packed_action_rows, _packed_columns, _palindrome_test)
from hx.laurent import LaurentPoly
from kl_oracle import LaurentKL, _action_rows, _h_columns
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
    """A new algebra, so no memo is shared with other tests."""
    W = system(label)
    return HeckeAlgebra(W, WeightFunction(W, weights) if weights else None)


def pairs(p):
    """``p.to_pairs()`` in the form ``coord_pairs`` gives it: tuples."""
    return tuple(map(tuple, p.to_pairs()))


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
def test_tiny_width_widens_and_matches_oracle(monkeypatch, label, weights):
    decode = hx.klbasis.unpack

    def checked(packed, width, bound):
        # the recursion widens before its digit bound stops fitting
        assert bound < 1 << (width - 1)
        return decode(packed, width, bound)

    monkeypatch.setattr(hx.klbasis, "unpack", checked)
    H = fresh(label, weights)
    k, oracle = KLBasis(H), LaurentKL(fresh(label, weights))
    k._width = 2
    elements = system(label).enumerate_elements()
    for w in elements:
        assert k.coords(w) == oracle.coords(w), w
    assert k._width > 2
    assert_matches_oracle(H, elements)


def test_long_affine_bar_inverts_t():
    # bar(T_y) = T_{y^-1}^-1, so T_w bar(T_{w^-1}) = 1; ~A1 at length 200
    W = system("~A1")
    H = fresh("~A1")
    w = W.normal_form((0, 1) * 100)
    assert H.mul(H.t(w), H.bar(H.t(W.inverse(w)))) == H.one


def test_long_affine_bar_memory():
    # bar(T_w) has 2 l(w) terms with small coefficients here, so its build
    # needs only a few copies of it: no memo of its tails, no digits sized
    # for the worst case
    W = system("~A1")
    H = fresh("~A1")
    w = W.normal_form((0, 1) * 50)
    tracemalloc.start()
    try:
        H.bar(H.t(w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_long_affine_word_needs_no_recursion():
    # ~A1 is the infinite dihedral group: c_w = sum_{y <= w} v^(l(y)-l(w)) T_y
    W = system("~A1")
    H = fresh("~A1")
    w = W.normal_form((0, 1) * 50)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)  # below l(w) = 100 frames
    try:
        coords = KLBasis(H).coords(w)
        bar = H.bar(H.t(w))
    finally:
        sys.setrecursionlimit(limit)
    below = W.bruhat_interval_below(w)
    assert coords == {y: LaurentPoly.monomial(y.length - w.length) for y in below}
    assert bar.terms == LaurentKL(fresh("~A1")).bar_basis(w)


# Tamperings of one packed step v^L(w) c_s c_w' (a dict y -> packed int),
# applied while c_w is built for the A2 element `target`: (target word,
# expected message, tampering(step, system, width)).
def _bump(y_word, exponent, by=1):
    def tamper(step, W, width):
        y = W.normal_form(y_word)
        step[y] = step.get(y, 0) + by * (1 << width * exponent)
    return tamper


KERNEL_CHECKS = {
    # the T_w coefficient of c_s c_w' must be 1
    "tw_coefficient": ((0, 1, 0), "T_w coefficient", _bump((0, 1, 0), 3)),
    # a digit outside the proven bound 2 mass(w') + ... (the width is 32)
    "digit_out_of_bound": ((0, 1, 0), "overflowed", _bump((), 0, 1 << 29)),
    # mu_z at z = w', at an ascent z = e, and of degree 1 >= L(s) at z = s0
    "mu_at_tail": ((0, 1, 0), "Thm 6.6", _bump((1, 0), 3)),
    "mu_at_ascent": ((0, 1, 0), "Thm 6.6", _bump((), 3)),
    "mu_degree": ((0, 1, 0), "Thm 6.6", _bump((0,), 4)),
    # support of c_{s0 s1} outside [e, s0 s1]
    "support_outside_interval": ((0, 1), "outside", _bump((1, 0), 0)),
    # at equal parameters p_(e,w0) = v^-3: drop it, make it negative, or
    # add v^-2, of the wrong parity
    "support_not_all_of_interval": ((0, 1, 0), "positivity", _bump((), 0, -1)),
    "negative_coefficient": ((0, 1, 0), "positivity", _bump((), 0, -2)),
    "parity": ((0, 1, 0), "positivity", _bump((), 1)),
}


@pytest.mark.parametrize("case", list(KERNEL_CHECKS))
def test_kernel_check_violation_exits_3(monkeypatch, case):
    target, message, tamper = KERNEL_CHECKS[case]
    genuine = KLBasis._step

    def tampered(self, s, row):
        step = genuine(self, s, row)
        # the step's support is [e, w] with w its unique longest element
        if max(step, key=lambda y: y.sort_key).word == target:
            tamper(step, self.system, self._width)
        return step

    monkeypatch.setattr(KLBasis, "_step", tampered)
    W = system("A2")
    with pytest.raises(InternalCheckError, match=message):
        KLBasis(fresh("A2")).coords(W.normal_form(target))
    code, out, err = run_cli("kl", "basis", "--type", "A2")
    assert code == 3 and message in err and not out


# While c_{s0 s1 s0} of A2 is built, R[e] = 1 is decoded last, under the
# digit bound 2 mass(s1 s0) + |mu| mass(s0) = 2 * 4 + 1 * 2 for the mu = 1
# at z = s0.
BOUND_AT_E = 10


def _add_to_e(monkeypatch, target, digits):
    """Add the packed digits to R[e] while c_target is built."""
    genuine = KLBasis._step

    def tampered(self, s, row):
        step = genuine(self, s, row)
        if max(step, key=lambda y: y.sort_key).word == target:
            step[self.system.identity] += pack(digits, self._width)
        return step

    monkeypatch.setattr(KLBasis, "_step", tampered)


def _set_e_digit(monkeypatch, digit):
    """Make the v^0 digit of R[e] `digit` while c_{s0 s1 s0} of A2 is built."""
    _add_to_e(monkeypatch, (0, 1, 0), [digit - 1])


def test_digit_one_above_the_bound_exits_3(monkeypatch):
    # the masks refuse it, and the decode path reports it
    W = system("A2")
    _set_e_digit(monkeypatch, BOUND_AT_E + 1)
    with pytest.raises(InternalCheckError, match="overflowed"):
        KLBasis(fresh("A2")).coords(W.normal_form((0, 1, 0)))
    code, out, err = run_cli("kl", "basis", "--type", "A2")
    assert code == 3 and "overflowed" in err and not out


def test_digit_at_the_bound_passes_the_masks(monkeypatch):
    # accepted by the masks alone: the decode path runs exactly as often as
    # on the genuine build (once, for the mu at z = s0)
    W = system("A2")
    w = W.normal_form((0, 1, 0))
    decode = hx.klbasis.unpack
    decoded = []

    def counted(packed, width, bound):
        decoded.append(bound)
        return decode(packed, width, bound)

    monkeypatch.setattr(hx.klbasis, "unpack", counted)
    assert KLBasis(fresh("A2"))._packed_row(w)[0][W.identity] == 1
    genuine = list(decoded)
    decoded.clear()
    _set_e_digit(monkeypatch, BOUND_AT_E)
    assert KLBasis(fresh("A2"))._packed_row(w)[0][W.identity] == BOUND_AT_E
    assert decoded == genuine == [8]


def test_negative_digit_inside_a_positive_int_exits_3(monkeypatch):
    # R[e] = 2^B - 1 is positive and below 2^{B L(w)}, but its signed
    # digits are -1 at v^0 and 1 at v^1: the top-bit mask refuses it
    W = system("A2")
    _add_to_e(monkeypatch, (0, 1, 0), [-2, 1])
    with pytest.raises(InternalCheckError, match="positivity"):
        KLBasis(fresh("A2")).coords(W.normal_form((0, 1, 0)))


def test_mask_path_mass_is_exact_past_2b_minus_1(monkeypatch):
    # at width 6, add 21 to R[e] at v^0, v^2 and v^4 while c_w of A3 is
    # built, w = s0 s1 s2 s1 s0: every digit stays within the bound (at
    # least 2 mass(w') = 24), but the digit sum passes 2^6 - 1, where
    # r mod 2^6 - 1 is no longer the digit sum, so the row must be decoded
    W = system("A3")
    w = W.normal_form((0, 1, 2, 1, 0))
    _add_to_e(monkeypatch, w.word, [21, 0, 21, 0, 21])
    k = KLBasis(fresh("A3"))
    k._width = 6
    row, mass = k._packed_row(w)
    assert k._width == 6
    digits = {y: unpack(P, 6, 31) for y, P in row.items()}
    assert sum(digits[W.identity]) > 63
    assert mass == sum(sum(map(abs, d)) for d in digits.values())


@pytest.mark.parametrize("label,width", [("D4", 8), ("A4", 8), ("B3", 4)])
def test_narrow_width_near_its_bound_widens_and_matches_oracle(
        monkeypatch, label, width):
    # at these widths some digit bound lies in [2^(B-2), 2^(B-1)): the lift
    # of the SWAR test is small and the digit sums do not fit 2^B - 1, so
    # the build takes both paths before it must widen
    fills = []
    masks = hx.klbasis._masks

    def spied(width, top):
        fills.append(width)
        return masks(width, top)

    decode = hx.klbasis.unpack
    near = []

    def checked(packed, width, bound):
        assert bound < 1 << (width - 1)
        near.append(bound >= 1 << (width - 2))
        return decode(packed, width, bound)

    monkeypatch.setattr(hx.klbasis, "_masks", spied)
    monkeypatch.setattr(hx.klbasis, "unpack", checked)
    k = KLBasis(fresh(label))
    k._width = width
    oracle = LaurentKL(fresh(label))
    for w in system(label).enumerate_elements():
        assert k.coords(w) == oracle.coords(w), w
        assert k.coord_pairs(w) == [(y, pairs(p)) for y, p in sorted(
            oracle.coords(w).items(), key=lambda kv: kv[0].sort_key)], w
        assert k._packed_row(w)[1] == sum(  # mass(w), exactly
            sum(map(abs, p.coeffs)) for p in oracle.coords(w).values()), w
    assert k._width > width and width in fills and any(near)


@pytest.mark.parametrize("label,weights", FINITE_CASES)
def test_coord_pairs_read_the_packed_rows(label, weights):
    k = KLBasis(fresh(label, weights))
    for w in system(label).enumerate_elements():
        assert k.coord_pairs(w) == [(y, pairs(p)) for y, p in sorted(
            k.coords(w).items(), key=lambda kv: kv[0].sort_key)], w


def laurent_columns(kl):
    """The packed scan's columns, each (y, x -> (z -> h_{x,y,z})) over
    elements and Laurent polynomials, as the oracle's ``_h_columns`` gives
    them."""
    elements = kl.system.dense_tables().elements
    offset = kl.algebra.weight(kl.system.longest_element())
    rows, norms = _packed_action_rows(kl)
    width = kl._width
    for y, column in _packed_columns(kl, rows, norms):
        yield elements[y], {
            elements[x]: {elements[z]: LaurentPoly(-offset,
                                                   unpack(h, width, 1 << width))
                          for z, h in hs.items()}
            for x, hs in enumerate(column)}


SCAN_CASES = [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("D4", None),
    ("B2", None), ("B3", None), ("B3", (1, 1, 2)), ("B3", (2, 2, 1)),
    ("G2", (2, 1)),
]


@pytest.mark.parametrize("label,weights", SCAN_CASES)
def test_packed_action_rows_match_oracle(label, weights):
    # each row entry is a coefficient of c_s c_u times v^L(s); the row norms
    # are the largest l1 norm of a row of each s
    kl = KLBasis(fresh(label, weights))
    rows, norms = _packed_action_rows(kl)
    elements, width = kl.system.dense_tables().elements, kl._width
    oracle = _action_rows(KLBasis(fresh(label, weights)))
    for s, L in enumerate(kl.algebra.weight.values):
        decoded = {elements[u]: {elements[z]: LaurentPoly(
            -L, unpack(a, width, 1 << width)) for z, a in row.items()}
            for u, row in enumerate(rows[s])}
        assert decoded == oracle[s], s
        assert norms[s] == max(sum(sum(map(abs, m.coeffs)) for m in row.values())
                               for row in oracle[s].values()), s


@pytest.mark.parametrize("label,weights", SCAN_CASES)
def test_packed_scan_matches_oracle(label, weights):
    packed = laurent_columns(KLBasis(fresh(label, weights)))
    oracle = _h_columns(KLBasis(fresh(label, weights)))
    columns = 0
    for (y, column), (oy, ocolumn) in zip(packed, oracle, strict=True):
        assert y == oy and column == ocolumn, y
        columns += 1
    assert columns == system(label).order()


def test_tiny_scan_width_widens_and_matches_oracle():
    # G2 at weights 2,1 is a case whose KL rows fit 8-bit digits and whose
    # h_{x,y,z} do not
    k = KLBasis(fresh("G2", (2, 1)))
    k._width = 8
    for w in system("G2").enumerate_elements():
        k._packed_row(w)
    assert k._width == 8
    scanned = _h_scan(k, None)
    assert k._width > 8
    assert scanned == _h_scan(KLBasis(fresh("G2", (2, 1))), None)
    oracle = dict(_h_columns(KLBasis(fresh("G2", (2, 1)))))
    assert dict(laurent_columns(k)) == oracle


def test_cross_check_rejects_a_row_of_y_that_v_to_the_l_does_not_divide():
    # v^L(y) c_y = sum_u (P_y[u] / v^L(u)) T~_u: a v^1 term at u = s_1,
    # L(s_1) = 2, leaves the division inexact
    k = KLBasis(fresh("B2", (1, 2)))
    dense = k.system.dense_tables()
    y = len(dense.elements) - 1
    row = k._packed_row(dense.elements[y])[0]
    row[k.system.generator(1)] += 1 << k._width
    with pytest.raises(InternalCheckError, match="P_y.*inexact shift"):
        _check_pair(k, 0, y, {})


@pytest.mark.parametrize("width", [8, 16, 24, 32, 64, 128])
def test_palindromes_at_every_width(width):
    rng = random.Random(width)
    for _ in range(50):
        blocks, expected = [], True
        for _ in range(rng.randrange(1, 5)):
            digits = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 8))]
            if rng.random() < 0.7:
                digits[len(digits) // 2 + 1:] = digits[:(len(digits) - 1) // 2][::-1]
            expected &= digits == digits[::-1]
            blocks.append(pack(digits, width).to_bytes(width // 8 * len(digits),
                                                       "little"))
        assert _palindrome_test(width)(blocks) == expected


@pytest.mark.parametrize("width", [8, 16, 24, 32, 64, 128])
def test_digit_reader_at_every_width(width):
    rng, half = random.Random(width), 1 << (width - 1)
    read = _digit_reader(width, 5)
    for _ in range(50):
        digits = [rng.randrange(-half, half) for _ in range(5)]
        assert list(read(pack(digits, width))) == digits
    assert list(read(pack([-half, half - 1, -1, 0, 1], width))) == [
        -half, half - 1, -1, 0, 1]
    with pytest.raises(OverflowError):
        read(pack([0] * 5 + [1], width))
    with pytest.raises(OverflowError):
        read(pack([0] * 5 + [-1], width))
