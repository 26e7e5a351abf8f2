"""Coxeter systems: construction, canonical words, enumeration, Bruhat
order (against a brute-force oracle), and conjugacy classes."""

import itertools
import math
import pickle
import random
from collections import Counter

import pytest

from coxeter_oracle import (assert_matches_root_data, assert_matches_word_walk,
                            fraction_component_is_finite, orbit_classes,
                            sorted_levels)
from hx.coxeter import (Element, INFINITE, InfiniteGroupError,
                        InternalCheckError, _cartan_from_matrix,
                        _component_is_finite, _diagram_components, build_system)
from hx.hecke import HeckeAlgebra
from support import system

CLASSICAL_ORDERS = [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120),
    ("B2", 8), ("B3", 48), ("B4", 384), ("C3", 48),
    ("D3", 24), ("D4", 192), ("F4", 1152), ("G2", 12),
]


@pytest.mark.parametrize("label,order", CLASSICAL_ORDERS)
def test_classical_orders(label, order):
    W = system(label)
    assert W.is_finite
    assert W.order() == order


def test_order_formulas():
    for n in range(1, 5):
        assert system(f"A{n}").order() == math.factorial(n + 1)
    for n in range(2, 5):
        assert system(f"B{n}").order() == 2 ** n * math.factorial(n)
    for n in range(3, 5):
        assert system(f"D{n}").order() == 2 ** (n - 1) * math.factorial(n)


@pytest.mark.parametrize("label", ["~A1", "~A2", "~B3", "~C2", "~D4",
                                   "~E6", "~E7", "~E8", "~F4", "~G2"])
def test_affine_labels_infinite(label):
    assert not system(label).is_finite


def test_build_from_matrix():
    W = build_system([[1, 3], [3, 1]])
    assert W.is_finite and W.order() == 6
    aff = build_system([[1, "inf"], ["inf", 1]])
    assert not aff.is_finite
    # cycles are never finite
    assert not build_system([[1, 3, 4], [3, 1, 3], [4, 3, 1]]).is_finite
    # rank 0 degenerate system
    trivial = build_system([])
    assert trivial.is_finite and trivial.order() == 1


@pytest.mark.parametrize("rows,message", [
    ([[1, 3]], "square"),
    ([[1, 3], [4, 1]], "symmetric"),
    ([[2, 3], [3, 2]], "diagonal"),
    ([[1, 1], [1, 1]], "< 2"),
    ([[1, 5], [5, 1]], "crystallographic"),
    ([[1, 7], [7, 1]], "crystallographic"),
])
def test_malformed_matrices_rejected(rows, message):
    with pytest.raises(ValueError, match=message):
        build_system(rows)


def test_unknown_labels_rejected():
    for label in ["H3", "Z2", "E9", "A0", "D2", "~B2", "B1", "F5"]:
        with pytest.raises(ValueError):
            build_system(label)


def test_finiteness_against_enumeration_cap():
    # rank-3 crystallographic groups have order at most |W(B3)| = 48, so a
    # length ball larger than that certifies infiniteness
    tri = build_system([[1, 3, 3], [3, 1, 4], [3, 4, 1]])
    assert not tri.is_finite
    assert len(tri.enumerate_elements(max_length=12)) > 48
    # a path with the 4-bond in the middle of 4 nodes is F4: finite
    f4ish = build_system([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]])
    assert f4ish.is_finite and f4ish.order() == 1152


def test_normal_form_dihedral_and_braid_examples():
    A2 = system("A2")
    assert A2.normal_form([0, 0]).word == ()
    assert A2.normal_form([1, 0, 1]).word == (0, 1, 0)  # braid relation
    B2 = system("B2")
    w = B2.normal_form([0, 1, 0, 1, 0, 1])  # (s0 s1)^3 = (s0 s1)^-1
    assert w.word == (1, 0)


def test_normal_form_index_out_of_range():
    with pytest.raises(ValueError):
        system("A2").normal_form([0, 2])


def test_generator_step_index_out_of_range():
    # the memos are indexed by generator, so a negative index must be
    # rejected rather than read another generator's memo
    W = system("A2")
    w = W.normal_form([0, 1])
    W.left_mul_gen(1, w), W.right_mul_gen(w, 0)  # fill the memos first
    for i in (-1, W.rank):
        with pytest.raises(ValueError, match="out of range"):
            W.left_mul_gen(i, w)
        with pytest.raises(ValueError, match="out of range"):
            W.right_mul_gen(w, i)


def _random_word_with_rewrites(rng, W, length):
    """A word plus the same word mangled by quadratic/braid rewrites."""
    word = [rng.randrange(W.rank) for _ in range(length)]
    mangled = list(word)
    for _ in range(6):
        op = rng.randrange(3)
        if op == 0:  # insert s s
            pos = rng.randint(0, len(mangled))
            g = rng.randrange(W.rank)
            mangled[pos:pos] = [g, g]
        elif op == 1 and len(mangled) >= 2:  # delete adjacent s s
            for pos in range(len(mangled) - 1):
                if mangled[pos] == mangled[pos + 1]:
                    del mangled[pos:pos + 2]
                    break
        else:  # braid rewrite on an alternating run
            for pos in range(len(mangled)):
                for j in range(W.rank):
                    i = mangled[pos]
                    m = W.matrix[i][j]
                    if m is INFINITE or m < 3:
                        continue
                    run = [(i, j)[k % 2] for k in range(m)]
                    if mangled[pos:pos + m] == run:
                        mangled[pos:pos + m] = [(j, i)[k % 2] for k in range(m)]
                        break
                else:
                    continue
                break
    return word, mangled


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "~A1", "~C2"])
def test_normal_form_invariant_under_rewrites(label):
    W = system(label)
    rng = random.Random(hash(label) & 0xFFFF)
    for _ in range(40):
        word, mangled = _random_word_with_rewrites(rng, W, rng.randint(0, 10))
        assert W.normal_form(word) == W.normal_form(mangled)


def test_normal_form_idempotent_on_canonical_words():
    W = system("B3")
    for w in W.enumerate_elements():
        assert W.normal_form(w.word) is w


@pytest.mark.parametrize("label", ["A3", "B3", "~A1"])
def test_length_changes_by_one(label):
    W = system(label)
    rng = random.Random(5)
    pool = W.enumerate_elements(max_length=None if W.is_finite else 8)
    for _ in range(100):
        w = rng.choice(pool)
        for i in range(W.rank):
            sw, sign = W.left_mul_gen(i, w)
            assert sw.length == w.length + sign
            assert sign in (-1, +1)


@pytest.mark.parametrize("label,radius", [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None),
    ("B2", None), ("B3", None), ("B4", None), ("D4", None), ("G2", None),
    ("F4", None), ("~A1", 12), ("~A2", 6), ("~C2", 6), ("~G2", 8),
])
def test_root_data_arithmetic_matches_word_walk(label, radius):
    words = [w.word for w in system(label).enumerate_elements(max_length=radius)]
    # a fresh system, longest words first, so most steps build a new element
    assert_matches_word_walk(build_system(label), words[::-1])


HYPERBOLIC_343 = [[1, 3, 3], [3, 1, 4], [3, 4, 1]]  # the (3, 4, 3) triangle


@pytest.mark.parametrize("source,radius", [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("A5", None),
    ("B2", None), ("B3", None), ("B4", None), ("B5", None), ("D4", None),
    ("D5", None), ("F4", None), ("G2", None), ("~A2", 6), ("~C2", 6),
    ("~G2", 8), (HYPERBOLIC_343, 7)],
    ids=lambda v: "343" if v is HYPERBOLIC_343 else str(v))
def test_heights_match_the_root_data_oracle(source, radius):
    words = [w.word for w in build_system(source).enumerate_elements(max_length=radius)]
    # a fresh system, longest words first, so most steps build a new element
    W = build_system(source)
    elements = [W.normal_form(word) for word in words[::-1]]
    rng = random.Random(3)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(100)]
    assert_matches_root_data(W, elements, pairs)


def test_integer_finiteness_matches_the_fraction_oracle():
    # every component of every matrix of rank 2 to 4 with bonds 2, 3, 4, 6, inf
    bonds = (2, 3, 4, 6, INFINITE)
    components = 0
    for rank in (2, 3, 4):
        cells = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
        for choice in itertools.product(bonds, repeat=len(cells)):
            matrix = [[1] * rank for _ in range(rank)]
            for (i, j), bond in zip(cells, choice):
                matrix[i][j] = matrix[j][i] = bond
            cartan = _cartan_from_matrix(matrix)
            for nodes in _diagram_components(matrix):
                fast = _component_is_finite(matrix, cartan, nodes)
                assert fast == fraction_component_is_finite(matrix, cartan, nodes), (
                    matrix, nodes)
                components += 1
    assert components == 16317


def test_normal_form_beyond_the_recursion_limit():
    W = build_system("~A1")
    w = W.normal_form([0, 1] * 750)
    assert w.word == (0, 1) * 750
    assert W.inverse(w).word == (1, 0) * 750
    assert W.descents(w) == (frozenset({0}), frozenset({1}))
    assert W.left_mul_gen(1, w) == (W.normal_form((1, 0) * 750 + (1,)), +1)
    # a fresh system, reached by word only
    assert build_system("~A1")._elem(w.word).word == w.word


def test_multiply_inverse_descents():
    A2 = system("A2")
    w = A2.normal_form([0, 1])
    left, right = A2.descents(w)
    assert left == frozenset({0}) and right == frozenset({1})
    # descent sets agree with direct length comparison
    A3 = system("A3")
    for w in A3.enumerate_elements():
        for i in range(A3.rank):
            drops_left = A3.multiply(A3.generator(i), w).length < w.length
            drops_right = A3.multiply(w, A3.generator(i)).length < w.length
            assert (i in A3.left_descents(w)) == drops_left
            assert (i in A3.right_descents(w)) == drops_right

    els = A3.enumerate_elements()
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.choice(els), rng.choice(els)
        assert A3.multiply(a, A3.identity) is a
        assert A3.inverse(A3.inverse(a)) is a
        assert A3.multiply(a, A3.inverse(a)).is_identity()
        assert (A3.inverse(A3.multiply(a, b))
                == A3.multiply(A3.inverse(b), A3.inverse(a)))
        assert A3.inverse(a).length == a.length


def test_mixed_system_rejected():
    A2, A3 = system("A2"), system("A3")
    with pytest.raises(ValueError, match="different"):
        A2.multiply(A2.identity, A3.identity)


def test_enumeration_profiles():
    A2 = system("A2")
    profile = Counter(w.length for w in A2.enumerate_elements())
    assert [profile[k] for k in range(4)] == [1, 2, 2, 1]
    aff = system("~A1")
    assert len(aff.enumerate_elements(max_length=3)) == 7
    for bound in range(8):
        assert len(aff.enumerate_elements(max_length=bound)) == 2 * bound + 1
    B2 = system("B2")
    els = B2.enumerate_elements()
    assert len(els) == 8 and els[-1].length == 4
    with pytest.raises(InfiniteGroupError):
        aff.enumerate_elements()


def test_enumeration_deterministic_order():
    W = system("B3")
    els = W.enumerate_elements()
    assert els == sorted(els, key=lambda w: w.sort_key)
    assert len(set(els)) == len(els)



@pytest.mark.parametrize("label", ["A4", "B3", "D4", "F4"])
def test_dense_tables_agree_with_element_arithmetic(label):
    W = build_system(label)
    assert W._dense is None  # never built at construction
    dense = W.dense_tables()
    assert W.dense_tables() is dense
    els = W.enumerate_elements()
    assert list(dense.elements) == els
    assert all(dense.index[w] == k for k, w in enumerate(els))
    assert list(dense.lengths) == [w.length for w in els]
    for k, w in enumerate(els):
        for i in range(W.rank):
            entry, (u, sign) = dense.left[i][k], W.left_mul_gen(i, w)
            assert entry == (dense.index[u] if sign > 0 else ~dense.index[u])
            assert (entry >= 0) == (u.length > w.length)
        assert dense.inverse[k] == dense.index[W.inverse(w)]
        assert W.multiply(w, dense.elements[dense.inverse[k]]).is_identity()
        if k:
            s, parent = dense.first[k], els[dense.tail[k]]
            assert W.left_mul_gen(s, parent) == (w, +1)
            assert w.word == (s,) + parent.word
    assert dense.first[0] == dense.tail[0] == -1
    with pytest.raises(InfiniteGroupError):
        system("~A2").dense_tables()


@pytest.mark.parametrize("label", ["A4", "D4", "B4", "F4"])
def test_dense_inverse_table_is_an_involution(label):
    # built along the tail tree (w = s t, w^-1 = t^-1 s); checked against
    # the element of the reversed word
    W = build_system(label)
    dense = W.dense_tables()
    for k, w in enumerate(dense.elements):
        assert dense.elements[dense.inverse[k]] is W.inverse(w)
        assert dense.inverse[dense.inverse[k]] == k


# bond orders 3, 4 and 3: 1/3 + 1/4 + 1/3 < 1, a hyperbolic triangle group
HYPERBOLIC = [[1, 3, 4], [3, 1, 3], [4, 3, 1]]


@pytest.mark.parametrize("source,radius", [
    ("~A2", 7), ("~C2", 7), ("~G2", 8), (HYPERBOLIC, 7)])
def test_ball_matches_the_sorted_level_oracle(source, radius):
    W = build_system(source)
    oracle = sorted_levels(build_system(source), radius)
    for bound in (3, radius):  # a partial ball, then extended
        ball = W.enumerate_elements(max_length=bound)
        assert [w.word for w in ball] == [
            w.word for level in oracle[:bound + 1] for w in level]


def _memo_words(W):
    """Each generator's left-step memo, by words."""
    return [{w.word: (u.word, sign) for w, (u, sign) in memo.items()}
            for memo in W._lmul]


@pytest.mark.parametrize("label,radius", [
    ("A4", None), ("B3", None), ("D4", None), ("F4", None), ("G2", None),
    ("~A2", 6), ("~C2", 6), ("~G2", 7)])
def test_enumeration_over_a_prefilled_memo(label, radius):
    # generator steps, normal forms and word lookups before enumeration fill
    # the memo and the interning out of order; the levels, the memo and the
    # dense tables must come out as on an untouched system
    untouched = build_system(label)
    ball = untouched.enumerate_elements(max_length=radius)
    words = [w.word for w in ball[::7]] + [ball[-1].word, ball[len(ball) // 2].word]
    W = build_system(label)
    for word in words:
        w = W.normal_form(word)
        W._elem(word[::-1])
        W.normal_form(word + word[:3])
        for i in range(W.rank):
            W.left_mul_gen(i, w)
    assert W._levels == [[W.identity]]
    W.enumerate_elements(max_length=3)
    assert [w.word for w in W.enumerate_elements(max_length=radius)] == [
        w.word for w in ball]
    assert [[w.word for w in level] for level in W._levels] == [
        [w.word for w in level] for level in untouched._levels]
    for filled, clean in zip(_memo_words(W), _memo_words(untouched)):
        assert {w: filled[w] for w in clean} == clean
    if radius is None:
        assert _memo_words(W) == _memo_words(untouched)
        dense, clean = W.dense_tables(), untouched.dense_tables()
        assert [w.word for w in dense.elements] == [w.word for w in clean.elements]
        assert dense[2:] == clean[2:]  # lengths, left, first, tail, inverse


def test_descent_pair_left_unfilled_is_an_internal_error():
    W = build_system("A2")
    W.enumerate_elements(max_length=1)
    del W._lmul[0][W.generator(0)]
    with pytest.raises(InternalCheckError, match="not filled"):
        W.enumerate_elements(max_length=2)


def test_inverse_lookup_off_an_ascent_is_an_internal_error():
    W = build_system("A2")
    W.enumerate_elements()
    s1 = W.generator(1)
    W._lmul[0][s1] = (W._lmul[0][s1][0], -1)
    with pytest.raises(InternalCheckError, match="not an ascent"):
        W.dense_tables()


def _bruhat_oracle(W):
    """Downset closure of 'drop one letter from any reduced word'."""
    def all_reduced_words(w):
        if w.is_identity():
            return [()]
        words = []
        for j in sorted(W.left_descents(w)):
            for rest in all_reduced_words(W.left_mul_gen(j, w)[0]):
                words.append((j,) + rest)
        return words

    below = {}
    for w in W.enumerate_elements():
        down = {w}
        frontier = {w}
        while frontier:
            nxt = set()
            for u in frontier:
                for word in all_reduced_words(u):
                    for t in range(len(word)):
                        v = W.normal_form(word[:t] + word[t + 1:])
                        if v not in down:
                            down.add(v)
                            nxt.add(v)
            frontier = nxt
        below[w] = down
    return below


def test_bruhat_basic_facts():
    A2 = system("A2")
    w0 = A2.longest_element()
    for w in A2.enumerate_elements():
        assert A2.bruhat_leq(A2.identity, w)
        assert A2.bruhat_leq(w, w0)
    s0, s1 = A2.generator(0), A2.generator(1)
    assert A2.bruhat_leq(s0, A2.normal_form([0, 1]))
    assert not A2.bruhat_leq(s0, s1)


def test_bruhat_exhaustive_against_oracle_a3():
    W = system("A3")
    oracle = _bruhat_oracle(W)
    for y in W.enumerate_elements():
        for x in W.enumerate_elements():
            assert W.bruhat_leq(x, y) == (x in oracle[y]), (x, y)


@pytest.mark.parametrize("label,radius", [
    ("A4", None), ("B3", None), ("D4", None), ("~G2", 7)])
def test_bruhat_interval_matches_brute_force(label, radius):
    W = build_system(label)
    ball = W.enumerate_elements(max_length=radius)
    for w in reversed(ball):  # longest first: the tails are not yet memoized
        assert W.bruhat_interval_below(w) == [y for y in ball if W.bruhat_leq(y, w)]


@pytest.mark.parametrize("label,word", [("B3", (0, 1, 2) * 3), ("~G2", (0, 1, 2) * 3)])
def test_interval_and_row_fill_the_memo_they_miss(label, word):
    # nothing enumerated: the left_mul_gen memo the interval and the row read
    # in place is empty, and every miss must fill it
    fresh, full = build_system(label), build_system(label)
    w = fresh.normal_form(word)
    below = fresh.bruhat_interval_below(w)
    ball = full.enumerate_elements(max_length=w.length)
    w_full = full.normal_form(word)
    assert [y.word for y in below] == [y.word for y in ball if full.bruhat_leq(y, w_full)]
    for i in range(fresh.rank):
        ys = (*below, fresh.normal_form(word + (i,)))  # w s_i may lie above w
        expected = [full.left_mul_gen(i, full.normal_form(y.word)) for y in ys]
        got = fresh._left_mul_row(i, ys)
        assert [(sy.word, sign) for sy, sign in got] == [
            (sy.word, sign) for sy, sign in expected]


def test_conjugacy_classes():
    assert sorted(c.size for c in system("A2").conjugacy_classes()) == [1, 2, 3]
    assert len(system("B2").conjugacy_classes()) == 5
    assert sorted(c.size for c in system("A3").conjugacy_classes()) == [1, 3, 6, 6, 8]
    with pytest.raises(InfiniteGroupError):
        system("~A1").conjugacy_classes()


@pytest.mark.parametrize("source", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "F4",
    "G2", [[1, 2, 2], [2, 1, 3], [2, 3, 1]]])  # the last is A1 x A2
def test_classes_match_the_orbit_oracle(source):
    W = build_system(source)
    classes = W.conjugacy_classes()
    oracle = orbit_classes(build_system(source))
    assert W.order() == sum(c.size for c in oracle)
    assert len(classes) == len(oracle)
    words = lambda els: [w.word for w in els]
    for idx, (c, o) in enumerate(zip(classes, oracle)):
        assert c.representative.word == o.representative.word
        assert words(c.members) == words(o.members)
        assert words(c.min_length_set) == words(o.min_length_set)
        assert c.centralizer_order == o.centralizer_order
        assert all(W.class_of(w) == idx for w in c.members)


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_class_invariants(label):
    W = system(label)
    classes = W.conjugacy_classes()
    order = W.order()
    assert sum(c.size for c in classes) == order
    seen = set()
    for c in classes:
        assert c.centralizer_order * c.size == order
        min_len = min(w.length for w in c.members)
        assert all(w.length == min_len for w in c.min_length_set)
        assert {w for w in c.members if w.length == min_len} == set(c.min_length_set)
        assert c.representative == c.members[0]
        seen.update(c.members)
        # closure under generator conjugation
        for w in c.members:
            for i in range(W.rank):
                conj = W.multiply(W.generator(i), W.multiply(w, W.generator(i)))
                assert conj in set(c.members)
    assert len(seen) == order
    # deterministic sort order
    keys = [(c.min_length, c.representative.word) for c in classes]
    assert keys == sorted(keys)


def test_interned_elements_are_their_own_identity():
    # one Element object per group element and system, so equality and the
    # hash of every dict and set are object's
    assert Element.__hash__ is object.__hash__
    assert Element.__eq__ is object.__eq__
    # and so on the copy of an algebra that a spawned worker pool unpickles
    W = build_system("F4")
    W.conjugacy_classes()
    H = pickle.loads(pickle.dumps(HeckeAlgebra(W)))
    W = H.system
    for w in W.enumerate_elements():
        assert W.normal_form(w.word) is w
        assert W.inverse(W.inverse(w)) is w
