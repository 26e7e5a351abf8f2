"""Reference implementations of Coxeter element arithmetic, enumeration
and conjugacy classes, kept as oracles for the kernel in ``hx.coxeter``.

``WordWalk`` holds the word walks that ``CoxeterSystem`` ran before each
element carried its root data: descents by reflecting a unit vector along
the whole word, the exchange condition by walking it again, and the
canonical word by repeated exchanges. They share no state with the kernel:
they work on plain words and read only the system's rank and Cartan matrix.

``RootData`` is the rank^2 root data each element carried before it
carried only the heights of the roots: the coordinates of w^{-1}(alpha_j)
for every j, with both a left and a right step. It finds canonical words
through an intern table of its own, so it shares no state with the kernel
either.

``fraction_component_is_finite`` is the finiteness test before it went
integer-only: Sylvester on the symmetrized Cartan form in exact fractions.

``sorted_levels`` and ``orbit_classes`` are the length-level BFS and the
class orbit closure that ``CoxeterSystem`` ran before its dense-id kernel:
every left ascent of the last level collected in a set and sorted by word,
and orbits of ``Element``s under w -> s w s by one left and one right
generator step. They use only ``left_mul_gen`` and ``right_mul_gen``, so
run them on a system of their own to keep them apart from the kernel's
enumeration.

The methods and functions are unchanged apart from where they live,
except ``RootData``'s ``of_word``, ``word`` and ``heights``, which stand in
for the kernel's word walk and interning.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from hx.coxeter import INFINITE, ConjugacyClass, Element


class WordWalk:
    """Canonical words and descents of a system, by walking words."""

    def __init__(self, system):
        self.rank = system.rank
        self.cartan = system.cartan
        self._units = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank))

    def _reflect(self, i: int, vec: list[int]) -> None:
        row = self.cartan[i]
        vec[i] -= sum(row[j] * vec[j] for j in range(self.rank) if vec[j])

    def _is_left_descent_word(self, word: Sequence[int], i: int) -> bool:
        vec = list(self._units[i])
        for a in word:
            self._reflect(a, vec)
        return min(vec) < 0

    def _is_right_descent_word(self, word: Sequence[int], i: int) -> bool:
        vec = list(self._units[i])
        for a in reversed(word):
            self._reflect(a, vec)
        return min(vec) < 0

    def _left_exchange(self, word: Sequence[int], i: int) -> tuple[int, ...]:
        """Reduced word for s_i * w given that i is a left descent of w."""
        vec = list(self._units[i])
        for t, a in enumerate(word):
            if vec == list(self._units[a]):
                return tuple(word[:t]) + tuple(word[t + 1:])
            self._reflect(a, vec)
        raise AssertionError("exchange failed on a reduced word")

    def _right_exchange(self, word: Sequence[int], i: int) -> tuple[int, ...]:
        """Reduced word for w * s_i given that i is a right descent of w."""
        vec = list(self._units[i])
        for t in range(len(word) - 1, -1, -1):
            if vec == list(self._units[word[t]]):
                return tuple(word[:t]) + tuple(word[t + 1:])
            self._reflect(word[t], vec)
        raise AssertionError("exchange failed on a reduced word")

    def _canonical_of_reduced(self, word: Sequence[int]) -> tuple[int, ...]:
        """ShortLex-least reduced word of the element of a reduced word.

        Greedy: the canonical word starts with the least left descent."""
        out = []
        cur = tuple(word)
        while cur:
            first = cur[0]
            smaller = None
            for j in range(first):
                if self._is_left_descent_word(cur, j):
                    smaller = j
                    break
            if smaller is None:
                out.append(first)
                cur = cur[1:]
            else:
                out.append(smaller)
                cur = self._left_exchange(cur, smaller)
        return tuple(out)

    # -- the operations the kernel is checked against, on canonical words ----

    def left_mul_gen(self, i: int, word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        if self._is_left_descent_word(word, i):
            return self._canonical_of_reduced(self._left_exchange(word, i)), -1
        return self._canonical_of_reduced((i,) + word), +1

    def right_mul_gen(self, word: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
        if self._is_right_descent_word(word, i):
            return self._canonical_of_reduced(self._right_exchange(word, i)), -1
        return self._canonical_of_reduced(word + (i,)), +1

    def inverse(self, word: tuple[int, ...]) -> tuple[int, ...]:
        return self._canonical_of_reduced(tuple(reversed(word)))

    def left_descents(self, word: tuple[int, ...]) -> frozenset[int]:
        return frozenset(i for i in range(self.rank)
                         if self._is_left_descent_word(word, i))

    def right_descents(self, word: tuple[int, ...]) -> frozenset[int]:
        return frozenset(i for i in range(self.rank)
                         if self._is_right_descent_word(word, i))


def assert_matches_word_walk(W, words) -> None:
    """Check W's generator steps, inverses and descents on the elements of
    ``words`` (canonical words) against the word walks."""
    walk = WordWalk(W)
    for word in words:
        assert walk._canonical_of_reduced(word) == word
        w = W.normal_form(word)
        assert w.word == word
        assert W.left_descents(w) == walk.left_descents(word), word
        assert W.right_descents(w) == walk.right_descents(word), word
        assert W.inverse(w).word == walk.inverse(word), word
        for i in range(W.rank):
            u, sign = W.left_mul_gen(i, w)
            assert (u.word, sign) == walk.left_mul_gen(i, word), (i, word)
            u, sign = W.right_mul_gen(w, i)
            assert (u.word, sign) == walk.right_mul_gen(word, i), (word, i)


class RootData:
    """Elements as the flat tuple of the coordinates of w^{-1}(alpha_j),
    j = 0 .. rank-1, with canonical words from an intern table of its own."""

    def __init__(self, system):
        self.rank = n = system.rank
        self.cartan = system.cartan
        self._cartan_nonzero = tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.cartan)
        self.identity = tuple(int(j == k) for j in range(n) for k in range(n))
        self._words = {self.identity: ()}

    def act(self, roots: tuple[int, ...], i: int, left: bool) -> tuple[int, ...]:
        """The root data of s_i w (left) or w s_i (right) from that of w.

        A left step makes every v_j into v_j - C[i][j] v_i; a right step
        applies s_i to every v_j, as (w s_i)^{-1}(alpha_j) = s_i(v_j)."""
        n = self.rank
        out = list(roots)
        if left:
            vi = roots[i * n:i * n + n]
            for j, c in self._cartan_nonzero[i]:
                b = j * n
                out[b:b + n] = [x - c * y for x, y in zip(roots[b:b + n], vi)]
        else:
            row = self.cartan[i]
            for b in range(0, n * n, n):
                out[b + i] -= sum(map(mul, row, roots[b:b + n]))
        return tuple(out)

    def negative(self, roots: tuple[int, ...], j: int) -> bool:
        """Whether w^{-1}(alpha_j) is negative, i.e. j is a left descent."""
        n = self.rank
        return min(roots[j * n:j * n + n]) < 0

    def of_word(self, word: Sequence[int]) -> tuple[int, ...]:
        roots = self.identity
        for i in reversed(word):
            roots = self.act(roots, i, True)
        return roots

    def word(self, roots: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical word: the least left descent d, then the word of
        s_d w, looked up the same way."""
        chain = []
        while roots not in self._words:
            d = next(j for j in range(self.rank) if self.negative(roots, j))
            chain.append((d, roots))
            roots = self.act(roots, d, True)
        word = self._words[roots]
        for d, roots in reversed(chain):
            word = self._words[roots] = (d,) + word
        return word

    def heights(self, roots: tuple[int, ...]) -> tuple[int, ...]:
        """The coordinate sums of the w^{-1}(alpha_j)."""
        n = self.rank
        return tuple(sum(roots[b:b + n]) for b in range(0, n * n, n))


def assert_matches_root_data(W, elements, pairs) -> None:
    """Check W's heights, descents, generator steps and inverses on
    ``elements``, and its products and normal forms on ``pairs`` of them,
    against the root data."""
    data = RootData(W)
    for w in elements:
        roots = data.of_word(w.word)
        assert data.word(roots) == w.word
        assert w.heights == data.heights(roots), w
        assert W.left_descents(w) == frozenset(
            j for j in range(W.rank) if data.negative(roots, j)), w
        assert W.inverse(w).word == data.word(data.of_word(w.word[::-1])), w
        for i in range(W.rank):
            for u, sign, step in ((*W.left_mul_gen(i, w), data.act(roots, i, True)),
                                  (*W.right_mul_gen(w, i), data.act(roots, i, False))):
                word = data.word(step)
                assert (u.word, sign) == (word, len(word) - len(w.word)), (w, i)
    for a, b in pairs:
        roots = data.of_word(a.word)
        for i in b.word:
            roots = data.act(roots, i, False)
        assert W.multiply(a, b).word == data.word(roots), (a, b)
        word = a.word + b.word[::-1] + b.word
        assert W.normal_form(word).word == data.word(data.of_word(word)), word


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    mat = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] / inv
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return det


def fraction_component_is_finite(matrix, cartan, nodes: list[int]) -> bool:
    """Finite iff the symmetrized Cartan form on the component is positive
    definite (Sylvester with exact fractions)."""
    if any(matrix[i][j] is INFINITE for i in nodes for j in nodes):
        return False
    d: dict[int, Fraction] = {nodes[0]: Fraction(1)}
    queue = [nodes[0]]
    while queue:
        i = queue.pop()
        for j in nodes:
            if j == i or cartan[i][j] == 0:
                continue
            if j in d:
                if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                    return False  # not symmetrizable: never finite type
            else:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                queue.append(j)
    k = len(nodes)
    sym = [[d[a] * cartan[a][b] for b in nodes] for a in nodes]
    for m in range(1, k + 1):
        if _fraction_det([row[:m] for row in sym[:m]]) <= 0:
            return False
    return True


def sorted_levels(W, upto: Optional[int] = None) -> list[list[Element]]:
    """The length levels of W up to length ``upto``, or all of a finite W."""
    levels = [[W.identity]]
    while upto is None or len(levels) <= upto:
        nxt = set()
        for w in levels[-1]:
            for i in range(W.rank):
                up, sign = W.left_mul_gen(i, w)
                if sign > 0:
                    nxt.add(up)
        if not nxt:
            break
        levels.append(sorted(nxt, key=lambda el: el.word))
    return levels


def orbit_classes(W) -> list[ConjugacyClass]:
    """The conjugacy classes of a finite W, sorted by representative."""
    elements = [w for level in sorted_levels(W) for w in level]
    total = len(elements)
    assigned: set[Element] = set()
    classes: list[ConjugacyClass] = []
    for seed in elements:
        if seed in assigned:
            continue
        orbit = {seed}
        queue = [seed]
        while queue:
            g = queue.pop()
            for i in range(W.rank):
                sg = W.left_mul_gen(i, g)[0]
                sgs = W.right_mul_gen(sg, i)[0]
                if sgs not in orbit:
                    orbit.add(sgs)
                    queue.append(sgs)
        members = tuple(sorted(orbit, key=lambda el: el.sort_key))
        assigned.update(members)
        min_len = members[0].length
        cmin = tuple(w for w in members if w.length == min_len)
        classes.append(ConjugacyClass(
            representative=members[0],
            members=members,
            min_length_set=cmin,
            centralizer_order=total // len(members)))
    classes.sort(key=lambda c: c.representative.sort_key)
    return classes
