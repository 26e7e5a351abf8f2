"""Reference implementations of Coxeter element arithmetic, enumeration
and conjugacy classes, kept as oracles for the kernel in ``hx.coxeter``.

``WordWalk`` holds the word walks that ``CoxeterSystem`` ran before each
element carried its root data: descents by reflecting a unit vector along
the whole word, the exchange condition by walking it again, and the
canonical word by repeated exchanges. They share no state with the kernel:
they work on plain words and read only the system's rank and Cartan matrix.

``sorted_levels`` and ``orbit_classes`` are the length-level BFS and the
class orbit closure that ``CoxeterSystem`` ran before its dense-id kernel:
every left ascent of the last level collected in a set and sorted by word,
and orbits of ``Element``s under w -> s w s by one left and one right
generator step. They use only ``left_mul_gen`` and ``right_mul_gen``, so
run them on a system of their own to keep them apart from the kernel's
enumeration.

The methods and functions are unchanged apart from where they live.
"""

from __future__ import annotations

from typing import Optional, Sequence

from hx.coxeter import ConjugacyClass, Element


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
