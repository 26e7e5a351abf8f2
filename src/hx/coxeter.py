"""
Coxeter systems $(W, S)$ with exact element arithmetic.

A system is built from a type label (``"B3"``, ``"~A2"``, ...) or an
explicit Coxeter matrix with entries in {2, 3, 4, 6, inf} off the
diagonal (the crystallographic bond orders; m = 5 and finite m >= 7 are
rejected because they force irrational root coordinates).

Elements are named by their ShortLex-least reduced word. Arithmetic uses
the "numbers game" on integral root coordinates coming from a Cartan
realization C of the Coxeter matrix, s_i(alpha_j) = alpha_j - C[i][j]
alpha_i: every w(alpha_j) is a root, all of whose coordinates share one
sign, and ``|s_i w| < |w|`` iff ``w^{-1}(alpha_i)`` is negative. This
works uniformly for finite, affine and hyperbolic systems; no group table
is required (Bjorner and Brenti, Combinatorics of Coxeter Groups, 4.3).

Heights. Each element carries, computed once, one int per generator: the
height ``mu_j = ht(w^{-1}(alpha_j))``, the sum of that root's coordinates.
It is ``<alpha_j, w rho*>`` for the coweight rho* that is 1 on every
simple root. A root is negative iff its height is, so j is a left descent
of w iff ``mu_j < 0``. A left step gives ``(s_i w)^{-1}(alpha_j) =
w^{-1}(alpha_j) - C[i][j] w^{-1}(alpha_i)``, so ``mu'_j = mu_j - C[i][j]
mu_i``, which moves only the j with ``C[i][j] != 0`` (and ``mu'_i =
-mu_i``). A right step is not a function of the heights: it is the
element of the word ``w.word + (i,)``, and its sign, and so a right
descent, comes from the lengths of the two words.

Interning. A system keeps one table, heights -> Element, and makes every
element through it: a step, a word or an inverse walks the heights from
the identity's ``(1, ..., 1)`` and looks the result up; only on a miss is
the canonical word built, as the least left descent d followed by the
canonical word of ``s_d u``, itself looked up the same way. The table is
faithful for every accepted matrix, finite, affine or hyperbolic. The
heights of w are the values of the simple roots, a basis, on w rho*, so
if u and v have the same heights then u rho* = v rho*, and g = v^{-1} u
fixes rho*. Then ``ht(g^{-1}(alpha_j)) = <alpha_j, g rho*> = 1 > 0`` for
all j, g has no left descent by the same theorem, and g = e. So each
group element is one Element object per system, and object identity,
which ``==`` and the hash of every dict and set use, is equality of
elements.

Enumeration. The length levels grow one generator at a time: for each i
in turn, every u of the last level, in order, takes its left step s_i u
when that is an ascent. The first pass to reach an element w is the pass
of its least left descent, so ``(i,) + u.word`` is w's canonical word and
each level comes out in (length, ShortLex) order with no sort (the order
of du Cloux's Coxeter3). Each step fills the left-step memo both ways, so
the descents of a level were all filled while the level below was
processed, and only ascents cost a step of the heights.

Dense ids. A finite group's elements are numbered in that order, and the
left table holds every generator step as an int. Inverses follow the
prefix tree: w = p s_r with r its last letter, and its prefix p = s_f q
is one left step from q, the prefix of w's tail, so ``w^{-1} = s_r
p^{-1}`` is one more. Conjugacy classes are the orbits of w -> s w s over
the ids, with s w s the inverse of s (s w)^{-1}. Seeds go in id order, so
each class is found from its representative and the classes come out in
order; they give the centralizer orders and the C_min sets of Geck and
Pfeiffer, ch. 3. Three checks raise InternalCheckError: an element newly
reached by s_i has no left descent below i, a level's descent pairs are
all filled before it is processed, and every prefix and inverse lookup is
an ascent.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence, Union

__all__ = [
    "INFINITE",
    "GatingError",
    "InfiniteGroupError",
    "InternalCheckError",
    "Element",
    "ConjugacyClass",
    "DenseTables",
    "CoxeterSystem",
    "build_system",
]

# bond order m_ij = infinity
INFINITE = None

# crystallographic Cartan entry pairs (C_ij, C_ji) per bond order, i < j
_BOND_CARTAN = {3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INFINITE: (-2, -2)}


class GatingError(RuntimeError):
    """A computation was requested outside its domain of definition."""


class InfiniteGroupError(GatingError):
    """Raised when an operation needs a finite group."""


class InternalCheckError(Exception):
    """A theorem-backed self-check failed: an implementation bug, not bad input."""


def _shortlex(el: "Element") -> tuple[int, tuple[int, ...]]:
    """``Element.sort_key`` as a plain function, for sorts of many elements."""
    return (len(el.word), el.word)


class Element:
    """A group element: its system's one object for it, with ``word`` its
    ShortLex-least reduced word and ``heights`` the heights of
    w^{-1}(alpha_j) for j = 0 .. rank-1.

    Only ``CoxeterSystem`` makes them, through its intern table, so two
    Elements are equal iff they are the same object: equality and hash are
    ``object``'s, and elements of different systems are never equal."""

    __slots__ = ("system", "word", "heights")

    def __init__(self, system: "CoxeterSystem", word: tuple[int, ...],
                 heights: tuple[int, ...]):
        self.system = system
        self.word = word
        self.heights = heights

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.word), self.word)

    def is_identity(self) -> bool:
        return not self.word

    def inverse(self) -> "Element":
        return self.system.inverse(self)

    def __mul__(self, other: "Element") -> "Element":
        return self.system.multiply(self, other)

    def __invert__(self) -> "Element":
        return self.system.inverse(self)

    def __str__(self) -> str:
        return "e" if not self.word else "*".join(f"s{i}" for i in self.word)

    def __repr__(self) -> str:
        return f"Element{list(self.word)}"


class ConjugacyClass(NamedTuple):
    """A conjugacy class of a finite system, with its C_min data."""

    representative: Element          # (length, ShortLex)-least member
    members: tuple[Element, ...]     # sorted by (length, ShortLex)
    min_length_set: tuple[Element, ...]
    centralizer_order: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def min_length(self) -> int:
        return self.representative.length

    def __repr__(self) -> str:
        return (f"ConjugacyClass(rep={self.representative!r}, size={self.size}, "
                f"min_length={self.min_length})")


class DenseTables(NamedTuple):
    """A finite group as dense integer ids, for kernels that loop over W.

    Ids follow (length, ShortLex) order, so the identity is 0 and each
    length level is a contiguous range. ``left[i][k]`` is the id of
    ``s_i * w_k``, stored as ``~id`` (a negative int) when the length goes
    down. For k > 0, ``first[k]`` is the first letter of w_k's canonical
    word and ``tail[k]`` the id of the rest of that word, its parent in the
    length-BFS tree; both are -1 for the identity. ``inverse[k]`` is the id
    of w_k^{-1}."""

    elements: tuple[Element, ...]
    index: dict[Element, int]
    lengths: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    first: tuple[int, ...]
    tail: tuple[int, ...]
    inverse: tuple[int, ...]


_LABEL_RE = re.compile(r"^(~?)([A-G])(\d+)$")


def _label_edges(label: str) -> tuple[int, list[tuple[int, int, Optional[int]]]]:
    """Return (rank, [(i, j, bond), ...]) for a normalized type label."""
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"unknown type label {label!r}")
    affine, family, n = bool(m.group(1)), m.group(2), int(m.group(3))
    path = lambda k: [(i, i + 1, 3) for i in range(k)]

    if not affine:
        if family == "A" and n >= 1:
            return n, path(n - 1)
        if family in ("B", "C") and n >= 2:
            return n, path(n - 2) + [(n - 2, n - 1, 4)]
        if family == "D" and n >= 3:
            return n, path(n - 3) + [(n - 3, n - 2, 3), (n - 3, n - 1, 3)]
        if family == "E" and n in (6, 7, 8):
            edges = [(0, 2, 3), (1, 3, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)]
            if n >= 7:
                edges.append((5, 6, 3))
            if n == 8:
                edges.append((6, 7, 3))
            return n, edges
        if family == "F" and n == 4:
            return 4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
        if family == "G" and n == 2:
            return 2, [(0, 1, 6)]
        raise ValueError(f"unknown type label {label!r}")

    if family == "A" and n == 1:
        return 2, [(0, 1, INFINITE)]
    if family == "A" and n >= 2:
        return n + 1, path(n) + [(0, n, 3)]
    if family == "B" and n >= 3:
        return n + 1, ([(0, 2, 3), (1, 2, 3)]
                       + [(i, i + 1, 3) for i in range(2, n - 1)]
                       + [(n - 1, n, 4)])
    if family == "C" and n >= 2:
        return n + 1, [(0, 1, 4)] + [(i, i + 1, 3) for i in range(1, n - 1)] + [(n - 1, n, 4)]
    if family == "D" and n >= 4:
        return n + 1, ([(0, 2, 3), (1, 2, 3)]
                       + [(i, i + 1, 3) for i in range(2, n - 2)]
                       + [(n - 2, n - 1, 3), (n - 2, n, 3)])
    if family == "E" and n in (6, 7, 8):
        _, edges = _label_edges(f"E{n}")
        attach = {6: 1, 7: 0, 8: 7}[n]
        return n + 1, edges + [(attach, n, 3)]
    if family == "F" and n == 4:
        # path order: affine node first, so the two odd-bond classes are
        # the first three and the last two nodes (matches the weight tables)
        return 5, [(0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 3)]
    if family == "G" and n == 2:
        return 3, [(0, 1, 3), (1, 2, 6)]
    raise ValueError(f"unknown type label {label!r}")


def _matrix_from_edges(rank: int, edges) -> tuple[tuple[Optional[int], ...], ...]:
    mat = [[2] * rank for _ in range(rank)]
    for i in range(rank):
        mat[i][i] = 1
    for i, j, bond in edges:
        mat[i][j] = mat[j][i] = bond
    return tuple(tuple(row) for row in mat)


def _parse_matrix(rows) -> tuple[tuple[Optional[int], ...], ...]:
    """Validate an explicit Coxeter matrix; "inf"/None encode infinity."""
    rank = len(rows)
    mat: list[list[Optional[int]]] = []
    for row in rows:
        if len(row) != rank:
            raise ValueError("Coxeter matrix must be square")
        out_row: list[Optional[int]] = []
        for entry in row:
            if entry in (INFINITE, "inf"):
                out_row.append(INFINITE)
            elif isinstance(entry, int) and not isinstance(entry, bool):
                out_row.append(entry)
            else:
                raise ValueError(f"bad Coxeter matrix entry {entry!r}")
        mat.append(out_row)
    for i in range(rank):
        if mat[i][i] != 1:
            raise ValueError("Coxeter matrix diagonal entries must be 1")
        for j in range(i + 1, rank):
            if mat[i][j] != mat[j][i]:
                raise ValueError("Coxeter matrix must be symmetric")
            m = mat[i][j]
            if m is INFINITE:
                continue
            if m < 2:
                raise ValueError(f"off-diagonal bond order {m} < 2 at ({i},{j})")
            if m not in (2, 3, 4, 6):
                raise ValueError(
                    f"bond order {m} at ({i},{j}) is not crystallographic "
                    f"(supported: 2, 3, 4, 6, inf)")
    return tuple(tuple(row) for row in mat)


def _cartan_from_matrix(matrix) -> tuple[tuple[int, ...], ...]:
    rank = len(matrix)
    cartan = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        cartan[i][i] = 2
        for j in range(i + 1, rank):
            m = matrix[i][j]
            if m == 2:
                continue
            cij, cji = _BOND_CARTAN[m]
            cartan[i][j] = cij
            cartan[j][i] = cji
    return tuple(tuple(row) for row in cartan)


def _diagram_components(matrix) -> list[list[int]]:
    rank = len(matrix)
    seen = [False] * rank
    comps = []
    for start in range(rank):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(rank):
                if not seen[j] and (matrix[i][j] is INFINITE or matrix[i][j] >= 3):
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


def _component_is_finite(matrix, cartan, nodes: list[int]) -> bool:
    """Finite iff the symmetrized Cartan form on the component is positive
    definite. The form is S = D C with D a positive diagonal, so its leading
    principal minors have the signs of C's, which fraction-free Bareiss
    elimination with no pivoting yields as its pivots (Sylvester)."""
    if any(matrix[i][j] is INFINITE for i in nodes for j in nodes):
        return False
    # d[j] = num / den, with d_i C[i][j] = d_j C[j][i] along every bond
    d: dict[int, tuple[int, int]] = {nodes[0]: (1, 1)}
    queue = [nodes[0]]
    while queue:
        i = queue.pop()
        num, den = d[i]
        for j in nodes:
            if j == i or cartan[i][j] == 0:
                continue
            if j in d:
                if num * cartan[i][j] * d[j][1] != d[j][0] * cartan[j][i] * den:
                    return False  # not symmetrizable: never finite type
            else:
                d[j] = (num * cartan[i][j], den * cartan[j][i])
                queue.append(j)
    mat = [[cartan[a][b] for b in nodes] for a in nodes]
    k = len(nodes)
    prev = 1
    for p in range(k):
        pivot = mat[p][p]  # the leading principal minor of order p + 1
        if pivot <= 0:
            return False
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                mat[r][c] = (mat[r][c] * pivot - mat[r][p] * mat[p][c]) // prev
        prev = pivot
    return True


class CoxeterSystem:
    """An immutable Coxeter system; all caches are write-once memos.

    Safe for unrestricted concurrent reads: cache fills are idempotent
    (every entry is a pure function of its key).
    """

    def __init__(self, matrix, *, label: Optional[str] = None):
        self.matrix = _parse_matrix(matrix)
        self.rank = len(self.matrix)
        self.type_label = label
        self.cartan = _cartan_from_matrix(self.matrix)
        comps = _diagram_components(self.matrix)
        self.is_finite = all(
            _component_is_finite(self.matrix, self.cartan, c) for c in comps)
        self.is_irreducible = len(comps) == 1

        rank = self.rank
        # (j, C[i][j]) for the nonzero entries of each Cartan row
        self._cartan_nonzero = tuple(
            tuple((j, c) for j, c in enumerate(row) if c) for row in self.cartan)
        self.identity = Element(self, (), (1,) * rank)
        self._by_heights: dict[tuple[int, ...], Element] = {
            self.identity.heights: self.identity}
        # _lmul[i][w] = (s_i w, sign) and _rmul[i][w] = (w s_i, sign)
        self._lmul: list[dict[Element, tuple[Element, int]]] = [
            {} for _ in range(rank)]
        self._rmul: list[dict[Element, tuple[Element, int]]] = [
            {} for _ in range(rank)]
        self._bruhat: dict[tuple[Element, Element], bool] = {}
        self._below: dict[Element, tuple[Element, ...]] = {
            self.identity: (self.identity,)}
        self._levels: list[list[Element]] = [[self.identity]]
        self._levels_complete = False
        self._classes: Optional[list[ConjugacyClass]] = None
        self._class_ids: list[int] = []  # by dense id
        self._dense: Optional[DenseTables] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_label(cls, label: str) -> "CoxeterSystem":
        label = label.strip()
        rank, edges = _label_edges(label)
        return cls(_matrix_from_edges(rank, edges), label=label)

    def matrix_json(self) -> list[list]:
        """Coxeter matrix in the external format ("inf" for infinity)."""
        return [["inf" if m is INFINITE else m for m in row] for row in self.matrix]

    def __repr__(self) -> str:
        tag = self.type_label or f"rank {self.rank} matrix"
        return f"CoxeterSystem({tag})"

    # -- heights --------------------------------------------------------------

    def _act(self, heights: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The heights of s_i w from those of w: mu_j - C[i][j] mu_i."""
        out = list(heights)
        hi = heights[i]
        for j, c in self._cartan_nonzero[i]:
            out[j] -= c * hi
        return tuple(out)

    def _intern(self, heights: tuple[int, ...]) -> Element:
        """The element with these heights, building its canonical word on a
        miss: the least left descent d, then the word of s_d u, looked up the
        same way until a known element is reached."""
        el = self._by_heights.get(heights)
        if el is not None:
            return el
        chain = []
        while el is None:
            d = next((j for j, h in enumerate(heights) if h < 0), None)
            if d is None:
                raise InternalCheckError(
                    "an element other than e has no left descent")
            chain.append((d, heights))
            heights = self._act(heights, d)
            el = self._by_heights.get(heights)
        for d, heights in reversed(chain):
            el = Element(self, (d,) + el.word, heights)
            self._by_heights[heights] = el
        return el

    def _elem(self, word: tuple[int, ...]) -> Element:
        """The element of a word of generators, by its heights."""
        heights = self.identity.heights
        for i in reversed(word):
            heights = self._act(heights, i)
        return self._intern(heights)

    # -- element arithmetic ---------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.rank:  # before indexing: _lmul[-1] is a memo too
            raise ValueError(f"generator index {i} out of range for rank {self.rank}")

    def generator(self, i: int) -> Element:
        self._check_index(i)
        return self._elem((i,))

    def left_mul_gen(self, i: int, w: Element) -> tuple[Element, int]:
        """(s_i * w, +1) on a length increase, (s_i * w, -1) on a decrease."""
        self._check_index(i)
        memo = self._lmul[i]
        hit = memo.get(w)
        if hit is not None:
            return hit
        sign = -1 if w.heights[i] < 0 else +1
        res = memo[w] = (self._intern(self._act(w.heights, i)), sign)
        return res

    def _left_mul_row(self, i: int, ws: Iterable[Element]) -> list[tuple[Element, int]]:
        """``[left_mul_gen(i, w) for w in ws]``, ws re-iterable and i a valid
        index, read from the memo in place: at C speed when it holds every
        w, as it does for a finite W once enumerated, and filled through
        left_mul_gen when not."""
        memo = self._lmul[i]
        try:
            return list(map(memo.__getitem__, ws))
        except KeyError:
            return [memo.get(w) or self.left_mul_gen(i, w) for w in ws]

    def right_mul_gen(self, w: Element, i: int) -> tuple[Element, int]:
        self._check_index(i)
        memo = self._rmul[i]
        hit = memo.get(w)
        if hit is not None:
            return hit
        ws = self._elem(w.word + (i,))
        res = memo[w] = (ws, +1 if ws.length > w.length else -1)
        return res

    def normal_form(self, word: Iterable[int]) -> Element:
        """Canonical Element for the product of the listed generators."""
        word = tuple(map(int, word))
        for i in word:
            self._check_index(i)
        return self._elem(word)

    def _check_same_system(self, *elements: Element) -> None:
        for el in elements:
            if el.system is not self:
                raise ValueError("elements belong to a different Coxeter system")

    def multiply(self, a: Element, b: Element) -> Element:
        self._check_same_system(a, b)
        return self._elem(a.word + b.word)

    def inverse(self, a: Element) -> Element:
        self._check_same_system(a)
        return self._elem(a.word[::-1])

    def left_descents(self, a: Element) -> frozenset[int]:
        self._check_same_system(a)
        return frozenset(j for j, h in enumerate(a.heights) if h < 0)

    def right_descents(self, a: Element) -> frozenset[int]:
        self._check_same_system(a)
        return frozenset(i for i in range(self.rank)
                         if self.right_mul_gen(a, i)[1] < 0)

    def descents(self, a: Element) -> tuple[frozenset[int], frozenset[int]]:
        return self.left_descents(a), self.right_descents(a)

    # -- enumeration ----------------------------------------------------------

    def _extend_levels(self, upto: Optional[int]) -> None:
        """Add length levels up to ``upto``, or to the top of a finite group.

        Generator i is the outer loop and the last level, in order, the
        inner one. The first pass to reach an element w is the pass of its
        least left descent i, so ``(i,) + u.word`` is its canonical word and
        the level comes out in (length, ShortLex) order. Only ascents cost a
        step of the heights: each new pair fills both ``_lmul`` entries, so
        every descent of a level was filled while the level below was
        processed."""
        act, by_heights = self._act, self._by_heights
        while not self._levels_complete and (upto is None or len(self._levels) <= upto):
            nxt: list[Element] = []
            reached: set[Element] = set()
            for i, memo in enumerate(self._lmul):
                for u in self._levels[-1]:
                    hit = memo.get(u)
                    if hit is None:
                        if u.heights[i] < 0:
                            raise InternalCheckError(
                                f"the descent s{i} of {u} was not filled "
                                f"with the level below it")
                        heights = act(u.heights, i)
                        w = by_heights.get(heights)
                        if w is None:
                            w = by_heights[heights] = Element(
                                self, (i,) + u.word, heights)
                        memo[u] = (w, +1)
                    elif hit[1] < 0:
                        continue
                    else:  # an ascent filled by an earlier left_mul_gen
                        w = hit[0]
                    memo[w] = (u, -1)
                    if w not in reached:
                        if i and min(w.heights[:i]) < 0:
                            raise InternalCheckError(
                                f"{w} was first reached by s{i}, "
                                f"not by its least left descent")
                        reached.add(w)
                        nxt.append(w)
            if not nxt:
                self._levels_complete = True
                return
            self._levels.append(nxt)

    def enumerate_elements(self, max_length: Optional[int] = None) -> list[Element]:
        """All elements of length <= max_length, sorted by (length, ShortLex).

        Without a bound, the whole group (finite systems only)."""
        if max_length is None and not self.is_finite:
            raise InfiniteGroupError(
                "unbounded enumeration requested on an infinite system")
        if max_length is not None and max_length < 0:
            raise ValueError("max_length must be nonnegative")
        self._extend_levels(max_length)
        levels = self._levels if max_length is None else self._levels[:max_length + 1]
        return [w for level in levels for w in level]

    def order(self) -> int:
        if not self.is_finite:
            raise InfiniteGroupError("infinite group has no order")
        return len(self.enumerate_elements())

    def dense_tables(self) -> DenseTables:
        """Ids, the left generator-action table and the inverses of a finite
        group, built on first use from the ``left_mul_gen`` memo that
        enumeration fills, and then kept."""
        if self._dense is not None:
            return self._dense
        elements = tuple(self.enumerate_elements())
        index = {w: k for k, w in enumerate(elements)}
        left = tuple(tuple(index[u] if sign > 0 else ~index[u]
                           for u, sign in map(memo.__getitem__, elements))
                     for memo in self._lmul)
        first = tuple(w.word[0] if w.word else -1 for w in elements)
        tail = tuple(~left[i][k] if i >= 0 else -1 for k, i in enumerate(first))
        # along the prefix tree: w = s t and t = q r (r the last letter) give
        # w = p r with prefix p = s q, and w^-1 = r p^-1; p and p^-1 come
        # before w, and both lookups are ascents
        prefix = [0] * len(elements)
        inverse = [0] * len(elements)
        for k in range(1, len(elements)):
            t = tail[k]
            p = prefix[k] = left[first[k]][prefix[t]] if t else 0
            inv = inverse[k] = left[elements[k].word[-1]][inverse[p]]
            if p < 0 or inv < 0:
                raise InternalCheckError(
                    f"a prefix or inverse lookup of {elements[k]} is not an ascent")
        self._dense = DenseTables(
            elements=elements, index=index,
            lengths=tuple(w.length for w in elements),
            left=left, first=first, tail=tail, inverse=tuple(inverse))
        return self._dense

    # -- Bruhat order -----------------------------------------------------------

    def bruhat_leq(self, x: Element, y: Element) -> bool:
        """Subword criterion, via the lifting property on right descents."""
        self._check_same_system(x, y)
        if x.length > y.length:
            return False
        if not x.word or x is y:
            return True
        key = (x, y)
        hit = self._bruhat.get(key)
        if hit is not None:
            return hit
        s = min(self.right_descents(y))
        ys = self.right_mul_gen(y, s)[0]
        if s in self.right_descents(x):
            res = self.bruhat_leq(self.right_mul_gen(x, s)[0], ys)
        else:
            res = self.bruhat_leq(x, ys)
        self._bruhat[key] = res
        return res

    def bruhat_interval_below(self, w: Element) -> list[Element]:
        """All y <= w, sorted by (length, ShortLex).

        Built from the memoized interval of the canonical tail: with s a
        left descent of w, [e, w] = [e, sw] U s[e, sw] (a subword of a
        reduced word s.u either skips the s or starts with it)."""
        self._check_same_system(w)
        lmul = self._lmul
        chain = []
        u = w
        while u not in self._below:
            chain.append(u)
            s = u.word[0]
            u = (lmul[s].get(u) or self.left_mul_gen(s, u))[0]
        below = self._below[u]
        for u in reversed(chain):
            down = set(below)
            down.update([sy for sy, _ in self._left_mul_row(u.word[0], below)])
            below = self._below[u] = tuple(sorted(down, key=_shortlex))
        return list(below)

    # -- conjugacy classes -------------------------------------------------------

    def conjugacy_classes(self) -> list[ConjugacyClass]:
        """Orbits of w -> s w s over the dense ids; finite systems only.

        Seeds go in id order, so each seed is its class's representative and
        the classes come out sorted by (min length, ShortLex of it)."""
        if not self.is_finite:
            raise InfiniteGroupError("conjugacy classes need a finite system")
        if self._classes is not None:
            return self._classes
        dense = self.dense_tables()
        elements, inverse = dense.elements, dense.inverse
        total = len(elements)
        steps = [tuple(k if k >= 0 else ~k for k in row) for row in dense.left]
        class_ids = [-1] * total
        classes: list[ConjugacyClass] = []
        for seed in range(total):
            if class_ids[seed] >= 0:
                continue
            c = class_ids[seed] = len(classes)
            orbit = [seed]
            for k in orbit:  # grows as the orbit is found
                for step in steps:
                    j = inverse[step[inverse[step[k]]]]  # s w s = (s (s w)^-1)^-1
                    if class_ids[j] < 0:
                        class_ids[j] = c
                        orbit.append(j)
            orbit.sort()
            members = tuple(map(elements.__getitem__, orbit))
            min_len = members[0].length
            cmin = tuple(w for w in members if w.length == min_len)
            classes.append(ConjugacyClass(
                representative=members[0],
                members=members,
                min_length_set=cmin,
                centralizer_order=total // len(members)))
        self._classes = classes
        self._class_ids = class_ids
        return classes

    def class_of(self, w: Element) -> int:
        """Index of w's class in conjugacy_classes()."""
        self.conjugacy_classes()
        return self._class_ids[self._dense.index[w]]

    # -- distinguished elements ----------------------------------------------------

    def coxeter_element(self) -> Element:
        return self.normal_form(range(self.rank))

    def longest_element(self) -> Element:
        if not self.is_finite:
            raise InfiniteGroupError("infinite system has no longest element")
        self._extend_levels(None)
        top = self._levels[-1]
        if len(top) != 1:
            raise InternalCheckError(
                f"longest element is not unique: the top length level holds "
                f"{len(top)} elements")
        return top[0]


def build_system(source: Union[str, Sequence[Sequence]]) -> CoxeterSystem:
    """Build a system from a type label or an explicit Coxeter matrix."""
    if isinstance(source, str):
        return CoxeterSystem.from_label(source)
    return CoxeterSystem(source)
