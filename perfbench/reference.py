"""
Independent realizations of the Coxeter groups the benchmark checks against.

Nothing here imports ``hx``. Each group is built from explicit generators:
type A as permutations, types B and D as signed permutations, F4 as 4x4
reflection matrices of its root system. Every fact the checks need (orders,
conjugacy classes, lengths, reduced-word counts, RSK shapes, the bar
involution and the KL elements of parabolic subgroups) is computed here from
those generators, so a check never compares ``hx`` with a copy of its own
output.

Generator i of each realization is node i of the matching ``hx`` type label;
``Realization.coxeter_matrix`` lets the checks confirm that against the
matrix each report carries.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

# -- the groups ---------------------------------------------------------------


def _perm_mul(p, q):
    """Composition p after q of permutations in one-line notation."""
    return tuple(p[k] for k in q)


def _signed_mul(p, q):
    """Composition p after q of signed permutations: p[k] = +-(image + 1)."""
    return tuple(p[abs(k) - 1] if k > 0 else -p[abs(k) - 1] for k in q)


def _half_matrix_mul(a, b):
    """Product of 4x4 matrices stored doubled (2M, integer entries)."""
    return tuple(sum(a[4 * i + k] * b[4 * k + j] for k in range(4)) // 2
                 for i in range(4) for j in range(4))


class Realization:
    """A finite group given by Coxeter generators and a multiplication.

    Elements are hashable values; ``word`` evaluates s_{i1} s_{i2} ... s_{ik}.
    Everything else is derived by breadth-first search from the identity."""

    def __init__(self, gens, mul, identity):
        self.gens = tuple(gens)
        self.mul = mul
        self.identity = identity
        self.rank = len(self.gens)
        self.length = {identity: 0}
        self.order_bfs = [identity]
        queue = deque([identity])
        while queue:
            w = queue.popleft()
            for s in self.gens:
                ws = mul(w, s)
                if ws not in self.length:
                    self.length[ws] = self.length[w] + 1
                    self.order_bfs.append(ws)
                    queue.append(ws)
        self._classes = None

    def __len__(self):
        return len(self.length)

    def word(self, word):
        g = self.identity
        for i in word:
            g = self.mul(g, self.gens[i])
        return g

    def left(self, i, w):
        return self.mul(self.gens[i], w)

    def element_order(self, g):
        k, h = 1, g
        while h != self.identity:
            h = self.mul(h, g)
            k += 1
        return k

    def coxeter_matrix(self):
        return [[self.element_order(self.mul(a, b)) for b in self.gens]
                for a in self.gens]

    def class_of(self):
        """Map element -> class index, classes as orbits under s g s."""
        if self._classes is None:
            index = {}
            cid = -1
            for seed in self.order_bfs:
                if seed in index:
                    continue
                cid += 1
                index[seed] = cid
                queue = [seed]
                while queue:
                    g = queue.pop()
                    for s in self.gens:
                        h = self.mul(self.mul(s, g), s)
                        if h not in index:
                            index[h] = cid
                            queue.append(h)
            self._classes = index
        return self._classes

    def class_sizes(self):
        sizes = {}
        for cid in self.class_of().values():
            sizes[cid] = sizes.get(cid, 0) + 1
        return sizes

    def class_size(self, g):
        index = self.class_of()
        return self.class_sizes()[index[g]]

    def weighted_length(self, weights):
        """L(w), summing weights along any reduced word (BFS order)."""
        out = {self.identity: 0}
        for w in self.order_bfs[1:]:
            for i, s in enumerate(self.gens):
                ws = self.mul(w, s)
                if self.length[ws] == self.length[w] - 1:
                    out[w] = out[ws] + weights[i]
                    break
        return out

    def reduced_word_counts(self):
        count = {self.identity: 1}
        for w in self.order_bfs[1:]:
            count[w] = sum(count[self.mul(w, s)] for s in self.gens
                           if self.length[self.mul(w, s)] == self.length[w] - 1)
        return count

    def parabolic(self, subset):
        """Elements of the subgroup generated by the listed generators."""
        seen = {self.identity}
        queue = [self.identity]
        while queue:
            w = queue.pop()
            for i in subset:
                ws = self.mul(w, self.gens[i])
                if ws not in seen:
                    seen.add(ws)
                    queue.append(ws)
        return seen


def type_a(n):
    """A_n as the symmetric group on n + 1 points."""
    gens = []
    for i in range(n):
        p = list(range(n + 1))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return Realization(gens, _perm_mul, tuple(range(n + 1)))


def _signed_swap(n, i, negate):
    p = list(range(1, n + 1))
    p[i], p[i + 1] = p[i + 1], p[i]
    if negate:
        p[i], p[i + 1] = -p[i], -p[i + 1]
    return tuple(p)


def type_b(n):
    """B_n as signed permutations; the last generator negates coordinate n."""
    gens = [_signed_swap(n, i, False) for i in range(n - 1)]
    gens.append(tuple(range(1, n)) + (-n,))
    return Realization(gens, _signed_mul, tuple(range(1, n + 1)))


def type_d(n):
    """D_n as even signed permutations; the last generator is the swap of
    coordinates n-1 and n with both signs changed."""
    gens = [_signed_swap(n, i, False) for i in range(n - 1)]
    gens.append(_signed_swap(n, n - 2, True))
    return Realization(gens, _signed_mul, tuple(range(1, n + 1)))


def type_f4():
    """F4 as reflections in the simple roots e2-e3, e3-e4, e4 and
    (e1-e2-e3-e4)/2, as matrices stored doubled so entries stay integral."""
    roots = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    gens = []
    for a in roots:  # a is twice the root; s(x) = x - 2 (x,a)/(a,a) a
        aa = sum(c * c for c in a)
        gens.append(tuple(2 * (i == j) - 4 * a[i] * a[j] // aa
                          for i in range(4) for j in range(4)))
    identity = tuple(2 * (i == j) for i in range(4) for j in range(4))
    return Realization(gens, _half_matrix_mul, identity)


def realization(label):
    family, n = label[0], int(label[1:])
    if family == "A":
        return type_a(n)
    if family == "B":
        return type_b(n)
    if family == "D":
        return type_d(n)
    if label == "F4":
        return type_f4()
    raise ValueError(f"no reference realization for {label}")


def cycle_type(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        k, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            k += 1
        out.append(k)
    return tuple(sorted(out, reverse=True))


def rsk_shape(perm):
    """Shape of the RSK insertion tableau of a permutation (row insertion)."""
    rows = []
    for x in perm:
        for row in rows:
            bigger = next((k for k, y in enumerate(row) if y > x), None)
            if bigger is None:
                row.append(x)
                break
            row[bigger], x = x, row[bigger]
        else:
            rows.append([x])
    return [len(r) for r in rows]


def n_of_shape(shape):
    """n(lambda) = sum (i - 1) lambda_i, the a-value of its type-A cell."""
    return sum(i * part for i, part in enumerate(shape))


# -- Laurent polynomials as {exponent: coefficient} ---------------------------


def _acc(out, key, exp, c):
    poly = out.setdefault(key, {})
    c += poly.get(exp, 0)
    if c:
        poly[exp] = c
    else:
        del poly[exp]
        if not poly:
            del out[key]


class BarInvolution:
    """bar(T_y) in T-coordinates for the Hecke algebra of a realization with
    weights L, from T_s^{-1} = T_s - (v^L(s) - v^-L(s)) and
    bar(T_{s y}) = T_s^{-1} bar(T_y) when |s y| > |y|."""

    def __init__(self, group: Realization, weights):
        self.group = group
        self.weights = weights
        self._bar = {group.identity: {group.identity: {0: 1}}}
        for y in group.order_bfs[1:]:
            i, rest = self._first_letter(y)
            self._bar[y] = self._inverse_step(i, self._bar[rest])

    def _first_letter(self, y):
        g = self.group
        for i in range(g.rank):
            sy = g.left(i, y)
            if g.length[sy] == g.length[y] - 1:
                return i, sy
        raise AssertionError("identity has no first letter")

    def _inverse_step(self, i, terms):
        """(T_s - v^L + v^-L) * terms for s the i-th generator."""
        g, L = self.group, self.weights[i]
        out = {}
        for w, poly in terms.items():
            sw = g.left(i, w)
            down = g.length[sw] < g.length[w]
            for e, c in poly.items():
                # T_s T_w = T_sw + (v^L - v^-L) T_w on a descent, which the
                # correction cancels; otherwise T_s T_w = T_sw
                _acc(out, sw, e, c)
                if not down:
                    _acc(out, w, e + L, -c)
                    _acc(out, w, e - L, c)
        return out

    def bar_at(self, y, powers, modulus, weights_of_x):
        """sum_x weights_of_x[x] * R_(x,y)(v) mod modulus, the image of
        bar(T_y) under one linear functional; powers[e] is v^e."""
        return sum(weights_of_x[x] * c * powers[e]
                   for x, q in self._bar[y].items() for e, c in q.items()) % modulus

    def bar(self, terms):
        out = {}
        for y, poly in terms.items():
            for x, q in self._bar[y].items():
                for e1, c1 in poly.items():
                    for e2, c2 in q.items():
                        _acc(out, x, e2 - e1, c1 * c2)
        return out


def parabolic_subsets(rank):
    for k in range(rank + 1):
        yield from combinations(range(rank), k)
