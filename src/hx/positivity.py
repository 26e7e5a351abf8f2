"""
Trace positivity of conjugacy classes (finite W, equal parameters).

For $w$ in a conjugacy class $C$, $N^w$ is the trace of the A-linear map
$h \\mapsto v^{2|w|} T_w h T_{w^{-1}}$ on $H$. For $w \\in C_{min}$ the
value depends only on $C$; it lies in $Z[v^2]$ and evaluates at v = 1 to
the centralizer order |W|/|C|. All three facts are theorems, so the code
treats any violation as an internal bug (`InternalCheckError`), never as
data. $C$ is called positive when $N^w \\in N[v^2]$.

The trace is computed in the basis $\\tilde T_w = v^{|w|} T_w$, where a
generator step (``hecke.tilde_step``) keeps every coefficient in $Z[q]$,
$q = v^2$, and
$N^w = \\sum_x [\\tilde T_x](\\tilde T_w \\tilde T_x \\tilde T_{w^{-1}})$.
The symmetrizing trace form $\\tau(\\tilde T_a \\tilde T_b) = q^{\\ell(a)}
\\delta_{ab,e}$ (Geck-Pfeiffer, Characters of Finite Coxeter Groups and
Iwahori-Hecke Algebras, 2000, 8.1) reads a coefficient as
$[\\tilde T_x] h = q^{-\\ell(x)} \\tau(h \\tilde T_{x^{-1}})$.

One character identity halves the work. Over a splitting field of Q(v),
H is split semisimple, so the trace of $h \\mapsto a h b$ on H is
$\\sum_\\chi \\chi(a) \\chi(b)$ over its irreducible characters, and for
finite W, $\\chi(T_{w^{-1}}) = \\chi(T_w)$ (Geck-Pfeiffer, ch. 8). Hence
$N^w$ is also the trace of $h \\mapsto \\tilde T_w h \\tilde T_w$, and with
$\\tau(ab) = \\tau(ba)$,

  $N^w = \\sum_x q^{-\\ell(x)}
   \\tau(\\tilde T_w \\tilde T_x \\tilde T_w \\tilde T_{x^{-1}})
   = \\sum_x q^{-\\ell(x)} \\tau(G_x G_{x^{-1}})$,
  where $G_y = \\tilde T_y \\tilde T_w$.

Expanding $\\tau$ over the basis gives the one formula used here:

  $N^w = \\sum_x q^{-\\ell(x)} \\sum_a q^{\\ell(a)} G_x[a] G_{x^{-1}}[a^{-1}]$.

The terms of x and $x^{-1}$ are equal: reindexing a by $a^{-1}$, which
has the same length, turns one sum into the other. So each pair
$\\{x, x^{-1}\\}$ is summed once, at the one of smaller id, and

  $N^w = \\sum_{x \\le x^{-1}} m_x q^{-\\ell(x)} \\sum_a q^{\\ell(a)}
   G_x[a] G_{x^{-1}}[a^{-1}]$, $m_x = 1$ if $x = x^{-1}$ and 2 otherwise,

with $\\le$ the order of the ids.

The family grows along the length-BFS tree: with $y = s y'$ and $y'$ the
canonical-word tail, $G_y = \\tilde T_s G_{y'}$, one left generator step.
x and $x^{-1}$ have the same length, so only the length level being summed
and the next one, being built from it, are alive at a time, and no
|W| x |W| operator matrix is formed.

Elements are the dense ids of `CoxeterSystem.dense_tables`, and each
coefficient is one Python int, its value at $q = 2^B$ (Kronecker
substitution). That is a ring map $Z[q] \\to Z$, so a generator step is
``tilde_step`` with shift B and the product of two packed ints is the
packed product. Each term is shifted by $q^{top + \\ell(a) - \\ell(x)}$,
top = $\\ell(w_0)$, to clear negative powers; the packed sum is then
$q^{top} N^w$ at $q = 2^B$, and its signed base-$2^B$ digits are decoded
once. The lowest top digits must be zero; a nonzero one raises
`InternalCheckError`.

Width. A step at most triples the l1 norm of a family member (a term p
goes to p, or to $pq$ and $pq - p$), so after the $\\ell(x)$ steps that
build it, $\\|G_x\\|_1, \\|G_{x^{-1}}\\|_1 \\le 3^{\\ell(x)}$, summing the
l1 norms of all coefficients. The l1 norm of a product of polynomials is at
most the product of their norms, so x contributes at most $3^{2\\ell(x)}$ and
every digit of the sum lies within $|W| 3^{2 top} < 2^{B-1}$. A digit
outside that bound raises `InternalCheckError` too. The Laurent-coefficient
T-basis computation this replaced is kept in the tests as the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext
from typing import Callable, NamedTuple, Optional, Union

from .coxeter import (ConjugacyClass, CoxeterSystem, Element,
                      InfiniteGroupError, InternalCheckError)
from .hecke import HeckeAlgebra, UnequalParametersError, tilde_step, unpack
from .laurent import LaurentPoly, in_cone

__all__ = ["TraceReport", "n_trace", "class_report", "classify_positive"]


class TraceReport(NamedTuple):
    """Per-class positivity data."""

    class_id: int
    representative: Element
    size: int
    min_length: int
    centralizer_order: int
    n_poly: LaurentPoly
    positive: bool
    cmin_size: int
    cmin_evaluated: int
    is_identity_class: bool
    is_coxeter_class: bool

    def to_jsonable(self) -> dict:
        return {
            "class_id": self.class_id,
            "representative": self.representative.word,
            "size": self.size,
            "min_length": self.min_length,
            "centralizer_order": self.centralizer_order,
            "n_poly": self.n_poly.to_pairs(),
            "positive": self.positive,
            # _certified raises unless every invariant holds
            "checks": {"constant_over_min": True, "in_z_v2": True,
                       "centralizer_at_v1": True},
            "cmin_size": self.cmin_size,
            "cmin_evaluated": self.cmin_evaluated,
            "is_identity_class": self.is_identity_class,
            "is_coxeter_class": self.is_coxeter_class,
        }


def _gate(algebra: HeckeAlgebra) -> None:
    if not algebra.system.is_finite:
        raise InfiniteGroupError("N^w traces need a finite system")
    if not algebra.weight.is_equal_parameters:
        raise UnequalParametersError(
            "N^w traces are defined for equal parameters (L = |.|) only")


def _digit_bound(order: int, steps: int) -> int:
    """Bound on |coefficient| of N^w: it sums |W| = `order` products of two
    family members built with at most `steps` generator steps between them,
    and a step at most triples the l1 norm."""
    return order * 3 ** steps


def _decode(packed: int, width: int, bound: int, drop: int = 0) -> LaurentPoly:
    """Z[q] from its packed value at q = 2^width, as a polynomial in v.

    The lowest `drop` digits must be zero and are divided out. Every signed
    digit must lie within `bound`; a digit outside it means the width was
    too small for the value, and is raised rather than returned."""
    low = drop * width
    if packed & ((1 << low) - 1):
        raise InternalCheckError(
            f"trace is not divisible by q^{drop}: inexact shift")
    packed >>= low
    coeffs: list[int] = []
    for d in unpack(packed, width, bound):
        coeffs += (d, 0)  # q^k = v^{2k}
    return LaurentPoly(0, coeffs)


def n_trace(algebra: HeckeAlgebra, w: Element) -> LaurentPoly:
    """The trace of h -> v^{2|w|} T_w h T_{w^{-1}} over the T-basis.

    Computed as N^w = sum_x q^{-l(x)} sum_a q^{l(a)} G_x[a] G_{x^{-1}}[a^{-1}]
    with G_y = T~_y T~_w, each {x, x^{-1}} summed once, from the
    symmetrizing trace form and chi(T_{w^{-1}}) = chi(T_w) (see the module
    docstring for the derivation and the digit bound |W| 3^{2 l(w_0)}). The test suite checks it against
    the T-basis Laurent computation it replaced."""
    _gate(algebra)
    system = algebra.system
    system._check_same_system(w)
    dense = system.dense_tables()
    left, lengths, inverse = dense.left, dense.lengths, dense.inverse
    top = lengths[-1]
    bound = _digit_bound(len(lengths), 2 * top)
    width = bound.bit_length() + 1
    starts = [bisect_left(lengths, length) for length in range(top + 3)]
    shifts = [length * width for length in lengths]
    total = 0
    g = {0: {dense.index[w]: 1}}  # one length level of G_y = T~_y T~_w
    for length in range(top + 1):
        level = 0  # the level's terms times q^{l(x)}
        for x in range(starts[length], starts[length + 1]):
            x_inv = inverse[x]
            if x_inv < x:  # counted twice with x^{-1}
                continue
            gx_inv = g[x_inv]
            term = 0
            for a, p in g[x].items():
                r = gx_inv.get(inverse[a])
                if r:
                    term += p * r << shifts[a]
            level += term if x_inv == x else term << 1
        total += level << (top - length) * width
        g = {y: tilde_step(left[dense.first[y]], g[dense.tail[y]], width)
             for y in range(starts[length + 1], starts[length + 2])}
    return _decode(total, width, bound, drop=top)


def _traces(algebra: HeckeAlgebra, cls: ConjugacyClass,
            max_cmin: Optional[int]) -> list[LaurentPoly]:
    """N^w for each of the first max_cmin members of C_min, or all of them."""
    members = cls.min_length_set
    if max_cmin is not None:
        if max_cmin < 1:
            raise ValueError(f"max_cmin must be >= 1, not {max_cmin}")
        members = members[:max_cmin]
    return [n_trace(algebra, w) for w in members]


def _certified(system: CoxeterSystem, cls: ConjugacyClass, class_id: int,
               traces: list[LaurentPoly]) -> TraceReport:
    """The report of a class from its traces over C_min, once they satisfy
    the theorem-backed invariants."""
    n_poly = traces[0]
    constant = all(t == n_poly for t in traces[1:])
    in_zv2 = in_cone(n_poly, "Zv2")
    cent_ok = n_poly.evaluate(1) == cls.centralizer_order
    if not (constant and in_zv2 and cent_ok):
        raise InternalCheckError(
            f"trace invariants failed on class {class_id} "
            f"(rep {cls.representative!r}): constant_over_min={constant}, "
            f"in_z_v2={in_zv2}, centralizer_at_v1={cent_ok}")

    is_cox = False
    if system.is_irreducible:
        is_cox = system.class_of(system.coxeter_element()) == class_id
    return TraceReport(
        class_id=class_id,
        representative=cls.representative,
        size=cls.size,
        min_length=cls.min_length,
        centralizer_order=cls.centralizer_order,
        n_poly=n_poly,
        positive=in_cone(n_poly, "Nv2"),
        cmin_size=len(cls.min_length_set),
        cmin_evaluated=len(traces),
        is_identity_class=cls.representative.is_identity(),
        is_coxeter_class=is_cox,
    )


def class_report(algebra: HeckeAlgebra, cls: ConjugacyClass, class_id: int,
                 *, max_cmin: Optional[int] = None) -> TraceReport:
    """Evaluate N^w over C_min and certify the theorem-backed invariants.

    max_cmin caps how many minimal-length members are evaluated (rank-5
    time budgets); the default evaluates all of C_min. A cap below 1 is
    rejected with ValueError."""
    _gate(algebra)
    return _certified(algebra.system, cls, class_id,
                      _traces(algebra, cls, max_cmin))


# (algebra, max_cmin) of a pool worker, set once by _pool_init
_worker_args: Optional[tuple[HeckeAlgebra, Optional[int]]] = None


def _pool_init(algebra: HeckeAlgebra, max_cmin: Optional[int]) -> None:
    global _worker_args
    _worker_args = (algebra, max_cmin)


def _pool_job(class_id: int) -> list[LaurentPoly]:
    algebra, max_cmin = _worker_args
    return _traces(algebra, algebra.system.conjugacy_classes()[class_id],
                   max_cmin)


def classify_positive(source: Union[CoxeterSystem, HeckeAlgebra], *,
                      jobs: int = 1, max_cmin: Optional[int] = None,
                      progress: Optional[Callable[[int, int], None]] = None
                      ) -> list[TraceReport]:
    """One TraceReport per conjugacy class, in the deterministic class order.

    jobs > 1 distributes whole classes over a process pool, started by fork
    where the platform offers it and by spawn elsewhere. Each worker gets
    the algebra and options once, through the pool initializer, and keeps
    its memos across classes; a task carries a class number and returns
    the class's N^w over C_min. Without a pool the traces are computed in
    place. Either way one loop certifies each class's traces in the parent,
    builds its report and calls progress(i + 1, total) as the class arrives;
    results come in class order, so the output is schedule-independent."""
    algebra = source if isinstance(source, HeckeAlgebra) else HeckeAlgebra(source)
    _gate(algebra)
    system = algebra.system
    classes = system.conjugacy_classes()
    total = len(classes)
    system.dense_tables()  # once here, not in every worker or class
    pool = None
    if jobs > 1 and total > 1:
        import multiprocessing  # here: most runs never start a pool
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        try:
            pool = multiprocessing.get_context(method).Pool(
                min(jobs, total), _pool_init, (algebra, max_cmin))
        except OSError:
            pass  # no pool on this host (no shared semaphores): the serial loop
    with pool or nullcontext():
        # chunksize 1: class costs are very uneven
        traces = (pool.imap(_pool_job, range(total), chunksize=1) if pool else
                  (_traces(algebra, cls, max_cmin) for cls in classes))
        reports = []
        for i, found in enumerate(traces):
            reports.append(_certified(system, classes[i], i, found))
            if progress is not None:
                progress(i + 1, total)
    return reports
