"""
Trace positivity of conjugacy classes (finite W, equal parameters).

For $w$ in a conjugacy class $C$, $N^w$ is the trace of the A-linear map
$h \\mapsto v^{2|w|} T_w h T_{w^{-1}}$ on $H$. For $w \\in C_{min}$ the
value depends only on $C$; it lies in $Z[v^2]$ and evaluates at v = 1 to
the centralizer order |W|/|C|. All three facts are theorems, so the code
treats any violation as an internal bug (`InternalCheckError`), never as
data. $C$ is called positive when $N^w \\in N[v^2]$.

The trace is computed in the basis $\\tilde T_w = v^{|w|} T_w$, where
$\\tilde T_s \\tilde T_w$ is $\\tilde T_{sw}$ when the length goes up and
$q \\tilde T_{sw} + (q-1) \\tilde T_w$ with $q = v^2$ when it goes down. There
$N^w = \\sum_x [\\tilde T_x](\\tilde T_w \\tilde T_x \\tilde T_{w^{-1}})$
exactly, and every coefficient lies in $Z[q]$. Elements are the dense
ids of `CoxeterSystem.dense_tables`, and each coefficient is one Python
int, its value at $q = 2^B$ (Kronecker substitution), so a generator step
is a few int shifts and adds per term. Signed base-$2^B$ digits are
decoded once per $N^w$. B comes from a proven bound: a step at most
triples the l1 norm of a coefficient and $N^w$ sums |W| of them, so after
at most k steps per element every digit of $N^w$ lies within
$|W| 3^k < 2^{B-1}$; a digit outside that bound raises. The cyclic route
multiplies its terms by $q^{\\ell(w_0)}$ to clear negative powers of q and
divides that out after the sum; a nonzero remainder there raises too.

The partial products are shared along the length-BFS tree (x = s_i x' with
x' the canonical-word tail), so only two length levels of them are alive
at a time and no |W| x |W| operator matrix is formed. `n_trace` also
offers an equivalent cyclically-rotated route; the two are cross-checked
in the tests, and both against the Laurent-coefficient T-basis
computation kept there as the oracle.
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

from .coxeter import (ConjugacyClass, CoxeterSystem, Element,
                      InfiniteGroupError, InternalCheckError)
from .hecke import HeckeAlgebra, UnequalParametersError, unpack
from .laurent import LaurentPoly, in_cone

__all__ = ["TraceChecks", "TraceReport", "n_trace", "class_report",
           "classify_positive"]


@dataclass(frozen=True)
class TraceChecks:
    """Self-check flags recorded on every report (all True on emission)."""

    constant_over_min: bool
    in_z_v2: bool
    centralizer_at_v1: bool


@dataclass(frozen=True)
class TraceReport:
    """Per-class positivity data."""

    class_id: int
    representative: Element
    size: int
    min_length: int
    centralizer_order: int
    n_poly: LaurentPoly
    positive: bool
    checks: TraceChecks
    cmin_size: int
    cmin_evaluated: int
    is_identity_class: bool
    is_coxeter_class: bool

    def to_jsonable(self) -> dict:
        return {
            "class_id": self.class_id,
            "representative": list(self.representative.word),
            "size": self.size,
            "min_length": self.min_length,
            "centralizer_order": self.centralizer_order,
            "n_poly": self.n_poly.to_pairs(),
            "positive": self.positive,
            "checks": {
                "constant_over_min": self.checks.constant_over_min,
                "in_z_v2": self.checks.in_z_v2,
                "centralizer_at_v1": self.checks.centralizer_at_v1,
            },
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
    """Bound on |coefficient| of N^w after at most `steps` generator steps
    per basis element: a step at most triples the l1 norm of a Z[q]
    coefficient vector, and N^w sums |W| such vectors."""
    return order * 3 ** steps


def _step(col: tuple[int, ...], terms: dict[int, int],
          width: int) -> dict[int, int]:
    """One generator step T~_s h or h T~_s in packed coordinates; col is the
    generator's left or right action table."""
    out: dict[int, int] = {}
    get = out.get
    for k, p in terms.items():
        j = col[k]
        if j >= 0:
            out[j] = get(j, 0) + p
        else:
            j = ~j
            pq = p << width
            out[j] = get(j, 0) + pq
            out[k] = get(k, 0) + pq - p
    return out


def _decode(packed: int, width: int, bound: int, drop: int = 0) -> LaurentPoly:
    """Z[q] from its packed value at q = 2^width, as a polynomial in v.

    The lowest `drop` digits must be zero and are divided out. Every signed
    digit must lie within `bound`; a digit outside it means the width was
    too small for the value, and is raised rather than returned."""
    low = drop * width
    if packed & ((1 << low) - 1):
        raise InternalCheckError(
            f"trace is not divisible by q^{drop}: inexact cyclic shift")
    packed >>= low
    coeffs: list[int] = []
    for d in unpack(packed, width, bound):
        coeffs += (d, 0)  # q^k = v^{2k}
    return LaurentPoly(0, coeffs)


def n_trace(algebra: HeckeAlgebra, w: Element, *,
            route: str = "direct") -> LaurentPoly:
    """The trace of h -> v^{2|w|} T_w h T_{w^{-1}} over the T-basis.

    route "direct" accumulates [T~_x](T~_w T~_x T~_{w^{-1}}) per basis
    element x, straight from the definition. route "cyclic" accumulates
    q^{|w|-|x|} [T~_{w^{-1}}](T~_x T~_{w^{-1}} T~_{x^{-1}}) instead, which is
    the same trace because the coefficient-of-T_e functional is a
    symmetrizing trace form; its partial products extend by a single
    generator on each side per element, making long w much cheaper. The
    two routes are checked against each other, and against the T-basis
    Laurent computation they replace, in the test suite."""
    _gate(algebra)
    if route not in ("direct", "cyclic"):
        raise ValueError(f"unknown trace route {route!r}")
    system = algebra.system
    system._check_same_system(w)
    dense = system.dense_tables()
    left, right, lengths = dense.left, dense.right, dense.lengths
    top = lengths[-1]
    cyclic = route == "cyclic"
    bound = _digit_bound(len(lengths), 2 * top if cyclic else top + w.length)
    width = bound.bit_length() + 1
    winv = dense.index[system.inverse(w)]
    wcols = [left[i] for i in reversed(w.word)]
    starts = [bisect_left(lengths, length) for length in range(top + 3)]
    total = 0
    # direct: partial[x] = T~_x T~_{w^{-1}}; cyclic: T~_x T~_{w^{-1}} T~_{x^{-1}}
    partial = {0: {winv: 1}}
    for length in range(top + 1):
        for x in range(starts[length], starts[length + 1]):
            if cyclic:
                coeff = partial[x].get(winv, 0) << (top + w.length - length) * width
            else:
                terms = partial[x]
                for col in wcols:
                    terms = _step(col, terms, width)
                coeff = terms.get(x, 0)
            total += coeff
        nxt = {}
        for y in range(starts[length + 1], starts[length + 2]):
            s = dense.first[y]
            q = _step(left[s], partial[dense.tail[y]], width)
            if cyclic:
                q = _step(right[s], q, width)
            nxt[y] = q
        partial = nxt
    return _decode(total, width, bound, drop=top if cyclic else 0)


def class_report(algebra: HeckeAlgebra, cls: ConjugacyClass, class_id: int,
                 *, max_cmin: Optional[int] = None,
                 route: str = "direct") -> TraceReport:
    """Evaluate N^w over C_min and certify the theorem-backed invariants.

    max_cmin caps how many minimal-length members are evaluated (rank-5
    time budgets); the default evaluates all of C_min."""
    _gate(algebra)
    system = algebra.system
    members = cls.min_length_set
    if max_cmin is not None:
        members = members[:max(1, max_cmin)]
    traces = [n_trace(algebra, w, route=route) for w in members]
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
        checks=TraceChecks(constant_over_min=constant, in_z_v2=in_zv2,
                           centralizer_at_v1=cent_ok),
        cmin_size=len(cls.min_length_set),
        cmin_evaluated=len(members),
        is_identity_class=cls.representative.is_identity(),
        is_coxeter_class=is_cox,
    )


def _pool_job(algebra: HeckeAlgebra, max_cmin: Optional[int], route: str,
              class_id: int) -> dict:
    cls = algebra.system.conjugacy_classes()[class_id]
    return class_report(algebra, cls, class_id, max_cmin=max_cmin,
                        route=route).to_jsonable()


def _report_from_jsonable(system: CoxeterSystem, payload: dict) -> TraceReport:
    return TraceReport(
        class_id=payload["class_id"],
        representative=system._elem(tuple(payload["representative"])),
        size=payload["size"],
        min_length=payload["min_length"],
        centralizer_order=payload["centralizer_order"],
        n_poly=LaurentPoly.from_pairs(payload["n_poly"]),
        positive=payload["positive"],
        checks=TraceChecks(**payload["checks"]),
        cmin_size=payload["cmin_size"],
        cmin_evaluated=payload["cmin_evaluated"],
        is_identity_class=payload["is_identity_class"],
        is_coxeter_class=payload["is_coxeter_class"],
    )


def classify_positive(source: Union[CoxeterSystem, HeckeAlgebra], *,
                      jobs: int = 1, max_cmin: Optional[int] = None,
                      route: str = "direct",
                      progress: Optional[Callable[[int, int], None]] = None
                      ) -> list[TraceReport]:
    """One TraceReport per conjugacy class, in the deterministic class order.

    jobs > 1 distributes whole classes over a fork pool, each task carrying
    the algebra and options as its arguments and returning its report as
    JSON; the assembly is ordered by class id, so the output is
    schedule-independent. Without a pool the reports are built in place."""
    algebra = source if isinstance(source, HeckeAlgebra) else HeckeAlgebra(source)
    _gate(algebra)
    system = algebra.system
    classes = system.conjugacy_classes()
    total = len(classes)
    system.dense_tables()  # once here, not in every worker or class
    if jobs > 1 and total > 1:
        job = partial(_pool_job, algebra, max_cmin, route)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(jobs, total)) as pool:
                # chunksize 1: class costs are very uneven
                payloads = pool.map(job, range(total), chunksize=1)
        except (OSError, ValueError):
            payloads = [job(i) for i in range(total)]  # pools unavailable: degrade
        if progress is not None:
            progress(total, total)
        return [_report_from_jsonable(system, p) for p in payloads]
    reports = []
    for i, cls in enumerate(classes):
        reports.append(class_report(algebra, cls, i, max_cmin=max_cmin,
                                    route=route))
        if progress is not None:
            progress(i + 1, total)
    return reports
