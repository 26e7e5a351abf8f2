"""The trace N^w, its theorem-backed self-checks, and the positivity
classifier."""

import pytest

import hx.positivity
from hx.coxeter import InfiniteGroupError, InternalCheckError
from hx.hecke import HeckeAlgebra, UnequalParametersError, WeightFunction
from hx.laurent import LaurentPoly, ONE, V, in_cone
from hx.positivity import (_certified, _decode, class_report, classify_positive,
                           n_trace)
from support import algebra, run_cli, system
from trace_oracle import reference_n_trace


def test_n_trace_identity_is_group_order():
    for label in ["A2", "B2", "A3"]:
        H = algebra(label)
        W = H.system
        n = n_trace(H, W.identity)
        assert n == LaurentPoly.from_pairs([(0, W.order())])


def test_n_trace_a1_by_hand():
    # 2x2 trace: v^2 * ([T_e] T_s T_e T_s + [T_s] T_s T_s T_s) = v^4 + 1
    H = algebra("A1")
    s = H.system.generator(0)
    assert n_trace(H, s) == LaurentPoly.from_pairs([(4, 1), (0, 1)])


def test_n_trace_a2_centralizer_of_transposition():
    H = algebra("A2")
    s0 = H.system.generator(0)
    assert n_trace(H, s0).evaluate(1) == 2


def test_gating():
    with pytest.raises(InfiniteGroupError):
        n_trace(algebra("~A1"), system("~A1").identity)
    B2 = system("B2")
    H = HeckeAlgebra(B2, WeightFunction(B2, (1, 2)))
    with pytest.raises(UnequalParametersError):
        n_trace(H, B2.identity)
    with pytest.raises(UnequalParametersError):
        classify_positive(H)


def test_a2_class_verdicts():
    reports = classify_positive(system("A2"))
    assert len(reports) == 3
    identity, transpositions, coxeter = reports
    assert identity.is_identity_class and identity.positive
    assert identity.n_poly == LaurentPoly.from_pairs([(0, 6)])
    assert coxeter.is_coxeter_class and coxeter.positive
    assert not transpositions.positive
    assert transpositions.min_length == 1 and transpositions.size == 3


def test_report_invariants_small_types():
    for label in ["A3", "B2", "B3"]:
        W = system(label)
        reports = classify_positive(W)
        order = W.order()
        classes = W.conjugacy_classes()
        assert len(reports) == len(classes)
        for r, c in zip(reports, classes):
            assert in_cone(r.n_poly, "Zv2")
            assert r.n_poly.evaluate(1) == order // c.size == r.centralizer_order
            assert r.positive == in_cone(r.n_poly, "Nv2")
            assert r.cmin_evaluated == r.cmin_size == len(c.min_length_set)


@pytest.mark.parametrize("skew, failed", [
    (lambda n: [n, n + V * V - ONE], "constant_over_min=False"),
    (lambda n: [n + V - ONE], "in_z_v2=False"),
    (lambda n: [n + ONE], "centralizer_at_v1=False"),
])
def test_trace_invariant_violation_raises(skew, failed):
    # a report's "checks" are all true because a failed invariant raises
    W = system("A2")
    cls = W.conjugacy_classes()[1]
    n = n_trace(algebra("A2"), cls.representative)
    _certified(W, cls, 1, [n, n])
    with pytest.raises(InternalCheckError, match=f"trace invariants failed.*{failed}"):
        _certified(W, cls, 1, skew(n))


def test_class_report_evaluates_all_of_cmin():
    H = algebra("B2")
    classes = system("B2").conjugacy_classes()
    cox_id = next(i for i, c in enumerate(classes)
                  if c.representative == system("B2").coxeter_element())
    r = class_report(H, classes[cox_id], cox_id)
    assert r.cmin_evaluated == len(classes[cox_id].min_length_set) == 2
    capped = class_report(H, classes[cox_id], cox_id, max_cmin=1)
    assert capped.cmin_evaluated == 1 and capped.n_poly == r.n_poly
    for bad in (0, -4):
        with pytest.raises(ValueError, match="max_cmin"):
            class_report(H, classes[cox_id], cox_id, max_cmin=bad)


def test_positive_fixture_classes_in_b2():
    W = system("B2")
    reports = classify_positive(W)
    cox = next(r for r in reports if r.is_coxeter_class)
    assert cox.positive  # Coxeter classes are elliptic regular
    w0_id = W.class_of(W.longest_element())
    assert reports[w0_id].positive and reports[w0_id].size == 1


def test_classifier_deterministic_and_parallel_identical():
    seq = classify_positive(system("A3"), jobs=1)
    par = classify_positive(system("A3"), jobs=3)
    again = classify_positive(system("A3"), jobs=1)
    as_json = lambda rs: [r.to_jsonable() for r in rs]
    assert as_json(seq) == as_json(par) == as_json(again)


def test_pool_reports_progress_per_class():
    calls = []
    pooled = classify_positive(system("A3"), jobs=2,
                               progress=lambda i, n: calls.append((i, n)))
    assert calls == [(i, 5) for i in range(1, 6)]
    serial = classify_positive(system("A3"), jobs=1)
    assert [r.to_jsonable() for r in pooled] == [r.to_jsonable() for r in serial]


def test_pool_traces_are_certified_in_the_parent(monkeypatch):
    # workers return traces; the parent checks them and builds each report
    # through the code the serial loop runs
    import hx.positivity as positivity

    real, certified = positivity._certified, []

    def counted(system, cls, class_id, traces):
        certified.append(class_id)
        return real(system, cls, class_id, traces)

    monkeypatch.setattr(positivity, "_certified", counted)
    pooled = classify_positive(system("A3"), jobs=2)
    assert certified == list(range(5))
    assert pooled == classify_positive(system("A3"), jobs=1)


def test_pool_spawns_where_fork_is_missing(monkeypatch):
    import multiprocessing

    real = multiprocessing.get_context
    methods = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: methods.append(method) or real(method))
    pooled = classify_positive(system("D4"), jobs=2)
    assert methods == ["spawn"]
    assert pooled == classify_positive(system("D4"), jobs=1)


def test_type_a_positive_set_is_identity_and_coxeter():
    for label in ["A2", "A3"]:
        reports = classify_positive(system(label))
        positive = [r for r in reports if r.positive]
        assert len(positive) == 2
        assert positive[0].is_identity_class
        assert positive[1].is_coxeter_class


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "G2", "D4"])
@pytest.mark.parametrize("route", ["direct", "cyclic"])
def test_kernel_matches_laurent_oracle(label, route):
    H, W = algebra(label), system(label)
    if label in ("A1", "A2", "A3", "B2", "B3", "G2"):
        # the formula holds for every w, not only for C_min members
        elements = W.enumerate_elements()
    else:
        elements = [w for cls in W.conjugacy_classes() for w in cls.min_length_set]
    for w in elements:
        assert n_trace(H, w) == reference_n_trace(H, w, route=route), (label, route, w)


def test_decode_rejects_overflow_and_inexact_shift():
    # 3 - 2q + q^3 at q = 2^4, and the same times q^2
    packed = 3 - 2 * 16 + 16 ** 3
    expected = LaurentPoly.from_pairs([(0, 3), (2, -2), (6, 1)])
    assert _decode(packed, 4, 3) == expected
    assert _decode(packed << 8, 4, 3, drop=2) == expected
    assert _decode(-packed, 4, 3) == -expected
    with pytest.raises(InternalCheckError, match="bound"):
        _decode(packed, 4, 2)
    with pytest.raises(InternalCheckError, match="shift"):
        _decode(packed << 4, 4, 3, drop=2)


@pytest.mark.parametrize("route", ["direct", "cyclic"])
def test_too_narrow_digits_exit_3(monkeypatch, route):
    # a bound of 1 gives 2-bit digits, too narrow for N^e = 6 on A2; the
    # Laurent oracle, on either of its routes, has no digits to overflow
    monkeypatch.setattr(hx.positivity, "_digit_bound", lambda order, steps: 1)
    H, e = algebra("A2"), system("A2").identity
    assert reference_n_trace(H, e, route=route) == LaurentPoly.from_pairs([(0, 6)])
    with pytest.raises(InternalCheckError, match="overflowed"):
        n_trace(H, e)
    code, out, err = run_cli("positivity", "--type", "A2")
    assert code == 3 and "INTERNAL" in err and not out
