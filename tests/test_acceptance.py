"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with -s; `pytest -v` shows one result line per criterion
either way). All tolerances are exact; runtime budgets are asserted.

The B4/D4 positivity tables produced by criterion 3 are the main data
deliverable; they are compared against the committed copies under
reports/ to certify reproducibility. The committed F4 table is
spot-checked on three classes, and the committed a-function (B3, A4, D4,
B4, and B3 at weights 1,1,2), J (B3, D4, and G2 at weights 2,1) and F4
group tables are recomputed byte for byte, as is the text output of every
command.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hx.coxeter import build_system
from hx.hecke import HeckeAlgebra, WeightFunction
from hx.klbasis import (a_function, j_associativity_check, j_find_unit,
                        j_table)
from hx.laurent import LaurentPoly, ONE, V, in_cone
from hx.positivity import class_report, classify_positive
from support import algebra, kl, run_cli, system

REPORTS_DIR = Path(__file__).resolve().parents[1] / "reports"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS", flush=True)


@pytest.fixture(scope="module")
def positivity_tables():
    """classify_positive over every type the criteria need, timed per type."""
    tables = {}
    for label in ["A2", "A3", "A4", "B2", "B3", "B4", "D4"]:
        t0 = time.perf_counter()
        reports = classify_positive(system(label), jobs=1)
        tables[label] = (reports, time.perf_counter() - t0)
    return tables


def test_criterion_01_type_a_positive_classes(positivity_tables):
    with criterion(1, "type-A positive classes are {1} and Coxeter"):
        elapsed = 0.0
        for label in ["A2", "A3", "A4"]:
            reports, dt = positivity_tables[label]
            elapsed += dt
            positive = [r for r in reports if r.positive]
            assert len(positive) == 2, label
            assert positive[0].is_identity_class
            assert positive[1].is_coxeter_class
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_02_centralizer_identity(positivity_tables):
    with criterion(2, "N^w at v=1 equals the centralizer order"):
        elapsed = 0.0
        for label in ["A3", "B2", "B3", "D4"]:
            reports, dt = positivity_tables[label]
            elapsed += dt
            order = system(label).order()
            for r, cls in zip(reports, system(label).conjugacy_classes()):
                assert r.n_poly.evaluate(1) == order // cls.size
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"


def test_criterion_03_trace_well_formedness(positivity_tables):
    with criterion(3, "N^w in Z[v^2], constant over all of C_min"):
        elapsed = 0.0
        for label in ["B2", "B3", "B4", "D4"]:
            reports, dt = positivity_tables[label]
            elapsed += dt
            for r in reports:
                assert r.cmin_evaluated == r.cmin_size  # all of C_min
                assert in_cone(r.n_poly, "Zv2")
        assert elapsed < 7200.0, f"runtime {elapsed:.1f}s exceeds 2h"
        # the problem-(d) deliverable: certified tables match the committed data
        for label in ["B4", "D4"]:
            committed = json.loads(
                (REPORTS_DIR / f"positivity_{label}.json").read_text())
            computed = [r.to_jsonable() for r in positivity_tables[label][0]]
            # as written: a word is a tuple in the report, an array in JSON
            assert committed["reports"] == json.loads(json.dumps(computed)), label


def test_committed_f4_classes_recompute():
    # the whole F4 table takes about 11 s to recompute, so three of its
    # classes are checked against the committed entries, one C_min member each
    committed = json.loads((REPORTS_DIR / "positivity_F4.json").read_text())
    W = system("F4")
    H = HeckeAlgebra(W)
    classes = W.conjugacy_classes()
    assert committed["order"] == W.order() and len(committed["reports"]) == len(classes)
    for w in (W.identity, W.coxeter_element(), W.longest_element()):
        class_id = W.class_of(w)
        report = class_report(H, classes[class_id], class_id, max_cmin=1)
        entry = dict(committed["reports"][class_id], cmin_evaluated=1)
        assert json.loads(json.dumps(report.to_jsonable())) == entry, class_id
        assert report.positive


@pytest.mark.parametrize("name,args", [
    ("afunction_B3", ("kl", "afunction", "--type", "B3")),
    ("afunction_A4", ("kl", "afunction", "--type", "A4")),
    ("jring_B3", ("jring", "table", "--type", "B3")),
    ("afunction_D4", ("kl", "afunction", "--type", "D4")),
    ("jring_D4", ("jring", "table", "--type", "D4")),
    ("afunction_B4", ("kl", "afunction", "--type", "B4")),
    ("afunction_B3_112", ("kl", "afunction", "--type", "B3", "--weights", "1,1,2")),
    ("jring_G2_21", ("jring", "table", "--type", "G2", "--weights", "2,1")),
    ("junit_D4", ("jring", "unit", "--type", "D4")),
    ("junit_B3_112", ("jring", "unit", "--type", "B3", "--weights", "1,1,2")),
    ("junit_B4_1112", ("jring", "unit", "--type", "B4", "--weights", "1,1,1,2")),
    ("jcheck_D4", ("jring", "check", "--type", "D4")),
    ("jcheck_B3_112", ("jring", "check", "--type", "B3", "--weights", "1,1,2")),
])
def test_committed_h_scan_reports_recompute(name, args):
    # made by the per-pair T-basis products (the two unequal-weight ones by
    # the packed scan with its own row split, the three J units by the solve
    # now in kl_oracle.solve_unit, the two J checks by the walk over every
    # (x, y)); the c-basis recursion, the unit read off the J table and the
    # check over the pairs the table reaches must reproduce them byte for
    # byte
    code, out, _ = run_cli(*args, "--json")
    assert code == 0 and out == (REPORTS_DIR / f"{name}.json").read_text()


def test_committed_kl_basis_report_recomputes():
    # made by the bar-expansion solve over [e, w]; the c_s recursion must
    # reproduce it byte for byte
    code, out, _ = run_cli("kl", "basis", "--type", "B3", "--weights", "1,1,2",
                           "--json")
    assert code == 0 and out == (REPORTS_DIR / "klbasis_B3_112.json").read_text()


def test_committed_group_report_recomputes():
    # made by the Element-keyed level sort and class orbits; the dense-id
    # kernel must reproduce it byte for byte (E6 is compared in CI)
    code, out, _ = run_cli("group", "--type", "F4", "--json")
    assert code == 0 and out == (REPORTS_DIR / "group_F4.json").read_text()


TEXT_GATES = {
    "klbasis_B3_112.txt": ("kl", "basis", "--type", "B3", "--weights", "1,1,2"),
    "group_F4.txt": ("group", "--type", "F4"),
    "afunction_B3.txt": ("kl", "afunction", "--type", "B3"),
    "jring_B2.txt": ("jring", "table", "--type", "B2"),
    "positivity_D4.txt": ("positivity", "--type", "D4"),
    "junit_D4.txt": ("jring", "unit", "--type", "D4"),
    "jcheck_B3.txt": ("jring", "check", "--type", "B3"),
    "hconst_B3.txt": ("kl", "hconst", "--type", "B3", "--x", "0,1,2", "--y", "2,1,0"),
    "fprobe_B2.txt": ("hecke", "fprobe", "--type", "B2"),
    "weights_affine_F4.txt": ("weights", "--type", "~F4"),
    "group_affine_A2_ball3.txt": ("group", "--type", "~A2", "--max-length", "3"),
}


@pytest.mark.parametrize("path", sorted(REPORTS_DIR.glob("*.txt")),
                         ids=lambda p: p.name)
def test_committed_text_output_recomputes(path):
    # the text output, with no --json, of each command in TEXT_GATES (a
    # committed *.txt missing there fails here): words print as [0, 1],
    # whatever the report holds them as
    code, out, _ = run_cli(*TEXT_GATES[path.name])
    assert code == 0 and out == path.read_text()


def test_criterion_04_elliptic_regular_spot_checks(positivity_tables):
    with criterion(4, "Coxeter and central-w0 classes are positive"):
        for label in ["A2", "A3", "A4", "B2", "B3", "B4", "D4"]:
            reports, _ = positivity_tables[label]
            cox = [r for r in reports if r.is_coxeter_class]
            assert len(cox) == 1 and cox[0].positive, label
        for label in ["B2", "B3", "B4"]:
            W = system(label)
            w0 = W.longest_element()
            # w0 is central there, so its class is a singleton
            for g in W.enumerate_elements():
                assert W.multiply(w0, g) == W.multiply(g, w0)
            reports, _ = positivity_tables[label]
            r = reports[W.class_of(w0)]
            assert r.size == 1 and r.positive, label


def test_criterion_05_kl_basis_correctness():
    with criterion(5, "KL basis: bar-invariant, cone, round trip"):
        t0 = time.perf_counter()
        for label, weights in [("A3", None), ("B3", None), ("B2", (1, 2))]:
            k = kl(label, weights)
            W, H = k.system, k.algebra
            for w in W.enumerate_elements():
                c = k.element(w)
                assert H.bar(c) == c
                coords = k.coords(w)
                assert coords[w] == ONE
                for y, p in coords.items():
                    if y != w:
                        assert in_cone(p, ("shifted", -1))
                        assert W.bruhat_leq(y, w)
                assert k.to_c_basis(c) == {w: ONE}
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"


def test_criterion_06_structure_constant_sanity():
    with criterion(6, "hand-verifiable h / a / gamma / unit anchors"):
        # h_{e,y,z} = delta_{y,z} everywhere tested
        for label, weights in [("A2", None), ("B2", (1, 2))]:
            k = kl(label, weights)
            W = k.system
            for y in W.enumerate_elements():
                assert k.h_constants(W.identity, y) == {y: ONE}
                assert k.h_constants(y, W.identity) == {y: ONE}
        # A1 anchors, all hand-checkable
        k1 = kl("A1")
        A1 = k1.system
        e, s = A1.identity, A1.generator(0)
        assert k1.h_constants(s, s) == {s: V + LaurentPoly.monomial(-1)}
        af = a_function(k1)
        assert af.values[s] == 1 and af.values[e] == 0
        ring = j_table(k1)
        assert ring.a == af
        assert ring.product({s: 1}, {s: 1}) == {s: 1}
        assert ring.product({e: 1}, {s: 1}) == {}
        assert j_find_unit(ring) == {e: 1, s: 1}


def test_criterion_07_problem_c_evidence():
    with criterion(7, "J associativity and unit, equal parameters"):
        t0 = time.perf_counter()
        for label in ["A2", "A3", "B2"]:
            ring = j_table(kl(label))
            n = system(label).order()
            rep = j_associativity_check(ring)
            assert rep.passed
            assert rep.triples_checked == n ** 3
            assert j_find_unit(ring) is not None
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"


def test_criterion_08_problem_b_probe():
    with criterion(8, "f-degree probe: bound certified, monotone"):
        for label in ["A2", "B2"]:
            H = algebra(label)
            W = H.system
            probe = H.f_bound_probe()
            assert probe.witness is not None
            x, y, z = probe.witness
            assert H.f_constants(x, y)[z].degree == probe.n_emp
            for a in W.enumerate_elements():
                for b in W.enumerate_elements():
                    for p in H.f_constants(a, b).values():
                        # v^{-N_emp} f_{x,y,z} lands in Z[v^{-1}]
                        assert p.degree <= probe.n_emp
        for label in ["~A1", "~A2"]:
            H = algebra(label)
            t0 = time.perf_counter()
            n5 = H.f_bound_probe(radius=5).n_emp
            n6 = H.f_bound_probe(radius=6).n_emp
            elapsed = time.perf_counter() - t0
            assert n5 <= n6
            assert elapsed < 60.0, f"{label} probes took {elapsed:.1f}s"


def test_criterion_09_hecke_axioms():
    with criterion(9, "quadratic relation, associativity, v=1 scan"):
        cases = [("A2", (1, 1)), ("B2", (1, 2)), ("B3", (1, 1, 2)),
                 ("~G2", (1, 1, 9)), ("~F4", (1, 1, 1, 2, 2))]
        rng = random.Random(2024)
        for label, weights in cases:
            H = algebra(label, weights)
            W = H.system
            for i in range(W.rank):
                L = weights[i]
                Ts = H.t([i])
                prod = H.mul(Ts + H.one.scale(LaurentPoly.monomial(-L)),
                             Ts - H.one.scale(LaurentPoly.monomial(L)))
                assert prod.is_zero()
            bound = None if W.is_finite else (4 if W.rank <= 3 else 3)
            pool = W.enumerate_elements(max_length=bound)
            for _ in range(200):
                a, b, c = (H.t(rng.choice(pool)) for _ in range(3))
                assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))
        for label in ["A2", "B2"]:
            H = algebra(label)
            W = H.system
            for x in W.enumerate_elements():
                for y in W.enumerate_elements():
                    xy = W.multiply(x, y)
                    for z, p in H.f_constants(x, y).items():
                        assert p.evaluate(1) == (1 if z == xy else 0)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reports across --jobs and reruns"):
        battery = [
            ["positivity", "--type", "B3"],
            ["positivity", "--type", "A3", "--csv"],
            ["group", "--type", "A3"],
            ["kl", "basis", "--type", "B2", "--weights", "1,2"],
            ["kl", "afunction", "--type", "A2"],
            ["jring", "table", "--type", "A2"],
            ["jring", "check", "--type", "B2"],
            ["jring", "unit", "--type", "A2"],
            ["hecke", "fprobe", "--type", "~A1", "--radius", "6"],
        ]
        for idx, args in enumerate(battery):
            outputs = []
            for run, jobs in enumerate(("1", "3", "1")):
                out = tmp_path / f"report_{idx}_{run}.out"
                code, stdout, _ = run_cli(*args, "--jobs", jobs,
                                          "--out", str(out), "--json")
                assert code == 0, args
                outputs.append((out.read_bytes(), stdout))
            assert outputs[0] == outputs[1] == outputs[2], args
