"""
Correctness checks for the reports each workload produces.

Every check compares an ``hx`` report with facts computed independently in
``reference.py`` or read off the report's own data; none compares with a
stored copy of an earlier report. A check function returns the list of
problems it found (empty when the report is correct). They run outside the
timed region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import reference

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "hx" / "schemas"

D4_POSITIVE = {(0, 1), (4, 32), (6, 12), (12, 1)}  # (min length, size), README
F4_FACTS = {"order": 1152, "classes": 25, "longest": 24, "coxeter_class": 96}
BAR_SAMPLE = 12  # elements whose c_w is checked exactly for bar-invariance
SCHEMA_SAMPLE = 3  # entries of a KL basis report validated against the schema
MODULUS = 2 ** 61 - 1  # a prime, for the randomized check of every c_w


def validate_schema(report: dict, schema_name: str) -> list[str]:
    import jsonschema
    from referencing import Registry, Resource

    defs = json.loads((SCHEMA_DIR / "defs.json").read_text())
    registry = Registry().with_resource("hx/defs.json", Resource.from_contents(defs))
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    validator = jsonschema.Draft202012Validator(schema, registry=registry)
    return [f"schema {schema_name}: {e.message}" for e in validator.iter_errors(report)]


def _same_matrix(group, report) -> list[str]:
    if group.coxeter_matrix() != report["matrix"]:
        return [f"Coxeter matrix {report['matrix']} does not match the realization"]
    return []


def _class_problems(group, classes, order) -> list[str]:
    """Class sizes, centralizers and minimal lengths against the realization."""
    problems = []
    index = group.class_of()
    reps = [group.word(c["representative"]) for c in classes]
    if sorted(index[g] for g in reps) != sorted(group.class_sizes()):
        problems.append("class representatives do not meet every class exactly once")
    min_length = {}
    for g, cid in index.items():
        min_length[cid] = min(min_length.get(cid, group.length[g]), group.length[g])
    for c, g in zip(classes, reps):
        size = group.class_size(g)
        if c["size"] != size:
            problems.append(f"class {c['class_id']}: size {c['size']} != {size}")
        if c["centralizer_order"] != order // size:
            problems.append(f"class {c['class_id']}: centralizer order is wrong")
        if c["min_length"] != group.length[g] or group.length[g] != min_length[index[g]]:
            problems.append(f"class {c['class_id']}: representative is not of minimal length")
    return problems


# -- positivity -----------------------------------------------------------------


def check_positivity(label: str, report: dict) -> list[str]:
    group = reference.realization(label)
    order = len(group)
    problems = validate_schema(report, "positivity.schema.json") + _same_matrix(group, report)
    if report["order"] != order:
        return problems + [f"|W| = {report['order']} != {order}"]
    rows = report["reports"]
    problems += _class_problems(group, rows, order)
    positive = []
    for row in rows:
        poly = row["n_poly"]
        if any(e % 2 for e, _ in poly):
            problems.append(f"class {row['class_id']}: N^w is not in Z[v^2]")
        if sum(c for _, c in poly) != order // group.class_size(group.word(row["representative"])):
            problems.append(f"class {row['class_id']}: N^w(1) is not the centralizer order")
        if not row["representative"] and poly != [[0, order]]:
            problems.append(f"N^e = {poly} is not |W| = {order}")
        if row["positive"] != all(c > 0 for _, c in poly):
            problems.append(f"class {row['class_id']}: positive flag disagrees with N^w")
        if row["positive"]:
            positive.append(row)
    if report["positive_class_ids"] != [row["class_id"] for row in positive]:
        problems.append("positive_class_ids disagrees with the per-class flags")
    if label == "D4":
        pairs = {(row["min_length"], row["size"]) for row in positive}
        if pairs != D4_POSITIVE or len(positive) != len(D4_POSITIVE):
            problems.append(f"D4 positive (min length, size) pairs {sorted(pairs)}")
    if label.startswith("A"):
        n = group.rank + 1
        types = sorted(reference.cycle_type(group.word(row["representative"]))
                       for row in positive)
        if types != sorted([(1,) * n, (n,)]):
            problems.append(f"{label} positive classes have cycle types {types}, "
                            f"not the identity and Coxeter classes")
    return problems


# -- jring ----------------------------------------------------------------------


def _j_product(table, left, right):
    out = {}
    for x, cx in left.items():
        for y, cy in right.items():
            for z, g in table.get((x, y), {}).items():
                c = out.get(z, 0) + cx * cy * g
                if c:
                    out[z] = c
                else:
                    out.pop(z, None)
    return out


def _solve_unit(elements, table):
    """The u with u t_w = t_w u = t_w for all w, over Q; None if there is
    none or it is not unique."""
    n = len(elements)
    col = {w: k for k, w in enumerate(elements)}
    equations = set()
    for w in elements:
        for side in (0, 1):
            eqs = {}
            for x in elements:
                key = (x, w) if side == 0 else (w, x)
                for z, g in table.get(key, {}).items():
                    eqs.setdefault(z, [0] * n)[col[x]] += g
            for z in set(eqs) | {w}:
                equations.add(tuple(eqs.get(z, [0] * n)) + (int(z == w),))
    rows = [[Fraction(a) for a in eq] for eq in equations]
    used = set()
    for c in range(n):
        k = next((k for k, r in enumerate(rows) if k not in used and r[c]), None)
        if k is None:
            return None  # a free variable: the unit is not unique
        used.add(k)
        pivot = rows[k]
        pivot[:] = [a / pivot[c] for a in pivot]
        for r in rows:
            if r is not pivot and r[c]:
                f = r[c]
                r[:] = [a - f * b for a, b in zip(r, pivot)]
    if any(rows[k][n] for k in range(len(rows)) if k not in used):
        return None  # inconsistent: no unit
    solution = {}
    for k in used:
        c = next(c for c in range(n) if rows[k][c])
        if rows[k][n]:
            solution[elements[c]] = rows[k][n]
    return solution


def check_jring(label: str, report: dict) -> list[str]:
    group = reference.realization(label)
    problems = validate_schema(report, "jtable.schema.json") + _same_matrix(group, report)
    a = {group.word(z): value for z, value in report["a_values"]}
    if set(a) != set(group.length):
        return problems + ["a-values do not cover W exactly once"]
    words = {group.word(z): z for z, _ in report["a_values"]}
    inverse = {g: group.word(reversed(w)) for g, w in words.items()}
    counts = group.reduced_word_counts()
    w0 = max(group.length, key=group.length.get)
    if a[group.identity] != 0:
        problems.append("a(e) != 0")
    if a[w0] != group.length[w0]:
        problems.append(f"a(w0) = {a[w0]} != l(w0) = {group.length[w0]}")
    for g, value in a.items():
        if g != group.identity and (value == 1) != (counts[g] == 1):
            problems.append(f"a({words[g]}) = {value} but {counts[g]} reduced words")
        if value != a[inverse[g]]:
            problems.append(f"a({words[g]}) != a of its inverse")
        if label.startswith("A"):
            expected = reference.n_of_shape(reference.rsk_shape(g))
            if value != expected:
                problems.append(f"a({words[g]}) = {value} != n(RSK shape) = {expected}")

    table = {}
    for x, y, z, gamma in report["triples"]:
        if gamma < 0:
            problems.append(f"negative structure constant at {x}, {y}, {z}")
        table.setdefault((group.word(x), group.word(y)), {})[group.word(z)] = gamma
    elements = group.order_bfs
    for x in elements:
        for y in elements:
            xy = table.get((x, y), {})
            for z in elements:
                if (_j_product(table, xy, {z: 1})
                        != _j_product(table, {x: 1}, table.get((y, z), {}))):
                    return problems + [f"J is not associative at {words[x]}, "
                                       f"{words[y]}, {words[z]}"]
    unit = _solve_unit(elements, table)
    if unit is None:
        problems.append("J has no unique unit")
    elif any(c != 1 or group.mul(d, d) != group.identity for d, c in unit.items()):
        problems.append("the unit of J is not a 0/1 sum of involutions")
    return problems


# -- kl-basis -------------------------------------------------------------------


def check_kl_basis(label: str, report: dict, seed: int, element=None) -> list[str]:
    """``element`` is the word asked for with ``--element``, or None when the
    report is the whole basis."""
    group = reference.realization(label)
    weights = report["weights"]
    rng = random.Random(seed)
    # a whole basis report takes seconds to validate (~25 s for B4); the header
    # and a sample of entries carry every shape the schema describes
    entries = report["elements"]
    sample = dict(report, elements=rng.sample(entries, min(SCHEMA_SAMPLE, len(entries))))
    problems = validate_schema(sample, "kl_basis.schema.json") + _same_matrix(group, report)
    coords = {}
    for entry in report["elements"]:
        w = group.word(entry["w"])
        coords[w] = {group.word(y): dict((e, c) for e, c in pairs)
                     for y, pairs in entry["coords"]}
    wanted = set(group.length) if element is None else {group.word(element)}
    if set(coords) != wanted or len(entries) != len(wanted):
        return problems + ["the report does not list every requested element once"]
    for w, c in coords.items():
        if c.get(w) != {0: 1}:
            problems.append(f"p_(w,w) != 1 at {group.length[w]}-long w")
        if any(not p or max(p) >= 0 for y, p in c.items() if y != w):
            problems.append("a coefficient p_(y,w), y != w, is not in v^-1 Z[v^-1]")

    L = group.weighted_length(weights)
    bar = reference.BarInvolution(group, weights)
    listed = [w for w in group.order_bfs if w in coords]
    for w in rng.sample(listed, min(BAR_SAMPLE, len(listed))):
        if bar.bar(coords[w]) != coords[w]:
            problems.append(f"c_w is not bar-invariant for w of length {group.length[w]}")
    # every c_w: bar-invariance under a random functional T_x -> r_x at a
    # random v modulo a prime, so a wrong coefficient anywhere shows
    v = rng.randrange(2, MODULUS - 1)
    r = {x: rng.randrange(MODULUS) for x in group.order_bfs}
    reach = max(L.values())  # every exponent lies in [-reach, reach]
    at_v = {e: pow(v, e, MODULUS) for e in range(-reach, reach + 1)}
    bar_images = {y: bar.bar_at(y, at_v, MODULUS, r) for y in group.order_bfs}
    for w, c in coords.items():
        lhs = sum(c_ * at_v[-e] * bar_images[y] for y, p in c.items() for e, c_ in p.items())
        rhs = sum(c_ * at_v[e] * r[y] for y, p in c.items() for e, c_ in p.items())
        if (lhs - rhs) % MODULUS:
            problems.append(f"c_w is not bar-invariant for w of length {group.length[w]}")

    for subset in reference.parabolic_subsets(group.rank):
        members = group.parabolic(subset)
        top = max(members, key=L.get)
        expected = {y: {L[y] - L[top]: 1} for y in members}
        if top in coords and coords[top] != expected:
            problems.append(f"c_(w_I) is not the parabolic sum for I = {subset}")
    return problems


# -- group ----------------------------------------------------------------------


def check_group(label: str, report: dict) -> list[str]:
    group = reference.realization(label)
    order = len(group)
    problems = validate_schema(report, "group.schema.json") + _same_matrix(group, report)
    classes = report["classes"]
    if report["order"] != order or len(classes) != len(group.class_sizes()):
        return problems + [f"|W| = {report['order']} with {len(classes)} classes, "
                           f"expected {order} with {len(group.class_sizes())}"]
    problems += _class_problems(group, classes, order)
    w0 = group.word(report["longest"])
    if len(report["longest"]) != max(group.length.values()) or group.length[w0] != len(report["longest"]):
        problems.append(f"longest element has length {len(report['longest'])}")
    if any(group.mul(w0, s) != group.mul(s, w0) for s in group.gens):
        problems.append("w0 is not central")
    cox = group.word(report["coxeter"])
    h = group.element_order(cox)
    if group.class_size(cox) != order // h:
        problems.append(f"Coxeter class has size {group.class_size(cox)}, not |W|/h = {order // h}")
    if label == "F4":
        seen = {"order": report["order"], "classes": len(classes),
                "longest": len(report["longest"]), "coxeter_class": group.class_size(cox)}
        if seen != F4_FACTS:
            problems.append(f"F4 facts {seen} != {F4_FACTS}")
    return problems
