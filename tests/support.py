"""Shared test helpers: cached systems/algebras and CLI/schema utilities."""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import jsonschema
from referencing import Registry, Resource

from hx import (CoxeterSystem, HeckeAlgebra, JRing, KLBasis, WeightFunction,
                build_system)
from hx.cli import main as cli_main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "hx" / "schemas"


@lru_cache(maxsize=None)
def system(label: str) -> CoxeterSystem:
    return build_system(label)


@lru_cache(maxsize=None)
def algebra(label: str, weights: tuple[int, ...] | None = None) -> HeckeAlgebra:
    sys_ = system(label)
    w = WeightFunction(sys_, weights) if weights else None
    return HeckeAlgebra(sys_, w)


@lru_cache(maxsize=None)
def kl(label: str, weights: tuple[int, ...] | None = None) -> KLBasis:
    return KLBasis(algebra(label, weights))


def without_generator_square(ring):
    """``ring`` with the row of t_s t_s dropped, s its first generator: t_s
    then lies in no t_d t_d, so sum n_d t_d over D misses it and is no unit."""
    s = ring.system.generator(0)
    return _with_table(ring, {pair: row for pair, row in ring.table.items()
                              if pair != (s, s)})


def tampered_j_table(ring, tamper: str):
    """``ring`` with its J table changed where ``random.Random(tamper)``
    picks: "scale" raises one entry by 1, "add" puts an entry where
    t_x t_y = 0, and "drop" deletes a row."""
    rng = random.Random(tamper)
    table = {pair: dict(row) for pair, row in ring.table.items()}
    pair = rng.choice(sorted(table, key=lambda p: (p[0].sort_key, p[1].sort_key)))
    z = next(iter(table[pair]))
    if tamper == "scale":  # a J entry off by one
        table[pair][z] += 1
    elif tamper == "add":  # an entry where t_x t_y = 0
        x = ring.elements[rng.randrange(len(ring.elements))]
        table.setdefault((x, ring.elements[-1]), {})[x] = 1
    else:  # a row lost
        del table[pair]
    return _with_table(ring, table)


def _with_table(ring, table):
    """A JRing like ``ring`` but with this table."""
    return JRing(system=ring.system, weight=ring.weight, elements=ring.elements,
                 a=ring.a, table=table)


def specialize(h, c) -> dict:
    """The Hecke element h evaluated coefficientwise at v = c (exact; c
    nonzero), with zero coefficients dropped."""
    if c == 0:
        raise ZeroDivisionError("cannot specialize at v = 0")
    return {w: val for w, p in h.terms.items() if (val := p.evaluate(c))}


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr). stdout
    has a binary layer under its text one, as the real one does: the CLI
    writes JSON reports to ``sys.stdout.buffer``."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    out.flush()  # both layers: text output, then the bytes written under it
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def run_cli_json(*argv: str) -> dict:
    code, out, err = run_cli(*argv, "--json")
    assert code == 0, f"cli failed ({code}): {err}"
    return json.loads(out)


@lru_cache(maxsize=None)
def _registry() -> Registry:
    defs = json.loads((SCHEMA_DIR / "defs.json").read_text())
    return Registry().with_resource("hx/defs.json", Resource.from_contents(defs))


def validate_schema(doc: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft202012Validator(schema, registry=_registry()).validate(doc)
