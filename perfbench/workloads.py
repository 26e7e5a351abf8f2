"""
The four workloads: which ``hx`` commands one round runs, which systems the
set-up probe builds, and how each report is checked.

Every invocation is one ``hx`` process with ``--jobs 1``. A round is the
workload's invocations in order; its operations are those invocations, and
one whose process fails or whose report fails a check counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import checks


@dataclass(frozen=True)
class Invocation:
    tag: str                       # names the operation in logs
    argv: tuple[str, ...]          # arguments after ``python -m hx.cli``
    check: Callable[[dict, int], list[str]]  # (report, seed) -> problems
    same_as: Optional[str] = None  # tag whose report bytes this one must repeat


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    systems: tuple[tuple[str, Optional[tuple[int, ...]]], ...]  # (label, weights)
    uses_cache: bool = False       # run with a fresh, empty HX_CACHE_DIR per round


def _positivity(label):
    return Invocation(label, ("positivity", "--type", label, "--jobs", "1", "--json"),
                      lambda report, seed: checks.check_positivity(label, report))


def _jring(label):
    return Invocation(label, ("jring", "table", "--type", label, "--jobs", "1", "--json"),
                      lambda report, seed: checks.check_jring(label, report))


def _kl_basis(label, *options, element=None):
    argv = ("kl", "basis", "--type", label, *options, "--jobs", "1", "--json")
    if element is not None:
        argv += ("--element", ",".join(map(str, element)))
    return (
        Invocation(f"{label}-cold", argv, lambda report, seed:
                   checks.check_kl_basis(label, report, seed, element)),
        Invocation(f"{label}-warm", argv, lambda report, seed: [], same_as=f"{label}-cold"),
    )


B4_LONGEST = (0, 1, 2, 3) * 4  # (s0 s1 s2 s3)^(h/2) = w0, of length 16

WORKLOADS = {w.name: w for w in [
    Workload(
        name="positivity",
        invocations=(_positivity("D4"), _positivity("A4")),
        systems=(("D4", None), ("A4", None)),
    ),
    Workload(
        name="jring",
        invocations=(_jring("A3"), _jring("B2")),
        systems=(("A3", None), ("B2", None)),
    ),
    Workload(
        name="kl-basis",
        invocations=(*_kl_basis("D4"),
                     *_kl_basis("B4", "--weights", "1,1,1,2", element=B4_LONGEST)),
        systems=(("D4", None), ("B4", (1, 1, 1, 2))),
        uses_cache=True,
    ),
    Workload(
        name="group",
        invocations=(Invocation("F4", ("group", "--type", "F4", "--jobs", "1", "--json"),
                                lambda report, seed: checks.check_group("F4", report)),),
        systems=(("F4", None),),
    ),
]}
