"""The hx command line: reports, formats, exit codes, caching, schemas."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

import cli_oracle
import hx.cli as cli
from support import (kl, run_cli, run_cli_json, tampered_j_table, validate_schema,
                     without_generator_square)

ROOT = Path(__file__).resolve().parents[1]


def test_group_a3():
    doc = run_cli_json("group", "--type", "A3")
    assert doc["order"] == 24
    assert len(doc["classes"]) == 5
    assert doc["longest"] == [0, 1, 0, 2, 1, 0]
    assert doc["coxeter"] == [0, 1, 2]
    validate_schema(doc, "group.schema.json")


def test_group_affine_ball():
    doc = run_cli_json("group", "--type", "~A1", "--max-length", "5")
    assert doc["count"] == 11 and len(doc["elements"]) == 11
    assert not doc["is_finite"]
    validate_schema(doc, "group.schema.json")


def test_group_exit_codes():
    code, _, err = run_cli("group", "--type", "A2", "--weights", "1,2")
    assert code == 1 and "odd bond" in err
    code, _, err = run_cli("group", "--type", "~A1")
    assert code == 2 and "max-length" in err
    code, _, err = run_cli("group", "--type", "Q9")
    assert code == 1
    code, _, err = run_cli("group")
    assert code == 1 and "--type" in err
    code, _, err = run_cli("frobnicate")
    assert code == 1


def test_group_from_matrix_file(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([[1, "inf"], ["inf", 1]]))
    doc = run_cli_json("group", "--matrix", str(path), "--max-length", "2")
    assert doc["count"] == 5
    code, _, err = run_cli("group", "--matrix", str(path), "--type", "A2")
    assert code == 1 and "mutually exclusive" in err


def test_weights_catalog():
    doc = run_cli_json("weights", "--type", "~F4")
    assert doc["catalog"] == [[1, 1, 1, 1, 1], [1, 1, 1, 2, 2],
                              [2, 2, 2, 1, 1], [1, 1, 1, 4, 4]]
    validate_schema(doc, "weights.schema.json")
    code, _, err = run_cli("weights", "--type", "B3")
    assert code == 1 and "catalog" in err


def test_fprobe():
    doc = run_cli_json("hecke", "fprobe", "--type", "A1")
    assert doc["n_emp"] == 1
    assert doc["witness"] == {"x": [0], "y": [0], "z": [0]}
    validate_schema(doc, "fprobe.schema.json")
    doc6 = run_cli_json("hecke", "fprobe", "--type", "~A1", "--radius", "6")
    doc5 = run_cli_json("hecke", "fprobe", "--type", "~A1", "--radius", "5")
    assert doc6["n_emp"] >= doc5["n_emp"]
    code, _, _ = run_cli("hecke", "fprobe", "--type", "~A1")
    assert code == 2


def test_kl_basis_element():
    doc = run_cli_json("kl", "basis", "--type", "A2", "--element", "0,1,0")
    assert len(doc["elements"]) == 1
    entry = doc["elements"][0]
    assert entry["w"] == [0, 1, 0]
    assert len(entry["coords"]) == 6
    coords = {tuple(y): pairs for y, pairs in entry["coords"]}
    assert coords[()] == [[-3, 1]]  # p_{e, w0} = v^-3
    validate_schema(doc, "kl_basis.schema.json")
    # whole-basis listing is gated on infinite systems
    code, _, _ = run_cli("kl", "basis", "--type", "~A1")
    assert code == 2
    doc = run_cli_json("kl", "basis", "--type", "~A1", "--element", "0,1,0")
    assert doc["elements"][0]["w"] == [0, 1, 0]


def test_kl_hconst():
    doc = run_cli_json("kl", "hconst", "--type", "A1", "--x", "0", "--y", "0")
    assert doc["constants"] == [[[0], [[-1, 1], [1, 1]]]]  # v + v^-1
    validate_schema(doc, "hconst.schema.json")


def test_kl_afunction():
    doc = run_cli_json("kl", "afunction", "--type", "A2")
    values = {tuple(z): a for z, a in doc["values"]}
    assert values[()] == 0 and values[(0, 1, 0)] == 3
    assert values[(0,)] == values[(1,)] == values[(0, 1)] == values[(1, 0)] == 1
    validate_schema(doc, "afunction.schema.json")


def test_jring_commands():
    doc = run_cli_json("jring", "check", "--type", "B2")
    assert doc["passed"] and doc["exhaustive"]
    assert doc["triples_checked"] == 512
    validate_schema(doc, "jchecks.schema.json")

    table = run_cli_json("jring", "table", "--type", "A1")
    assert sorted(table["triples"]) == [[[], [], [], 1], [[0], [0], [0], 1]]
    validate_schema(table, "jtable.schema.json")

    unit = run_cli_json("jring", "unit", "--type", "A1")
    assert unit["unit"] == [[[], 1], [[0], 1]]
    validate_schema(unit, "junit.schema.json")


def test_positivity_json_and_csv(tmp_path):
    doc = run_cli_json("positivity", "--type", "A2")
    assert doc["positive_class_ids"] == [0, 2]
    assert all(all(r["checks"].values()) for r in doc["reports"])
    validate_schema(doc, "positivity.schema.json")

    out = tmp_path / "a2.csv"
    code, stdout, _ = run_cli("positivity", "--type", "A2", "--csv",
                              "--out", str(out))
    assert code == 0
    expected = ("class,size,min_length,positive,n_at_1\n"
                "0,1,0,true,6\n"
                "1,3,1,false,2\n"
                "2,2,2,true,3\n")
    assert stdout == expected
    assert out.read_text() == expected

    code, _, err = run_cli("positivity", "--type", "~A1")
    assert code == 2 and "finite" in err


def test_positivity_jobs_byte_identical(tmp_path):
    f1, f2 = tmp_path / "j1.json", tmp_path / "j2.json"
    code1, out1, _ = run_cli("positivity", "--type", "B2", "--jobs", "1",
                             "--json", "--out", str(f1))
    code2, out2, _ = run_cli("positivity", "--type", "B2", "--jobs", "4",
                             "--json", "--out", str(f2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert f1.read_bytes() == f2.read_bytes()
    code, _, err = run_cli("positivity", "--type", "A2", "--jobs", "0")
    assert code == 1


@pytest.mark.parametrize("value", ["0", "-4"])
def test_max_cmin_below_one_is_a_usage_error(tmp_path, value):
    code, out, err = run_cli("positivity", "--type", "A2", "--max-cmin", value)
    assert code == 1 and "max_cmin" in err and "Traceback" not in err and not out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "A2", "max-cmin": int(value)}))
    code, out, err = run_cli("positivity", "--config", str(cfg))
    assert code == 1 and "max_cmin" in err and not out


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "A3", "weights": "equal", "jobs": 2}))
    doc = run_cli_json("group", "--config", str(cfg))
    assert doc["order"] == 24
    # flags override the config
    doc = run_cli_json("group", "--config", str(cfg), "--type", "A2")
    assert doc["order"] == 6
    # config can supply jobs; results match a flag-driven run
    a = run_cli_json("positivity", "--config", str(cfg), "--type", "A2")
    b = run_cli_json("positivity", "--type", "A2", "--jobs", "1")
    assert a == b


def test_report_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    doc1 = run_cli_json("kl", "afunction", "--type", "A2")
    cache_files = list((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 1
    _, _, err = run_cli("kl", "afunction", "--type", "A2", "--json")
    assert "cache hit" in err
    doc2 = run_cli_json("kl", "afunction", "--type", "A2")
    assert doc1 == doc2
    # a different weight misses the cache
    run_cli_json("kl", "afunction", "--type", "B2", "--weights", "1,2")
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


@pytest.mark.parametrize("name,other", [("__version__", "0.0.0"),
                                        ("REPORT_SCHEMA", 0)])
def test_cache_entry_from_other_code_misses(tmp_path, monkeypatch, name, other):
    import hx.cli as cli

    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    command = ("kl", "afunction", "--type", "A2", "--json")
    with monkeypatch.context() as older:
        older.setattr(cli, name, other)
        code, stale, _ = run_cli(*command)
        assert code == 0
    (older_entry,) = (tmp_path / "cache").glob("*.json")
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err and out == stale
    # the store swept the entry no current key can name
    (entry,) = (tmp_path / "cache").glob("*.json")
    assert entry.name != older_entry.name
    _, _, err = run_cli(*command)
    assert "cache hit" in err


CACHE_DAMAGE = {
    "truncated": lambda data, key: data[:len(data) // 2],
    "emptied": lambda data, key: b"",
    "edited": lambda data, key: data.replace(b'"A2"', b'"A3"', 1),
    "digest_edited": lambda data, key: data[:10] + b"0" + data[11:],
    "not_utf8": lambda data, key: data[:-3] + b"\xff" + data[-3:],
    "not_ascii": lambda data, key: data.replace(b'"A2"', '"\u00c42"'.encode(), 1),
    "old_format": lambda data, key: data.partition(b"\n")[2],
    "not_a_report": lambda data, key: b"[1,2]",
}


@pytest.mark.parametrize("damage", list(CACHE_DAMAGE))
@pytest.mark.parametrize("mode", ["--json", "text"])
def test_damaged_cache_entry_is_recomputed(tmp_path, monkeypatch, damage, mode):
    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    command = ["kl", "afunction", "--type", "A2"] + ([mode] if mode != "text" else [])
    keys = []
    store = cli._cache_store
    monkeypatch.setattr(cli, "_cache_store", lambda entry, report: (
        keys.append(entry[1]) or store(entry, report)))
    code, cold, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err
    (entry,) = (tmp_path / "cache").glob("*.json")
    intact = entry.read_bytes()
    damaged = CACHE_DAMAGE[damage](intact, keys[0])
    assert damaged != intact
    entry.write_bytes(damaged)
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err and "Traceback" not in err
    assert out == cold
    assert entry.read_bytes() == intact  # overwritten by the recomputed one
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" in err and out == cold


@pytest.mark.parametrize("payload", [
    b"{}", b"[1,2]", b'{"values": 5}', b'{"values": [[[], 0, 1]]}',
    b"null", b"not json", "{\"\u00c4\": 1}".encode()])
def test_forged_cache_entry_that_is_not_a_report_is_recomputed(
        tmp_path, monkeypatch, payload):
    # a digest that matches a payload which is not the command's report (no
    # damage makes one; it has to be written so) must not end text output
    # in a traceback: the entry is recomputed and overwritten
    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    keys = []
    store = cli._cache_store
    monkeypatch.setattr(cli, "_cache_store", lambda entry, report: (
        keys.append(entry[1]) or store(entry, report)))
    command = ("kl", "afunction", "--type", "A1")
    code, cold, _ = run_cli(*command)
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    intact = entry.read_bytes()
    entry.write_bytes(cli._digest(keys[0], payload).hexdigest().encode() + b"\n" + payload)
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err and "Traceback" not in err
    assert out == cold
    assert entry.read_bytes() == intact
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" in err and out == cold


def test_cache_hit_under_json_is_not_parsed(tmp_path, monkeypatch):
    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    command = ("kl", "basis", "--type", "A3", "--json")
    code, cold, _ = run_cli(*command)
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a --json cache hit was parsed")

    with monkeypatch.context() as patched:
        patched.setattr(json, "loads", refuse)  # the module cli imports on use
        code, warm, err = run_cli(*command)
    assert code == 0 and "cache hit" in err and warm == cold
    code, text, err = run_cli(*command[:-1])  # text output parses the entry
    assert code == 0 and "cache hit" in err and text.startswith("c_[]:\n")


def test_digest_is_blake2b_256_of_the_parts_joined():
    import hashlib

    for parts in [(), (b"",), (b"key", b"body"), (b"k", memoryview(b"xbody")[1:], b"\n")]:
        expected = hashlib.blake2b(b"".join(parts), digest_size=32).hexdigest()
        assert cli._digest(*parts).hexdigest() == expected


def test_entry_in_the_single_blob_format_replays(tmp_path, monkeypatch):
    # an entry is blake2b-256(key + body), a newline, then body, however the
    # body was written: entries hashed as one blob replay as hits
    import hashlib

    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    keys = []
    store = cli._cache_store
    monkeypatch.setattr(cli, "_cache_store", lambda entry, report: (
        keys.append(entry[1]) or store(entry, report)))
    command = ("kl", "basis", "--type", "B2")
    (code, cold, _), (code2, text, _) = run_cli(*command, "--json"), run_cli(*command)
    assert code == code2 == 0 and len(keys) == 1
    (entry,) = (tmp_path / "cache").glob("*.json")
    body = cold.encode()
    blob = (hashlib.blake2b(keys[0] + body, digest_size=32).hexdigest().encode()
            + b"\n" + body)
    assert entry.read_bytes() == blob
    entry.unlink()
    entry.write_bytes(blob)
    for argv, expected in [(command + ("--json",), cold), (command, text)]:
        code, out, err = run_cli(*argv)
        assert code == 0 and "cache hit" in err and out == expected
    assert len(keys) == 1


@pytest.mark.parametrize("mode", ["--json", "text"])
def test_entry_cut_mid_body_is_recomputed(tmp_path, monkeypatch, mode):
    # a kl basis payload is written chunk by chunk; an entry cut inside its
    # body, as a full disk might leave one, fails its digest
    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    command = ["kl", "basis", "--type", "B2"] + ([mode] if mode != "text" else [])
    code, cold, _ = run_cli(*command)
    (entry,) = (tmp_path / "cache").glob("*.json")
    intact = entry.read_bytes()
    entry.write_bytes(intact[:intact.index(b"\n") + len(intact) // 2])
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err and "Traceback" not in err
    assert out == cold and entry.read_bytes() == intact
    code, out, err = run_cli(*command)
    assert code == 0 and "cache hit" in err and out == cold


def test_failure_while_writing_leaves_nothing(tmp_path, monkeypatch):
    # kl basis makes each element as it is written, into the entry's temp
    # file; a failure at the fifth reaches no stdout, no --out file and no
    # cache entry, not even the temp file, and the next run is a cold miss
    from hx.coxeter import InternalCheckError
    from hx.klbasis import KLBasis

    cache, out = tmp_path / "cache", tmp_path / "out.json"
    monkeypatch.setenv("HX_CACHE_DIR", str(cache))
    real = KLBasis.coord_pairs
    made, spooling = [], []

    def fail_fifth(self, w):
        made.append(w)
        if len(made) == 5:
            spooling.extend(path.name for path in cache.iterdir())
            raise InternalCheckError("forced at the fifth element")
        return real(self, w)

    command = ("kl", "basis", "--type", "B3", "--weights", "1,1,2", "--json",
               "--out", str(out))
    with monkeypatch.context() as patched:
        patched.setattr(KLBasis, "coord_pairs", fail_fifth)
        code, stdout, err = run_cli(*command)
    assert code == 3 and "forced at the fifth element" in err
    assert "Traceback" not in err and stdout == ""
    assert len(made) == 5 and not out.exists()
    # four elements went to a temp file named for this host and process
    (temp,) = spooling
    assert temp.endswith(f".json.{os.uname().nodename}.{os.getpid()}.tmp")
    assert list(cache.iterdir()) == []  # no entry and no *.tmp file
    committed = (ROOT / "reports" / "klbasis_B3_112.json").read_text()
    code, stdout, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err
    assert stdout == committed and out.read_text() == committed


class _CountingSink:
    """A stdout that counts what it is sent, text or bytes, and keeps none."""

    def __init__(self):
        self.count = 0
        self.buffer = self

    def write(self, data):
        self.count += len(data)
        return len(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def flush(self):
        pass


def test_kl_basis_report_is_held_about_once(tmp_path, monkeypatch):
    # the traced peak of a whole D4 kl basis run, against the report's size:
    # the KL build cold, and a block of the entry warm, with the payload
    # spooled through the entry and never held whole (measured 0.83x cold
    # and 0.08x warm; with the payload's chunks held, 1.85x and 1.05x)
    import tracemalloc
    from contextlib import redirect_stdout

    monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / "cache"))
    for run, bound in [("cold", 1.2), ("warm", 0.25)]:
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                code = cli.main(["kl", "basis", "--type", "D4", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.count == 2029098
        assert peak < bound * sink.count, f"{run}: {peak / sink.count:.2f}x"


def test_progress_goes_to_stderr_not_stdout():
    code, out, err = run_cli("positivity", "--type", "A2", "--json")
    assert code == 0
    json.loads(out)  # stdout is pure JSON
    assert "class" in err  # progress lines went to stderr


def test_internal_invariant_violation_exits_3(monkeypatch):
    import hx.positivity as positivity
    from hx.coxeter import InternalCheckError

    def boom(*args, **kwargs):
        raise InternalCheckError("forced for the exit-code contract")

    monkeypatch.setattr(positivity, "classify_positive", boom)
    code, _, err = run_cli("positivity", "--type", "A2")
    assert code == 3 and "INTERNAL" in err


def test_jring_unit_that_fails_the_check(monkeypatch):
    import hx.klbasis as klbasis
    from hx.klbasis import j_table

    def serve(ring):
        monkeypatch.setattr(klbasis, "j_table", lambda *args, **kwargs: ring)

    # equal parameters: an internal error, exit 3
    serve(without_generator_square(j_table(kl("A2"))))
    code, out, err = run_cli("jring", "unit", "--type", "A2", "--json")
    assert code == 3 and "not a unit of J" in err
    assert "Traceback" not in err and not out
    # unequal weights: no unit, reported as null
    serve(without_generator_square(j_table(kl("B2", (1, 2)))))
    code, out, err = run_cli("jring", "unit", "--type", "B2", "--weights", "1,2",
                             "--json")
    assert code == 0 and '"unit": null' in out
    validate_schema(json.loads(out), "junit.schema.json")
    code, out, err = run_cli("jring", "unit", "--type", "B2", "--weights", "1,2")
    assert code == 0 and out == (
        "sum of n_d t_d over D (read off the J table) is not a unit: "
        "P1-P15 fail at these weights\n")


def test_generator_loop_turned_around_exits_3(monkeypatch):
    # level passes from the last generator down reach w0 of A2 first by s1,
    # which is not its least left descent; the check must catch it
    import builtins

    import hx.coxeter as coxeter

    monkeypatch.setattr(coxeter, "enumerate", lambda items: reversed(
        list(builtins.enumerate(items))), raising=False)
    code, out, err = run_cli("group", "--type", "A2")
    assert code == 3 and "not by its least left descent" in err
    assert "Traceback" not in err and not out


def test_left_step_missing_a_bond_term_exits_3(monkeypatch):
    # heights stepped with one bond term left out are no longer those of a
    # group element: enumeration must stop on a check, not print a report
    from hx.coxeter import CoxeterSystem

    real = CoxeterSystem._act

    def broken(self, heights, i):
        out = list(real(self, heights, i))
        bonds = [j for j, c in self._cartan_nonzero[i] if j != i]
        if bonds:
            out[bonds[-1]] = heights[bonds[-1]]
        return tuple(out)

    monkeypatch.setattr(CoxeterSystem, "_act", broken)
    code, out, err = run_cli("group", "--type", "F4")
    assert code == 3 and "was not filled with the level below it" in err
    assert "Traceback" not in err and not out
    # a letter out of range is still a usage error, with the same message
    monkeypatch.undo()
    code, out, err = run_cli("kl", "basis", "--type", "A2", "--element", "0,5")
    assert code == 1 and not out
    assert err == "hx: error: generator index 5 out of range for rank 2\n"


def test_second_longest_element_exits_3(monkeypatch):
    # a second element in the top length level, put there once the dense
    # tables are built from the levels, is an internal error, not a crash
    from hx.coxeter import CoxeterSystem, InternalCheckError, build_system

    real = CoxeterSystem.dense_tables

    def crowded(self):
        dense = real(self)
        top = self._levels[-1]
        if len(top) == 1:
            top.append(self._levels[-2][0])
        return dense

    monkeypatch.setattr(CoxeterSystem, "dense_tables", crowded)
    W = build_system("A2")
    W.dense_tables()
    with pytest.raises(InternalCheckError, match="longest element is not unique"):
        W.longest_element()
    code, out, err = run_cli("group", "--type", "A2")
    assert code == 3 and "longest element is not unique" in err
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("at_descent", [True, False])
def test_action_row_off_the_theorem_exits_3(monkeypatch, at_descent):
    from hx.klbasis import KLBasis

    if at_descent:
        real_row = KLBasis._packed_row

        def skewed_row(self, w):
            # once P_w0 is built, the last row the scan asks for, double its
            # entry at e: every s is a descent of w0, and P_w0[s] is no
            # longer P_w0[e] v^L(s)
            row, mass = real_row(self, w)
            if w is self.system.longest_element():
                row[self.system.identity] *= 2
            return row, mass

        monkeypatch.setattr(KLBasis, "_packed_row", skewed_row)
    else:
        real_step = KLBasis._step

        def skewed_step(self, s, row):
            # double the T_u coefficient of v^L(s) c_s P_u at an ascent whose
            # s is not the first letter of su; the KL build steps only from
            # the canonical tail of su, so these steps are the scan's alone.
            # The coefficient is v^L(u), and doubled it passes every check of
            # the split but gives p_(u,su) = 2 v^-L(s)
            out = real_step(self, s, row)
            u = max(row, key=lambda el: el.sort_key)
            if self.system.left_mul_gen(s, u)[0].word[0] != s:
                out[u] *= 2
            return out

        monkeypatch.setattr(KLBasis, "_step", skewed_step)
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    message = "at a descent" if at_descent else "does not reproduce P_su"
    assert code == 3 and message in err and "Traceback" not in err and not out


def test_descent_row_with_a_gap_in_its_support_exits_3(monkeypatch):
    # drop e from P_w0 once it is built: every s is a descent of w0, and
    # P_w0 still holds s but no longer s s = e
    from hx.klbasis import KLBasis

    real = KLBasis._packed_row

    def gapped(self, w):
        row, mass = real(self, w)
        if w is self.system.longest_element():
            row.pop(self.system.identity, None)
        return row, mass

    monkeypatch.setattr(KLBasis, "_packed_row", gapped)
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    assert code == 3 and "at a descent" in err
    assert "Traceback" not in err and not out


def test_action_row_split_needing_an_unbuilt_row_exits_3(monkeypatch):
    # the scan splits c_s c_u only once every row is built; a row dropped
    # just before such a split must stop the run, not be built there
    from hx.klbasis import KLBasis

    real = KLBasis._split

    def forgetful(self, s, u):
        if self.system.left_mul_gen(s, u)[0].word[0] != s:  # not the build's
            del self._packed[u]
        return real(self, s, u)

    monkeypatch.setattr(KLBasis, "_split", forgetful)
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    assert code == 3 and "which is not built" in err
    assert "Traceback" not in err and not out


def _skew_action_rows(monkeypatch, change, norms=lambda n: n):
    """Replace every packed action-row coefficient a by change(a, width),
    and each row-norm bound n by norms(n)."""
    from hx import klbasis

    real = klbasis._packed_action_rows

    def skewed(kl):
        rows, bounds = real(kl)
        return ([[{z: change(a, kl._width) for z, a in row.items()} for row in by_s]
                 for by_s in rows], [norms(n) for n in bounds])

    monkeypatch.setattr(klbasis, "_packed_action_rows", skewed)


def test_h_value_not_bar_invariant_exits_3(monkeypatch):
    # a -> (1 + v) a: the rows, and so the h_{x,y,z}, lose bar-invariance
    _skew_action_rows(monkeypatch, lambda a, width: a + (a << width),
                      lambda n: 2 * n)
    code, out, err = run_cli("jring", "table", "--type", "A2")
    assert code == 3 and "bar-invariant" in err and "Traceback" not in err and not out


def test_h_value_negative_exits_3(monkeypatch):
    # a -> -a keeps bar-invariance and breaks positivity at equal parameters
    _skew_action_rows(monkeypatch, lambda a, width: -a)
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    assert code == 3 and "positivity" in err and "Traceback" not in err and not out


def test_h_scan_l1_beyond_its_bound_exits_3(monkeypatch):
    # a row-norm bound of 1 is below the norm 2 of v^L + v^-L at a descent,
    # so c_s c_y there has l1 norm 2 against a bound of 1
    _skew_action_rows(monkeypatch, lambda a, width: a, lambda n: 1)
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    assert code == 3 and "proven bound" in err and "Traceback" not in err and not out


def test_h_scan_inexact_shift_exits_3(monkeypatch):
    # an offset D one below L(w0) leaves h_{w0,w0,w0} v^D with a v^-1 term
    from hx.coxeter import CoxeterSystem

    real = CoxeterSystem.longest_element
    monkeypatch.setattr(CoxeterSystem, "longest_element",
                        lambda self: self.left_mul_gen(0, real(self))[0])
    code, out, err = run_cli("kl", "afunction", "--type", "A2")
    assert code == 3 and "inexact shift" in err and "Traceback" not in err and not out


def test_h_scan_off_h_constants_exits_3(monkeypatch):
    # add v + v^-1, bar-invariant and positive, to every h_{x,y,z} the
    # checks have passed: only the T-basis cross-check can see it
    from hx import klbasis

    real = klbasis._packed_columns

    def skewed(kl, rows, norms):
        width = kl._width
        offset = kl.algebra.weight(kl.system.longest_element())
        shift = (1 << width * (offset + 1)) + (1 << width * (offset - 1))
        for y, column in real(kl, rows, norms):
            yield y, [{z: h + shift for z, h in hs.items()} for hs in column]

    monkeypatch.setattr(klbasis, "_packed_columns", skewed)
    # at unequal weights the T~ step shifts by 2 L(s) B, not by 2B
    for args in (("--type", "A2"), ("--type", "B3", "--weights", "1,1,2")):
        code, out, err = run_cli("kl", "afunction", *args)
        assert code == 3 and "h_constants" in err and "Traceback" not in err and not out


def test_jring_check_failing_at_equal_parameters_exits_3(monkeypatch):
    # J is associative at equal parameters by P1-P15, so a failed check
    # there is an internal error; at other weights it is the report
    real = cli._j_ring
    monkeypatch.setattr(cli, "_j_ring", lambda system, weight: tampered_j_table(
        real(system, weight), "scale"))
    code, out, err = run_cli("jring", "check", "--type", "A3")
    assert code == 3 and not out and "Traceback" not in err
    assert "INTERNAL" in err and "not associative" in err
    code, out, err = run_cli("jring", "check", "--type", "B3", "--weights", "1,1,2")
    assert code == 0 and out.startswith("associativity FAIL (")


def test_trace_route_is_gone(tmp_path):
    code, out, err = run_cli("positivity", "--type", "A2", "--trace-route", "cyclic")
    assert code == 1 and not out
    assert "--trace-route" in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trace-route": "cyclic"}))
    code, out, err = run_cli("positivity", "--type", "A2", "--config", str(cfg))
    assert code == 1 and not out
    assert "unknown config key 'trace-route'" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, key, value", [
    (("group", "--type", "A2"), ("--seed", "1"), "seed", 1),
    (("jring", "check", "--type", "B2"), ("--exhaustive",), "exhaustive", True),
])
def test_seed_and_exhaustive_are_gone(tmp_path, command, flag, key, value):
    # the J check is exhaustive for every W, so nothing takes a seed
    code, out, err = run_cli(*command, *flag)
    assert code == 1 and not out
    assert "hx: error:" in err and flag[0] in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run_cli(*command, "--config", str(cfg))
    assert code == 1 and not out
    assert f"unknown config key '{key}'" in err and "Traceback" not in err


def test_weights_takes_no_matrix(tmp_path):
    # the catalog is read off the affine type label alone
    code, out, err = run_cli("weights", "--type", "~G2", "--matrix", "nonexistent.json")
    assert code == 1 and not out
    assert "hx: error:" in err and "--matrix" in err and "Traceback" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": "nonexistent.json"}))
    code, out, err = run_cli("weights", "--type", "~G2", "--config", str(cfg))
    assert code == 1 and not out
    assert "unknown config key 'matrix'" in err and "Traceback" not in err


@pytest.mark.parametrize("cfg, message", [
    ({"typo": 1}, "unknown config key 'typo'"),
    ({"trace-route": "cyclic", "type": "A2"}, "unknown config key 'trace-route'"),
    ({"config": "other.json"}, "unknown config key 'config'"),
    ({"jobs": "2"}, "'jobs' has a bad value '2'"),
    ({"jobs": True}, "'jobs' has a bad value True"),
    ({"type": ["A2"]}, "'type' has a bad value"),
    ({"json": "yes"}, "'json' has a bad value"),
])
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    command = ["positivity"] if "trace-route" not in cfg else ["group"]
    code, out, err = run_cli(*command, "--type", "A2", "--config", str(path))
    assert code == 1 and not out
    assert message in err and "Traceback" not in err


def test_config_values_take_the_flag_types(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"type": "A2", "element": [0, 1, 0],
                                "weights": [1, 1], "json": True}))
    code, out, _ = run_cli("kl", "basis", "--config", str(path))
    assert code == 0
    assert json.loads(out) == run_cli_json("kl", "basis", "--type", "A2",
                                           "--element", "0,1,0")


def test_every_command_has_one_handler():
    # the parser reads its commands off _COMMANDS: the words of each name
    # it, each command group has its help, and no two share a handler
    assert {cli._parse([*_words(key), *TYPICAL[key]])[0] for key in cli._COMMANDS} \
        == set(cli._COMMANDS)
    assert {name for name, subname in cli._COMMANDS if subname} == set(cli._GROUPS)
    assert len({command.run for command in cli._COMMANDS.values()}) == len(cli._COMMANDS)


# a run of each command that sets every option it has of its own; each runs
# as it stands where m.json holds an A2 matrix and c.json {"jobs": 2}
TYPICAL = {
    ("group", None): ["--type", "F4", "--max-length", "2"],
    ("weights", None): ["--type", "~G2"],
    ("hecke", "fprobe"): ["--type", "B2", "--weights", "1,2", "--radius", "3"],
    ("kl", "basis"): ["--type", "B3", "--weights", "1,1,2", "--element", "0,1"],
    ("kl", "hconst"): ["--type", "A2", "--x", "0", "--y", "1,0"],
    ("kl", "afunction"): ["--matrix", "m.json", "--jobs", "2"],
    ("jring", "table"): ["--type", "B2", "--out", "t.json", "--json"],
    ("jring", "check"): ["--type", "A2", "--weights", "equal"],
    ("jring", "unit"): ["--type", "B2", "--config", "c.json"],
    ("positivity", None): ["--type", "D4", "--csv", "--max-cmin", "2"],
}


def _words(key) -> list[str]:
    """The words that name a command on the command line."""
    return [word for word in key if word]


# the commands whose reports HX_CACHE_DIR keeps
CACHED = {("kl", "basis"), ("kl", "afunction"), ("jring", "table")}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_cached_report_serialized_once(tmp_path, monkeypatch, command):
    # every command takes the one report path: a run serializes its report
    # once, for the cache, --out and --json alike, or replays a cached
    # command's entry; its text is read back from that payload by one parse,
    # and --json alone parses nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text("[[1, 3], [3, 1]]")
    (tmp_path / "c.json").write_text('{"jobs": 2}')
    dumps, loads = [], []
    real_dumps, real_loads = cli._dumps, json.loads
    monkeypatch.setattr(cli, "_dumps", lambda report, sink=None: (
        dumps.append(1) or real_dumps(report, sink)))
    # the config and matrix files reach json.loads as str, a payload as bytes
    monkeypatch.setattr(json, "loads", lambda s, **kw: (
        isinstance(s, bytes) and loads.append(1)) or real_loads(s, **kw))
    typical = [*_words(command), *TYPICAL[command]]
    csv = "--csv" in typical
    for mode in ("--json --out", "text"):
        monkeypatch.setenv("HX_CACHE_DIR", str(tmp_path / f"cache {mode}"))
        argv = (typical + ["--json", "--out", "report.out"] if mode != "text"
                else [arg for arg in typical if arg != "--json"])
        outputs = []
        for run in ("cold", "warm"):
            dumps.clear()
            loads.clear()
            code, stdout, err = run_cli(*argv)
            hit = "cache hit" in err
            assert code == 0 and hit == (run == "warm" and command in CACHED), (mode, run)
            assert len(dumps) == (0 if hit else 1), (mode, run)
            assert len(loads) == (0 if mode != "text" and not csv else 1), (mode, run)
            if mode != "text" and not csv:  # --out takes the bytes --json prints
                assert stdout == (tmp_path / "report.out").read_text()
            outputs.append(stdout)
        assert outputs[0] == outputs[1]
    if command in CACHED:
        (cache_file,) = (tmp_path / "cache --json --out").glob("*.json")
        digest, _, cached = cache_file.read_text().partition("\n")
        assert cached == (tmp_path / "report.out").read_text() and len(digest) == 64
    else:  # an uncached command never opens the cache
        assert not list(tmp_path.glob("cache*"))


def test_positivity_csv_with_json_and_out(tmp_path):
    # --json prints the JSON payload, and --out takes the CSV that --csv names
    out = tmp_path / "a2.csv"
    code, stdout, _ = run_cli("positivity", "--type", "A2", "--csv", "--json",
                              "--out", str(out))
    assert code == 0
    assert stdout == run_cli("positivity", "--type", "A2", "--json")[1]
    assert out.read_text() == ("class,size,min_length,positive,n_at_1\n"
                               "0,1,0,true,6\n"
                               "1,3,1,false,2\n"
                               "2,2,2,true,3\n")


def _help(argv) -> str:
    """What hx prints for argv, which asks for help."""
    code, out, err = run_cli(*argv)
    assert code == 0 and not err
    return out


def _branch(parser, words):
    """The parser of the command the words name, in the argparse tree."""
    for word in words:
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[word]
    return parser


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids=lambda key: " ".join(_words(key)))
def test_command_parser_is_its_branch_of_the_full_parser(key):
    # one option table gives a command's parser and its help: a run of it
    # parses as the whole argparse tree, built from the same table, parsed
    # it, and its help names every option of that tree's branch
    assert set(TYPICAL) == set(cli._COMMANDS)
    command = _words(key)
    argv = [*command, *TYPICAL[key]]
    full = cli_oracle.build_parser()
    parsed = vars(full.parse_args(argv))
    assert (parsed.pop("command"), parsed.pop("subcommand", None)) == key
    assert cli._parse(argv) == (key, parsed)
    flags = [action.option_strings[0] for action in _branch(full, command)._actions]
    shown = _help([*command, "--help"])
    assert [flag for flag in flags if f"\n  {flag}" in shown] == flags


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids=lambda key: " ".join(_words(key)))
def test_command_parser_usage_errors_match_the_full_parser(key, tmp_path):
    command = _words(key)
    other = tmp_path / "other.json"  # a key of another command
    other.write_text(json.dumps({"element" if key[0] == "positivity" else "csv": True}))
    cases = [["bogus"], [command[0], "bogus"], [*command, "--bogus"], command,
             [*command, "--type", "A2", "--config", str(other)]]
    for argv in cases:  # refused as argparse refused it, or later by the run
        assert cli_oracle.parsed(cli._arguments, argv) == cli_oracle.parsed(
            cli_oracle.arguments, argv)
        code, out, err = run_cli(*argv)
        assert code == 1 and not out and err.startswith("hx: error: "), argv
        assert err.count("\n") == 1, argv


def test_help_lists_every_command_subcommand_and_option():
    # hx --help, and -h at each level, exit 0 with the table's entries
    shown = _help(["--help"])
    assert all(f"\n  {' '.join(_words(key))}  " in shown for key in cli._COMMANDS)
    assert _help(["-h"]) == shown
    for group in cli._GROUPS:
        shown = _help([group, "--help"])
        subs = [sub for name, sub in cli._COMMANDS if name == group]
        assert subs and all(f"\n  {sub}  " in shown for sub in subs), group
    for key, command in cli._COMMANDS.items():
        shown = _help([*_words(key), "--help"])
        assert _help([*_words(key), "--type", "A2", "-h"]) == shown
        assert command.help in shown
        assert all(f"\n  {option.flag}" in shown for option in command.options), key


def _run_hx(argv, **kwargs) -> subprocess.Popen:
    """argv in a process whose stdout is buffered, as it is by default: so
    output is still held when a write fails, for the flush at exit."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("HX_CACHE_DIR", None)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_is_one_error_line(mode):
    with open("/dev/full", "wb") as full:
        run = _run_hx([sys.executable, "-m", "hx.cli", "group", "--type", "A2", *mode],
                      stdout=full)
        _, err = run.communicate(timeout=60)
    assert run.returncode == 1
    assert err.decode() == ("hx: error: cannot write to stdout: "
                            "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
def test_closed_stdout_is_one_error_line(mode):
    # >&- closes the descriptor, so Python starts with sys.stdout None
    run = _run_hx(["sh", "-c", 'exec "$0" -m hx.cli "$@" >&-', sys.executable,
                   "group", "--type", "A2", *mode])
    _, err = run.communicate(timeout=60)
    assert run.returncode == 1
    assert err.decode() == "hx: error: cannot write to stdout: it is closed\n"


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_broken_pipe_exits_1_in_silence(mode):
    # as `| head -c 10`: the D4 report, 2 MB in JSON and 0.3 MB as text,
    # is far more than a pipe holds, so writing it meets the closed end
    run = _run_hx([sys.executable, "-m", "hx.cli", "kl", "basis", "--type", "D4", *mode],
                  stdout=subprocess.PIPE)
    assert len(run.stdout.read(10)) == 10
    run.stdout.close()
    err = run.stderr.read()
    assert run.wait(timeout=60) == 1
    assert err == b""


def test_out_into_missing_directory_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("group", "--type", "A2", "--out", str(target))
    assert code == 1 and not out
    assert f"cannot write {target}" in err and "Traceback" not in err


def test_cache_dir_naming_a_file_is_a_usage_error(tmp_path, monkeypatch):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    monkeypatch.setenv("HX_CACHE_DIR", str(not_a_dir))
    code, out, err = run_cli("kl", "afunction", "--type", "A1")
    assert code == 1 and not out
    assert "HX_CACHE_DIR" in err and "Traceback" not in err


def test_cache_store_never_leaves_a_partial_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("HX_CACHE_DIR", str(cache))
    command = ("kl", "afunction", "--type", "A2", "--json")
    real_replace = os.replace

    def refuse(src, dst):
        raise OSError("No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli(*command)
    assert code == 1 and not out
    assert "HX_CACHE_DIR" in err and "Traceback" not in err

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*command)
    assert list(cache.iterdir()) == []  # no entry and no leftover temp file
    monkeypatch.setattr(os, "replace", real_replace)
    code, _, err = run_cli(*command)
    assert code == 0 and "cache hit" not in err
    assert [p.suffix for p in cache.iterdir()] == [".json"]


def _dead_pid() -> int:
    """The pid of a process that has exited and been reaped."""
    done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


def test_store_sweeps_what_no_run_will_read_or_finish(tmp_path, monkeypatch):
    # a store unlinks entries of other code, legacy entries and the temp
    # files of dead writers on this host, and no other file
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("HX_CACHE_DIR", str(cache))
    host, dead, key = os.uname().nodename, _dead_pid(), "0123456789abcdef" * 2
    entry = f"hx-{cli.__version__}-s{cli.REPORT_SCHEMA}-{key}.json"
    digest_line = cli._digest(b"k", b"{}").hexdigest().encode() + b"\n"
    swept = {
        f"hx-0.0.0-s{cli.REPORT_SCHEMA}-{key}.json": digest_line,  # other version
        f"hx-{cli.__version__}-s{cli.REPORT_SCHEMA + 1}-{key}.json": b"",  # other schema
        f"{key}.json": digest_line + b"{}",  # named by its key alone
        f"{entry}.{host}.{dead}.tmp": b" " * 64,  # its writer is gone
        f"hx-0.0.0-s1-{key}.json.{host}.{dead}.tmp": b"",
    }
    kept = {
        entry: b"",  # current, whatever it holds
        f"{entry}.{host}.{os.getpid()}.tmp": b"",  # its writer runs
        f"{entry}.{host}.1.tmp": b"",
        f"{entry}.other-host.{dead}.tmp": b"",  # its writer may run elsewhere
        f"{key[::-1]}.json": b"not a digest\n{}",  # not an hx entry
        f"{key[:31]}.json": digest_line,
        f"{key}.json.{dead}.tmp": b"",  # hx named temp files so before
        f"{entry}.{dead}.tmp": b"",
        "notes.txt": b"",
        "hx-.json": b"",
    }
    for name, data in {**swept, **kept}.items():
        (cache / name).write_bytes(data)
    odd = [f"hx-0.0.0-s2-{key[::-1]}.json", "00112233445566778899aabbccddeeff.json"]
    (cache / odd[0]).mkdir()  # not a file
    (cache / odd[1]).symlink_to(cache / f"{key}.json")
    code, _, err = run_cli("kl", "afunction", "--type", "A1", "--json")
    assert code == 0 and "cache hit" not in err
    (stored,) = {path.name for path in cache.iterdir()} - set(kept) - set(odd)
    assert stored.startswith(f"hx-{cli.__version__}-s{cli.REPORT_SCHEMA}-")
    assert all((cache / name).read_bytes() == data for name, data in kept.items())
    assert (cache / odd[0]).is_dir() and (cache / odd[1]).is_symlink()


def test_store_sweeps_the_temp_file_of_a_killed_run(tmp_path, monkeypatch):
    # a kl basis run writes its elements into the entry's temp file; killed
    # there, it leaves the file, and prints nothing, until the next store
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "HX_CACHE_DIR": str(cache)}
    run = subprocess.Popen([sys.executable, "-m", "hx.cli", "kl", "basis", "--type", "B5",
                            "--json"], env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
    try:
        while run.poll() is None and not list(cache.glob("*.tmp")):
            time.sleep(0.01)
    finally:
        run.kill()
        stdout, _ = run.communicate()
    assert run.returncode == -9 and stdout == b""
    (temp,) = cache.iterdir()
    assert temp.name.endswith(f".json.{os.uname().nodename}.{run.pid}.tmp")
    monkeypatch.setenv("HX_CACHE_DIR", str(cache))
    code, _, err = run_cli("kl", "basis", "--type", "A1", "--json")
    assert code == 0 and "cache hit" not in err
    assert [path.suffix for path in cache.iterdir()] == [".json"]


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_a_zombie_writer_counts_as_gone():
    # timeout -s KILL kills its own process group, itself included, so its
    # child waits as a zombie until someone reaps it: it cannot write again
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
        assert not cli._alive(child.pid)
    finally:
        child.wait()
    assert not cli._alive(child.pid) and cli._alive(os.getpid())


# -- the report writer --------------------------------------------------------

# keys and strings that stress the escaping: quotes, backslashes, control
# and non-ASCII characters, beside whatever hypothesis draws
_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\x7f\n é€\U0001f600') | st.characters(),
                max_size=6)
_INTS = (st.integers() | st.integers(min_value=2**64)
         | st.integers(max_value=-2**64))
_SCALARS = (st.none() | st.booleans() | _INTS | _TEXT
            | st.floats(allow_nan=False, allow_infinity=False))
# ints and bools, which compare and hash alike, in lists and tuples; and
# one object at several places and depths, as a report shares its tuples
_INT_LISTS = st.lists(_INTS | st.booleans(), max_size=4)
_VALUES = st.recursive(
    _SCALARS | _INT_LISTS | _INT_LISTS.map(tuple),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | inner.map(lambda v: [v, [v], {"v": v}, v])),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# strs on both sides of the writer's quoting: printable ASCII, which it
# quotes itself, and what only json's encoder escapes: quotes, backslashes,
# control characters, DEL and non-ASCII; and the empty string
_QUOTED = st.text(st.sampled_from('a ~"\\\x00\n\x1f\x7f\x80é€\U0001f600'), max_size=5)
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | _QUOTED,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_QUOTED, inner, max_size=4)),
    max_leaves=20)


@seed(20261021)
@settings(max_examples=300, deadline=None, database=None)
@example({"": ["", '"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600", "a b"],
          '"\\\x01\x7fé': ("", None, True, -1), "plain ~": {"": ""}})
@given(_PLAIN)
def test_writer_quotes_strings_as_json_does(value):
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _written(value) -> str:
    """The writer's chunks joined: every one is ASCII bytes."""
    chunks = cli._dumps(value)
    assert all(type(chunk) is bytes and chunk.isascii() for chunk in chunks)
    return b"".join(chunks).decode("ascii")


def _iterators(value):
    """value with every list turned into an iterator over its items, and
    the number of items those iterators yield."""
    if isinstance(value, dict):
        items = [(k, _iterators(v)) for k, v in value.items()]
        return {k: v for k, (v, _) in items}, sum(n for _, (_, n) in items)
    if isinstance(value, (list, tuple)):
        items = [_iterators(v) for v in value]
        inner = [v for v, _ in items]
        total = sum(n for _, n in items)
        if isinstance(value, tuple):
            return tuple(inner), total
        return iter(inner), total + len(inner)
    return value, 0


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_takes_iterators_for_lists(value):
    # an iterator is written as the list of its items, and a chunk ends
    # after each item: one chunk per item, and one for the rest
    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    streamed, items = _iterators(value)
    chunks = cli._dumps(streamed)
    assert b"".join(chunks).decode("ascii") == expected
    assert len(chunks) == items + 1


@pytest.mark.parametrize("value", [
    {1: "int key"}, {None: 0}, {(0, 1): 0}, {"a": 1, 2: 3}, {"x": {2.5: 0}},
    [set()], {"b": b"bytes"}, [1, 1j], Fraction(1, 2), {"k": [0, object()]},
])
def test_writer_refuses_what_no_report_holds(value):
    # json.dumps would write some of these (it turns int keys into strings
    # after sorting them); no report has them, so the writer refuses them all
    with pytest.raises(TypeError):
        cli._dumps(value)
    with pytest.raises(TypeError):
        cli._dumps({"elements": iter([0, value])})


@pytest.mark.parametrize("path", sorted((ROOT / "reports").glob("*.json")),
                         ids=lambda p: p.name)
def test_writer_reproduces_committed_reports(path):
    text = path.read_text()
    written = _written(json.loads(text))
    same = written == text  # outside the assert, which would diff every line
    assert same, f"{len(written)} bytes written, {len(text)} committed"


def test_writer_memo_tells_bools_from_ints():
    # (1,) == (True,) == (1.0,), with equal hashes: a memo keyed by value
    # that let a bool or a float meet an int would write [true] as [1], or
    # the reverse. A tuple is kept per object and indentation, so one
    # object at two depths, or shared by many entries, is right each time
    word, pairs = (0, 1), ((-2, 1), (0, 1))
    holder = ([1, True], (1.0, False))
    value = {"a": [[1], [True], [1, 1], [True, 1], [1], [[1]], [[True]]],
             "b": [1], "c": [True], "d": [[1, 2], [1, 2]], "e": (1, 2),
             "f": [(1,), (True,), (1.0,), (False,), (0,), (0.0,),
                   (1, True, 1.0, False, 0), [1, True, 1.0, False, 0]],
             "g": [(0, [1, True]), (0, [1, True]), holder, [holder], holder],
             "h": [word, [word], [[word]], {"w": word}, word],
             "i": [{"w": word, "coords": [[word, pairs], [(), pairs]]}] * 5
             + [{"w": (), "coords": [[(), pairs], [(1,), pairs]]}]}
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_writer_memo_outlives_the_tuples_it_keeps():
    # each tuple is made, written and dropped by a generator, so without the
    # memo holding it a later one could take its id, and its text (3-tuples:
    # the writer's own 2-tuples would take a freed pair's memory first)
    for size in (1, 3, 5):
        value = {"x": (tuple(range(i, i + size)) for i in range(300))}
        expected = {"x": [list(range(i, i + size)) for i in range(300)]}
        assert _written(value) == json.dumps(expected, indent=2) + "\n", size


def test_writer_keeps_no_tuple_an_iterator_cut():
    # the first write spends the iterator and cuts a chunk inside the tuple,
    # whose text is then not kept: the second write finds it spent
    spent = (iter([1, 2]), 3)
    chunks = cli._dumps({"x": [spent, spent]})
    expected = {"x": [[[1, 2], 3], [[], 3]]}
    assert b"".join(chunks).decode() == json.dumps(expected, indent=2) + "\n"
    assert len(chunks) == 3


def test_kl_basis_report_is_json_dumps_of_itself():
    # D4 shares its words and coefficient tuples across 9,817 entries
    code, out, _ = run_cli("kl", "basis", "--type", "D4", "--json")
    assert code == 0
    same = out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert same, "the D4 kl basis report differs from json.dumps of itself"


def test_import_leaves_pool_cache_and_dataclass_modules_out():
    # -S: no site hooks, so only what hx imports is counted; fractions (and
    # the decimal it imports) is for LaurentPoly.evaluate off int points
    # alone, so a positivity run, which reads N^w at v = 1, loads neither;
    # klbasis and positivity load in the handlers that use them, and only
    # there; hx reads its own argv, and an uncached --json run neither
    # parses nor hashes JSON, so argparse (with the gettext and locale its
    # messages import) and json stay out too
    probe = """if True:
        import contextlib, io, sys, hx, hx.cli
        watched = {'fractions', 'decimal', 'hx.klbasis', 'hx.positivity', 'argparse',
                   'gettext', 'locale', 'json', 'json.decoder'}
        print(sorted(({'multiprocessing', 'hashlib', 'dataclasses', 'inspect'} | watched)
                     & set(sys.modules)))
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            code = hx.cli.main([*sys.argv[1:], '--type', 'A2', '--json'])
        print(code, sorted(watched & set(sys.modules)))
    """
    env = {name: value for name, value in os.environ.items() if name != "HX_CACHE_DIR"}
    for command, loaded in [(["group"], []), (["positivity"], ["hx.positivity"]),
                            (["jring", "table"], ["hx.klbasis"]),
                            (["kl", "basis"], ["hx.klbasis"])]:
        done = subprocess.run([sys.executable, "-S", "-c", probe, *command],
                              capture_output=True, text=True,
                              env={**env, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"[]\n0 {loaded}\n", command


def test_cached_runs_load_no_openssl_and_hits_no_kernel(tmp_path):
    # the entry digest is BLAKE2b from CPython's own _blake2, so no cached
    # run imports hashlib, which loads OpenSSL; and a cache hit, in JSON or
    # in text, replays its report with no hx.klbasis loaded
    probe = """if True:
        import contextlib, io, sys, hx.cli
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            code = hx.cli.main([*sys.argv[1:], '--type', 'A2'])
        print(code, sorted({'hashlib', '_hashlib', 'hx.klbasis'} & set(sys.modules)))
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "HX_CACHE_DIR": str(tmp_path / "cache")}
    for command in (["kl", "basis"], ["kl", "afunction"]):
        for mode, loaded in [(["--json"], ["hx.klbasis"]), (["--json"], []), ([], [])]:
            done = subprocess.run([sys.executable, "-S", "-c", probe, *command, *mode],
                                  capture_output=True, text=True, env=env)
            assert done.returncode == 0, done.stderr
            assert done.stdout == f"0 {loaded}\n", (command, mode)
            assert ("cache hit" in done.stderr) == (not loaded), (command, mode)


def test_package_names_resolve_to_their_modules():
    # klbasis and positivity load on first use; each name is still the
    # object of the module that defines it, however it is reached
    import importlib

    import hx

    modules = [importlib.import_module(f"hx.{name}") for name in
               ("coxeter", "hecke", "laurent", "klbasis", "positivity")]
    assert hx.klbasis is modules[3] and hx.positivity is modules[4]
    for name in set(hx.__all__) - {"__version__"}:
        owners = [module for module in modules if name in vars(module)]
        assert owners and all(getattr(hx, name) is vars(module)[name]
                              for module in owners), name
    star = {}
    exec("from hx import *", star)
    assert all(star[name] is getattr(hx, name) for name in hx.__all__)
    with pytest.raises(AttributeError, match="no attribute 'kl_basis'"):
        hx.kl_basis
