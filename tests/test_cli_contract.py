"""The CLI contract under a seeded fuzz of argvs: every command of
``_COMMANDS``, with valid and invalid options, with and without a report
cache, exits 0-3 with no traceback, and prints nothing on a nonzero exit.
The same argvs, and a list of edge forms, parse to what the argparse
parser of ``cli_oracle`` gave."""

import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, seed, settings, strategies as st

import cli_oracle
import hx.cli as cli
from support import run_cli

def _values(valid: list[str], invalid: list[str]):
    """An invalid value a quarter of the time, else a valid one, so that
    most argvs get past the parser and into the commands."""
    return st.integers(0, 3).flatmap(
        lambda pick: st.sampled_from(invalid if pick == 0 else valid))


# finite types with |W| <= 48 and affine types (gated wherever they need a
# finite group, and bounded below where they do not), and labels that name
# no type; none of them asks for unbounded work
LABELS = _values(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", " A2 ",
                  "~A1", "~A2", "~C2", "~G2", "~B3"],
                 ["I2(0)", "I2(5)", "H3", "A0", "B1", "D2", "E5", "~A0", "a2", ""])

# --matrix files by name, the valid ones first; "missing" is never written
MATRICES = {
    "a2.json": [[1, 3], [3, 1]],
    "i2_8.json": [[1, 8], [8, 1]],
    "free.json": [[1, "inf"], ["inf", 1]],
    "a1xa1.json": [[1, 2], [2, 1]],
    "zero.json": [[1, 0], [0, 1]],
    "one.json": [[1, 1], [1, 1]],
    "asymmetric.json": [[1, 2], [3, 1]],
    "diagonal.json": [[2]],
    "ragged.json": [[1, 3], [3]],
    "strings.json": [["1", "3"], ["3", "1"]],
    "object.json": {"rows": 2},
    "not_json.json": "[[1, 3], [3, 1]",
}

# --config files, the valid ones first: objects, values of the wrong JSON
# type, and no JSON
CONFIGS = {
    "type.json": {"type": "A2"},
    "weights_list.json": {"type": "B2", "weights": [1, 2]},
    "element_list.json": {"element": [0, 1]},
    "element_str.json": {"element": "0,1"},
    "max_length.json": {"max-length": 2},
    "csv.json": {"csv": True},
    "type_int.json": {"type": 5},
    "list.json": [],
    "string.json": "A2",
    "number.json": 1,
    "null.json": None,
    "jobs_str.json": {"jobs": "2"},
    "jobs_bool.json": {"jobs": True},
    "weights_mixed.json": {"weights": [1, "a"]},
    "weights_bool.json": {"weights": [True, 1]},
    "x_dict.json": {"x": {"0": 1}},
    "bogus.json": {"bogus": 1},
    "config.json": {"config": "type.json"},
    "json_int.json": {"json": 1},
    "radius_str.json": {"radius": "3"},
    "max_cmin_float.json": {"max-cmin": 2.5},
    "not_json.json": "{\"type\": ",
}

WORDS = _values(["", "0", "0,1", "1,0,1", " 1 , 0 ", "2,1,0,1,2", "0,1,0,1,0,1,0,1"],
                ["5", "-1", "0,a", "0,,1", "1.0"])

# each option's values, None for an on/off flag. The ints stay small where
# they bound work, and --jobs never asks for more than two workers
VALUES = {
    "--type": LABELS,
    "--matrix": _values([*MATRICES][:4], [*MATRICES][4:] + ["missing.json"]),
    "--weights": _values(["equal", "1,1", "1,2", "2,1", "1,1,1", "1,1,2", "2,2,1"],
                         ["1,2,3", "0,1", "-1,1", "1", "a,b", "", ",", "1,,2", "1.5,1"]),
    "--config": _values([*CONFIGS][:6], [*CONFIGS][6:] + ["missing.json"]),
    "--out": _values(["out.json"], ["missing/out.json"]),
    "--json": None,
    "--jobs": _values(["1", "2"], ["-1", "0", "x"]),
    "--max-length": _values(["0", "1", "3"], ["-1", "x"]),
    "--radius": _values(["0", "1", "2"], ["-1", "x"]),
    "--element": WORDS,
    "--x": WORDS,
    "--y": WORDS,
    "--csv": None,
    "--max-cmin": _values(["1", "1000"], ["-1", "0", "x"]),
}
FILES = {"--matrix", "--config", "--out"}  # values named under the test's directory


def _flags(key) -> tuple[list[str], list[str]]:
    """(every option of the command, those it requires), from its option table."""
    options = cli._COMMANDS[key].options
    return ([option.flag for option in options],
            [option.flag for option in options if option.required])


def test_every_option_has_values():
    for key in cli._COMMANDS:
        assert set(_flags(key)[0]) <= set(VALUES), key


def _write_inputs(root) -> None:
    for folder, contents in (("m", MATRICES), ("c", CONFIGS)):
        (root / folder).mkdir(exist_ok=True)
        for name, value in contents.items():
            path = root / folder / name
            if not path.exists():
                path.write_text(value if name == "not_json.json" else json.dumps(value))


def _draw_argv(data, root) -> tuple[list[str], bool]:
    """(an argv of one command, with valid and invalid options whose files
    lie under root; whether to run it with HX_CACHE_DIR)."""
    key = data.draw(st.sampled_from(list(cli._COMMANDS)), label="command")
    flags, required = _flags(key)
    sources = ["--type"] * 5 + (["--matrix"] if "--matrix" in flags else []) + [None]
    source = data.draw(st.sampled_from(sources), label="source")
    others = [flag for flag in flags if flag not in ("--type", "--matrix", *required)]
    count = data.draw(st.integers(0, 3), label="options")
    chosen = ([source] if source else []) + required + data.draw(
        st.permutations(others), label="order")[:count]
    argv = [word for word in key if word]
    for flag in chosen:
        argv.append(flag)
        if VALUES[flag] is not None:
            value = data.draw(VALUES[flag], label=flag)
            if flag in FILES:
                folder = {"--matrix": "m", "--config": "c"}.get(flag, "")
                value = str(root / folder / value)
            argv.append(value)
    return argv, data.draw(st.booleans(), label="HX_CACHE_DIR")


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_argv_keeps_the_exit_code_contract(tmp_path, data):
    # one directory for every example: its cache fills up, so later
    # examples also replay entries, whole or as other code left them
    _write_inputs(tmp_path)
    argv, cached = _draw_argv(data, tmp_path)
    env = {name: value for name, value in os.environ.items() if name != "HX_CACHE_DIR"}
    if cached:
        env["HX_CACHE_DIR"] = str(tmp_path / "cache")
    with mock.patch.dict(os.environ, env, clear=True):
        code, out, err = run_cli(*argv)
    event(f"exit {code}")  # --hypothesis-show-statistics counts each
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert code == 0 or out == "", argv


# the seed, settings and draws of the fuzz above, so that every argv it
# runs is also parsed by argparse, as hx parsed it before
@seed(20261020)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_argv_parses_as_argparse_parsed_it(tmp_path, data):
    _write_inputs(tmp_path)
    argv, _ = _draw_argv(data, tmp_path)
    assert cli_oracle.parsed(cli._arguments, argv) == cli_oracle.parsed(cli_oracle.arguments, argv), argv


# argvs in the forms argparse read in its own way, each with the command
# words first: --flag=value, unique prefixes of a flag, a repeated flag, a
# negative number as a value, and what argparse refused. Help, which prints
# text of its own, and "--" and words such as "-1,0", which Python versions
# read differently, are not here
EDGES = [
    ["group", "--type=A2"], ["group", "--type=A2", "--max-length=2"], ["group", "--type="],
    ["group", "--type=A=2"], ["kl", "basis", "--type=B2", "--element=0,1"],
    ["kl", "hconst", "--type", "A2", "--x=0", "--y=1,0"], ["group", "--type=A2", "--json=yes"],
    ["positivity", "--type", "A2", "--csv="], ["group", "--type", "A2", "--jobs=2"],
    ["group", "--ty", "A2", "--max-len", "2"], ["group", "--t=A2", "--max", "1"],
    ["positivity", "--ty", "A2", "--cs", "--max-c", "2"], ["kl", "basis", "--ty", "A2", "--el", "0"],
    ["group", "--type", "A2", "--js", "--jo", "1"], ["kl", "hconst", "--ty", "A2", "--x", "0",
                                                     "--y", "0", "--w", "1,1", "--m", "m.json"],
    ["group", "--type", "A2", "--ma", "2"], ["group", "--type", "A2", "--j"],
    ["positivity", "--type", "A2", "--c", "c.json"], ["group", "--type", "A2", "--=x"],
    ["group", "--type", "A2", "--type", "B2"], ["group", "--json", "--type", "A2", "--json"],
    ["kl", "basis", "--type", "A2", "--element", "0", "--element", "1"],
    ["group", "--type=B2", "--ty", "A2"], ["group", "--type", "~A1", "--max-length", "-1"],
    ["hecke", "fprobe", "--type", "A2", "--radius", "-2"],
    ["kl", "hconst", "--type", "A2", "--x", "-1", "--y", "0"],
    ["group", "--type", "A2", "--jobs", "-1"], ["positivity", "--type", "A2", "--max-cmin", "-3"],
    ["hecke", "fprobe", "--type", "A2", "--radius", "-1.5"], ["group", "--max-length", "-.5"],
    ["kl", "basis", "--type", "A2", "--element=-1,0"], ["group", "--type", "-A2"],
    ["group", "--type", " A2 "], ["group", "--type", ""], ["group", "--type", "-"],
    ["group", "--type", "A 2"], ["group", "--type", "--x y"], ["group", "--type", "A2", "-1"],
    [], ["--type", "A2"], ["--json", "group", "--type", "A2"], ["bogus"], ["kl"], ["kl", "bogus"],
    ["kl", "--type", "A2", "basis"], ["group", "--bogus"], ["group", "--type"],
    ["group", "--type", "--json"], ["group", "--type", "A2", "A3"], ["group", "A2"],
    ["kl", "hconst", "--type", "A2"], ["kl", "hconst", "--type", "A2", "--x", "0"],
    ["weights", "--type", "~G2", "--matrix", "m.json"], ["group", "--type", "A2", "-x"],
    ["group", "--type", "A2", "---type"], ["group", "--type", "A2", "-type"],
    ["group", "--type", "A2", "--jobs", "x"], ["group", "--type", "A2", "--jobs", "0"],
    ["group", "--type", "A2", "--max-length", "1.0"],
]


@pytest.mark.parametrize("argv", EDGES, ids=lambda argv: " ".join(argv) or "(none)")
def test_edge_argv_parses_as_argparse_parsed_it(argv):
    parsed = cli_oracle.parsed(cli._arguments, argv)
    assert parsed == cli_oracle.parsed(cli_oracle.arguments, argv)
    if parsed == (1,):  # refused: one error line, and nothing on stdout
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "" and err.startswith("hx: error: ")
        assert err.count("\n") == 1, err


def test_option_word_is_no_value():
    # "-1,0" is no negative number, so it is read as an option, as argparse
    # 3.11 read it (later versions take more words for negative numbers)
    code, out, err = run_cli("kl", "basis", "--type", "A2", "--element", "-1,0")
    assert code == 1 and out == ""
    assert err == "hx: error: argument --element: expected one argument\n"


@pytest.mark.parametrize("argv", [["--"], ["--", "group"], ["kl", "--", "basis"],
                                  ["group", "--type", "A2", "--"],
                                  ["group", "--type", "--", "A2"],
                                  ["group", "--", "--type", "A2"],
                                  ["group", "--json", "--", "--type", "A2"],
                                  ["group", "--type", "A2", "--", "--help"]])
def test_double_dash_is_a_usage_error(argv):
    # argparse took no word after "--" as an option and "--" as no value
    code, out, err = run_cli(*argv)
    assert code == 1 and out == "" and err.startswith("hx: error: ")
