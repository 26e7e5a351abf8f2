"""The CLI contract under a seeded fuzz of argvs: every command of
``_COMMANDS``, with valid and invalid options, with and without a report
cache, exits 0-3 with no traceback, and prints nothing on a nonzero exit."""

import json
import os
from unittest import mock

from hypothesis import HealthCheck, event, given, seed, settings, strategies as st

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
    """(every option the command's parser takes, those it requires)."""
    import argparse

    parser = cli._build_parser([word for word in key if word])
    while parser._subparsers is not None:  # down to the command's own parser
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        (parser,) = action.choices.values()
    options = [action for action in parser._actions if action.option_strings[-1:] != ["--help"]]
    return ([action.option_strings[-1] for action in options],
            [action.option_strings[-1] for action in options if action.required])


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


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_argv_keeps_the_exit_code_contract(tmp_path, data):
    # one directory for every example: its cache fills up, so later
    # examples also replay entries, whole or as other code left them
    _write_inputs(tmp_path)
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
                value = str(tmp_path / folder / value)
            argv.append(value)
    cached = data.draw(st.booleans(), label="HX_CACHE_DIR")
    env = {name: value for name, value in os.environ.items() if name != "HX_CACHE_DIR"}
    if cached:
        env["HX_CACHE_DIR"] = str(tmp_path / "cache")
    with mock.patch.dict(os.environ, env, clear=True):
        code, out, err = run_cli(*argv)
    event(f"exit {code}")  # --hypothesis-show-statistics counts each
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert code == 0 or out == "", argv
