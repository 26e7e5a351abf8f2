"""The argparse parser that ``hx`` used before it read its command line
itself, kept as a test oracle for ``hx.cli._arguments``.

It is built from the same option table, ``hx.cli._COMMANDS``, and reads a
config file as that parser's run did: each value checked against the
argparse action of its flag."""

from __future__ import annotations

import argparse
import json

import hx.cli as cli
from hx.cli import UsageError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI reserves 2 for
    # gating errors, so usage problems surface as UsageError instead
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    """The whole tree: one parser per command, under one per group."""
    parser = _Parser(prog="hx", description=cli.__doc__.splitlines()[1])
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (name, subname), command in cli._COMMANDS.items():
        if subname is None:
            p = sub.add_parser(name, help=command.help)
        else:
            if name not in groups:
                groups[name] = sub.add_parser(name, help=cli._GROUPS[name]).add_subparsers(
                    dest="subcommand", required=True)
            p = groups[name].add_parser(subname, help=command.help)
        for option in command.options:
            if option.convert is None:
                p.add_argument(option.flag, dest=option.dest, action="store_true",
                               help=option.help)
            else:  # a str value went in as argparse's own, type=None
                p.add_argument(option.flag, dest=option.dest, help=option.help,
                               type=None if option.convert is str else option.convert,
                               required=option.required)
    return parser


def _option_actions(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Every option of every command, by destination."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out.update(_option_actions(sub))
        elif action.option_strings:
            out[action.dest] = action
    return out


def _config_value(action: argparse.Action, key: str, value):
    """A config value, checked against the JSON type its flag takes."""
    if action.nargs == 0:  # on/off flags
        ok = isinstance(value, bool)
    elif action.type is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(value, list):  # a word or the weights as a JSON array
        ok = (action.type is cli._word_arg or action.dest == "weights") and all(
            isinstance(x, int) and not isinstance(x, bool) for x in value)
        value = tuple(value)
    else:
        ok = isinstance(value, str)
        if ok and action.type is not None:
            value = action.type(value)
    if not ok:
        raise UsageError(f"config key {key!r} has a bad value {value!r}")
    return value


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config {path}: {e}")
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
        options = _option_actions(parser)
        renames = {"type": "type_label"}
        for key, value in cfg.items():
            attr = renames.get(key, key.replace("-", "_"))
            if attr not in options or attr not in vars(args) or attr == "config":
                raise UsageError(f"unknown config key {key!r} for this command")
            value = _config_value(options[attr], key, value)
            current = getattr(args, attr)
            if current is None or current is False:  # flags override the config
                setattr(args, attr, value)
    if args.jobs is None:
        args.jobs = 1


def arguments(argv) -> tuple[cli._Key, dict]:
    """The command argv names and its arguments by destination, as that
    parser, the config and the defaults gave them; or UsageError."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(parser, args)
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    values = vars(args)
    return (values.pop("command"), values.pop("subcommand", None)), values


def parsed(arguments, argv) -> tuple:
    """(0, the command, its arguments by destination) as arguments, this
    module's or ``hx.cli._arguments``, reads argv with its config and
    defaults, or (1,) for a usage error."""
    try:
        key, args = arguments(argv)
    except (UsageError, ValueError):  # a config that is not UTF-8 is a ValueError
        return (1,)
    return 0, key, args if isinstance(args, dict) else vars(args)
