"""
Batch command-line surface: ``hx <command> [options]``.

Commands: ``group``, ``weights``, ``hecke fprobe``, ``kl basis``,
``kl hconst``, ``kl afunction``, ``jring table|check|unit``,
``positivity``. All reports are deterministic for a given configuration
(including under ``--jobs N``); progress goes to stderr so piped JSON
stays clean.

Exit codes: 0 success; 1 usage or configuration error, or a stdout that
cannot take the output (closed or full, with one error line; a broken
pipe, with none); 2 gating error (an operation requested outside its
domain, e.g. unbounded work on an infinite system); 3 internal invariant
violation (an implementation bug, never bad input).

A run pays start-up for its own command alone. ``_COMMANDS`` gives each
command its handler, its help and its options, each an ``_Option`` (flag,
attribute, converter, on/off or value, required, help), and ``_parse``
reads argv against that table with no argparse, accepting the forms
argparse accepted (``_parse`` lists them); ``-h`` or ``--help`` prints help
made from the same table. The handlers import ``klbasis`` and
``positivity`` where they use them, and ``json`` is imported only where a
run parses or hashes JSON (a config or matrix file, text output, a cache
key): the writer quotes plain strings itself.

Every command takes one report path, ``_report``: its handler gives a
cache key (None for an uncached command), a function that builds the
report and one that formats text lines from it. The JSON payload is
serialized once, and ``--json`` and ``--out`` write its bytes; text output,
and the CSV of ``positivity --csv``, are formatted from the report read
back from it, so a word prints as ``[0, 1]``, never ``(0, 1)``.

``HX_CACHE_DIR`` (environment) enables an on-disk report cache for the
expensive tables (``kl basis``, ``kl afunction``, ``jring table``): a
report is computed once per (matrix, weights, options) and replayed
byte-identically afterwards by the same ``hx`` version and report schema,
which the entry's name carries. Each entry carries a BLAKE2b-256 digest of
its key and payload; an entry that fails it is computed again and
overwritten. The digest comes from CPython's built-in ``_blake2``, not
``hashlib``, whose import loads OpenSSL; and the cached commands import
``klbasis`` only when they build, so a cache hit loads neither.

A JSON report travels as ASCII bytes chunks from the writer to the file
descriptors: ``_dumps`` cuts a chunk after each item of an iterator (``kl
basis`` hands its elements over as a generator, so each is made, written
and freed in turn). With no cache, the chunks are kept in a list, which
``--out`` and ``sys.stdout.buffer`` take in order. With one, the entry is
the spool: each chunk goes to the entry's temp file and to a running
digest as it is cut, and is dropped; the digest fills a slot left at the
head of the file, which then replaces the entry. A hit checks an entry's
digest block by block, and a hit or a miss alike is copied from the entry
to ``--out`` and stdout in blocks, so no run holds a whole payload. Text
output alone parses the payload, of hits and misses alike. Nothing reaches
stdout, ``--out`` or the entry's name before the whole report is
serialized, so a failure leaves none of them behind.

The one writer, ``_dumps``, formats each tuple once per indentation and
reuses its text. The memo is keyed by the tuple's identity, which is exact
where a key by value is not (``(True,) == (1,) == (1.0,)``, with equal
hashes), and holds the tuple for the whole write, so that its id cannot
come back for another object. Every command hands over its words as the
interned ``Element.word`` tuples, and ``kl basis`` its coefficients as the
tuples ``KLBasis.coord_pairs`` shares, so each of its thousands of entries
is a few joins of kept texts.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .coxeter import (CoxeterSystem, Element, GatingError, InfiniteGroupError,
                      InternalCheckError, build_system)
from .hecke import HeckeAlgebra, WeightFunction, weight_catalog

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Help(Exception):
    """Raised by the parser at -h or --help, with the help text to print."""


def _word_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad element word {text!r}: expected i,j,...")


# -- the command line ---------------------------------------------------------

class _Option:
    """One option of a command: its flag, the argument it sets, the function
    that reads its value (None for an on/off flag, which sets True), whether
    a run must give it, and its help."""
    __slots__ = ("flag", "dest", "convert", "required", "help")

    def __init__(self, flag: str, convert: Optional[Callable[[str], object]], help: str,
                 dest: Optional[str] = None, required: bool = False):
        self.flag, self.convert, self.help, self.required = flag, convert, help, required
        self.dest = dest or flag[2:].replace("-", "_")


_HELP = _Option("--help", None, "show this help message and exit")

# the options every command takes, in the order of its help: --type, then
# --matrix and --weights on the commands that work on a system, then these
_TYPE = _Option("--type", str, "type label, e.g. B3 or ~F4", dest="type_label")
_SYSTEM = (_Option("--matrix", str, "path to a JSON Coxeter matrix ('inf' for infinity)"),
           _Option("--weights", str, "comma-separated generator weights, or 'equal'"))
_COMMON = (_Option("--config", str, "JSON file with default options"),
           _Option("--out", str, "write the JSON (or CSV) report to this path"),
           _Option("--json", None, "print the JSON report to stdout"),
           _Option("--jobs", int, "worker pool degree of positivity, the one command "
                                  "that reads it (default 1)"))

# the help of each command that has subcommands
_GROUPS = {"hecke": "T-basis level operations",
           "kl": "Kazhdan-Lusztig basis computations",
           "jring": "the asymptotic ring J"}

_Key = tuple[str, Optional[str]]  # a command's words: (name, subcommand or None)


def _arguments(argv: Sequence[str]) -> tuple[_Key, SimpleNamespace]:
    """The command argv names and its arguments: argv parsed, then filled
    from --config, then defaulted. Raises UsageError, or _Help at -h."""
    key, values = _parse(argv)
    _apply_config(_COMMANDS[key], values)
    if values["jobs"] is None:  # after --config, which may give it
        values["jobs"] = 1
    if values["jobs"] < 1:
        raise UsageError("--jobs must be >= 1")
    return key, SimpleNamespace(**values)


def _parse(argv: Sequence[str]) -> tuple[_Key, dict]:
    """The command argv names, and the value of each of its options by
    destination (None, or False for an on/off flag, where argv gives none).

    argv is read as argparse read it. The command words come first; before
    them only -h or --help, which prints help, counts. Then, in any order:
    ``--flag value`` or ``--flag=value``, where the value may be any word
    that is not an option, a negative number such as ``-1`` included; an
    on/off ``--flag``; and -h or --help. A flag may be cut to any prefix
    that no other flag of the command shares (``--max-len``), and the last
    of a repeated flag wins. An unknown option, a stray word, a value
    missing or given to an on/off flag, an ambiguous prefix, a value its
    converter refuses and a required option left out are usage errors; so
    is a ``--`` word, after which argparse read no option, and which it
    took as no option's value. One form reads otherwise: argparse read
    ``--flag=--`` as an empty list, and here it gives ``--``."""
    stray: list[str] = []
    name, rest = _name(argv, "command", list(dict.fromkeys(name for name, _ in _COMMANDS)),
                       stray, _top_help)
    subname = None
    if name in _GROUPS:
        subname, rest = _name(rest, "subcommand",
                              [sub for group, sub in _COMMANDS if group == name],
                              stray, lambda: _group_help(name))
    values = _options((name, subname), rest, stray)
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return (name, subname), values


_HELP_FLAGS = {"-h": _HELP, "--help": _HELP}


def _name(words: Sequence[str], what: str, choices: list[str], stray: list[str],
          show: Callable[[], str]) -> tuple[str, Sequence[str]]:
    """The first word of words that is no option, which must be one of
    choices, and the words after it. An option word before it is stray,
    unless it asks for help (show gives the text)."""
    for i, word in enumerate(words):
        found = _classify(word, _HELP_FLAGS) if word != "--" else None
        if found is None:
            if word not in choices:
                raise UsageError(f"argument {what}: invalid choice: {word!r} "
                                 f"(choose from {', '.join(map(repr, choices))})")
            return word, words[i + 1:]
        if found[0] is None:
            stray.append(word)
        else:
            _help_asked(*found[1:], show)
    raise UsageError(f"the following arguments are required: {what}")


def _options(key: _Key, words: Sequence[str], stray: list[str]) -> dict:
    """The value of each option of the command, read from words; the words
    that are no option of it and no option's value go to stray, and so do
    a ``--`` and every word after it."""
    command = _COMMANDS[key]
    flags = {**_HELP_FLAGS, **{option.flag: option for option in command.options}}
    end = words.index("--") if "--" in words else len(words)
    # each word, classified before any is read, as argparse did: an option,
    # as (option or None, flag, value or None), or None for a value
    found = [_classify(word, flags) for word in words[:end]]
    values = {option.dest: None if option.convert else False for option in command.options}
    given = set()
    i = 0
    while i < end:
        item, i = found[i], i + 1
        if item is None or item[0] is None:
            stray.append(words[i - 1])
            continue
        option, flag, value = item
        if option is _HELP:
            _help_asked(flag, value, lambda: _command_help(key, command))
        if option.convert is None:
            if value is not None:
                raise UsageError(f"argument {option.flag}: ignored explicit argument {value!r}")
            values[option.dest] = True
        else:
            if value is None:
                if i == end or found[i] is not None:
                    raise UsageError(f"argument {option.flag}: expected one argument")
                value, i = words[i], i + 1
            values[option.dest] = _convert(option, value)
        given.add(option)
    missing = [option.flag for option in command.options
               if option.required and option not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    stray += words[end:]
    return values


def _classify(word: str, flags: dict[str, _Option]) -> Optional[tuple]:
    """(the option word names, or None for an unknown option; the flag; the
    value given with it, or None) for an option word, and None for a word
    that is a value: one with no leading dash, "-", a negative number or a
    word with a space that names no option."""
    if not word or word[0] != "-":
        return None
    if word in flags:
        return flags[word], word, None
    if len(word) == 1:
        return None
    flag, eq, value = word.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if word[1] == "-":  # a unique prefix of a flag, with or without its =value
        matches = [(flags[name], name, value if eq else None)
                   for name in flags if name.startswith(flag)]
    else:  # -h, with what follows it
        matches = [(flags[name], name, word[2:]) for name in flags if name == word[:2]]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {word} could match "
                         f"{', '.join(name for _, name, _ in matches)}")
    if matches:
        return matches[0]
    if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return None
    return None, word, None


def _help_asked(flag: str, value: Optional[str], show: Callable[[], str]) -> None:
    """Raise _Help with show's text, or UsageError for a value given to
    -h or --help (-hh is -h twice)."""
    if value is not None and (flag == "--help" or not value or value.strip("h")):
        raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
    raise _Help(show())


def _convert(option: _Option, value: str):
    try:
        return option.convert(value)
    except ValueError:  # int; _word_arg raises UsageError itself
        raise UsageError(f"argument {option.flag}: invalid {option.convert.__name__} "
                         f"value: {value!r}")


def _help_text(usage: str, about: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """Help: usage, about, and each section's rows as two columns."""
    lines = [f"usage: {usage}", "", about]
    for heading, rows in sections.items():
        width = max(len(left) for left, _ in rows) + 2
        lines += ["", f"{heading}:", *(f"  {left:<{width}}{right}" for left, right in rows)]
    return "\n".join(lines) + "\n"


_HELP_ROW = ("-h, --help", _HELP.help)


def _top_help() -> str:
    commands = [(" ".join(word for word in key if word), command.help)
                for key, command in _COMMANDS.items()]
    return _help_text("hx <command> [options]", __doc__.splitlines()[1],
                      {"commands": commands, "options": [_HELP_ROW]})


def _group_help(name: str) -> str:
    subcommands = [(sub, command.help)
                   for (group, sub), command in _COMMANDS.items() if group == name]
    return _help_text(f"hx {name} <subcommand> [options]", _GROUPS[name],
                      {"subcommands": subcommands, "options": [_HELP_ROW]})


def _command_help(key: _Key, command: _Command) -> str:
    words = " ".join(word for word in key if word)
    required = "".join(f" {option.flag} {option.dest.upper()}"
                       for option in command.options if option.required)
    options = [_HELP_ROW, *((option.flag if option.convert is None
                             else f"{option.flag} {option.dest.upper()}",
                             option.help + (" (required)" if option.required else ""))
                            for option in command.options)]
    return _help_text(f"hx {words}{required} [options]", command.help, {"options": options})


def _apply_config(command: _Command, values: dict) -> None:
    """Fill the options argv left unset from the --config file, if any."""
    path = values["config"]
    if not path:
        return
    import json  # here: only a run with a config reads one

    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    options = {option.dest: option for option in command.options}
    for key, value in cfg.items():
        dest = "type_label" if key == "type" else key.replace("-", "_")
        if dest not in options or dest == "config":
            raise UsageError(f"unknown config key {key!r} for this command")
        value = _config_value(options[dest], key, value)
        if values[dest] is None or values[dest] is False:  # flags override the config
            values[dest] = value


def _config_value(option: _Option, key: str, value):
    """A config value, checked against the JSON type its flag takes, and
    read by the flag's converter."""
    if option.convert is None:  # on/off flags
        ok = isinstance(value, bool)
    elif option.convert is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(value, list):  # a word or the weights as a JSON array
        ok = (option.convert is _word_arg or option.dest == "weights") and all(
            isinstance(x, int) and not isinstance(x, bool) for x in value)
        value = tuple(value)
    else:
        ok = isinstance(value, str)
        if ok:
            value = option.convert(value)
    if not ok:
        raise UsageError(f"config key {key!r} has a bad value {value!r}")
    return value


# -- reports ------------------------------------------------------------------

def _make_system(args) -> CoxeterSystem:
    label = getattr(args, "type_label", None)
    matrix = getattr(args, "matrix", None)
    if label and matrix:
        raise UsageError("--type and --matrix are mutually exclusive")
    if label:
        return build_system(label)
    if matrix:
        import json  # here: only a run with a matrix file reads one

        try:
            with open(matrix) as fh:
                rows = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read matrix {matrix}: {e}")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise UsageError(f"{matrix} must hold a JSON array of arrays")
        return build_system(rows)
    raise UsageError("one of --type or --matrix is required")


def _make_weight(system: CoxeterSystem, args) -> WeightFunction:
    raw = getattr(args, "weights", None)
    if raw in (None, "equal"):
        return WeightFunction.equal_parameters(system)
    if isinstance(raw, (list, tuple)):
        return WeightFunction(system, raw)
    return WeightFunction(system, _word_arg(raw))


def _quote(text: str) -> str:
    """``json.dumps(text)``: a printable ASCII str with no ``"`` or ``\\``
    is quoted as it is; any other goes to json's encoder, which escapes it
    (and raises TypeError for what is no str), imported only then."""
    if (type(text) is str and text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text):
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _scalar(value) -> str:
    """``json.dumps(value)`` of a scalar that is no plain int: None, bools
    and strs here, and floats and subclasses by json's encoder, which
    raises TypeError for anything no report holds."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is str:
        return _quote(value)
    from json import JSONEncoder

    return JSONEncoder().encode(value)  # no indent, so json's C encoder


class _Spool:
    """Where ``_dumps`` cuts its chunks on a cache miss: each goes to a file
    and to a running digest, and only their count is kept. ``append`` and
    ``len`` are all the writer asks of a list of chunks."""
    __slots__ = ("write", "update", "cuts")

    def __init__(self, file, digest):
        self.write, self.update, self.cuts = file.write, digest.update, 0

    def append(self, chunk: bytes) -> None:
        self.write(chunk)
        self.update(chunk)
        self.cuts += 1

    def __len__(self) -> int:
        return self.cuts


# where the writer's chunks go: a list that keeps them, or a spool
_Chunks = list[bytes] | _Spool


def _dumps(report: dict, sink: Optional[_Spool] = None) -> Optional[list[bytes]]:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` as ASCII
    bytes chunks, byte for byte, for dicts with str keys, lists, tuples,
    iterators, str, int, float, bool and None; anything else raises
    TypeError. An iterator is written as a list, and a chunk ends after each
    of its items, so an item can be freed once it is written. The chunks
    are returned as a list, or, given a sink, handed to it as they are cut,
    and then None is returned. json indents in pure Python, so this walks
    the containers itself; it writes ints, None, bools and plain strs, and
    leaves any str that needs escaping, and floats, to json's C encoder,
    imported only then (``_quote``, ``_scalar``).

    A tuple is formatted once per indentation and its text reused, keyed
    by (id, indentation): exact, where a key by value would meet
    ``True == 1 == 1.0``, which hash alike. The memo holds the tuple, so its
    id is not reused while the report is written, and neither it nor what
    it holds may change meanwhile. A tuple that an iterator inside it cut
    into chunks is not kept. Reports hand their shared immutable leaves
    over as tuples (words, coefficient pairs), so a repeated leaf costs one
    lookup; entries are lists and dicts, which are walked and never kept."""
    chunks: _Chunks = [] if sink is None else sink
    parts: list[str] = []
    _write(report, "\n", parts, chunks, {})
    parts.append("\n")
    _cut(parts, chunks)
    return chunks if sink is None else None


def _cut(parts: list[str], chunks: _Chunks) -> None:
    chunks.append("".join(parts).encode("ascii"))
    parts.clear()


def _write(value, newline: str, parts: list[str], chunks: _Chunks,
           tuples: dict[tuple[int, str], tuple[tuple, str]]) -> None:
    """Append value's text, at the indentation newline ends with, to parts,
    cutting parts into chunks after each item of an iterator. tuples maps
    (id, newline) to (the tuple, its text), and holds the tuple."""
    put = parts.append
    if type(value) is tuple:
        key = (id(value), newline)
        hit = tuples.get(key)
        if hit is not None:
            put(hit[1])
            return
        start, cuts = len(parts), len(chunks)
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            put(sep + _quote(key) + ": ")  # TypeError unless key is a str
            _write(value[key], inner, parts, chunks, tuples)
            sep = "," + inner
        put(newline + "}" if value else "{}")
        return
    elif type(value) is int:
        put(int.__repr__(value))
        return
    elif not isinstance(value, (list, tuple, Iterator)):
        put(_scalar(value))
        return
    # a list, tuple or iterator, written as a JSON array
    inner = newline + "  "
    streamed = not isinstance(value, (list, tuple))  # a chunk per item
    # a tuple's items get a memo of their own, dropped with them: once the
    # tuple's text is kept, theirs would never be read again
    memo = {} if type(value) is tuple else tuples
    sep, comma = "[" + inner, "," + inner
    for item in value:
        put(sep)
        # a kept tuple, read here with no call: most items of a large
        # report are shared tuples
        hit = memo.get((id(item), inner)) if type(item) is tuple else None
        if hit is not None:
            put(hit[1])
        else:
            _write(item, inner, parts, chunks, memo)
        if streamed:
            _cut(parts, chunks)
        sep = comma
    put("[]" if sep[0] == "[" else newline + "]")  # no item, or some
    if type(value) is tuple and len(chunks) == cuts:  # whole in parts[start:]
        text = "".join(parts[start:])
        del parts[start:]
        put(text)
        tuples[key] = (value, text)


def _header(system: CoxeterSystem, weight: WeightFunction) -> dict:
    return {
        "type": system.type_label,
        "matrix": system.matrix_json(),
        "rank": system.rank,
        "is_finite": system.is_finite,
        "weights": list(weight.values),
    }


def _triple(elements: Optional[tuple[Element, ...]]) -> Optional[dict]:
    """A witness triple of elements as {"x", "y", "z"}, or None."""
    return None if elements is None else dict(zip("xyz", (el.word for el in elements)))


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- report cache -----------------------------------------------------------

# Raised whenever a cached report's layout or content changes. With
# ``__version__`` it is part of every cache key, so an entry written by other
# code is never replayed.
REPORT_SCHEMA = 2


_Entry = tuple[str, bytes]  # a cache entry's path, and its key as bytes

_HEAD = 65  # an entry's first line: the 64 hex digits of its digest, a newline
_BLOCK = 1 << 16  # an entry is read in blocks of this many bytes


class _EntryPayload:
    """The payload of an open cache entry, read again block by block past
    its digest line each time it is iterated, so that no one holds it all."""
    __slots__ = ("file",)

    def __init__(self, file):
        self.file = file

    def __iter__(self) -> Iterator[bytes]:
        self.file.seek(_HEAD)
        return iter(lambda: self.file.read(_BLOCK), b"")

    def close(self) -> None:
        self.file.close()


# a serialized report: ASCII bytes chunks in a list, or the payload of an
# open cache entry; written out in order and never joined
_Payload = list[bytes] | _EntryPayload


def _cache_lookup(key_obj: dict) -> tuple[Optional[_EntryPayload], Optional[_Entry]]:
    """(the payload of an intact entry, open, or None; the entry, or None
    without HX_CACHE_DIR).

    An entry file holds the BLAKE2b-256 digest (``_digest``) of its key and
    payload, a newline, then the payload. It is named
    ``hx-<version>-s<schema>-<hex>.json``: the ``hx`` version, the report
    schema and the first 32 hex digits of the key's digest. An entry whose
    digest does not match, or whose payload is not ASCII, is a miss, and the
    report is computed again. Both are checked in one pass over the open
    file, block by block, and a hit is returned open, so that what is
    written is what was checked."""
    cache_dir = os.environ.get("HX_CACHE_DIR")
    if not cache_dir:
        return None, None
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot use HX_CACHE_DIR {cache_dir}: {e}")
    import json  # here: only a cached run has a key to write

    key = json.dumps({"hx": __version__, "schema": REPORT_SCHEMA,
                      "report": key_obj}, sort_keys=True).encode()
    name = f"hx-{__version__}-s{REPORT_SCHEMA}-{_digest(key).hexdigest()[:32]}.json"
    entry = (os.path.join(cache_dir, name), key)
    try:
        fh = open(entry[0], "rb")
    except OSError:
        return None, entry  # no entry yet
    hit = None
    try:
        head, digest = fh.read(_HEAD), _digest(key)
        for block in iter(lambda: fh.read(_BLOCK), b""):
            if not block.isascii():
                break
            digest.update(block)
        else:
            if head == digest.hexdigest().encode() + b"\n":
                hit = _EntryPayload(fh)
    except OSError:
        pass  # unreadable
    finally:
        if hit is None:  # truncated, edited, unreadable or not ours: recompute
            fh.close()
    return hit, entry


def _digest(*parts: bytes | memoryview):
    """A running BLAKE2b-256 digest, fed the parts in turn. Imported here,
    as only cached commands with HX_CACHE_DIR need it, and from ``_blake2``,
    built into CPython: ``hashlib`` gives the same function but its import
    loads OpenSSL's libcrypto, which costs a process more memory and time
    than hashing a report of a few MB."""
    try:
        from _blake2 import blake2b
    except ImportError:  # a Python built without its own BLAKE2
        from hashlib import blake2b

    digest = blake2b(digest_size=32)
    for part in parts:
        digest.update(part)
    return digest


def _cache_store(entry: _Entry, report: dict) -> _EntryPayload:
    """Serialize report into the entry, and return its payload, open.

    The entry's temp file is the spool. It starts with a slot for the
    digest; ``_dumps`` hands it each chunk as it is cut, and a digest that
    started from the key takes each chunk as it passes; the digest fills the
    slot after the last chunk, and the file replaces the entry in one
    os.replace. So a run that fails never leaves an entry, whole or half
    written, and removes its temp file. A killed run cannot: its temp file
    is named for its host and process, and a later store sweeps it
    (``_sweep``)."""
    path, key = entry
    tmp = f"{path}.{_host()}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w+b")
    except OSError as e:
        raise UsageError(f"cannot write to HX_CACHE_DIR: {e}")
    try:
        fh.write(b" " * (_HEAD - 1) + b"\n")
        digest = _digest(key)
        _dumps(report, _Spool(fh, digest))
        fh.seek(0)
        fh.write(digest.hexdigest().encode("ascii"))
        fh.flush()
        os.replace(tmp, path)
        _sweep(os.path.dirname(path))
    except BaseException as e:
        fh.close()
        try:
            os.unlink(tmp)
        except OSError:
            pass  # renamed into place already
        if isinstance(e, OSError):
            raise UsageError(f"cannot write to HX_CACHE_DIR: {e}")
        raise
    return _EntryPayload(fh)


# the names _sweep knows in HX_CACHE_DIR: an entry, with its version and
# schema; an entry's temp file, with its host and pid; and an entry named
# by its key alone, as hx named them before the version and schema
_ENTRY_NAME = r"hx-(.+)-s(\d+)-[0-9a-f]{32}\.json"
_TEMP_NAME = r"hx-.+-s\d+-[0-9a-f]{32}\.json\.(.+)\.(\d+)\.tmp"
_LEGACY_NAME = r"[0-9a-f]{32}\.json"


def _sweep(cache_dir: str) -> None:
    """Unlink the files of cache_dir that no run will read or finish:
    entries of another ``hx`` version or report schema; legacy entries,
    whose first line is a 64-hex digest; and the temp files that this host
    wrote and whose process is gone. Every other file, and a file that
    cannot be read or unlinked, is left as it is."""
    current = (__version__, str(REPORT_SCHEMA))
    host = _host()
    try:
        with os.scandir(cache_dir) as found:
            files = [item for item in found if item.is_file(follow_symlinks=False)]
    except OSError:
        return
    for item in files:
        try:
            if match := re.fullmatch(_ENTRY_NAME, item.name):
                stale = match.groups() != current
            elif match := re.fullmatch(_TEMP_NAME, item.name):
                stale = match[1] == host and not _alive(int(match[2]))
            elif re.fullmatch(_LEGACY_NAME, item.name):
                with open(item.path, "rb") as fh:
                    stale = re.fullmatch(rb"[0-9a-f]{64}\n", fh.read(_HEAD)) is not None
            else:
                continue
            if stale:
                os.unlink(item.path)
        except OSError:
            pass  # gone already, or not ours to read or remove


def _host() -> str:
    """This host's name, as temp files carry it ('' off POSIX)."""
    return os.uname().nodename if hasattr(os, "uname") else ""


def _alive(pid: int) -> bool:
    """Whether a process of this host with this pid can still write. A
    zombie cannot: a run killed with its parent (``timeout -s KILL`` kills
    its whole process group) waits as one until it is reaped. Off POSIX
    every pid counts as alive, for there os.kill(pid, 0) would end the
    process."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # another user's, or no pid at all
        return True
    try:  # Linux: the state follows the command name, which ends at ")"
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[:1] not in ([b"Z"], [b"X"])
    except OSError:  # no /proc
        return True


# a command's report: (its cache key, or None for an uncached command, a
# function that builds it, a function that gives its text lines from the
# report read back from its JSON)
_Plan = tuple[Optional[dict], Callable[[], dict], Callable[[dict], Iterable[str]]]


def _report(key: Optional[dict], build: Callable[[], dict],
            lines: Callable[[dict], Iterable[str]], text: bool
            ) -> tuple[_Payload, list[str]]:
    """(a report's JSON payload, serialized once, and, if text, the text
    lines of the report read back from it): replayed from HX_CACHE_DIR when
    key is given and its entry is intact, else built and stored. A hit that
    proves not to be a report of this command is built and stored again.
    An entry's payload is returned open, for the caller to close."""
    def read(payload: _Payload) -> list[str]:
        if not text:
            return []
        import json  # here: only text output parses the payload

        try:
            return list(lines(json.loads(b"".join(payload))))
        except BaseException:
            if isinstance(payload, _EntryPayload):
                payload.close()
            raise

    payload, entry = (None, None) if key is None else _cache_lookup(key)
    if payload is not None:
        try:
            hit = payload, read(payload)
        except (ValueError, LookupError, TypeError):
            pass  # the digest matches a payload that is not such a report
        else:
            _progress(f"{key['command']}: cache hit")
            return hit
    payload = _dumps(build()) if entry is None else _cache_store(entry, build())
    return payload, read(payload)


# -- commands -----------------------------------------------------------------

def _cmd_group(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    report = _header(system, weight)
    if args.max_length is not None:
        ball = system.enumerate_elements(max_length=args.max_length)
        report["max_length"] = args.max_length
        report["elements"] = [w.word for w in ball]
        report["count"] = len(ball)
    elif not system.is_finite:
        raise InfiniteGroupError(
            "an infinite system needs --max-length for enumeration")
    else:
        report["order"] = system.order()
        report["classes"] = [{
            "class_id": i,
            "representative": c.representative.word,
            "size": c.size,
            "min_length": c.min_length,
            "centralizer_order": c.centralizer_order,
        } for i, c in enumerate(system.conjugacy_classes())]
        report["longest"] = system.longest_element().word
        report["coxeter"] = (system.coxeter_element().word
                             if system.is_irreducible else None)

    def text(report: dict) -> Iterator[str]:
        yield (f"type {report['type'] or 'custom'}: rank {report['rank']}, "
               f"{'finite' if report['is_finite'] else 'infinite'}")
        if "elements" in report:
            yield f"{report['count']} elements of length <= {report['max_length']}"
            for word in report["elements"]:
                yield f"  [{','.join(map(str, word))}]" if word else "  e"
            return
        yield f"|W| = {report['order']}, {len(report['classes'])} conjugacy classes"
        yield f"longest element (length {len(report['longest'])}): {report['longest']}"
        if report["coxeter"] is not None:
            yield f"coxeter element: {report['coxeter']}"
        for row in report["classes"]:
            yield (f"  class {row['class_id']}: rep {row['representative']}, "
                   f"size {row['size']}, min length {row['min_length']}, "
                   f"centralizer {row['centralizer_order']}")

    return None, lambda: report, text


def _cmd_weights(args) -> _Plan:
    label = getattr(args, "type_label", None)
    if not label:
        raise UsageError("weights needs --type")
    report = {"type": label, "catalog": weight_catalog(label)}

    def text(report: dict) -> Iterator[str]:
        yield f"admissible weight tuples for {report['type']}:"
        yield from (f"  {tuple(t)}" for t in report["catalog"])

    return None, lambda: report, text


def _cmd_fprobe(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    probe = HeckeAlgebra(system, weight).f_bound_probe(radius=args.radius)
    report = _header(system, weight)
    report["radius"] = probe.radius
    report["n_emp"] = probe.n_emp
    report["witness"] = _triple(probe.witness)
    report["pairs_scanned"] = probe.pairs_scanned

    def text(report: dict) -> Iterator[str]:
        radius = report["radius"]
        scope = "whole group" if radius is None else f"radius {radius}"
        yield (f"N_emp = {report['n_emp']} over {scope} "
               f"({report['pairs_scanned']} pairs)")
        witness = report["witness"]
        if witness:
            yield f"witness: x={witness['x']} y={witness['y']} z={witness['z']}"

    return None, lambda: report, text


def _cmd_kl_basis(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    key = {"command": "kl basis", "matrix": system.matrix_json(),
           "weights": list(weight.values),
           "element": list(args.element) if args.element is not None else None}

    def build() -> dict:
        from .klbasis import KLBasis  # here: a cache hit needs no kernel

        kl = KLBasis(HeckeAlgebra(system, weight))
        if args.element is not None:
            targets = [system.normal_form(args.element)]
        else:
            if not system.is_finite:
                raise InfiniteGroupError(
                    "listing the whole KL basis needs a finite system "
                    "(use --element on infinite ones)")
            targets = system.enumerate_elements()
        report = _header(system, weight)
        # a generator: _dumps writes each element as it is made, and frees it
        report["elements"] = ({
            "w": w.word,
            "coords": [[y.word, pairs] for y, pairs in kl.coord_pairs(w)],
        } for w in targets)
        return report

    def text(report: dict) -> Iterator[str]:
        for entry in report["elements"]:
            yield f"c_{entry['w']}:"
            for yword, pairs in entry["coords"]:
                yield f"  {yword}: {pairs}"

    return key, build, text


def _cmd_kl_hconst(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    from .klbasis import KLBasis

    kl = KLBasis(HeckeAlgebra(system, weight))
    x = system.normal_form(args.x)
    y = system.normal_form(args.y)
    constants = kl.h_constants(x, y)
    report = _header(system, weight)
    report["x"] = x.word
    report["y"] = y.word
    report["constants"] = [[z.word, p.to_pairs()]
                           for z, p in sorted(constants.items(),
                                              key=lambda kv: kv[0].sort_key)]

    def text(report: dict) -> Iterator[str]:
        yield f"c_{report['x']} * c_{report['y']}:"
        for zword, pairs in report["constants"]:
            yield f"  h[z={zword}] = {pairs}"

    return None, lambda: report, text


def _cmd_kl_afunction(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    key = {"command": "kl afunction", "matrix": system.matrix_json(),
           "weights": list(weight.values)}

    def build() -> dict:
        from .klbasis import KLBasis, a_function  # as in kl basis

        kl = KLBasis(HeckeAlgebra(system, weight))
        afn = a_function(kl, progress=lambda done, total: _progress(
            f"a-function: {done}/{total} pairs"))
        order = sorted(afn.values, key=lambda el: el.sort_key)
        report = _header(system, weight)
        report["values"] = [[z.word, afn.values[z]] for z in order]
        report["witnesses"] = [[z.word, afn.witnesses[z][0].word,
                                afn.witnesses[z][1].word] for z in order]
        return report

    def text(report: dict) -> Iterator[str]:
        for zw, a in report["values"]:
            yield f"a({zw}) = {a}"

    return key, build, text


def _j_ring(system: CoxeterSystem, weight: WeightFunction):
    from .klbasis import KLBasis, j_table

    return j_table(KLBasis(HeckeAlgebra(system, weight)),
                   progress=lambda done, total: _progress(
                       f"j-table: {done}/{total} pairs"))


def _cmd_jring_table(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    key = {"command": "jring table", "matrix": system.matrix_json(),
           "weights": list(weight.values)}

    def build() -> dict:
        ring = _j_ring(system, weight)
        report = _header(system, weight)
        report["a_values"] = [[z.word, ring.a.values[z]]
                              for z in sorted(ring.a.values, key=lambda el: el.sort_key)]
        triples = []
        for (x, y) in sorted(ring.table, key=lambda kv: (kv[0].sort_key, kv[1].sort_key)):
            row = ring.table[(x, y)]
            for z in sorted(row, key=lambda el: el.sort_key):
                triples.append([x.word, y.word, z.word, row[z]])
        report["triples"] = triples
        return report

    def text(report: dict) -> Iterator[str]:
        yield f"{len(report['triples'])} nonzero structure constants"

    return key, build, text


def _cmd_jring_check(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    from .klbasis import j_associativity_check

    res = j_associativity_check(_j_ring(system, weight))
    if not res.passed and weight.is_equal_parameters:
        # J of a finite W is associative at equal parameters by P1-P15
        x, y, z = res.counterexample
        raise InternalCheckError(
            f"J is not associative at equal parameters: (t_x t_y) t_z != "
            f"t_x (t_y t_z) at x={x!r}, y={y!r}, z={z!r}")
    report = _header(system, weight)
    report["passed"] = res.passed
    report["triples_checked"] = res.triples_checked
    report["triples_total"] = res.triples_total
    report["exhaustive"] = True  # every triple counts as checked
    report["seed"] = None
    report["counterexample"] = _triple(res.counterexample)

    def text(report: dict) -> Iterator[str]:
        yield (f"associativity {'PASS' if report['passed'] else 'FAIL'} "
               f"({report['triples_checked']}/{report['triples_total']} triples, exhaustive)")
        if report["counterexample"]:
            yield f"counterexample: {report['counterexample']}"

    return None, lambda: report, text


def _cmd_jring_unit(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    from .klbasis import j_find_unit

    unit = j_find_unit(_j_ring(system, weight))
    report = _header(system, weight)
    report["unit"] = (None if unit is None else
                      [[w.word, c] for w, c in sorted(unit.items(),
                                                      key=lambda kv: kv[0].sort_key)])

    def text(report: dict) -> Iterator[str]:
        if report["unit"] is None:
            yield ("sum of n_d t_d over D (read off the J table) is not a unit: "
                   "P1-P15 fail at these weights")
            return
        yield f"unit = sum of {len(report['unit'])} terms:"
        for word, c in report["unit"]:
            yield f"  {word}: {c}"

    return None, lambda: report, text


def _cmd_positivity(args, system: CoxeterSystem, weight: WeightFunction) -> _Plan:
    from .positivity import classify_positive

    reports = classify_positive(
        HeckeAlgebra(system, weight), jobs=args.jobs, max_cmin=args.max_cmin,
        progress=lambda done, total: _progress(f"positivity: class {done}/{total}"))
    report = _header(system, weight)
    report["order"] = system.order()
    report["reports"] = [r.to_jsonable() for r in reports]
    report["positive_class_ids"] = [r.class_id for r in reports if r.positive]

    def text(report: dict) -> Iterator[str]:
        rows = report["reports"]
        if args.csv:  # the flat table
            yield "class,size,min_length,positive,n_at_1"
            yield from (f"{row['class_id']},{row['size']},{row['min_length']},"
                        f"{str(row['positive']).lower()},{row['centralizer_order']}"
                        for row in rows)
            return
        for row in rows:
            yield (f"class {row['class_id']}: rep {row['representative']}, "
                   f"size {row['size']}, min length {row['min_length']}, "
                   f"N(1) = {row['centralizer_order']}, "
                   f"{'POSITIVE' if row['positive'] else 'not positive'}")
        yield "positive classes: " + ", ".join(map(str, report["positive_class_ids"]))

    return None, lambda: report, text


class _Command:
    """A command's handler, its help, its options (``_Option``), and whether
    it works on a system, given by --type or --matrix and weighted by
    --weights. The options are those every command takes, then its own. A
    handler is called with the arguments, and with the system and weight
    function when it works on one. A plain class: a NamedTuple's class is
    made by exec, which every process would pay for at import."""
    __slots__ = ("run", "help", "options", "weights")

    def __init__(self, run: Callable[..., _Plan], help: str,
                 own: tuple[_Option, ...] = (), weights: bool = True):
        self.run, self.help, self.weights = run, help, weights
        self.options = (_TYPE, *(_SYSTEM if weights else ()), *_COMMON, *own)


# every command, in the order of hx --help: its handler, help and options
_COMMANDS: dict[_Key, _Command] = {
    ("group", None): _Command(
        _cmd_group, "group order, conjugacy classes, special elements",
        (_Option("--max-length", int, "list the length ball instead "
                                      "(required for infinite systems)"),)),
    ("weights", None): _Command(
        _cmd_weights, "admissible weight catalog for an affine type", weights=False),
    ("hecke", "fprobe"): _Command(
        _cmd_fprobe, "scan degrees of the structure constants f_{x,y,z}",
        (_Option("--radius", int, "length bound for the scan "
                                  "(omit to scan a whole finite group)"),)),
    ("kl", "basis"): _Command(
        _cmd_kl_basis, "KL basis elements in T-coordinates",
        (_Option("--element", _word_arg, "generator word i,j,... of a single element"),)),
    ("kl", "hconst"): _Command(
        _cmd_kl_hconst, "h-constants of a pair of basis elements",
        (_Option("--x", _word_arg, "word of x", required=True),
         _Option("--y", _word_arg, "word of y", required=True))),
    ("kl", "afunction"): _Command(_cmd_kl_afunction, "the a-function table"),
    ("jring", "table"): _Command(_cmd_jring_table, "sparse gamma multiplication table"),
    ("jring", "check"): _Command(
        _cmd_jring_check, "associativity check over all basis triples"),
    ("jring", "unit"): _Command(_cmd_jring_unit, "the two-sided unit of J"),
    ("positivity", None): _Command(
        _cmd_positivity, "conjugacy-class trace positivity",
        (_Option("--csv", None, "emit the flat CSV table"),
         _Option("--max-cmin", int, "cap evaluated C_min members per class "
                                    "(rank-5 time budget)"))),
}


def _emit(text: Iterable[str], payload: Optional[_Payload] = None) -> int:
    """Write the text, then the payload's bytes, to stdout and flush it: 0,
    or 1 when stdout fails. A closed or full stdout prints one error line; a
    broken pipe prints nothing, since its reader asked for no more. After a
    failure stdout is pointed at the null device, so that the flush at exit
    finds nothing left to fail on."""
    out = sys.stdout
    if out is None:  # closed when the process started
        print("hx: error: cannot write to stdout: it is closed", file=sys.stderr)
        return 1
    try:
        for part in text:
            out.write(part)
        if payload is not None:
            out.flush()  # behind any text, the payload's bytes as they are
            out.buffer.writelines(payload)
        out.flush()
    except OSError as e:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        except (OSError, ValueError):  # no file descriptor under stdout
            pass
        if not isinstance(e, BrokenPipeError):
            print(f"hx: error: cannot write to stdout: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    payload: _Payload = []
    try:
        try:
            key, args = _arguments(argv)
            command = _COMMANDS[key]
            if command.weights:  # every command but weights works on a system
                system = _make_system(args)
                key, build, lines = command.run(args, system, _make_weight(system, args))
            else:
                key, build, lines = command.run(args)
            csv = getattr(args, "csv", False)  # the text lines, in place of the JSON
            payload, text = _report(key, build, lines, not args.json or (csv and args.out))
            if args.out:  # whole before stdout takes a byte, or exit 1 with none
                try:
                    with open(args.out, "wb") as fh:
                        fh.writelines([f"{line}\n".encode("ascii") for line in text]
                                      if csv else payload)
                except OSError as e:
                    raise UsageError(f"cannot write {args.out}: {e}")
        except _Help as shown:
            return _emit(shown.args)
        except UsageError as e:
            print(f"hx: error: {e}", file=sys.stderr)
            return 1
        except (ValueError, ZeroDivisionError) as e:
            print(f"hx: error: {e}", file=sys.stderr)
            return 1
        except GatingError as e:
            print(f"hx: gated: {e}", file=sys.stderr)
            return 2
        except InternalCheckError as e:
            print(f"hx: INTERNAL INVARIANT VIOLATION: {e}", file=sys.stderr)
            return 3

        if args.json:
            return _emit((), payload)
        return _emit(f"{line}\n" for line in text)  # with no joined copy of the text
    finally:
        if isinstance(payload, _EntryPayload):
            payload.close()

if __name__ == "__main__":
    sys.exit(main())
