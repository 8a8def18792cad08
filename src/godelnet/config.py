"""Plain-text experiment configuration.

One INI-style file with named sections describes a whole experiment: the
grammar file and sentence, the run limits, the step observable's window and
seed, and one section pair per named encoding mapping symbols to digits:

    [grammar]
    path = parser.grammar
    sentence = NP V NP

    [run]
    id = demo
    macro_steps = 6

    [observables]
    window = 2 3
    seed = 11

    [encoding:gamma:input]
    ⊔ = 0
    NP = 1
    V = 2

    [encoding:gamma:stack]
    ...

Every run records all four observables and judges the networks and the step
series by fixed criteria, so no key selects observables or sets a tolerance.
A relative grammar path is read from the config file's directory.  Symbol
keys are case-sensitive.  The blank row is optional; a missing blank is pinned to
digit 0 automatically, a present one must carry digit 0.  An encoding NAME
is part of the artifact file names, so it cannot contain '/'.  Any other
section, and any key a fixed section does not read, is a ConfigError.
"""

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .symbols import BLANK


def _as_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("%s: integer expected, got %r" % (key, raw)) from None


def _window(key, raw):
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError("[observables] %s needs two lengths, got %r" % (key, raw))
    return _as_int(key, parts[0]), _as_int(key, parts[1])


#: Each fixed section's keys, each with the ExperimentConfig field it sets and
#: its parser; an encoding section's keys are its symbols.  Both [grammar]
#: keys are required, the others default to the ExperimentConfig defaults.
_SECTION_KEYS = {
    "grammar": {"path": ("grammar_path", lambda key, raw: Path(raw)),
                "sentence": ("sentence", lambda key, raw: tuple(raw.split()))},
    "run": {"id": ("run_id", lambda key, raw: raw.strip()),
            "macro_steps": ("macro_steps", _as_int)},
    "observables": {"window": ("window", _window),
                    "seed": ("seed", _as_int)},
}


@dataclass(frozen=True)
class EncodingTables:
    """Raw symbol-to-digit tables for one named encoding."""

    name: str
    input_table: tuple  # of (symbol, digit)
    stack_table: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    grammar_path: Path
    sentence: tuple
    run_id: str = "run"
    macro_steps: int = 6
    window: tuple = (2, 3)
    seed: int = 11
    encodings: tuple = ()

    #: Every run records these series; only "step" must survive recoding.
    observables = ("step", "amari", "harmony", "dissimilarity")

    def __post_init__(self):
        if self.macro_steps < 1:
            raise ConfigError("macro_steps must be >= 1, got %d" % self.macro_steps)
        if min(self.window) < 0:
            raise ConfigError("[observables] window lengths must be >= 0, got %d %d" % self.window)
        if len(self.encodings) < 2:
            raise ConfigError("at least two [encoding:NAME:input/stack] pairs are required, got %d"
                              % len(self.encodings))


def _table(parser, section):
    table = []
    for sym, raw in parser.items(section):
        try:
            digit = int(raw)
        except ValueError:
            raise ConfigError("[%s] %s: digit expected, got %r" % (section, sym, raw)) from None
        table.append((sym, digit))
    syms = [s for s, _ in table]
    if BLANK not in syms:
        table.insert(0, (BLANK, 0))
    else:
        blank_digit = dict(table)[BLANK]
        if blank_digit != 0:
            raise ConfigError("[%s] the blank must carry digit 0, got %d" % (section, blank_digit))
    return tuple(table)


def load_config(path):
    """Parse and validate a config file; all errors raise ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config file %s not found" % path)
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError("malformed config %s: %s" % (path, err)) from None

    _check_names(parser)
    if "grammar" not in parser:
        raise ConfigError("missing [grammar] section")
    if not all(key in parser["grammar"] for key in _SECTION_KEYS["grammar"]):
        raise ConfigError("[grammar] needs 'path' and 'sentence'")
    # only the keys the file sets; ExperimentConfig supplies the rest
    values = {field: parse(key, parser[section][key])
              for section, keys in _SECTION_KEYS.items()
              for key, (field, parse) in keys.items() if parser.has_option(section, key)}
    values["grammar_path"] = path.parent / values["grammar_path"]  # an absolute path stays as it is

    encodings = {}
    for section in parser.sections():
        if not section.startswith("encoding:"):
            continue
        parts = section.split(":")
        if len(parts) != 3 or parts[2] not in ("input", "stack"):
            raise ConfigError("bad encoding section [%s]; expected [encoding:NAME:input|stack]" % section)
        _, name, side = parts
        if "/" in name:  # the name is part of the artifact file names
            raise ConfigError("bad encoding section [%s]; NAME is part of artifact file names, "
                              "so it cannot contain '/'" % section)
        encodings.setdefault(name, {})[side] = _table(parser, section)
    pairs = []
    for name in sorted(encodings):
        sides = encodings[name]
        if set(sides) != {"input", "stack"}:
            raise ConfigError("encoding %r needs both an input and a stack section" % name)
        pairs.append(EncodingTables(name, sides["input"], sides["stack"]))

    return ExperimentConfig(encodings=tuple(pairs), **values)


def _check_names(parser):
    """Reject the sections and keys the loader would otherwise ignore (typos)."""
    if parser.defaults():  # configparser copies [DEFAULT] keys into every section
        raise ConfigError("unknown section [DEFAULT]")
    for section in parser.sections():
        if section.startswith("encoding:"):
            continue
        if section not in _SECTION_KEYS:
            raise ConfigError("unknown section [%s]; expected %s or [encoding:NAME:input|stack]"
                              % (section, ", ".join("[%s]" % name for name in _SECTION_KEYS)))
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError("[%s] unknown key %r; expected one of %s"
                                  % (section, key, ", ".join(_SECTION_KEYS[section])))

