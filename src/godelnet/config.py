"""Plain-text experiment configuration.

One INI-style file with named sections describes a whole experiment: the
grammar file and sentence, run limits and tolerances, observable selection,
and one section pair per named encoding mapping symbols to digits:

    [grammar]
    path = parser.grammar
    sentence = NP V NP

    [run]
    id = demo
    macro_steps = 6

    [tolerances]
    soundness = 1e-9
    step_invariance = 0

    [observables]
    window = 2 3
    seed = 11
    step = on
    amari = on
    harmony = on
    dissimilarity = on

    [encoding:gamma:input]
    ⊔ = 0
    NP = 1
    V = 2

    [encoding:gamma:stack]
    ...

Symbol keys are case-sensitive.  The blank row is optional; a missing blank
is pinned to digit 0 automatically, a present one must carry digit 0.
"""

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .symbols import BLANK

OBSERVABLE_NAMES = ("step", "amari", "harmony", "dissimilarity")

_TRUE = {"1", "on", "true", "yes"}
_FALSE = {"0", "off", "false", "no"}


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
    soundness: float = 1e-9
    step_invariance: float = 0.0
    window: tuple = (2, 3)
    seed: int = 11
    observables: tuple = OBSERVABLE_NAMES
    encodings: tuple = ()

    def __post_init__(self):
        if self.macro_steps < 1:
            raise ConfigError("macro_steps must be >= 1, got %d" % self.macro_steps)
        if not self.encodings:
            raise ConfigError("at least one [encoding:NAME:input/stack] pair is required")
        if not self.observables:
            raise ConfigError("no observables enabled")


def _bool(section, key, raw):
    val = raw.strip().lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise ConfigError("[%s] %s: expected on/off, got %r" % (section, key, raw))


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

    if "grammar" not in parser:
        raise ConfigError("missing [grammar] section")
    grammar_sec = parser["grammar"]
    if "path" not in grammar_sec or "sentence" not in grammar_sec:
        raise ConfigError("[grammar] needs 'path' and 'sentence'")
    grammar_path = Path(grammar_sec["path"])
    if not grammar_path.is_absolute():
        grammar_path = path.parent / grammar_path
    sentence = tuple(grammar_sec["sentence"].split())

    run_id, macro_steps = "run", 6
    if "run" in parser:
        run_id = parser["run"].get("id", run_id).strip()
        macro_steps = _int(parser["run"], "macro_steps", macro_steps)

    soundness, step_inv = 1e-9, 0.0
    if "tolerances" in parser:
        sec = parser["tolerances"]
        soundness = _float(sec, "soundness", soundness)
        step_inv = _float(sec, "step_invariance", step_inv)

    window, seed = (2, 3), 11
    enabled = list(OBSERVABLE_NAMES)
    if "observables" in parser:
        sec = parser["observables"]
        if "window" in sec:
            parts = sec["window"].split()
            if len(parts) != 2:
                raise ConfigError("[observables] window needs two lengths, got %r" % sec["window"])
            window = (_as_int("window", parts[0]), _as_int("window", parts[1]))
        seed = _int(sec, "seed", seed)
        enabled = [name for name in OBSERVABLE_NAMES
                   if _bool("observables", name, sec.get(name, "on"))]

    encodings = {}
    for section in parser.sections():
        if not section.startswith("encoding:"):
            continue
        parts = section.split(":")
        if len(parts) != 3 or parts[2] not in ("input", "stack"):
            raise ConfigError("bad encoding section [%s]; expected [encoding:NAME:input|stack]" % section)
        _, name, side = parts
        encodings.setdefault(name, {})[side] = _table(parser, section)
    pairs = []
    for name in sorted(encodings):
        sides = encodings[name]
        if set(sides) != {"input", "stack"}:
            raise ConfigError("encoding %r needs both an input and a stack section" % name)
        pairs.append(EncodingTables(name, sides["input"], sides["stack"]))

    return ExperimentConfig(
        grammar_path=grammar_path,
        sentence=sentence,
        run_id=run_id,
        macro_steps=macro_steps,
        soundness=soundness,
        step_invariance=step_inv,
        window=window,
        seed=seed,
        observables=tuple(enabled),
        encodings=tuple(pairs),
    )


def _as_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError("%s: integer expected, got %r" % (key, raw)) from None


def _int(section, key, default):
    if key not in section:
        return default
    return _as_int(key, section[key])


def _float(section, key, default):
    if key not in section:
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError("%s: number expected, got %r" % (key, section[key])) from None
