"""Configuration loading, the experiment driver, and the CLI."""

import ctypes
import dataclasses
import hashlib
import math
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

from godelnet import BLANK, DottedSequence, ExperimentConfig, PhasePoint, cli, harness, load_config
from godelnet.config import EncodingTables
from godelnet.errors import ConfigError, DivergenceError, InternalConsistencyError, ResourceLimitError
from godelnet.harness import (
    Verdict,
    observables_csv,
    report_text,
    run_experiment,
    verdicts_csv,
    write_report,
)
from godelnet.network import NetworkSpec

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEMO_DIGESTS  # noqa: E402  (sha256 of the shipped run's artifacts)


@pytest.fixture(scope="module")
def config():
    return load_config(CONFIG_DIR / "experiment.ini")


@pytest.fixture(scope="module")
def report(config):
    return run_experiment(config)


def test_load_config_fields(config):
    assert config.sentence == ("NP", "V", "NP")
    assert config.grammar_path == CONFIG_DIR / "parser.grammar"
    assert config.macro_steps == 6
    assert config.window == (2, 3)
    assert config.observables == ("step", "amari", "harmony", "dissimilarity")
    assert [e.name for e in config.encodings] == ["delta", "gamma"]
    gamma = dict(config.encodings[1].stack_table)
    assert gamma["S"] == 4 and gamma["⊔"] == 0


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")

    bad = tmp_path / "bad.ini"
    bad.write_text("[grammar]\npath = g\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)

    bad.write_text(
        "[grammar]\npath = g\nsentence = a\n"
        "[encoding:e:input]\na = x\n[encoding:e:stack]\na = 0\n",
        encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)

    bad.write_text(
        "[grammar]\npath = g\nsentence = a\n"
        "[encoding:e:input]\n⊔ = 1\na = 0\n[encoding:e:stack]\na = 0\n",
        encoding="utf-8")
    with pytest.raises(ConfigError, match="blank"):
        load_config(bad)

    bad.write_text(
        "[grammar]\npath = g\nsentence = a\n[encoding:e:input]\na = 1\n",
        encoding="utf-8")
    with pytest.raises(ConfigError, match="both"):
        load_config(bad)


@pytest.mark.parametrize("sections", ["", "[run]\n[observables]\n"], ids=["absent", "empty"])
def test_config_defaults_are_the_dataclass_defaults(tmp_path, sections):
    ini = tmp_path / "bare.ini"
    ini.write_text("[grammar]\npath = g\nsentence = a b\n" + sections
                   + "[encoding:e:input]\na = 1\n[encoding:e:stack]\na = 2\n"
                   + "[encoding:f:input]\na = 2\n[encoding:f:stack]\na = 1\n", encoding="utf-8")
    pairs = (EncodingTables("e", ((BLANK, 0), ("a", 1)), ((BLANK, 0), ("a", 2))),
             EncodingTables("f", ((BLANK, 0), ("a", 2)), ((BLANK, 0), ("a", 1))))
    assert load_config(ini) == ExperimentConfig(tmp_path / "g", ("a", "b"), encodings=pairs)


def _shipped_config_with(tmp_path, old, new):
    """The shipped config, next to its grammar, with one line replaced."""
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "experiment.ini"
    path.write_text(text.replace(old, new), encoding="utf-8")
    shutil.copy(CONFIG_DIR / "parser.grammar", tmp_path)
    return path


@pytest.mark.parametrize("old, new, message", [
    ("sentence = NP V NP\n", "sentence = NP V NP\nstart = S\n",
     "[grammar] unknown key 'start'; expected one of path, sentence"),
    ("macro_steps = 6\n", "macro_step = 2\n",
     "[run] unknown key 'macro_step'; expected one of id, macro_steps"),
    # the block the shipped config carried before the tolerances were fixed
    ("[observables]\n", "[tolerances]\nsoundness = 1e-9\nstep_invariance = 0\n\n[observables]\n",
     "unknown section [tolerances]; expected [grammar], [run], [observables] or [encoding:NAME:input|stack]"),
    ("seed = 11\n", "seed = 11\nsed = 3\n",
     "[observables] unknown key 'sed'; expected one of window, seed"),
    ("[observables]\n", "[observable]\n",
     "unknown section [observable]; expected [grammar], [run], [observables] or [encoding:NAME:input|stack]"),
    ("[grammar]\n", "[DEFAULT]\nseed = 3\n\n[grammar]\n", "unknown section [DEFAULT]"),
], ids=["grammar", "run", "tolerances", "observables", "section", "default"])
def test_config_rejects_keys_and_sections_it_would_ignore(tmp_path, capsys, old, new, message):
    path = _shipped_config_with(tmp_path, old, new)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("macro_steps = 6\n", "macro_steps = six\n", "error: macro_steps: integer expected, got 'six'\n"),
    ("window = 2 3\n", "window = 2\n", "error: [observables] window needs two lengths, got '2'\n"),
    ("window = 2 3\n", "window = -1 3\n", "error: [observables] window lengths must be >= 0, got -1 3\n"),
    ("macro_steps = 6\n", "macro_steps = 0\n", "error: macro_steps must be >= 1, got 0\n"),
    ("[observables]\n", "[run]\nid = again\n\n[observables]\n", "error: malformed config "),
    ("[grammar]\npath = parser.grammar\nsentence = NP V NP\n", "", "error: missing [grammar] section\n"),
    ("[encoding:gamma:input]\n", "[encoding:gamma]\n",
     "error: bad encoding section [encoding:gamma]; expected [encoding:NAME:input|stack]\n"),
], ids=["integer", "window", "negative-window", "macro-steps", "duplicate-section", "no-grammar",
        "encoding-section"])
def test_cli_run_exits_4_on_a_config_error(tmp_path, capsys, old, new, message):
    path = _shipped_config_with(tmp_path, old, new)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    # a configparser message goes on to name the file and the line, so only its start is pinned
    assert err == message if message.endswith("\n") else err.startswith(message)
    assert not (tmp_path / "out").exists()


#: The settings that could loosen or void the verdict; the loader refuses each.
REMOVED_SETTINGS = [
    ("[observables]\n", "[tolerances]\nsoundness = 1\n\n[observables]\n",
     "unknown section [tolerances]; expected [grammar], [run], [observables] or [encoding:NAME:input|stack]"),
] + [
    ("seed = 11\n", "seed = 11\n%s = %s\n" % (name, value),
     "[observables] unknown key %r; expected one of window, seed" % name)
    for name, value in [("step", "off"), ("amari", "on"), ("harmony", "on"), ("dissimilarity", "on")]
]


@pytest.mark.parametrize("old, new, message", REMOVED_SETTINGS,
                         ids=["soundness", "step", "amari", "harmony", "dissimilarity"])
def test_cli_run_refuses_a_removed_setting(tmp_path, capsys, old, new, message):
    path = _shipped_config_with(tmp_path, old, new)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "out").exists()


def test_config_encoding_sections_take_any_symbol_key(tmp_path):
    # an encoding section's keys are symbols, even ones named like a fixed section's keys
    path = _shipped_config_with(tmp_path, "[encoding:delta:input]\n", "[encoding:delta:input]\nseed = 3\n")
    delta = load_config(path).encodings[0]
    assert delta.name == "delta" and ("seed", 3) in delta.input_table


def test_readme_config_block_loads(tmp_path, config):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1]
    (tmp_path / "experiment.ini").write_text(section.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    shutil.copy(CONFIG_DIR / "parser.grammar", tmp_path)
    # the README shows the shipped config
    want = dataclasses.replace(config, grammar_path=tmp_path / "parser.grammar")
    assert load_config(tmp_path / "experiment.ini") == want


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md (Library)", "exec"), namespace)
    assert namespace["spec"].n == 72


def test_config_rejects_unknown_symbols(tmp_path, config):
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    broken = tmp_path / "broken.ini"
    broken.write_text(text.replace("VP = 3", "XX = 3"), encoding="utf-8")
    (tmp_path / "parser.grammar").write_text(
        (CONFIG_DIR / "parser.grammar").read_text(encoding="utf-8"), encoding="utf-8")
    cfg = load_config(broken)
    with pytest.raises(ConfigError, match="gamma"):
        run_experiment(cfg)


def test_cli_run_names_the_missing_and_unknown_symbols_of_an_encoding(tmp_path, capsys):
    path = _shipped_config_with(tmp_path, "[encoding:gamma:input]\n⊔ = 0\nNP = 1\nV = 2\n",
                                "[encoding:gamma:input]\n⊔ = 0\nNP = 1\nX = 2\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: encoding gamma (input side): ordering must cover "
                                       "the alphabet exactly: missing V; unknown X\n")
    assert not (tmp_path / "out").exists()


def test_report_contents(report):
    assert report.unit_count == 72
    assert [run.name for run in report.runs] == ["delta", "gamma"]
    for run in report.runs:
        assert run.trace.verdict == "accept"
        assert not run.na.diverged
        assert len(run.series["step"]) == 7
        assert len(run.series["dissimilarity"]) == 6
    assert report.invariance_ok
    by_obs = {v.observable: v for v in report.verdicts}
    assert by_obs["step"].invariant and by_obs["step"].expected_invariant
    assert not by_obs["amari"].invariant
    assert not by_obs["amari"].expected_invariant
    assert by_obs["amari"].max_abs_delta > 1e-6


def test_csv_views(report):
    obs_lines = observables_csv(report).strip().splitlines()
    assert obs_lines[0] == "run,encoding,step,observable,value"
    assert len(obs_lines) == 1 + 2 * (7 + 7 + 7 + 6)
    verdict_lines = verdicts_csv(report).strip().splitlines()
    assert len(verdict_lines) == 1 + 4
    text = report_text(report)
    assert "network units: 72" in text
    assert "overall: ok" in text


def test_write_report_is_deterministic(report, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    names_a = {p.name: p.read_bytes() for p in write_report(report, first)}
    names_b = {p.name: p.read_bytes() for p in write_report(report, second)}
    assert names_a.keys() == names_b.keys()
    assert set(names_a) == {
        "trace_delta.csv", "map_delta.csv", "network_delta.csv", "trajectory_delta.csv",
        "trace_gamma.csv", "map_gamma.csv", "network_gamma.csv", "trajectory_gamma.csv",
        "observables.csv", "verdicts.csv", "summary.txt",
        "step.svg", "amari.svg", "harmony.svg", "dissimilarity.svg",
    }
    for name in names_a:
        assert names_a[name] == names_b[name]


def blas_kernel():
    """The kernel OpenBLAS picked for this CPU, as numpy's bundled library names it."""
    for path in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def test_shipped_experiment_artifacts_keep_their_bytes(report, tmp_path):
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in write_report(report, tmp_path)}
    # only the digested names are compared, so a new artifact file does not fail this;
    # the digests are the bytes under OpenBLAS's SkylakeX kernel
    assert {name: written.get(name) for name in DEMO_DIGESTS} == DEMO_DIGESTS, (
        "artifact bytes differ under OpenBLAS kernel %s" % blas_kernel())


@pytest.mark.parametrize("step", [0, 3])
def test_a_nan_observable_is_never_invariant(config, report, monkeypatch, step):
    real_amari = harness.amari
    poisoned = []

    def amari_with_a_nan(state):  # NaN at ``step`` of the first encoding only
        if state.macro == step and not poisoned:
            poisoned.append(state)
            return math.nan
        return real_amari(state)

    monkeypatch.setattr(harness, "amari", amari_with_a_nan)
    nan_report = run_experiment(config)
    assert [run.name for run in nan_report.runs] == ["delta", "gamma"]
    assert math.isnan(nan_report.runs[0].series["amari"][step][1])
    by_obs = {v.observable: v for v in nan_report.verdicts}
    assert math.isnan(by_obs["amari"].max_abs_delta) and not by_obs["amari"].invariant
    assert [v for v in nan_report.verdicts if v.observable != "amari"] == [
        v for v in report.verdicts if v.observable != "amari"]
    assert "amari (delta vs gamma): NOT invariant, max |delta| = nan" in report_text(nan_report)


def _identity(cell):
    return dataclasses.replace(cell, a1=Fraction(0), a2=Fraction(0), lam1=Fraction(1), lam2=Fraction(1))


def _plant(monkeypatch, config, encoding, faults):
    """Build ``encoding``'s table with each (stack top, input head) cell of
    ``faults`` replaced by its function's image of the true cell."""
    real = harness.from_versatile_shift
    names = iter(tables.name for tables in config.encodings)  # tables are built in this order

    def planted(machine, pair):
        nda = real(machine, pair)
        if next(names) != encoding:
            return nda
        cells = list(nda.cells)
        for (top, head), fault in faults.items():
            k = pair.input.digit(head) * nda.y_cells + pair.stack.digit(top)
            cells[k] = fault(cells[k])
        return dataclasses.replace(nda, cells=tuple(cells))

    monkeypatch.setattr(harness, "from_versatile_shift", planted)


# The demo trace visits the windows (S, NP), (NP, NP), (VP, V), (V, V), (NP, NP)
# and the halt window (blank, blank); the expected texts and points were
# recorded from the build that re-stepped every trace row.
WRONG_IMAGES = [
    ("delta", {("VP", "V"): _identity}, 2,
     DottedSequence(("VP",), ("V", "NP")),
     PhasePoint(Fraction(5, 9), Fraction(1, 5)), PhasePoint(Fraction(5, 9), Fraction(19, 25))),
    ("gamma", {("NP", "NP"): _identity}, 1,
     DottedSequence(("NP", "VP"), ("NP", "V", "NP")),
     PhasePoint(Fraction(16, 27), Fraction(8, 25)), PhasePoint(Fraction(7, 9), Fraction(3, 5))),
    # the final row is the accept fixed point: its image must be itself
    ("delta", {(BLANK, BLANK): lambda c: dataclasses.replace(c, a2=Fraction(1, 2))}, 5,
     DottedSequence(), PhasePoint(0, Fraction(1, 2)), PhasePoint(0, 0)),
    # the first disagreement wins over a later cell that leaves the square
    ("delta", {("VP", "V"): _identity, ("V", "V"): lambda c: dataclasses.replace(c, a1=Fraction(1))}, 2,
     DottedSequence(("VP",), ("V", "NP")),
     PhasePoint(Fraction(5, 9), Fraction(1, 5)), PhasePoint(Fraction(5, 9), Fraction(19, 25))),
]


@pytest.mark.parametrize("encoding, faults, t, state, image, want", WRONG_IMAGES,
                         ids=["delta-t2", "gamma-t1", "delta-final-row", "delta-first-of-two"])
def test_a_wrong_cell_on_the_trace_is_a_divergence(config, monkeypatch, encoding, faults, t, state, image, want):
    _plant(monkeypatch, config, encoding, faults)
    with pytest.raises(DivergenceError) as err:
        run_experiment(config)
    assert str(err.value) == "map image disagrees with machine at t=%d under encoding %s" % (t, encoding)
    assert err.value.counterexample == (state, image, want)


LEAVING_IMAGES = [
    ("gamma", ("V", "V"), lambda c: dataclasses.replace(c, a1=Fraction(1)),
     "cell (2, 2) mapped PhasePoint(y1=Fraction(7, 9), y2=Fraction(11, 25)) outside the unit square: "
     "phase coordinates must lie in [0, 1), got 10/3"),
    ("delta", ("S", "NP"), lambda c: dataclasses.replace(c, a2=Fraction(-1)),
     "cell (2, 2) mapped PhasePoint(y1=Fraction(23, 27), y2=Fraction(2, 5)) outside the unit square: "
     "phase coordinates must lie in [0, 1), got -23/25"),
]


@pytest.mark.parametrize("encoding, window, fault, message", LEAVING_IMAGES, ids=["gamma-t3", "delta-t0"])
def test_a_cell_on_the_trace_that_leaves_the_square_is_internal(config, monkeypatch, encoding, window, fault, message):
    _plant(monkeypatch, config, encoding, {window: fault})
    with pytest.raises(InternalConsistencyError) as err:
        run_experiment(config)
    assert str(err.value) == message


def test_cli_parse(capsys):
    code = cli.main(["parse", str(CONFIG_DIR / "parser.grammar"), "NP", "V", "NP"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: accept" in out
    assert "t=0   S . NP V NP   [predict(S -> NP VP)]" in out


@pytest.mark.parametrize("argv,want", [
    (["NP", "V", "NP"],
     "t=0   S . NP V NP   [predict(S -> NP VP)]\n"
     "t=1   VP NP . NP V NP   [attach]\n"
     "t=2   VP . V NP   [predict(VP -> V NP)]\n"
     "t=3   NP V . V NP   [attach]\n"
     "t=4   NP . NP   [attach]\n"
     "t=5   ε . ε   [accept]\n"
     "verdict: accept\n"),
    (["V"],
     "t=0   S . V   [predict(S -> NP VP)]\n"
     "t=1   VP NP . V   [halt-reject]\n"
     "verdict: halt-reject\n"),
    (["NP", "NP"],
     "t=0   S . NP NP   [predict(S -> NP VP)]\n"
     "t=1   VP NP . NP NP   [attach]\n"
     "t=2   VP . NP   [predict(VP -> V NP)]\n"
     "t=3   NP V . NP   [halt-reject]\n"
     "verdict: halt-reject\n"),
    (["NP", "V", "NP", "--max-steps", "2"],
     "t=0   S . NP V NP   [predict(S -> NP VP)]\n"
     "t=1   VP NP . NP V NP   [attach]\n"
     "t=2   VP . V NP   [step-limit]\n"
     "verdict: step-limit\n"),
])
def test_cli_parse_stdout_keeps_its_bytes(argv, want, capsys):
    assert cli.main(["parse", str(CONFIG_DIR / "parser.grammar")] + argv) == cli.EXIT_OK
    assert capsys.readouterr().out == want


def test_cli_parse_writes_the_demo_trace_csv(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    argv = ["parse", str(CONFIG_DIR / "parser.grammar"), "NP", "V", "NP", "--csv", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith("verdict: accept\ntrace written to %s\n" % path)
    # the trace is symbolic, so the shipped run writes the same bytes under every encoding
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEMO_DIGESTS["trace_gamma.csv"]


def test_cli_parse_missing_grammar(capsys):
    code = cli.main(["parse", "/nonexistent.grammar", "NP"])
    assert code == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_parse_refuses_a_negative_step_budget(capsys):
    grammar = str(CONFIG_DIR / "parser.grammar")
    assert cli.main(["parse", grammar, "NP", "V", "NP", "--max-steps", "-1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: max_steps must be an integer >= 0, got -1\n"
    # a zero budget prints the start row with the step-limit verdict
    assert cli.main(["parse", grammar, "NP", "V", "NP", "--max-steps", "0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "t=0   S . NP V NP   [step-limit]\nverdict: step-limit\n"


def test_cli_orbit(capsys):
    code = cli.main(["orbit", "aaabcabc"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:2] == ["aaabcabc", "aaacbacb"]
    assert "orbit size: 6" in out


def test_cli_orbit_of_one_repeated_symbol_and_of_the_empty_word(capsys):
    # "aaa" uses one symbol, so m = 1 and the orbit is the word itself; "" uses none, and m = 0 is refused
    assert cli.main(["orbit", "aaa"]) == cli.EXIT_OK
    assert capsys.readouterr() == ("aaa\norbit size: 1\n", "")
    assert cli.main(["orbit", ""]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: base m must be an integer >= 1, got 0\n")


def test_cli_orbit_digits(capsys):
    for word in ("010", "001"):
        code = cli.main(["orbit", word, "--m", "3", "--pinned"])
        out = capsys.readouterr().out
        assert code == 0
        assert "orbit size: 2" in out


def test_cli_orbit_past_the_budget_exits_4(capsys):
    # P(40, 7) images, then the 2,000,000 images of one digit, whose universe is never built
    for word, m in (("0123456", "40"), ("0", "2000000")):
        start = time.perf_counter()
        assert cli.main(["orbit", word, "--m", m]) == cli.EXIT_CONFIG
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", "error: orbit needs more than its budget of 1000000 images\n")


def test_cli_partition(tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    svg_path = tmp_path / "cells.svg"
    code = cli.main(["partition", "--m", "3", "--l", "2", "--r", "3",
                     "--mode", "joint", "--csv", str(csv_path), "--svg", str(svg_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "41 classes" in out
    assert csv_path.is_file() and svg_path.is_file()


@pytest.mark.parametrize("argv, want", [
    ("--m 3 --l 2", "interval partition: m=3 l=2, 9 cells, 2 classes\n"),
    ("--m 3 --l 2 --pinned", "interval partition: m=3 l=2, 9 cells, 5 classes\n"),
    ("--m 2 --l 0", "interval partition: m=2 l=0, 1 cells, 1 classes\n"),
    ("--m 3 --l 1 --r 2 --mode product --m-right 5 --pinned",
     "square partition (product): 3 x 25 cells, 10 classes\n"),
    ("--m 3 --l 2 --r 0", "square partition (joint): 9 x 1 cells, 2 classes\n"),
    ("--m 3 --l 2 --r 2 --mode joint --pinned", "square partition (joint): 9 x 9 cells, 41 classes\n"),
])
def test_cli_partition_stdout_keeps_its_bytes(argv, want, tmp_path, capsys):
    assert cli.main(["partition"] + argv.split()) == cli.EXIT_OK
    assert capsys.readouterr().out == want
    csv_path, svg_path = tmp_path / "cells.csv", tmp_path / "cells.svg"
    argv += " --csv %s --svg %s" % (csv_path, svg_path)
    assert cli.main(["partition"] + argv.split()) == cli.EXIT_OK
    assert capsys.readouterr().out == want + "written %s\nwritten %s\n" % (csv_path, svg_path)


#: sha256 of the CSV and SVG files ``partition`` writes, recorded from the
#: build that wrote them through ``patterns.write_class_map``.
PARTITION_FILE_DIGESTS = [
    ("--m 3 --l 2 --r 3", "79a00993c280756839799281e1c3bfdbb576668c3ab8f1ed825432877b6bc998",
     "c8396bbc75443d7f448fabe3683ad79f89e20b5076dab980d1666c43540731d2"),
    ("--m 3 --l 4 --pinned", "85a7275758d7e829144a3d9f88a86c36d9a8d1a187bb9d5231ec832e7729c47d",
     "d8793995caca2ff6d0dba0cbcfd33770aba69835666d711316f15cab05479307"),
]


@pytest.mark.parametrize("argv, csv_digest, svg_digest", PARTITION_FILE_DIGESTS,
                         ids=[argv for argv, _, _ in PARTITION_FILE_DIGESTS])
def test_cli_partition_files_keep_their_bytes(argv, csv_digest, svg_digest, tmp_path, capsys):
    csv_path, svg_path = tmp_path / "cells.csv", tmp_path / "cells.svg"
    assert cli.main(["partition"] + argv.split() + ["--csv", str(csv_path), "--svg", str(svg_path)]) == cli.EXIT_OK
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == svg_digest


@pytest.mark.parametrize("argv, flag", [
    ("--m 3 --l 2 --m-right 4", "--m-right"),
    ("--m 3 --l 2 --mode product", "--mode"),
    ("--m 3 --l 2 --mode joint --pinned", "--mode"),
])
def test_cli_partition_refuses_square_flags_without_r(argv, flag, tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["partition"] + argv.split() + ["--csv", str(csv_path)])
    assert exc.value.code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and not csv_path.exists()
    assert err.startswith("usage: godelnet partition")
    assert err.endswith("godelnet partition: error: %s applies to the square partition only; give --r too\n" % flag)


@pytest.mark.parametrize("argv, message", [
    ("--m 3 --l 3000000", "interval partition needs more than its budget of 1000000 cells"),
    ("--m 3 --l 3000", "interval partition needs more than its budget of 1000000 cells"),
    ("--m 3 --l 13", "interval partition needs 1594323 cells, budget is 1000000"),
    ("--m 3 --l 2 --r 3000000", "square partition needs more than its budget of 1000000 cells"),
], ids=["l=3000000", "l=3000", "l=13", "r=3000000"])
def test_cli_partition_over_the_cell_budget_exits_4(argv, message, tmp_path, capsys):
    csv_path = tmp_path / "cells.csv"
    assert cli.main(["partition"] + argv.split() + ["--csv", str(csv_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not csv_path.exists()


@pytest.mark.parametrize("window", ["10000000 3", "2 10000000"], ids=["stack", "input"])
def test_an_observable_window_over_the_cell_budget_is_refused(tmp_path, capsys, window):
    path = _shipped_config_with(tmp_path, "window = 2 3\n", "window = %s\n" % window)
    message = "square partition needs more than its budget of 1000000 cells"
    with pytest.raises(ResourceLimitError, match="^%s$" % message):
        run_experiment(load_config(path))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "out").exists()


def test_cli_run(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = cli.main(["run", str(CONFIG_DIR / "experiment.ini"), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: ok" in out
    assert (out_dir / "observables.csv").is_file()


def test_cli_run_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[grammar]\n", encoding="utf-8")
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG


def test_cli_run_with_one_encoding_exits_4(tmp_path, capsys):
    # a verdict compares encodings, so a single one would compare nothing
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    path = _shipped_config_with(tmp_path, text[text.index("[encoding:delta:input]"):], "")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    message = "at least two [encoding:NAME:input/stack] pairs are required, got 1"
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["zz/top", "de/lta"])
def test_cli_run_refuses_an_encoding_name_with_a_slash_before_running(name, tmp_path, capsys):
    # the name is part of the artifact file names, so a '/' would fail halfway through writing
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    path = tmp_path / "experiment.ini"
    path.write_text(text.replace("[encoding:delta:", "[encoding:%s:" % name), encoding="utf-8")
    shutil.copy(CONFIG_DIR / "parser.grammar", tmp_path)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    message = ("bad encoding section [encoding:%s:input]; NAME is part of artifact file names, "
               "so it cannot contain '/'" % name)
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert not (tmp_path / "out").exists()


def test_cli_run_exits_3_when_a_network_leaves_the_exact_orbit(tmp_path, monkeypatch, capsys):
    real = harness.synthesize

    def offset(nda):  # every cell's y1 unit lands 1e-6 off the exact image, far above SOUNDNESS
        spec = real(nda)
        ltl = spec.banks["ltl"].copy()
        ltl[0::2, 1] += 1e-6  # the y1 units' always-on weight
        return NetworkSpec({**spec.banks, "ltl": ltl}, spec.x_cells, spec.y_cells)

    monkeypatch.setattr(harness, "synthesize", offset)
    assert cli.main(["run", str(CONFIG_DIR / "experiment.ini"), "--out", str(tmp_path / "out")]) == cli.EXIT_DIVERGENCE
    assert "left the exact orbit at macro step 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_reports_invariance_failure(tmp_path, monkeypatch, report, capsys):
    failing = Verdict(observable="step", enc_a="delta", enc_b="gamma",
                      max_abs_delta=0.25, invariant=False)
    broken = dataclasses.replace(report, verdicts=(failing,))
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: broken)
    code = cli.main(["run", str(CONFIG_DIR / "experiment.ini"),
                     "--out", str(tmp_path / "x")])
    assert code == cli.EXIT_INVARIANCE
    assert "NOT invariant" in capsys.readouterr().out


def test_cli_check_subset(capsys):
    code = cli.main(["check", "--suites", "recoding"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 suites passed" in out


def test_cli_check_rejects_unknown_suite(capsys):
    assert cli.main(["check", "--suites", "nosuch"]) == cli.EXIT_CONFIG
    assert cli.main(["check", "--suites", ""]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nothing to check" in err


def test_cli_check_exit_codes(monkeypatch, capsys):
    from godelnet.checks import CheckResult

    def fake(names, seed=0):
        return [CheckResult("invariance", False, "boom")]

    monkeypatch.setattr(cli, "run_checks", fake)
    assert cli.main(["check"]) == cli.EXIT_INVARIANCE

    def fake2(names, seed=0):
        return [CheckResult("commutation", False, "boom", counterexample=("w",))]

    monkeypatch.setattr(cli, "run_checks", fake2)
    assert cli.main(["check"]) == cli.EXIT_DIVERGENCE
    assert "counterexample" in capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["partition"])  # missing required options
    assert exc.value.code == cli.EXIT_CONFIG
