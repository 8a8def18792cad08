"""Configuration loading, the experiment driver, and the CLI."""

import dataclasses
import hashlib
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

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
from godelnet.network import SOUNDNESS

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


def test_config_without_tolerances_uses_the_network_soundness(tmp_path):
    ini = tmp_path / "bare.ini"
    ini.write_text("[grammar]\npath = g\nsentence = a\n[encoding:e:input]\na = 1\n[encoding:e:stack]\na = 1\n",
                   encoding="utf-8")
    cfg = load_config(ini)
    assert (cfg.soundness, cfg.step_invariance) == (SOUNDNESS, 0.0)
    # the dataclass defaults are the loader's fallbacks
    assert ExperimentConfig(cfg.grammar_path, cfg.sentence, encodings=cfg.encodings) == cfg


@pytest.mark.parametrize("sections", ["", "[run]\n[tolerances]\n[observables]\n"], ids=["absent", "empty"])
def test_config_defaults_are_the_dataclass_defaults(tmp_path, sections):
    ini = tmp_path / "bare.ini"
    ini.write_text("[grammar]\npath = g\nsentence = a b\n" + sections
                   + "[encoding:e:input]\na = 1\n[encoding:e:stack]\na = 2\n", encoding="utf-8")
    pair = EncodingTables("e", ((BLANK, 0), ("a", 1)), ((BLANK, 0), ("a", 2)))
    assert load_config(ini) == ExperimentConfig(tmp_path / "g", ("a", "b"), encodings=(pair,))


def _shipped_config_with(tmp_path, old, new):
    """The shipped config, next to its grammar, with one line replaced."""
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "experiment.ini"
    path.write_text(text.replace(old, new), encoding="utf-8")
    shutil.copy(CONFIG_DIR / "parser.grammar", tmp_path)
    return path


@pytest.mark.parametrize("key, default", [("soundness", "1e-9"), ("step_invariance", "0")])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_config_rejects_tolerances_that_are_not_finite_and_nonnegative(tmp_path, key, default, value):
    path = _shipped_config_with(tmp_path, "%s = %s\n" % (key, default), "%s = %s\n" % (key, value))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "%s must be a finite number >= 0, got %r" % (key, float(value))


@pytest.mark.parametrize("old, new, message", [
    ("sentence = NP V NP\n", "sentence = NP V NP\nstart = S\n",
     "[grammar] unknown key 'start'; expected one of path, sentence"),
    ("macro_steps = 6\n", "macro_step = 2\n",
     "[run] unknown key 'macro_step'; expected one of id, macro_steps"),
    ("soundness = 1e-9\n", "soundnes = 1e-9\n",
     "[tolerances] unknown key 'soundnes'; expected one of soundness, step_invariance"),
    ("amari = on\n", "amary = off\n",
     "[observables] unknown key 'amary'; expected one of window, seed, step, amari, harmony, dissimilarity"),
    ("[observables]\n", "[observable]\n",
     "unknown section [observable]; expected [grammar], [run], [tolerances], [observables]"
     " or [encoding:NAME:input|stack]"),
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
    # the README shows the shipped config with its gamma encoding only
    want = dataclasses.replace(config, grammar_path=tmp_path / "parser.grammar", encodings=config.encodings[1:])
    assert load_config(tmp_path / "experiment.ini") == want


def test_config_rejects_unknown_symbols(tmp_path, config):
    text = (CONFIG_DIR / "experiment.ini").read_text(encoding="utf-8")
    broken = tmp_path / "broken.ini"
    broken.write_text(text.replace("VP = 3", "XX = 3"), encoding="utf-8")
    (tmp_path / "parser.grammar").write_text(
        (CONFIG_DIR / "parser.grammar").read_text(encoding="utf-8"), encoding="utf-8")
    cfg = load_config(broken)
    with pytest.raises(ConfigError, match="gamma"):
        run_experiment(cfg)


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


def test_shipped_experiment_artifacts_keep_their_bytes(report, tmp_path):
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in write_report(report, tmp_path)}
    # only the digested names are compared, so a new artifact file does not fail this
    assert {name: written.get(name) for name in DEMO_DIGESTS} == DEMO_DIGESTS


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


def test_cli_parse_missing_grammar(capsys):
    code = cli.main(["parse", "/nonexistent.grammar", "NP"])
    assert code == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_parse_refuses_a_negative_step_budget(capsys):
    grammar = str(CONFIG_DIR / "parser.grammar")
    assert cli.main(["parse", grammar, "NP", "V", "NP", "--max-steps", "-1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: max_steps must be >= 0, got -1\n"
    # a zero budget prints the start row with the step-limit verdict
    assert cli.main(["parse", grammar, "NP", "V", "NP", "--max-steps", "0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "t=0   S . NP V NP   [step-limit]\nverdict: step-limit\n"


def test_cli_orbit(capsys):
    code = cli.main(["orbit", "aaabcabc"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:2] == ["aaabcabc", "aaacbacb"]
    assert "orbit size: 6" in out


def test_cli_orbit_digits(capsys):
    for word in ("010", "001"):
        code = cli.main(["orbit", word, "--m", "3", "--pinned"])
        out = capsys.readouterr().out
        assert code == 0
        assert "orbit size: 2" in out


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


def test_cli_run_refuses_a_nan_soundness(tmp_path, capsys):
    path = _shipped_config_with(tmp_path, "soundness = 1e-9\n", "soundness = nan\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: soundness must be a finite number >= 0, got nan\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_exits_3_when_a_network_leaves_the_exact_orbit(tmp_path, capsys):
    # a zero tolerance is valid, and the demo networks deviate by about 1e-14
    path = _shipped_config_with(tmp_path, "soundness = 1e-9\n", "soundness = 0\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_DIVERGENCE
    assert "left the exact orbit at macro step" in capsys.readouterr().err
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
