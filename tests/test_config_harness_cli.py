"""Configuration loading, the experiment driver, and the CLI."""

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from godelnet import cli, load_config
from godelnet.errors import ConfigError
from godelnet.harness import (
    Verdict,
    observables_csv,
    report_text,
    run_experiment,
    verdicts_csv,
    write_report,
)

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


def test_cli_parse(capsys):
    code = cli.main(["parse", str(CONFIG_DIR / "parser.grammar"), "NP", "V", "NP"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: accept" in out
    assert "t=0   S . NP V NP   [predict(S -> NP VP)]" in out


def test_cli_parse_missing_grammar(capsys):
    code = cli.main(["parse", "/nonexistent.grammar", "NP"])
    assert code == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_orbit(capsys):
    code = cli.main(["orbit", "aaabcabc"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[:2] == ["aaabcabc", "aaacbacb"]
    assert "orbit size: 6" in out


def test_cli_orbit_digits(capsys):
    code = cli.main(["orbit", "010", "--m", "3", "--pinned"])
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


def test_cli_run_reports_invariance_failure(tmp_path, monkeypatch, report, capsys):
    failing = Verdict(observable="step", enc_a="delta", enc_b="gamma",
                      max_abs_delta=0.25, invariant=False, expected_invariant=True)
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
