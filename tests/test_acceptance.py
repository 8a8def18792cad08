"""End-to-end acceptance checks.

Each test pins one externally meaningful behaviour of the package and prints
a single PASS/FAIL line, so ``pytest -v -rA tests/test_acceptance.py``
doubles as a go/no-go report.  Expected values here are frozen results of
independent hand computation; do not regenerate them from the code under
test.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from godelnet.checks import suite_names
from godelnet.cli import main as cli_main
from godelnet.config import load_config
from godelnet.harness import run_experiment
from godelnet.network import embed, na_run, synthesize
from godelnet.nda import nda_run
from godelnet.patterns import orbit, square_partition

REPO = Path(__file__).resolve().parents[1]


@contextmanager
def criterion(label):
    """Guarantee exactly one verdict line for the wrapped block."""
    try:
        yield
    except BaseException:
        print("FAIL: %s" % label)
        raise
    print("PASS: %s" % label)


@pytest.fixture(scope="module")
def report():
    config = load_config(REPO / "configs" / "experiment.ini")
    return run_experiment(config)


def test_cli_parse_traces_the_three_word_sentence_exactly(capsys):
    grammar = REPO / "configs" / "parser.grammar"
    start = time.perf_counter()
    code = cli_main(["parse", str(grammar), "NP", "V", "NP"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    expected = [
        "t=0   S . NP V NP   [predict(S -> NP VP)]",
        "t=1   VP NP . NP V NP   [attach]",
        "t=2   VP . V NP   [predict(VP -> V NP)]",
        "t=3   NP V . V NP   [attach]",
        "t=4   NP . NP   [attach]",
        "t=5   ε . ε   [accept]",
        "verdict: accept",
    ]
    with criterion("parser emits the exact six-row accepting trace in under 1 s"):
        assert code == 0
        assert out == expected
        assert elapsed < 1.0


def test_pattern_criterion_agrees_with_permutation_search(suite_runs):
    result, elapsed = suite_runs["orbits"]
    with criterion("pattern criterion matches brute-force search on every pair "
                   "(m in {2, 3}, lengths <= 5) in under 60 s"):
        assert result.ok, (result.detail, result.counterexample)
        assert elapsed < 60.0


def test_orbit_of_aaabcabc_is_exactly_six_words():
    expected = {
        tuple("aaabcabc"),
        tuple("aaacbacb"),
        tuple("bbbacbac"),
        tuple("bbbcabca"),
        tuple("cccabcab"),
        tuple("cccbacba"),
    }
    with criterion("orbit of 'aaabcabc' over a 3-symbol alphabet is exactly "
                   "the six known recodings"):
        assert orbit(tuple("aaabcabc"), 3) == expected


def test_joint_square_partition_groups_the_six_known_rectangles():
    cmap = square_partition(3, 2, 3, mode="joint")
    class_id = cmap.class_of((6, 10))
    with criterion("joint partition of the 9 x 27 square puts exactly the six "
                   "known rectangles into one class"):
        assert set(cmap.members(class_id)) == {
            (1, 23), (2, 16), (3, 20), (5, 6), (6, 10), (7, 3),
        }


def test_metric_balls_coincide_with_grid_cells(suite_runs):
    result, _ = suite_runs["cylinders"]
    with criterion("ultrametric balls coincide with base-3 grid cells "
                   "(exhaustive to depth 4 plus 10^4 random pairs)"):
        assert result.ok, (result.detail, result.counterexample)


def test_encoding_commutes_with_machine_steps(suite_runs):
    result, _ = suite_runs["commutation"]  # 10 machines x 100 tapes by default
    with criterion("encoding then stepping equals stepping then encoding, "
                   "exactly, on the demo run and 10 random machines x 100 tapes"):
        assert result.ok, (result.detail, result.counterexample)


def test_network_tracks_the_exact_orbit_with_72_units(plain_nda, mixed_nda,
                                                      plain_start, mixed_start):
    with criterion("synthesized 72-unit network stays within 1e-9 of the exact "
                   "orbit for both encodings"):
        for nda, start in ((plain_nda, plain_start), (mixed_nda, mixed_start)):
            spec = synthesize(nda)
            assert spec.n == 72
            run = na_run(spec, embed(spec, start), 6, reference=nda, point=start)
            assert not run.diverged
            assert run.max_divergence <= 1e-9


def test_step_observable_is_encoding_invariant(report, suite_runs):
    runs = {run.name: run for run in report.runs}
    gamma = [value for _, value in runs["gamma"].series["step"]]
    delta = [value for _, value in runs["delta"].series["step"]]
    suite, _ = suite_runs["invariance"]
    with criterion("step observable series agree exactly across encodings at "
                   "every macro step, and recoding moves never change it"):
        assert len(gamma) == len(delta) == 7
        assert gamma == delta
        assert suite.ok, (suite.detail, suite.counterexample)


def test_mean_activity_separates_the_encodings(report):
    runs = {run.name: run for run in report.runs}
    gamma = [value for _, value in runs["gamma"].series["amari"]]
    delta = [value for _, value in runs["delta"].series["amari"]]
    with criterion("mean network activity differs between encodings by more "
                   "than 1e-6 at some macro step"):
        assert max(abs(a - b) for a, b in zip(gamma, delta)) > 1e-6


def test_all_property_suites_pass_at_desk_scale(suite_runs):
    failed = [name for name, (result, _) in suite_runs.items() if not result.ok]
    elapsed = sum(seconds for _, seconds in suite_runs.values())
    with criterion("all self-check suites pass in under five minutes"):
        assert list(suite_runs) == suite_names()
        assert not failed, failed
        assert elapsed < 300.0
