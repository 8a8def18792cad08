"""Shared fixtures: the demo machine, its two encodings, frozen orbits,
one seed-0 run of every check suite, and the chain-grammar machine builder."""

import time
from fractions import Fraction

import pytest

from godelnet import compile_cfg_topdown, encode_tape, from_versatile_shift, initial_state, parse_grammar
from godelnet.checks import DEMO_SENTENCE, demo_encodings, demo_machine, run_checks, suite_names


@pytest.fixture(scope="session")
def suite_runs():
    """Each check suite run once at seed 0 through ``run_checks``:
    suite name -> (CheckResult, elapsed seconds), in registry order."""
    runs = {}
    for name in suite_names():
        start = time.perf_counter()
        (result,) = run_checks([name])
        runs[name] = (result, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="session")
def plain_orbit():
    """Exact phase-point orbit of the demo parse under the "plain" encoding;
    the run accepts at t=5 and then stays at the origin."""
    return (
        (Fraction(16, 27), Fraction(4, 5)),
        (Fraction(16, 27), Fraction(8, 25)),
        (Fraction(7, 9), Fraction(3, 5)),
        (Fraction(7, 9), Fraction(11, 25)),
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )


@pytest.fixture(scope="session")
def mixed_orbit():
    """The same orbit under the "mixed" encoding."""
    return (
        (Fraction(23, 27), Fraction(2, 5)),
        (Fraction(23, 27), Fraction(21, 25)),
        (Fraction(5, 9), Fraction(1, 5)),
        (Fraction(5, 9), Fraction(19, 25)),
        (Fraction(2, 3), Fraction(4, 5)),
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0)),
    )


@pytest.fixture(scope="session")
def machine():
    return demo_machine()


def _chain_machine(k):
    """G_k: S -> t0 A1, A_i -> t_i A_{i+1}, ..., A_{k-1} -> t_{k-1} t_k."""
    lines = ["S -> t0 A1"] + ["A%d -> t%d A%d" % (i, i, i + 1) for i in range(1, k - 1)]
    lines.append("A%d -> t%d t%d" % (k - 1, k - 1, k))
    return compile_cfg_topdown(parse_grammar("\n".join(lines)))


@pytest.fixture(scope="session")
def chain_machine():
    """The builder of G_k's machine; each call compiles a new one."""
    return _chain_machine


@pytest.fixture(scope="session")
def encodings(machine):
    return demo_encodings(machine)


@pytest.fixture(scope="session")
def plain(encodings):
    return encodings["plain"]


@pytest.fixture(scope="session")
def mixed(encodings):
    return encodings["mixed"]


@pytest.fixture(scope="session")
def start_state(machine):
    return initial_state(machine, DEMO_SENTENCE, "S")


@pytest.fixture(scope="session")
def plain_nda(machine, plain):
    return from_versatile_shift(machine, plain)


@pytest.fixture(scope="session")
def mixed_nda(machine, mixed):
    return from_versatile_shift(machine, mixed)


@pytest.fixture(scope="session")
def plain_start(start_state, plain):
    return encode_tape(start_state, plain)


@pytest.fixture(scope="session")
def mixed_start(start_state, mixed):
    return encode_tape(start_state, mixed)
