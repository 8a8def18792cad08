"""The check suites must pass on the real code and catch planted faults."""

from fractions import Fraction

import pytest

from godelnet import PhasePoint, nda_step, rho_pi, ultrametric
from godelnet.checks import (
    SUITES,
    check_commutation,
    check_cylinders,
    check_invariance,
    check_network,
    check_orbits,
    check_partitions,
    check_recoding,
    check_ultrametric,
    run_checks,
    suite_names,
)
from godelnet.errors import ConfigError


def test_every_suite_has_a_callable():
    assert suite_names() == [name for name, _ in SUITES]
    assert len(set(suite_names())) == len(SUITES)


@pytest.mark.parametrize("fn", [check_recoding, check_partitions])
def test_fast_suites_pass(fn):
    result = fn(seed=3)
    assert result.ok, result.detail


def test_run_checks_selection_errors():
    with pytest.raises(ConfigError, match="nothing to check"):
        run_checks([])
    with pytest.raises(ConfigError, match="nosuch"):
        run_checks(["nosuch"])


def test_run_checks_turns_crashes_into_failures(monkeypatch):
    import godelnet.checks as checks

    def explode(seed=0):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(checks, "SUITES", (("recoding", explode),))
    (result,) = checks.run_checks(["recoding"])
    assert not result.ok and "kaboom" in result.detail


def test_ultrametric_suite_catches_non_ultrametric_metric():
    def euclidean(p, q, m, tail=0):
        from godelnet.symbols import encode_digits
        return abs(encode_digits(p, m) - encode_digits(q, m))

    result = check_ultrametric(metric=euclidean)
    assert not result.ok
    assert result.counterexample is not None


def test_cylinder_suite_catches_scaled_metric():
    # dividing by m claims one extra resolution level of closeness
    def shrunk(p, q, m, tail=0):
        return ultrametric(p, q, m, tail=tail) / m

    result = check_cylinders(metric=shrunk, samples=100)
    assert not result.ok


def test_orbit_suite_catches_length_only_criterion():
    def sloppy(w, u, m, blank_pinned=False):
        return len(w) == len(u)

    result = check_orbits(same_orbit_fn=sloppy)
    assert not result.ok
    assert result.counterexample is not None


def test_orbit_suite_passes_on_real_criterion(suite_runs):
    result, _ = suite_runs["orbits"]  # check_orbits(same_orbit_fn=same_orbit) at seed 0
    assert result.ok


def test_commutation_suite_catches_perturbed_step():
    def drifting(nda, point):
        moved = nda_step(nda, point)
        return PhasePoint(moved.y1, (moved.y2 + Fraction(1, 1000)) % 1)

    result = check_commutation(machines=2, tapes=20, step_fn=drifting)
    assert not result.ok


def test_commutation_suite_passes(seed=5):
    result = check_commutation(seed=seed, machines=3, tapes=30)
    assert result.ok, result.detail


def test_invariance_suite_catches_non_rigid_motion():
    def sheared(point, pair, window, bases):
        moved = rho_pi(point, pair, window, bases)
        return PhasePoint((moved.y1 + Fraction(1, 2)) % 1, moved.y2)

    result = check_invariance(move_fn=sheared)
    assert not result.ok


def test_network_suite_passes():
    result = check_network(seed=1)
    assert result.ok, result.detail
