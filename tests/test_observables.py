"""Observables, recoding motions, and their invariance contract."""

import math
from fractions import Fraction

import numpy as np
import pytest

from godelnet import (
    NeuralState,
    PermutationPair,
    PhasePoint,
    alpha_pi,
    amari,
    build_step_observable,
    dissimilarity,
    embed,
    harmony,
    rho_pi,
    step_observable,
    synthesize,
)
from godelnet.errors import DomainError
from godelnet.observables import digits_from_float

WINDOW = (2, 3)  # (stack, input) window lengths
BASES = (3, 5)  # (input, stack) alphabet sizes


@pytest.fixture(scope="module")
def obs():
    return build_step_observable(2, 3, 3, 5, seed=11)


@pytest.fixture(scope="module")
def swap_pair():
    return PermutationPair((0, 2, 1), (0, 4, 3, 1, 2))


def _floats(y1, y2):
    """A float state holding (y1, y2) in its MCL."""
    return NeuralState(x=np.array([y1, y2], dtype=np.float64))


def test_digits_from_float_snapping():
    assert digits_from_float(5 / 9, 3, 2) == (1, 2)
    assert digits_from_float(5 / 9 - 1e-9, 3, 2) == (1, 2)
    assert digits_from_float(5 / 9 - 1e-3, 3, 2) == (1, 1)
    assert digits_from_float(0.0, 3, 2) == (0, 0)
    assert digits_from_float(1.0 - 1e-13, 3, 2) == (2, 2)
    with pytest.raises(DomainError):
        digits_from_float(1.1, 3, 2)


def test_coefficients_are_distinct_and_seeded(obs):
    count = obs.class_map.class_count
    assert len(set(obs.coefficients)) == count
    assert all(0 < c <= 1 for c in obs.coefficients)
    again = build_step_observable(2, 3, 3, 5, seed=11)
    assert again.coefficients == obs.coefficients
    other = build_step_observable(2, 3, 3, 5, seed=12)
    assert other.coefficients != obs.coefficients


def test_cell_lookup_exact_and_float_agree(obs):
    for point in (
        PhasePoint(Fraction(16, 27), Fraction(4, 5)),
        PhasePoint(Fraction(7, 9), Fraction(11, 25)),
        PhasePoint(Fraction(0), Fraction(0)),
    ):
        exact = obs.cell_of(point)
        y1, y2 = point.as_floats()
        assert obs.cell_of(_floats(y1, y2)) == exact
        assert obs.cell_of(_floats(y1 - 1e-10, y2 + 1e-10)) == exact


def test_step_observable_on_network_state(plain_nda, obs, plain_start):
    spec = synthesize(plain_nda)
    state = embed(spec, plain_start)
    assert step_observable(obs, state) == step_observable(obs, plain_start)


def test_step_observable_invariant_under_recoding(obs, swap_pair, plain_orbit, mixed_orbit):
    for (g1, g2), (d1, d2) in zip(plain_orbit, mixed_orbit):
        a = PhasePoint(g1, g2)
        b = PhasePoint(d1, d2)
        assert rho_pi(a, swap_pair, WINDOW, BASES) == b
        assert step_observable(obs, a) == step_observable(obs, b)


def test_amari_and_harmony_formulas():
    x = NeuralState(x=np.array([0.0, 0.5, 1.0, 0.5]))
    assert amari(x) == pytest.approx(0.5)
    w = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert harmony(w, _floats(1.0, 3.0)) == pytest.approx(9.0)


def test_dissimilarity_extremes():
    a = _floats(1.0, 0.0)
    b = _floats(0.0, 1.0)
    assert dissimilarity(a, a) == pytest.approx(0.0)
    assert dissimilarity(a, b) == pytest.approx(1.0)
    assert dissimilarity(_floats(0.0, 0.0), b) == 0.0


def test_permutation_pair_must_fix_zero():
    with pytest.raises(DomainError):
        PermutationPair((1, 0, 2), (0, 1, 2, 3, 4))
    with pytest.raises(DomainError):
        PermutationPair((0, 1, 2), (4, 1, 2, 3, 0))


def test_rho_identity_and_involution(swap_pair):
    ident = PermutationPair((0, 1, 2), (0, 1, 2, 3, 4))
    point = PhasePoint(Fraction(16, 27), Fraction(4, 5))
    assert rho_pi(point, ident, WINDOW, BASES) == point
    # the input permutation is an involution; the stack one is not
    twice = rho_pi(rho_pi(point, swap_pair, WINDOW, BASES), swap_pair, WINDOW, BASES)
    assert twice.y1 == point.y1
    assert twice.y2 != point.y2


def test_rho_exact_and_float_agree(swap_pair):
    point = PhasePoint(Fraction(7, 9), Fraction(11, 25))
    exact = rho_pi(point, swap_pair, WINDOW, BASES)
    fy1, fy2 = rho_pi(_floats(*point.as_floats()), swap_pair, WINDOW, BASES).x
    assert fy1 == pytest.approx(float(exact.y1), abs=1e-12)
    assert fy2 == pytest.approx(float(exact.y2), abs=1e-12)


def test_rho_on_neural_state_touches_only_the_mcl(plain_nda, plain_start, swap_pair):
    spec = synthesize(plain_nda)
    state = embed(spec, plain_start)
    moved = rho_pi(state, swap_pair, WINDOW, BASES)
    assert (moved.x[2:] == state.x[2:]).all()
    assert moved.x[0] != state.x[0]


def test_rho_translates_beyond_the_window_decimals(swap_pair):
    # digits past the window ride along unchanged
    y = Fraction(16, 27) + Fraction(1, 3**5)
    moved = rho_pi(PhasePoint(y, Fraction(0)), swap_pair, WINDOW, BASES)
    base = rho_pi(PhasePoint(Fraction(16, 27), Fraction(0)), swap_pair, WINDOW, BASES)
    assert moved.y1 - base.y1 == Fraction(1, 3**5)


def test_alpha_pullback(obs, swap_pair):
    pulled = alpha_pi(lambda obj: step_observable(obs, obj), swap_pair, WINDOW, BASES)
    point = PhasePoint(Fraction(5, 9), Fraction(19, 25))
    assert pulled(point) == step_observable(obs, point)
