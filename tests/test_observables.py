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
from godelnet.observables import _axis_index
from godelnet.symbols import encode_digits, godel_decode, recode, zero_fixing_permutations

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


def test_axis_index_snapping():
    # cell (1, 2) of the 3**2 grid is index 5, cell (1, 1) index 4
    assert _axis_index(5 / 9, 3, 2) == 5
    assert _axis_index(5 / 9 - 1e-9, 3, 2) == 5
    assert _axis_index(5 / 9 - 1e-3, 3, 2) == 4
    assert _axis_index(0.0, 3, 2) == 0
    assert _axis_index(1.0 - 1e-13, 3, 2) == 8
    with pytest.raises(DomainError):
        _axis_index(1.1, 3, 2)


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


def _recoded(y, perm, m, window):
    """Oracle for one axis of rho_pi: swap the window's digits for their recoded ones."""
    digits = godel_decode(y, m, window)
    return y - encode_digits(digits, m) + encode_digits(recode(digits, perm), m)


#: The two window geometries of ``check_invariance``: (m_in, m_st), (l, r).
INVARIANCE_GEOMETRIES = [((3, 3), (2, 3)), ((3, 5), (2, 3))]


@pytest.mark.parametrize("bases, window", INVARIANCE_GEOMETRIES)
def test_rho_matches_the_digit_recoding_oracle(bases, window):
    (m_in, m_st), (l, r) = bases, window
    # each cell's corner and interior point, as check_invariance moves them
    xs = [Fraction(2 * i + half, 2 * m_in**r) for i in range(m_in**r) for half in (0, 1)]
    ys = [Fraction(2 * j + half, 2 * m_st**l) for j in range(m_st**l) for half in (0, 1)]
    points = [(a, b, PhasePoint(xs[a], ys[b]), _floats(float(xs[a]), float(ys[b])))
              for a in range(len(xs)) for b in range(len(ys)) if a % 2 == b % 2]
    for pi in zero_fixing_permutations(m_in):
        x_images = [_recoded(x, pi, m_in, r) for x in xs]
        fx_images = list(map(float, x_images))
        for ps in zero_fixing_permutations(m_st):
            y_images = [_recoded(y, ps, m_st, l) for y in ys]
            fy_images = list(map(float, y_images))
            pair = PermutationPair(pi, ps)
            for a, b, point, state in points:
                moved = rho_pi(point, pair, window, bases)
                assert (moved.y1, moved.y2) == (x_images[a], y_images[b])
                # the point, the step, the sum and float(image) each round by at most 2**-54
                fx, fy = rho_pi(state, pair, window, bases).x
                assert abs(fx - fx_images[a]) <= 2**-52 and abs(fy - fy_images[b]) <= 2**-52


@pytest.mark.parametrize("bases, window", INVARIANCE_GEOMETRIES)
def test_cell_of_reads_both_ends_of_every_cell(bases, window):
    (m_in, m_st), (l, r) = bases, window
    spec = build_step_observable(l, r, m_in, m_st, seed=17)

    def ends(k, m, w):  # the left end of cell k and a point m**-5 cell widths below its right end
        return Fraction(k, m**w), Fraction(k + 1, m**w) - Fraction(1, m ** (w + 5))

    for i in range(m_in**r):
        for j in range(m_st**l):
            for x, y in zip(ends(i, m_in, r), ends(j, m_st, l)):
                assert spec.cell_of(PhasePoint(x, y)) == (i, j)
                assert spec.cell_of(_floats(float(x), float(y))) == (i, j)


def test_rho_with_a_permutation_of_another_size_takes_the_digit_route(swap_pair):
    point = PhasePoint(Fraction(16, 27), Fraction(4, 5))
    want = rho_pi(point, swap_pair, WINDOW, BASES)
    # a longer permutation that keeps the base's digits moves the point as its restriction does
    assert rho_pi(point, PermutationPair((0, 2, 1, 3), swap_pair.stack_perm), WINDOW, BASES) == want
    for perm, message in (((0, 1), "digit 2 outside 0..1"), ((0, 3, 1, 2), "digit 3 outside 0..2")):
        with pytest.raises(DomainError) as err:
            rho_pi(point, PermutationPair(perm, swap_pair.stack_perm), WINDOW, BASES)
        assert str(err.value) == message


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
