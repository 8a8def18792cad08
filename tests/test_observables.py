"""Observables, recoding motions, and their invariance contract."""

from fractions import Fraction

import numpy as np
import pytest

from godelnet import (
    NeuralState,
    PermutationPair,
    PhasePoint,
    amari,
    build_step_observable,
    dissimilarity,
    harmony,
    rho_pi,
    step_observable,
)
from godelnet.errors import DomainError
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


def test_coefficients_are_distinct_and_seeded(obs):
    count = obs.class_map.class_count
    assert len(set(obs.coefficients)) == count
    assert all(0 < c <= 1 for c in obs.coefficients)
    again = build_step_observable(2, 3, 3, 5, seed=11)
    assert again.coefficients == obs.coefficients
    other = build_step_observable(2, 3, 3, 5, seed=12)
    assert other.coefficients != obs.coefficients


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
    points = [(a, b, PhasePoint(xs[a], ys[b]))
              for a in range(len(xs)) for b in range(len(ys)) if a % 2 == b % 2]
    for pi in zero_fixing_permutations(m_in):
        x_images = [_recoded(x, pi, m_in, r) for x in xs]
        for ps in zero_fixing_permutations(m_st):
            y_images = [_recoded(y, ps, m_st, l) for y in ys]
            pair = PermutationPair(pi, ps)
            for a, b, point in points:
                moved = rho_pi(point, pair, window, bases)
                assert (moved.y1, moved.y2) == (x_images[a], y_images[b])


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


def test_rho_with_a_permutation_of_another_size_takes_the_digit_route(swap_pair):
    point = PhasePoint(Fraction(16, 27), Fraction(4, 5))
    want = rho_pi(point, swap_pair, WINDOW, BASES)
    # a longer permutation that keeps the base's digits moves the point as its restriction does
    assert rho_pi(point, PermutationPair((0, 2, 1, 3), swap_pair.stack_perm), WINDOW, BASES) == want
    for perm, message in (((0, 1), "digit 2 outside 0..1"), ((0, 3, 1, 2), "digit 3 outside 0..2")):
        with pytest.raises(DomainError) as err:
            rho_pi(point, PermutationPair(perm, swap_pair.stack_perm), WINDOW, BASES)
        assert str(err.value) == message


def test_rho_translates_beyond_the_window_decimals(swap_pair):
    # digits past the window ride along unchanged
    y = Fraction(16, 27) + Fraction(1, 3**5)
    moved = rho_pi(PhasePoint(y, Fraction(0)), swap_pair, WINDOW, BASES)
    base = rho_pi(PhasePoint(Fraction(16, 27), Fraction(0)), swap_pair, WINDOW, BASES)
    assert moved.y1 - base.y1 == Fraction(1, 3**5)
