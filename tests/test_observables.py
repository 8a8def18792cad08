"""Observables, recoding motions, and their invariance contract."""

import math
from fractions import Fraction
from pathlib import Path

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
    load_config,
    rho_pi,
    step_observable,
)
from godelnet.errors import DomainError
from godelnet.symbols import encode_digits, recode, zero_fixing_permutations

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


def _left_to_right(terms):
    """Plain float sum, first term first, rounding after every addition."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _bits(value):
    return float(value).hex()


@pytest.mark.parametrize("previous, current", [
    ((1e16, 1.0, -1e16), (1e16, 1.0, -1e16)),  # amari: exact sum 1.0, rounded sum 0.0
    ((1e8, 1.0, 1.0, 1.0, 1.0), (1e8, 0.0, 0.0, 0.0, 0.0)),  # dissimilarity: |previous|**2 drops the ones
])
def test_amari_and_dissimilarity_sum_plainly_left_to_right(previous, current):
    # the cases are chosen where a compensated sum (builtin sum() of floats
    # from Python 3.12 on) differs from the plain one
    squares = [v * v for v in previous]
    assert math.fsum(previous) != _left_to_right(previous) or math.fsum(squares) != _left_to_right(squares)
    a, b = NeuralState(x=np.array(previous)), NeuralState(x=np.array(current))
    assert _bits(amari(a)) == _bits(_left_to_right(previous) / len(previous))
    norm_a = math.sqrt(_left_to_right(squares))
    norm_b = math.sqrt(_left_to_right(v * v for v in current))
    dot = _left_to_right(u * v for u, v in zip(previous, current))
    assert _bits(dissimilarity(a, b)) == _bits(1.0 - dot / (norm_a * norm_b))


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


def _expand(y, m, window):
    """The first ``window`` base-m digits of y, one digit per multiply by m."""
    digits = []
    for _ in range(window):
        y *= m
        digits.append(int(y))
        y -= int(y)
    return tuple(digits)


def _recoded(y, perm, m, window):
    """Oracle for one axis of rho_pi: swap the window's digits for their recoded ones."""
    digits = _expand(y, m, window)
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


def _shipped_geometry():
    """Bases, window and seed of the observable the shipped experiment builds."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "experiment.ini")
    tables = config.encodings[0]
    return (len(tables.input_table), len(tables.stack_table)), config.window, config.seed


@pytest.mark.parametrize("geometry", [lambda: INVARIANCE_GEOMETRIES[0] + (17,),
                                      lambda: INVARIANCE_GEOMETRIES[1] + (17,),
                                      _shipped_geometry],
                         ids=["invariance-3-3", "invariance-3-5", "shipped"])
def test_step_observable_reads_the_class_map_as_class_of_does(geometry):
    (m_in, m_st), (l, r), seed = geometry()
    spec = build_step_observable(l, r, m_in, m_st, seed=seed)

    def points(k, m, w):  # cell k's left end, its midpoint and a point m**-5 cell widths below its right end
        return (Fraction(k, m**w), Fraction(2 * k + 1, 2 * m**w),
                Fraction(k + 1, m**w) - Fraction(1, m ** (w + 5)))

    for i in range(m_in**r):
        for j in range(m_st**l):
            for x, y in zip(points(i, m_in, r), points(j, m_st, l)):
                point = PhasePoint(x, y)
                want = spec.coefficients[spec.class_map.class_of(spec.cell_of(point))]
                assert step_observable(spec, point) == want


@pytest.mark.parametrize("perm", [(0, 1), (0, 2, 1, 3)])
@pytest.mark.parametrize("y1", [Fraction(1, 9), Fraction(2, 9), Fraction(4, 9), Fraction(16, 27)])
def test_rho_refuses_a_permutation_of_another_size(swap_pair, perm, y1):
    # base 3 on the input side: a perm of 2 or 4 digits is refused whatever digits the point's window holds
    point = PhasePoint(y1, Fraction(4, 5))
    with pytest.raises(DomainError) as err:
        rho_pi(point, PermutationPair(perm, swap_pair.stack_perm), WINDOW, BASES)
    assert str(err.value) == "permutations of sizes (%d, 5) do not act on bases (3, 5)" % len(perm)
    with pytest.raises(DomainError):
        rho_pi(point, PermutationPair(swap_pair.input_perm, perm), WINDOW, BASES)


@pytest.mark.parametrize("window", [(2, -1), (-1, 3), (2.5, 3), (2, 2.5), (2, Fraction(3))],
                         ids=["negative-input", "negative-stack", "float-stack", "float-input", "fraction"])
def test_rho_refuses_a_window_length_that_is_not_a_non_negative_int(window):
    # a negative length would leave its side unmoved, and range() refuses a non-int
    point = PhasePoint(Fraction(5, 27), Fraction(7, 25))
    with pytest.raises(DomainError) as err:
        rho_pi(point, PermutationPair((0, 2, 1), (0, 3, 1, 4, 2)), window, BASES)
    assert str(err.value) == "window lengths must be non-negative integers, got %r" % (window,)


def test_rho_with_empty_windows_moves_nothing(swap_pair):
    point = PhasePoint(Fraction(5, 27), Fraction(7, 25))
    assert rho_pi(point, swap_pair, (0, 0), BASES) == point


def test_rho_translates_beyond_the_window_decimals(swap_pair):
    # digits past the window ride along unchanged
    y = Fraction(16, 27) + Fraction(1, 3**5)
    moved = rho_pi(PhasePoint(y, Fraction(0)), swap_pair, WINDOW, BASES)
    base = rho_pi(PhasePoint(Fraction(16, 27), Fraction(0)), swap_pair, WINDOW, BASES)
    assert moved.y1 - base.y1 == Fraction(1, 3**5)
