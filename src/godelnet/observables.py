"""Macroscopic observables over phase points and network states.

The step observable assigns one coefficient per equality-pattern class of
the window rectangle a state's machine configuration lies in.  Because the
classes are unions of digit-permutation orbits, the observable takes the
same value on a run and on its recoded twin; the classical aggregates
(mean activation, harmony, dissimilarity) do not, which is the contrast the
experiment harness reports.

rho_pi realizes a recoding pair as a rigid motion of the unit square: decode
the window corner, permute the digits per side, translate the point by the
corner displacement.  alpha_pi pulls an observable back along rho_pi.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError
from .nda import PhasePoint
from .network import mcl_projection
from .patterns import square_partition
from .symbols import check_permutation, digits_to_index, index_to_digits, recode

#: Tolerance (on the scaled digit grid) for snapping float coordinates to
#: cell corners; generous against the 1e-9 macro soundness bound, tight
#: against the >= 1/m cell width.
DEFAULT_SNAP = 1e-6


def _axis_index(y, m, window, snap=DEFAULT_SNAP):
    """Cell index of a coordinate on the m**window grid of [0, 1).

    An exact (``Fraction``) coordinate is floored.  A float within ``snap``
    (in units of the grid) of a corner is read as that corner, so encodings
    perturbed by float error land in the cell they came from.
    """
    cells = m**window
    if isinstance(y, Fraction):
        return (y * cells).__floor__()
    if not -snap <= y < 1.0 + snap:
        raise DomainError("float coordinate %r outside the unit interval" % (y,))
    z = y * cells
    k = math.floor(z)
    nearest = round(z)
    if abs(z - nearest) <= snap:
        k = nearest
    return min(max(k, 0), cells - 1)


def digits_from_float(y, m, window, snap=DEFAULT_SNAP):
    """First ``window`` base-m digits of a float in [0, 1), snap-corrected."""
    return index_to_digits(_axis_index(float(y), m, window, snap), m, window)


@dataclass(frozen=True)
class StepObservableSpec:
    """Pattern-class map of the phase plane and one coefficient per class.

    The map's x axis is the input side (window length r, base m_in), its
    y axis the stack side (length l, base m_st).  Coefficients are drawn
    once from a seeded shuffle of the uniform grid {1/s, ..., s/s}, so they
    are pairwise distinct and reproducible.
    """

    class_map: object
    coefficients: tuple
    seed: int

    def cell_of(self, obj):
        y1, y2 = (obj.y1, obj.y2) if isinstance(obj, PhasePoint) else mcl_projection(obj)
        cmap = self.class_map
        return _axis_index(y1, cmap.m, cmap.l), _axis_index(y2, cmap.m_right, cmap.r)

    def class_of(self, obj):
        return self.class_map.class_of(self.cell_of(obj))


def build_step_observable(l, r, m_in, m_st, seed):
    """Construct the seeded pattern-class observable for a window (l, r).

    The classes are blank-pinned product classes: each side's digits are
    permuted independently, and the blank keeps digit 0.
    """
    class_map = square_partition(m=m_in, l=r, r=l, m_right=m_st, mode="product", blank_pinned=True)
    count = class_map.class_count
    rng = random.Random(seed)
    grid = rng.sample(range(1, count + 1), count)
    coefficients = tuple(v / count for v in grid)
    return StepObservableSpec(class_map=class_map, coefficients=coefficients, seed=seed)


def step_observable(spec, obj):
    """Coefficient of the pattern class of the state's window rectangle."""
    return spec.coefficients[spec.class_of(obj)]


def amari(state):
    """Mean activation of the full state vector (not recoding-invariant)."""
    return float(sum(state.x) / len(state.x))


def harmony(weights, state):
    """Quadratic form x . W x of a state under the network weights."""
    return float(state.x @ weights @ state.x)


def dissimilarity(previous, current):
    """1 - cosine similarity of consecutive states; 0 when either is null."""
    xp, xc = previous.x, current.x
    np_ = math.sqrt(float(sum(v * v for v in xp)))
    nc = math.sqrt(float(sum(v * v for v in xc)))
    if np_ == 0.0 or nc == 0.0:
        return 0.0
    dot = float(sum(a * b for a, b in zip(xp, xc)))
    return 1.0 - dot / (np_ * nc)


@dataclass(frozen=True)
class PermutationPair:
    """Digit permutations (fixing 0) for the input and stack sides."""

    input_perm: tuple
    stack_perm: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_perm", check_permutation(self.input_perm, len(self.input_perm)))
        object.__setattr__(self, "stack_perm", check_permutation(self.stack_perm, len(self.stack_perm)))
        for name, perm in (("input", self.input_perm), ("stack", self.stack_perm)):
            if perm[0] != 0:
                raise DomainError("%s permutation must fix the blank digit 0, got %r" % (name, perm))


def _rigid_move(y, perm, m, window, snap):
    k = _axis_index(y, m, window, snap)
    k_new = digits_to_index(recode(index_to_digits(k, m, window), perm), m)
    if isinstance(y, Fraction):
        return y + Fraction(k_new - k, m**window)
    return y + (k_new - k) / (m**window)


def rho_pi(obj, pair, window, bases, snap=DEFAULT_SNAP):
    """Rigid square motion induced by a recoding pair.

    ``window`` is (l, r) = (stack, input) lengths; ``bases`` is
    (m_in, m_st).  Phase points transform exactly; neural states transform
    in their MCL components only (identity elsewhere), with corner snapping.
    """
    l, r = window
    m_in, m_st = bases
    if isinstance(obj, PhasePoint):
        y1 = _rigid_move(obj.y1, pair.input_perm, m_in, r, snap)
        y2 = _rigid_move(obj.y2, pair.stack_perm, m_st, l, snap)
        return PhasePoint(y1, y2)
    x = obj.x.copy()
    x[0] = _rigid_move(float(x[0]), pair.input_perm, m_in, r, snap)
    x[1] = _rigid_move(float(x[1]), pair.stack_perm, m_st, l, snap)
    return replace(obj, x=x)


def alpha_pi(observable, pair, window, bases, snap=DEFAULT_SNAP):
    """Pullback of an observable along rho_pi."""

    def pulled(obj):
        return observable(rho_pi(obj, pair, window, bases, snap))

    return pulled
