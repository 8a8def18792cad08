"""Macroscopic observables over phase points and network states.

The step observable assigns one coefficient per equality-pattern class of
the window rectangle a phase point lies in.  Because the classes are unions
of digit-permutation orbits, the observable takes the same value on a run
and on its recoded twin; the classical aggregates (mean activation,
harmony, dissimilarity) of network states do not, which is the contrast
the experiment harness reports.

rho_pi realizes a recoding pair as a rigid motion of the unit square: per side
it permutes the base-m digits of the point's cell index k on the window grid
and translates by (sigma(k) - k) / m**w.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .nda import PhasePoint
from .patterns import square_partition
from .symbols import check_permutation, grid_index


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

    def cell_of(self, point):
        cmap = self.class_map
        return grid_index(point.y1, cmap.x_cells), grid_index(point.y2, cmap.y_cells)


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
    return StepObservableSpec(class_map=class_map, coefficients=coefficients)


def step_observable(spec, point):
    """Coefficient of the pattern class of the point's window rectangle."""
    i, j = spec.cell_of(point)  # a PhasePoint lies in [0, 1)**2, so the cell is on the grid
    cmap = spec.class_map
    return spec.coefficients[cmap.assignment[i * cmap.y_cells + j]]


# amari and dissimilarity sum plainly, left to right, in explicit loops:
# from Python 3.12 on, builtin sum() of floats compensates its rounding.
def amari(state):
    """Mean activation of the full state vector (not recoding-invariant)."""
    total = 0.0
    for v in state.x.tolist():
        total += v
    return total / len(state.x)


def harmony(weights, state):
    """Quadratic form x . W x of a state under the network weights."""
    return float(state.x @ weights @ state.x)


def dissimilarity(previous, current):
    """1 - cosine similarity of two states of one network; 0 when either is null."""
    pp = cc = pc = 0.0
    for a, b in zip(previous.x.tolist(), current.x.tolist()):
        pp += a * a
        cc += b * b
        pc += a * b
    norm_p, norm_c = math.sqrt(pp), math.sqrt(cc)
    if norm_p == 0.0 or norm_c == 0.0:
        return 0.0
    return 1.0 - pc / (norm_p * norm_c)


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


def _rigid_move(y, perm, m, window):
    """Translate y by (sigma(k) - k) / m**window, sigma permuting the digits of its cell index k."""
    num, den = y.as_integer_ratio()
    cells = m**window
    k = num * cells // den  # grid_index(y, cells), inline on the check suites' hot path
    k_new, rest, place = 0, k, 1
    for _ in range(window):
        k_new += perm[rest % m] * place
        rest //= m
        place *= m
    # y + (k_new - k) / cells, normalised once
    return y if k_new == k else Fraction(num * cells + (k_new - k) * den, den * cells)


def rho_pi(point, pair, window, bases):
    """Rigid square motion induced by a recoding pair, exact on phase points.

    ``window`` is (l, r) = (stack, input) lengths, each a non-negative
    int; ``bases`` is (m_in, m_st), and each side's permutation must act on
    its base's digits.
    """
    l, r = window
    m_in, m_st = bases
    if len(pair.input_perm) != m_in or len(pair.stack_perm) != m_st:
        raise DomainError("permutations of sizes (%d, %d) do not act on bases (%d, %d)"
                          % (len(pair.input_perm), len(pair.stack_perm), m_in, m_st))
    if not (isinstance(l, int) and isinstance(r, int) and l >= 0 and r >= 0):
        raise DomainError("window lengths must be non-negative integers, got %r" % (window,))
    return PhasePoint(_rigid_move(point.y1, pair.input_perm, m_in, r),
                      _rigid_move(point.y2, pair.stack_perm, m_st, l))
