"""Piecewise-affine unit-square dynamics equivalent to a versatile shift.

Under a pair of blank-pinned Godel encodings, a dotted sequence becomes a
point (y1, y2) in [0,1)^2: y1 encodes the input (right) side, y2 the stack
(left) side.  The DoD window determines a rectangular partition: m_in**r
cells along y1, m_st**l along y2, each cell holding all tapes sharing one
window.  On every cell the machine acts as an affine map with diagonal
linear part: the window's rule writes fixed words (r_st, r_in) in the
window's place while both tape tails ride along, so the input side maps as
enc(w_in + t) -> enc(r_in + t), which for a blank-pinned encoding is
a1 + lambda1 * y1 with lambda1 = m_in**(r - |r_in|) and
a1 = enc(r_in) - lambda1 * enc(w_in), and the stack side likewise.  In
integers, with i and k_R the grid indices of w_in and r_in (their digits
read as base-m_in integers), enc(w_in) = i / m_in**r and
enc(r_in) = k_R / m_in**|r_in|, so a1 = (k_R - i) / m_in**|r_in|.  This is
the closed form of the NDA maps in Carmantini, beim Graben, Desroches &
Rodrigues, "A modular architecture for transparent computation in recurrent
neural networks" (2017).  Windows matching no rule become identity (halt)
cells, making accept and reject states fixed points; the accept point is
the origin.

The table is an index grid: cell (i, j) is the rectangle
[i/p, (i+1)/p) x [j/q, (j+1)/q) with p = m_in**r and q = m_st**l, and it sits
at position k = i*q + j of the row-major cell tuple.  A cell stores only its
affine action; (i, j) = divmod(k, q), and its rectangle follows from them.

Every window of a ``VersatileShift`` is affine by construction.  A rule's
match words are concrete symbols, and it may shift the dot only across
symbols of its own replacement (``NonDeterminedShiftError`` otherwise), so
the words it writes depend on the window alone, never on the tails.  The
machine works them out in closed form when it is built and keeps them in
its window table; a step writes them in the window's place, and a cell is
written from them for any blank-pinned encoding, since
enc(R + T) = enc(R) + m**-|R| enc(T).  No window can fail a table build.

Step and table read the same words, so the checks on them bring oracles of
their own: the grammar's productions for every window's step
(``tests/test_shift.py``), term-by-term base-m sums of stepped tapes for
every cell (``_base_m`` in ``tests/test_nda.py``), the parse the chain
benchmark works out from its grammar (``perfbench/workloads.py``), and the
``commutation`` check suite, which compares each cell's image with the
Godel encoding of the stepped tape on random machines that shift both ways.
"""

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import DomainError, InternalConsistencyError, MachineBuildError
from .patterns import _budget_cells
from .symbols import Ordering, check_whole, godel_encode, grid_index

HALT = "halt"


@dataclass(frozen=True)
class EncodingPair:
    """Blank-pinned orderings for the two tape sides."""

    input: Ordering
    stack: Ordering

    def __post_init__(self):
        for name, ordering in (("input", self.input), ("stack", self.stack)):
            if not ordering.blank_pinned:
                raise DomainError("%s ordering must pin the blank to digit 0" % name)

    @property
    def m_in(self):
        return self.input.m

    @property
    def m_st(self):
        return self.stack.m


@dataclass(frozen=True)
class PhasePoint:
    """Exact point of the unit square; y1 input side, y2 stack side."""

    y1: Fraction
    y2: Fraction

    def __post_init__(self):
        y1, y2 = self.y1, self.y2
        if type(y1) is not Fraction:
            y1 = Fraction(y1)
            object.__setattr__(self, "y1", y1)
        if type(y2) is not Fraction:
            y2 = Fraction(y2)
            object.__setattr__(self, "y2", y2)
        for y in (y1, y2):
            num, den = y.as_integer_ratio()
            if not 0 <= num < den:
                raise DomainError("phase coordinates must lie in [0, 1), got %s" % y)

    def as_floats(self):
        return float(self.y1), float(self.y2)


def encode_tape(state, enc):
    """Phase point of a dotted sequence: (encode(input), encode(stack))."""
    return PhasePoint(godel_encode(state.input, enc.input), godel_encode(state.stack, enc.stack))


@dataclass(frozen=True)
class NdaCell:
    """The affine action of one rectangle of the DoD partition."""

    a1: Fraction
    a2: Fraction
    lam1: Fraction
    lam2: Fraction
    label: str = HALT

    def apply(self, point):
        return PhasePoint(self.a1 + self.lam1 * point.y1, self.a2 + self.lam2 * point.y2)


@dataclass(frozen=True)
class Nda:
    """Complete cell table over the unit square for one machine+encoding."""

    enc: EncodingPair
    l: int
    r: int
    cells: tuple  # of NdaCell; cell (i, j) at position i * y_cells + j

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(self.cells) != self.x_cells * self.y_cells:
            raise InternalConsistencyError("cell table must list the %d x %d grid, got %d cells"
                                           % (self.x_cells, self.y_cells, len(self.cells)))

    @property
    def x_cells(self):
        return self.enc.m_in**self.r

    @property
    def y_cells(self):
        return self.enc.m_st**self.l

    def cell_at(self, i, j):
        if not (0 <= i < self.x_cells and 0 <= j < self.y_cells):
            raise DomainError("no cell (%d, %d) in a %d x %d table" % (i, j, self.x_cells, self.y_cells))
        return self.cells[i * self.y_cells + j]


def nda_step(nda, point):
    """Apply the located cell's affine map; the image must stay in the square."""
    i, j = grid_index(point.y1, nda.x_cells), grid_index(point.y2, nda.y_cells)
    cell = nda.cell_at(i, j)
    try:
        return cell.apply(point)
    except DomainError as err:
        raise InternalConsistencyError(
            "cell (%d, %d) mapped %r outside the unit square: %s" % (i, j, point, err)
        ) from err


def nda_run(nda, point, steps):
    """Orbit [p0, p1, ..., p_steps]; ``steps`` must be an int >= 0 (a DomainError otherwise)."""
    check_whole("steps", steps)
    orbit = [point]
    for _ in range(steps):
        point = nda_step(nda, point)
        orbit.append(point)
    return orbit


def from_versatile_shift(machine, enc):
    """Derive the complete affine cell table for a machine and encoding.

    ``machine`` is a ``VersatileShift``; the alphabets of the encoding must
    be its own.  Its window table holds, for each claimed window
    (w_st, w_in), the rule and the words (r_st, r_in) it writes in the
    window's place; a window no rule claims is a halt cell and writes
    itself.

    Each cell is closed form.  With p = m_in**r, the window w_in is
    cell i = p * enc(w_in) and an input tail t sits at m_in**-r, so the input
    side maps as y1 = i/p + m_in**-r enc(t)  ->  enc(r_in) + m_in**-|r_in| enc(t),
    which is lambda1 = m_in**(r - |r_in|) and a1 = enc(r_in) - lambda1 * i/p;
    the stack side likewise with q = m_st**l and j.  This holds for every
    blank-pinned encoding, because enc(R+T) = enc(R) + m**-|R| enc(T).

    The table is computed in integers: with k_R = m_in**|r_in| enc(r_in) the
    grid index of r_in, a1 = (k_R - i) / m_in**|r_in|.  Each symbol's digit
    is read once per table; lambda1 is made once per distinct |r_in| and a1
    once per distinct (k_R - i, |r_in|), so most cells share them.
    """
    if enc.input.alphabet != machine.input_alphabet or enc.stack.alphabet != machine.stack_alphabet:
        raise MachineBuildError("encoding alphabets must match the machine alphabets")
    l, r = machine.dod.l, machine.dod.r
    count = _budget_cells("cell table", (enc.m_in, r), (enc.m_st, l))
    # each window no rule claims is the identity halt cell, one object shared
    cells = [NdaCell(Fraction(0), Fraction(0), Fraction(1), Fraction(1))] * count
    act_in, act_st = _side_action(enc.input, r), _side_action(enc.stack, l)
    q = enc.m_st**l
    for (w_st, w_in), (rule, r_st, r_in) in machine.table.items():
        i, (a1, lam1) = act_in(w_in, r_in)
        j, (a2, lam2) = act_st(w_st, r_st)
        cells[i * q + j] = NdaCell(a1, a2, lam1, lam2, rule.label)
    return Nda(enc, l, r, tuple(cells))


def _side_action(ordering, n):
    """One tape side's action: (window, written word R) -> (window index i, (a, lambda)).

    ``n`` is the window length.  Words are indexed in integers from one digit
    dict; each distinct |R| makes its lambda once and each distinct
    (k_R - i, |R|) its a once, so equal maps share their Fraction objects.
    """
    digit, m, actions = dict(ordering.table), ordering.m, {}
    power = cache(lambda length: Fraction(m) ** (n - length))

    def index(word):
        k = 0
        for sym in word:
            k = k * m + digit[sym]
        return k

    def act(window, word):
        i = index(window)
        key = (index(word) - i, len(word))
        action = actions.get(key)
        if action is None:
            action = actions[key] = (Fraction(key[0], m ** key[1]), power(key[1]))
        return i, action

    return act


def nda_csv(nda):
    """CSV text of the cell table (intervals and affine coefficients).

    Cell (i, j) spans [i/p, (i+1)/p) x [j/q, (j+1)/q); the p+1 and q+1 axis
    bounds are made once per table and shared by the cells that meet there.
    """
    p, q = nda.x_cells, nda.y_cells
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["i", "j", "y1_lo", "y1_hi", "y2_lo", "y2_hi", "a1", "a2", "lambda1", "lambda2", "label"])
    xs = [Fraction(i, p) for i in range(p + 1)]
    ys = [Fraction(j, q) for j in range(q + 1)]
    for k, c in enumerate(nda.cells):
        i, j = divmod(k, q)
        w.writerow([i, j, xs[i], xs[i + 1], ys[j], ys[j + 1], c.a1, c.a2, c.lam1, c.lam2, c.label])
    return out.getvalue()
