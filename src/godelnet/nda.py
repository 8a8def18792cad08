"""Piecewise-affine unit-square dynamics equivalent to a versatile shift.

Under a pair of blank-pinned Godel encodings, a dotted sequence becomes a
point (y1, y2) in [0,1)^2: y1 encodes the input (right) side, y2 the stack
(left) side.  The DoD window determines a rectangular partition: m_in**r
cells along y1, m_st**l along y2, each cell holding all tapes sharing one
window.  On every cell the machine acts as an affine map with diagonal
linear part, derived here numerically but exactly: encode two tapes of the
cell differing in both tails, solve psi' = a + lambda * psi per coordinate,
then verify the solution on random tapes of the same cell.  Windows matching
no rule become identity (halt) cells, making accept and reject states fixed
points; the accept point is the origin.

The table is an index grid: cell (i, j) is the rectangle
[i/p, (i+1)/p) x [j/q, (j+1)/q) with p = m_in**r and q = m_st**l, and it sits
at position i*q + j of the row-major cell tuple.  A cell stores only its
index and its affine action; its rectangle follows from (i, j) and (p, q).
"""

import csv
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    DomainError,
    InternalConsistencyError,
    MachineBuildError,
    NonAffineRuleError,
    ResourceLimitError,
)
from .patterns import DEFAULT_CELL_BUDGET
from .shift import vs_step
from .symbols import DottedSequence, Ordering, digits_to_index, godel_encode, index_to_digits

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
        object.__setattr__(self, "y1", Fraction(self.y1))
        object.__setattr__(self, "y2", Fraction(self.y2))
        for y in (self.y1, self.y2):
            if not 0 <= y < 1:
                raise DomainError("phase coordinates must lie in [0, 1), got %s" % y)

    def as_floats(self):
        return float(self.y1), float(self.y2)


def encode_tape(state, enc):
    """Phase point of a dotted sequence: (encode(input), encode(stack))."""
    return PhasePoint(godel_encode(state.input, enc.input), godel_encode(state.stack, enc.stack))


@dataclass(frozen=True)
class NdaCell:
    """One rectangle of the DoD partition with its affine action."""

    i: int  # cell index along y1 (input axis)
    j: int  # cell index along y2 (stack axis)
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
        q = self.y_cells
        if len(self.cells) != self.x_cells * q or any(
            (c.i, c.j) != divmod(k, q) for k, c in enumerate(self.cells)
        ):
            raise InternalConsistencyError(
                "cell table must list the %d x %d grid in row-major order" % (self.x_cells, q)
            )

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

    def locate(self, point):
        i = (point.y1 * self.x_cells).__floor__()
        j = (point.y2 * self.y_cells).__floor__()
        return self.cell_at(i, j)


def decode_point(nda, point):
    """Cell indices and window digit words of a phase point."""
    cell = nda.locate(point)
    input_digits = index_to_digits(cell.i, nda.enc.m_in, nda.r)
    stack_digits = index_to_digits(cell.j, nda.enc.m_st, nda.l)
    return (cell.i, cell.j), input_digits, stack_digits


def nda_step(nda, point):
    """Apply the located cell's affine map; the image must stay in the square."""
    cell = nda.locate(point)
    try:
        return cell.apply(point)
    except DomainError as err:
        raise InternalConsistencyError(
            "cell (%d, %d) mapped %r outside the unit square: %s" % (cell.i, cell.j, point, err)
        ) from err


def nda_run(nda, point, steps):
    """Orbit [p0, p1, ..., p_steps]."""
    orbit = [point]
    for _ in range(steps):
        point = nda_step(nda, point)
        orbit.append(point)
    return orbit


def _nonblank(alphabet):
    for sym in alphabet:
        if sym != alphabet.blank:
            return sym
    raise MachineBuildError("alphabet %r has no non-blank symbol" % (alphabet.symbols,))


def _integer_power(value, base):
    """Exponent k with value == base**k, or None."""
    value = Fraction(value)
    if value <= 0:
        return None
    if value.numerator == 1 and value.denominator == 1:
        return 0
    if value.denominator == 1:
        n, k = value.numerator, 0
        while n % base == 0:
            n //= base
            k += 1
        return k if n == 1 else None
    if value.numerator == 1:
        k = _integer_power(Fraction(value.denominator), base)
        return -k if k is not None else None
    return None


def _solve_affine(psi_a, out_a, psi_b, out_b):
    lam = (out_b - out_a) / (psi_b - psi_a)
    return out_a - lam * psi_a, lam


def from_versatile_shift(machine, enc, verify_tapes=8, seed=7,
                         cell_budget=DEFAULT_CELL_BUDGET):
    """Derive the complete affine cell table for a machine and encoding.

    Alphabets of the encoding must be the machine's.  Each cell's (a, lambda)
    pair is solved from two tapes of the cell differing in both tails and
    verified on ``verify_tapes`` seeded-random tapes; any mismatch, or a
    linear part that is not an integer power of the alphabet size, rejects
    the machine as non-affine on that cell.
    """
    if enc.input.alphabet != machine.input_alphabet or enc.stack.alphabet != machine.stack_alphabet:
        raise MachineBuildError("encoding alphabets must match the machine alphabets")
    l, r = machine.dod.l, machine.dod.r
    p, q = enc.m_in**r, enc.m_st**l
    if p * q > cell_budget:
        raise ResourceLimitError("cell table needs %d cells, budget is %d" % (p * q, cell_budget))
    rng = random.Random(seed)
    in_extra = _nonblank(machine.input_alphabet)
    st_extra = _nonblank(machine.stack_alphabet)

    cells = [None] * (p * q)
    for w_in in product(machine.input_alphabet.symbols, repeat=r):
        for w_st in product(machine.stack_alphabet.symbols, repeat=l):
            tape_a = DottedSequence(w_st, w_in, machine.blank)
            tape_b = DottedSequence(w_st + (st_extra,), w_in + (in_extra,), machine.blank)
            rule_a, _ = machine.find_rule(tape_a)
            rule_b, _ = machine.find_rule(tape_b)
            if rule_a is not rule_b:
                raise InternalConsistencyError(
                    "window (%r, %r): representatives matched different rules" % (w_st, w_in)
                )
            i = digits_to_index(enc.input.digits(w_in), enc.m_in)
            j = digits_to_index(enc.stack.digits(w_st), enc.m_st)

            if rule_a is None:
                cells[i * q + j] = NdaCell(i, j, Fraction(0), Fraction(0), Fraction(1), Fraction(1), HALT)
                continue

            pa, pb = encode_tape(tape_a, enc), encode_tape(tape_b, enc)
            out_a = encode_tape(vs_step(machine, tape_a)[0], enc)
            out_b = encode_tape(vs_step(machine, tape_b)[0], enc)
            a1, lam1 = _solve_affine(pa.y1, out_a.y1, pb.y1, out_b.y1)
            a2, lam2 = _solve_affine(pa.y2, out_a.y2, pb.y2, out_b.y2)
            if _integer_power(lam1, enc.m_in) is None or _integer_power(lam2, enc.m_st) is None:
                raise NonAffineRuleError(
                    "rule %r on window (%r, %r): linear parts (%s, %s) are not integer powers "
                    "of the alphabet sizes" % (rule_a.label, w_st, w_in, lam1, lam2)
                )
            for _ in range(verify_tapes):
                tape = DottedSequence(
                    w_st + tuple(rng.choice(machine.stack_alphabet.symbols) for _ in range(rng.randrange(4))),
                    w_in + tuple(rng.choice(machine.input_alphabet.symbols) for _ in range(rng.randrange(4))),
                    machine.blank,
                )
                point = encode_tape(tape, enc)
                expected = encode_tape(vs_step(machine, tape)[0], enc)
                got = PhasePoint(a1 + lam1 * point.y1, a2 + lam2 * point.y2)
                if got != expected:
                    raise NonAffineRuleError(
                        "rule %r is not affine on window (%r, %r): tape %s maps to %r, affine "
                        "prediction %r" % (rule_a.label, w_st, w_in, tape, expected, got)
                    )
            cells[i * q + j] = NdaCell(i, j, a1, a2, lam1, lam2, rule_a.label)

    return Nda(enc, l, r, tuple(cells))


def nda_csv(nda):
    """CSV text of the cell table (intervals and affine coefficients)."""
    p, q = nda.x_cells, nda.y_cells
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["i", "j", "y1_lo", "y1_hi", "y2_lo", "y2_hi", "a1", "a2", "lambda1", "lambda2", "label"])
    for c in nda.cells:
        w.writerow([c.i, c.j, Fraction(c.i, p), Fraction(c.i + 1, p), Fraction(c.j, q),
                    Fraction(c.j + 1, q), c.a1, c.a2, c.lam1, c.lam2, c.label])
    return out.getvalue()
