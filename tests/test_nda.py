"""Affine cell tables derived from machines."""

from dataclasses import replace
from fractions import Fraction

import pytest

from godelnet import (
    BLANK,
    Alphabet,
    DottedSequence,
    EncodingPair,
    Ordering,
    PhasePoint,
    decode_point,
    encode_tape,
    from_versatile_shift,
    identity_ordering,
    nda_run,
    nda_step,
    vs_run,
    vs_step,
)
from godelnet.errors import (
    DomainError,
    InternalConsistencyError,
    MachineBuildError,
    NonAffineRuleError,
    ResourceLimitError,
)
from godelnet.nda import HALT, nda_csv


def test_encoding_pair_requires_pinned_blank(machine):
    good = {BLANK: 0, "NP": 1, "V": 2}
    bad = {BLANK: 1, "NP": 0, "V": 2}
    with pytest.raises(DomainError):
        EncodingPair(
            input=Ordering(machine.input_alphabet, bad),
            stack=Ordering(machine.stack_alphabet, {BLANK: 0, "NP": 1, "V": 2, "VP": 3, "S": 4}),
        )
    EncodingPair(
        input=Ordering(machine.input_alphabet, good),
        stack=Ordering(machine.stack_alphabet, {BLANK: 0, "NP": 1, "V": 2, "VP": 3, "S": 4}),
    )


def test_phase_point_domain():
    with pytest.raises(DomainError):
        PhasePoint(Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        PhasePoint(Fraction(-1, 2), Fraction(0))


def test_encode_tape_values(start_state, plain):
    point = encode_tape(start_state, plain)
    assert (point.y1, point.y2) == (Fraction(16, 27), Fraction(4, 5))


def test_cell_table_geometry(plain_nda):
    assert plain_nda.x_cells == 3 and plain_nda.y_cells == 5
    assert len(plain_nda.cells) == 15
    assert [(c.i, c.j) for c in plain_nda.cells] == [(i, j) for i in range(3) for j in range(5)]
    cell = plain_nda.cell_at(1, 4)
    assert (cell.i, cell.j) == (1, 4)
    for i, j in ((3, 0), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(DomainError):
            plain_nda.cell_at(i, j)


def test_cell_table_must_be_row_major(plain_nda):
    cells = list(plain_nda.cells)
    cells[0], cells[1] = cells[1], cells[0]
    with pytest.raises(InternalConsistencyError):
        replace(plain_nda, cells=tuple(cells))
    with pytest.raises(InternalConsistencyError):
        replace(plain_nda, cells=plain_nda.cells[:-1])


def test_predict_cell_coefficients(plain_nda):
    # rewriting S by "NP VP" leaves the input side alone and maps the stack
    # side by psi -> enc(NP VP) + (psi - enc(S)) / 5
    for i in (1, 2):
        cell = plain_nda.cell_at(i, 4)
        assert cell.label == "predict(S -> NP VP)"
        assert (cell.lam1, cell.a1) == (1, 0)
        assert (cell.lam2, cell.a2) == (Fraction(1, 5), Fraction(4, 25))


def test_attach_cell_coefficients(plain_nda):
    # cancelling NP against NP pops one symbol from each side
    cell = plain_nda.cell_at(1, 1)
    assert cell.label == "attach"
    assert (cell.lam1, cell.a1) == (3, -1)
    assert (cell.lam2, cell.a2) == (5, -1)


def test_halt_cells_are_identity(plain_nda):
    origin = plain_nda.cell_at(0, 0)
    assert origin.label == HALT
    assert (origin.a1, origin.a2, origin.lam1, origin.lam2) == (0, 0, 1, 1)
    # stack V with input NP matches no rule either
    stuck = plain_nda.cell_at(1, 2)
    assert stuck.label == HALT


def test_locate_and_decode(plain_nda):
    point = PhasePoint(Fraction(16, 27), Fraction(4, 5))
    cell = plain_nda.locate(point)
    assert (cell.i, cell.j) == (1, 4)
    (i, j), input_digits, stack_digits = decode_point(plain_nda, point)
    assert (i, j) == (1, 4)
    assert input_digits == (1,) and stack_digits == (4,)


def test_orbits_match_machine_runs(machine, encodings, start_state):
    for pair in encodings.values():
        nda = from_versatile_shift(machine, pair)
        state = start_state
        point = encode_tape(state, pair)
        for _ in range(8):
            state, _ = vs_step(machine, state)
            point = nda_step(nda, point)
            assert point == encode_tape(state, pair)


def test_exact_orbit_values(plain_nda, plain_start, plain_orbit):
    got = [(p.y1, p.y2) for p in nda_run(plain_nda, plain_start, 6)]
    assert tuple(got) == plain_orbit


def test_mixed_orbit_values(mixed_nda, mixed_start, mixed_orbit):
    got = [(p.y1, p.y2) for p in nda_run(mixed_nda, mixed_start, 6)]
    assert tuple(got) == mixed_orbit


def test_encoding_must_match_machine(machine):
    other = identity_ordering(3)
    with pytest.raises(MachineBuildError):
        from_versatile_shift(machine, EncodingPair(input=other, stack=other))


def test_cell_budget(machine, plain):
    with pytest.raises(ResourceLimitError):
        from_versatile_shift(machine, plain, cell_budget=3)


def test_tail_dependent_machine_is_rejected(machine, plain):
    class Sneaky:
        """Looks like the demo machine but acts on symbols it never read."""

        def __init__(self, inner):
            self.inner = inner
            self.input_alphabet = inner.input_alphabet
            self.stack_alphabet = inner.stack_alphabet
            self.dod = inner.dod
            self.blank = inner.blank

        def find_rule(self, state):
            return self.inner.find_rule(state)

        def apply(self, state, rule, binding):
            out = self.inner.apply(state, rule, binding)
            return DottedSequence(out.stack, tuple(reversed(out.input)), self.blank)

    with pytest.raises(NonAffineRuleError):
        from_versatile_shift(Sneaky(machine), plain)


def test_nda_csv(plain_nda):
    lines = nda_csv(plain_nda).strip().splitlines()
    assert lines[0].startswith("i,j,y1_lo,y1_hi,y2_lo,y2_hi,")
    assert len(lines) == 1 + 15
    # cell (1, 4) is the rectangle [1/3, 2/3) x [4/5, 1)
    assert lines[1 + 1 * 5 + 4].startswith("1,4,1/3,2/3,4/5,1,")
    assert any(",halt" in line for line in lines[1:])
