"""Affine cell tables derived from machines."""

import gc
import hashlib
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest

from godelnet import (
    BLANK,
    Alphabet,
    DoD,
    DottedSequence,
    EncodingPair,
    Ordering,
    PhasePoint,
    VersatileShift,
    VsRule,
    compile_cfg_topdown,
    encode_tape,
    from_versatile_shift,
    identity_ordering,
    nda_run,
    nda_step,
    parse_grammar,
    vs_run,
    vs_step,
)
from godelnet.checks import fan_grammar, random_encoding, random_machine
from godelnet.errors import DomainError, InternalConsistencyError, MachineBuildError, ResourceLimitError
from godelnet.nda import HALT, Nda, nda_csv
from godelnet.symbols import grid_index, index_to_digits


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


class _Half(Fraction):
    """A Fraction subclass; PhasePoint stores plain Fractions."""


@pytest.mark.parametrize("value, want", [
    (0, Fraction(0)),
    (0.25, Fraction(1, 4)),
    (1 - 2**-53, Fraction(2**53 - 1, 2**53)),  # the largest float below 1
    (_Half(1, 2), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(2, 3)),
])
def test_phase_point_coerces_to_plain_fractions(value, want):
    point = PhasePoint(value, value)
    assert (point.y1, point.y2) == (want, want)
    assert type(point.y1) is Fraction and type(point.y2) is Fraction


@pytest.mark.parametrize("value, shown", [
    (1, "1"), (1.0, "1"), (Fraction(-1, 3), "-1/3"), (-0.5, "-1/2"), (_Half(3, 2), "3/2"),
])
def test_phase_point_range(value, shown):
    message = r"phase coordinates must lie in \[0, 1\), got %s$" % shown
    with pytest.raises(DomainError, match=message):
        PhasePoint(value, 0)
    with pytest.raises(DomainError, match=message):
        PhasePoint(0, value)


def test_encode_tape_values(start_state, plain):
    point = encode_tape(start_state, plain)
    assert (point.y1, point.y2) == (Fraction(16, 27), Fraction(4, 5))


def test_cell_table_geometry(plain_nda):
    assert plain_nda.x_cells == 3 and plain_nda.y_cells == 5
    assert len(plain_nda.cells) == 15
    # cell (i, j) sits at position k = i * q + j
    assert [plain_nda.cell_at(*divmod(k, 5)) for k in range(15)] == list(plain_nda.cells)
    assert plain_nda.cell_at(1, 4) is plain_nda.cells[1 * 5 + 4]
    for i, j in ((3, 0), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(DomainError):
            plain_nda.cell_at(i, j)


def test_the_grid_size_is_worked_out_once_and_kept_out_of_repr_eq_and_hash(plain_nda):
    # x_cells and y_cells are set when the table is built, not on each read;
    # the table's repr, equality and hash stay those of (enc, l, r, cells)
    assert (vars(plain_nda)["x_cells"], vars(plain_nda)["y_cells"]) == (3, 5)
    assert "x_cells" not in repr(plain_nda) and "y_cells" not in repr(plain_nda)
    assert hashlib.sha256(repr(plain_nda).encode()).hexdigest() == (
        "c57cfefb0b7fbdf09e695a6a0cf64b5294931156e90004c6f020879de20945a7")
    copy = Nda(plain_nda.enc, plain_nda.l, plain_nda.r, list(plain_nda.cells))
    assert copy == plain_nda and hash(copy) == hash(plain_nda)
    assert hash(plain_nda) == hash((plain_nda.enc, plain_nda.l, plain_nda.r, plain_nda.cells))


def test_cell_table_must_hold_every_cell(plain_nda):
    with pytest.raises(InternalConsistencyError, match=r"^cell table must list the 3 x 5 grid, got 14 cells"):
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
    i, j = 1, 4
    assert (grid_index(point.y1, plain_nda.x_cells), grid_index(point.y2, plain_nda.y_cells)) == (i, j)
    # the cell's index digits are the window's: input NP, stack S
    assert index_to_digits(i, 3, plain_nda.r) == (1,)
    assert index_to_digits(j, 5, plain_nda.l) == (4,)


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


def test_cell_budget(machine, plain, monkeypatch):
    monkeypatch.setattr("godelnet.patterns.DEFAULT_CELL_BUDGET", 3)
    with pytest.raises(ResourceLimitError, match="cell table needs 15 cells, budget is 3"):
        from_versatile_shift(machine, plain)


def test_cell_budget_refuses_a_wide_window_without_counting_its_cells():
    # 3**3000 input-axis cells: the refusal must not build, let alone print, that count
    alpha = Alphabet((BLANK, "x", "y"), blank=BLANK)
    machine = VersatileShift(alpha, alpha, DoD(0, 3000), (VsRule("wide", (), ("x",) * 3000, (), ()),))
    ordering = Ordering(alpha, {BLANK: 0, "x": 1, "y": 2})
    with pytest.raises(ResourceLimitError) as err:
        from_versatile_shift(machine, EncodingPair(input=ordering, stack=ordering))
    assert str(err.value) == "cell table needs more than its budget of 1000000 cells"


def test_nda_csv(plain_nda):
    lines = nda_csv(plain_nda).strip().splitlines()
    assert lines[0].startswith("i,j,y1_lo,y1_hi,y2_lo,y2_hi,")
    assert len(lines) == 1 + 15
    # cell (1, 4) is the rectangle [1/3, 2/3) x [4/5, 1)
    assert lines[1 + 1 * 5 + 4].startswith("1,4,1/3,2/3,4/5,1,")
    assert any(",halt" in line for line in lines[1:])


def _random_pair(machine, rng):
    def ordering(alphabet):
        others = [s for s in alphabet.symbols if s != alphabet.blank]
        digits = list(range(1, len(others) + 1))
        rng.shuffle(digits)
        return Ordering(alphabet, {alphabet.blank: 0, **dict(zip(others, digits))})

    return EncodingPair(input=ordering(machine.input_alphabet), stack=ordering(machine.stack_alphabet))


def _base_m(word, digits, m):
    """sum_k digits[word_k] * m**-(k+1), term by term."""
    return sum((Fraction(digits[sym], m ** (k + 1)) for k, sym in enumerate(word)), Fraction(0))


def _pinned_pairs(machine):
    """Every blank-pinned encoding pair of a machine."""

    def orderings(alphabet):
        others = [s for s in alphabet.symbols if s != alphabet.blank]
        return [Ordering(alphabet, {alphabet.blank: 0, **dict(zip(others, digits))})
                for digits in permutations(range(1, len(others) + 1))]

    return [EncodingPair(input=i, stack=s)
            for i in orderings(machine.input_alphabet) for s in orderings(machine.stack_alphabet)]


def test_cells_map_representatives_to_base_m_successors(machine, chain_machine):
    g4 = chain_machine(4)
    rng = random.Random(21)
    cases = [
        # one machine, three encodings built in sequence
        (g4, [_random_pair(g4, rng) for _ in range(3)],
         (((), ()), (("t0",), ("A1",)), (("t3", "t1"), ("S", "t4")))),
        # the demo machine under all 2! * 4! of its blank-pinned recodings
        (machine, _pinned_pairs(machine),
         (((), ()), (("V",), ("S",)), (("NP", BLANK, "V"), ("VP", BLANK, "NP")))),
    ]
    assert len(cases[1][1]) == 48
    # seeded random machines, two encodings each
    for _ in range(12):
        mach = random_machine(rng)
        cases.append((mach, [random_encoding(mach, rng) for _ in range(2)],
                      (((), ()), (("x",), ("x",)), ((BLANK, "x"), ("x", BLANK, "x")))))
    # between them, the written words are shorter than, as long as and longer
    # than their windows, on both sides
    lengths = {(side, (len(word) > n) - (len(word) < n))
               for mach, _, _ in cases[2:] for (rule, r_st, r_in) in mach.table.values()
               for side, word, n in (("stack", r_st, mach.dod.l), ("input", r_in, mach.dod.r))}
    assert lengths == {(side, sign) for side in ("stack", "input") for sign in (-1, 0, 1)}
    assert {mach.dod.l for mach, _, _ in cases[2:]} == {mach.dod.r for mach, _, _ in cases[2:]} == {1, 2}
    for mach, pairs, tails in cases:
        m_in, m_st = mach.input_alphabet.size, mach.stack_alphabet.size
        for enc in pairs:
            in_digits = {s: enc.input.digit(s) for s in mach.input_alphabet.symbols}
            st_digits = {s: enc.stack.digit(s) for s in mach.stack_alphabet.symbols}
            nda = from_versatile_shift(mach, enc)

            def point(tape):
                return PhasePoint(_base_m(tape.input, in_digits, m_in), _base_m(tape.stack, st_digits, m_st))

            for w_in in product(mach.input_alphabet.symbols, repeat=mach.dod.r):
                for w_st in product(mach.stack_alphabet.symbols, repeat=mach.dod.l):
                    for tail_in, tail_st in tails:
                        tape = DottedSequence(w_st + tail_st, w_in + tail_in, mach.blank)
                        successor, _ = vs_step(mach, tape)
                        assert nda_step(nda, point(tape)) == point(successor)


#: sha256 of ``nda_csv`` for G_k under ``_random_pair(G_k, random.Random(seed))``,
#: recorded from the build that solved each cell from two encoded tapes.
CHAIN_TABLE_DIGESTS = [
    (3, 0, "1dc48d1d02a1ed7672196b60a0f3deeece96c23a98f80b0f6bfc244a10bf6066"),
    (3, 1, "409c0c9a6e07060c6caabeeaf1c74d2650d0f1fee0181743b8323246efc97b79"),
    (3, 2, "0ab938a164cb9377db752fa503476a5b7a50e6504d0b13b5eeb25422eabc8f80"),
    (4, 0, "f7f3d373fad860359a837ad67b07571e6cf73432e8aaa3c08459de01fd6b3956"),
    (4, 1, "3340f258cd640c69b0cdcfd2cc8810f5ab9ff803ad5270a3da66eba190c00e5d"),
    (4, 2, "eb394be794a4a305ba464fffcefbe8700e0594cb5a587530240e08f80dc286da"),
    (7, 0, "4ea216e631fd416a0b1a64d309a82ebd8d70d2392d7650ee70023a76e50961de"),
    (7, 1, "ba830b40d1439878470ee9a93d8017b1c04d1f6ba6f3a0f01aa7ef50db000a89"),
    (7, 2, "50ae5281da5fc2e434969f617d08955c1d05194e4291566ebe5dfe7b69d552f7"),
]


@pytest.mark.parametrize("k, seed, digest", CHAIN_TABLE_DIGESTS,
                         ids=["G%d-seed%d" % (k, seed) for k, seed, _ in CHAIN_TABLE_DIGESTS])
def test_chain_tables_keep_their_bytes(chain_machine, k, seed, digest):
    machine = chain_machine(k)
    table = from_versatile_shift(machine, _random_pair(machine, random.Random(seed)))
    assert hashlib.sha256(nda_csv(table).encode()).hexdigest() == digest


#: sha256 of ``nda_csv`` for F_k^c under ``_random_pair(F_k^c, random.Random(seed))``,
#: recorded from the build that took each cell from two Godel encodings of its words.
#: F_k^c writes k + 1 stack symbols in one predict, so lambda2 = m_st**-k.
FAN_TABLE_DIGESTS = [
    (4, 1, 0, "e89b56bb396c98e72a1759379d24dabd73b0cc3e1cb6cb8f322e84b9e12e81e1"),
    (4, 1, 1, "519abe3984d33f14a660b29390dd9df8586cce0bcb8d1ec316f5e1afd54e9787"),
    (4, 1, 2, "25e48d8372d55a6bc805d5ba74af6ef88dbda5f9f3784a8f9137774894a49034"),
    (8, 1, 0, "224ebd5e4bb8e4518e77710a879b728543b29ea0499d4853a07fa51957e3b40f"),
    (8, 1, 1, "af789d389fe69ade0e52c3db933554159526b52f2f0f9369bafc30d1f0726ffc"),
    (8, 1, 2, "b0d625ac15f7beca10cb7dbb9207433ee1af72f1cd2f037ca687a98dde76959c"),
    (6, 3, 0, "ca357ca458a5f177fff0785f29accb5a4849a8cfc098857cc10409687e2c0ccf"),
    (6, 3, 1, "761c74bbbc2804aefa564e9b95640da4322db109a5ade30241f98ecde3dd8e59"),
    (6, 3, 2, "4412b8fb53be35143eda5aa3d3902b64c03201cd70fec7797580d57bc0025dfc"),
]


@pytest.mark.parametrize("k, c, seed, digest", FAN_TABLE_DIGESTS,
                         ids=["F%d_%d-seed%d" % (c, k, seed) for k, c, seed, _ in FAN_TABLE_DIGESTS])
def test_fan_tables_keep_their_bytes(k, c, seed, digest):
    machine = compile_cfg_topdown(parse_grammar(fan_grammar(k, c)))
    table = from_versatile_shift(machine, _random_pair(machine, random.Random(seed)))
    assert min(cell.lam2 for cell in table.cells) == Fraction(1, machine.stack_alphabet.size**k)
    assert hashlib.sha256(nda_csv(table).encode()).hexdigest() == digest


def test_a_table_does_not_keep_its_machine_alive(chain_machine):
    machine = chain_machine(3)
    from_versatile_shift(machine, _random_pair(machine, random.Random(0)))
    ref = weakref.ref(machine)
    del machine
    gc.collect()
    assert ref() is None
