"""Network synthesis and micro-step simulation."""

import csv
import hashlib
import io
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from godelnet import (
    EncodingPair,
    Nda,
    Ordering,
    PhasePoint,
    compile_cfg_topdown,
    embed,
    encode_tape,
    from_versatile_shift,
    initial_state,
    na_micro_step,
    na_run,
    parse_grammar,
    recode_ordering,
    synthesize,
)
from godelnet import network
from godelnet.checks import chain_grammar, fan_grammar, random_encoding
from godelnet.errors import DomainError, InternalConsistencyError, ResourceLimitError
from godelnet.nda import NdaCell
from godelnet.network import (
    EPS_B,
    RAMP,
    SOUNDNESS,
    STEP,
    NaRun,
    NetworkSpec,
    NeuralState,
    _certify,
    _side_maps,
    activate,
    network_csv,
    trajectory_csv,
)
from godelnet.symbols import identity_ordering, zero_fixing_permutations


@pytest.fixture(scope="module")
def plain_net(plain_nda):
    return synthesize(plain_nda)


@pytest.fixture(scope="module")
def plain_run(plain_nda, plain_net, plain_start):
    return na_run(plain_net, embed(plain_net, plain_start), 6, reference=plain_nda, point=plain_start)


def _assert_follows(run, orbit):
    """The run's MCL stays within SOUNDNESS of a frozen exact orbit at every macro boundary."""
    assert not run.diverged and run.max_divergence <= SOUNDNESS
    assert len(run.macro_states) == len(orbit)
    for state, expected in zip(run.macro_states, orbit):
        assert abs(state.x[0] - float(expected[0])) <= SOUNDNESS
        assert abs(state.x[1] - float(expected[1])) <= SOUNDNESS


CHAIN_K = 4


@pytest.fixture(scope="module")
def chain_case(chain_machine):
    """Chain grammar G_4 (S -> t0 A1, A1 -> t1 A2, A2 -> t2 A3, A3 -> t3 t4) under a
    fixed blank-pinned encoding that reverses each alphabet's digit order."""
    machine = chain_machine(CHAIN_K)

    def reversed_digits(alphabet):
        others = [s for s in alphabet.symbols if s != alphabet.blank]
        table = {s: len(others) - k for k, s in enumerate(others)}
        table[alphabet.blank] = 0
        return Ordering(alphabet, table)

    enc = EncodingPair(input=reversed_digits(machine.input_alphabet),
                       stack=reversed_digits(machine.stack_alphabet))
    nda = from_versatile_shift(machine, enc)
    sentence = ["t%d" % i for i in range(CHAIN_K + 1)]
    start = encode_tape(initial_state(machine, sentence, "S"), enc)
    return synthesize(nda), start, nda


#: (phase, activation) of each unit by the prefix of its role in network_csv.
ROLE_SCHEDULE = {
    "mcl": (5, RAMP),
    "one": (1, STEP),
    "cmp": (1, STEP),
    "ax": (2, STEP),
    "bsl": (3, STEP),
    "ltl": (4, RAMP),
}


def _unit_rows(spec):
    """(unit, role, activation, phase) of every unit row of network_csv."""
    rows = [line.split(",") for line in network_csv(spec).splitlines() if line.startswith("unit,")]
    return [(int(u), role, kind, int(phase)) for _, u, role, kind, phase in rows]


def _unit_of(spec):
    """role -> unit, read from network_csv."""
    return {role: u for u, role, _, _ in _unit_rows(spec)}


def _schedule(spec):
    """Per unit (phase, activation), from ROLE_SCHEDULE and the role of each unit row."""
    rows = _unit_rows(spec)
    assert [u for u, _, _, _ in rows] == list(range(spec.n))
    return [ROLE_SCHEDULE[role.split(":")[0]] for _, role, _, _ in rows]


def _bsl_bank(spec, state):
    """(i, j) -> value of each branch unit."""
    return {tuple(int(v) for v in role.split(":")[1:]): state.x[u]
            for role, u in _unit_of(spec).items() if role.startswith("bsl:")}


def _scalar_activation(kind, s):
    if kind == RAMP:
        return min(1.0, max(0.0, s))
    return 1.0 if s >= 0.0 else 0.0


def _reference_step(schedule, weights, x, phase):
    """Dense update: the full W x, then the scalar rule on every unit of the phase."""
    net = weights @ x
    out = x.copy()
    for unit, (unit_phase, kind) in enumerate(schedule):
        if unit_phase == phase:
            out[unit] = _scalar_activation(kind, float(net[unit]))
    return out


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_unit_count_formula(plain_nda, plain_net):
    p, q = plain_nda.x_cells, plain_nda.y_cells
    assert plain_net.n == 3 + 3 * (p + q) + 3 * p * q == 72
    assert plain_net.micro_steps_per_macro == 5


def test_unit_budget(plain_nda, monkeypatch):
    monkeypatch.setattr("godelnet.network.UNIT_BUDGET", 10)
    with pytest.raises(ResourceLimitError, match="network needs 72 units, budget is 10"):
        synthesize(plain_nda)


def test_an_over_budget_network_is_refused_before_its_layout_is_built():
    # a hand-built 300 x 300 table of halt cells needs 271,803 units
    digits = identity_ordering(300)
    halt = NdaCell(Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    nda = Nda(EncodingPair(digits, digits), 1, 1, (halt,) * 300**2)
    before = network._bank_table.cache_info()
    with pytest.raises(ResourceLimitError, match="network needs 271803 units, budget is 4096"):
        synthesize(nda)
    # no hit, no miss: the layout was never asked for, so none was built or cached
    assert network._bank_table.cache_info() == before


def test_bias_free_construction(plain_net):
    assert not any(line.startswith("bias,") for line in network_csv(plain_net).splitlines())
    schedule = _schedule(plain_net)
    assert schedule[plain_net.always_on] == (1, STEP)
    assert schedule[plain_net.mcl[0]] == (5, RAMP)
    assert {phase for phase, _ in schedule} == {1, 2, 3, 4, 5}


def test_embed_and_project(plain_net, plain_start):
    state = embed(plain_net, plain_start)
    assert (state.x[0], state.x[1]) == plain_start.as_floats()
    assert state.x[plain_net.always_on] == 1.0
    assert (state.macro, state.micro) == (0, 0)


def test_phase_schedule_updates_one_bank_per_micro(plain_net, plain_start):
    schedule = _schedule(plain_net)
    state = embed(plain_net, plain_start)
    for phase in range(1, 6):
        before = state.x.copy()
        state = na_micro_step(plain_net, state)
        changed = {u for u in range(plain_net.n) if state.x[u] != before[u]}
        allowed = {u for u, (unit_phase, _) in enumerate(schedule) if unit_phase == phase}
        assert changed <= allowed
    assert state.macro == 1 and state.micro == 0


def test_branch_bank_one_hot_for_every_cell(plain_nda, plain_net):
    for k in range(len(plain_nda.cells)):
        i, j = divmod(k, 5)
        interior = PhasePoint(
            Fraction(i, 3) + Fraction(1, 1000),
            Fraction(j, 5) + Fraction(1, 1000),
        )
        state = embed(plain_net, interior)
        for _ in range(3):
            state = na_micro_step(plain_net, state)
        bank = _bsl_bank(plain_net, state)
        assert bank[(i, j)] == 1.0
        assert sum(bank.values()) == 1.0


def test_point_just_below_a_corner_reads_as_the_corner(plain_net):
    # a float one ulp under a cell boundary must select the boundary's cell
    below = PhasePoint(Fraction(np.nextafter(1 / 3, 0.0)), Fraction(np.nextafter(2 / 5, 0.0)))
    assert below.as_floats() == (np.nextafter(1 / 3, 0.0), np.nextafter(2 / 5, 0.0))
    state = embed(plain_net, below)
    for _ in range(3):
        state = na_micro_step(plain_net, state)
    active = [key for key, value in _bsl_bank(plain_net, state).items() if value == 1.0]
    assert active == [(1, 2)]


def test_macro_run_follows_exact_orbit(plain_run, plain_orbit):
    _assert_follows(plain_run, plain_orbit)


def test_mixed_macro_run_follows_exact_orbit(mixed_nda, mixed_start, mixed_orbit):
    spec = synthesize(mixed_nda)
    _assert_follows(na_run(spec, embed(spec, mixed_start), 6, reference=mixed_nda, point=mixed_start),
                    mixed_orbit)


def test_runs_are_deterministic(plain_nda, plain_net, plain_start, plain_run):
    again = na_run(plain_net, embed(plain_net, plain_start), 6, reference=plain_nda, point=plain_start)
    assert again.max_divergence == plain_run.max_divergence
    for sa, sb in zip(plain_run.states, again.states):
        assert (sa.x == sb.x).all()


def test_states_stay_in_unit_box(plain_run):
    for state in plain_run.states:
        assert state.x.min() >= 0.0 and state.x.max() <= 1.0


def test_divergence_detection_against_wrong_reference(plain_nda, mixed_nda, plain_net, plain_start):
    # comparing the plain network against the mixed table must diverge
    run = na_run(plain_net, embed(plain_net, plain_start), 6, reference=mixed_nda, point=plain_start)
    assert run.diverged and run.divergence_step >= 1


@pytest.mark.parametrize("missing", ["reference", "point"])
def test_a_run_without_reference_or_point_is_refused(missing, plain_nda, plain_net, plain_start):
    # na_micro_step is the unchecked engine; na_run always compares with the orbit
    kwargs = {"reference": plain_nda, "point": plain_start}
    del kwargs[missing]
    with pytest.raises(TypeError, match="missing 1 required keyword-only argument: '%s'" % missing):
        na_run(plain_net, embed(plain_net, plain_start), 6, **kwargs)


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_a_bound_other_than_soundness_is_refused(tol, plain_nda, plain_net, plain_start):
    message = r"^na_run checks the orbit at SOUNDNESS = 1e-09 only, got tol = %r$" % tol
    with pytest.raises(DomainError, match=message):
        na_run(plain_net, embed(plain_net, plain_start), 6, reference=plain_nda, point=plain_start, tol=tol)


@pytest.mark.parametrize("macro_steps", [-1, 2.0, None])
def test_a_run_of_a_bad_length_is_refused(macro_steps, plain_nda, plain_net, plain_start):
    message = r"^macro_steps must be an integer >= 0, got %s$" % re.escape(repr(macro_steps))
    with pytest.raises(DomainError, match=message):
        na_run(plain_net, embed(plain_net, plain_start), macro_steps, reference=plain_nda, point=plain_start)


def test_a_run_of_no_macro_steps_is_its_start(plain_nda, plain_net, plain_start):
    start = embed(plain_net, plain_start)
    run = na_run(plain_net, start, 0, reference=plain_nda, point=plain_start)
    assert run.states == (start,) and not run.diverged


def test_a_run_off_a_macro_boundary_is_refused(plain_nda, plain_net, plain_start):
    # started at micro 2, the run would compare the MCL between boundaries
    state = na_micro_step(plain_net, na_micro_step(plain_net, embed(plain_net, plain_start)))
    assert state.micro == 2
    with pytest.raises(DomainError, match=r"^na_run starts at a macro boundary \(micro 0\), got micro 2$"):
        na_run(plain_net, state, 1, reference=plain_nda, point=plain_start)


def test_the_benchmark_call_at_soundness_still_runs(plain_nda, plain_net, plain_start, plain_run):
    # perfbench's chain workload passes tol=SOUNDNESS explicitly
    run = na_run(plain_net, embed(plain_net, plain_start), 6,
                 reference=plain_nda, tol=SOUNDNESS, point=plain_start)
    assert run.max_divergence == plain_run.max_divergence and not run.diverged
    assert all((a.x == b.x).all() for a, b in zip(run.states, plain_run.states))


def test_csv_exports(plain_nda, plain_net, plain_start):
    net_lines = network_csv(plain_net).strip().splitlines()
    assert net_lines[0] == "record,a,b,c,d"
    assert sum(1 for l in net_lines if l.startswith("unit,")) == plain_net.n
    assert not any(l.startswith("bias,") for l in net_lines)
    run = na_run(plain_net, embed(plain_net, plain_start), 2, reference=plain_nda, point=plain_start)
    traj_lines = trajectory_csv(run).strip().splitlines()
    assert traj_lines[0].startswith("t,micro,x1,")
    assert len(traj_lines) == 1 + 1 + 2 * plain_net.micro_steps_per_macro


#: Floats whose text is easy to get wrong: signed zeros, NaN, infinities,
#: the least subnormal and a sum that is not its decimal.
ODD_FLOATS = (-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 0.1 + 0.2, 1.0)

#: (role, activation, phase) of the 12 units of a 1 x 1 table, written out by hand.
ONE_CELL_UNITS = (
    ("mcl:y1", RAMP, 5), ("mcl:y2", RAMP, 5), ("one", STEP, 1),
    ("cmp:x:0:lo", STEP, 1), ("cmp:x:0:hi", STEP, 1), ("cmp:y:0:lo", STEP, 1), ("cmp:y:0:hi", STEP, 1),
    ("ax:x:0", STEP, 2), ("ax:y:0", STEP, 2), ("bsl:0:0", STEP, 3),
    ("ltl:0:0:y1", RAMP, 4), ("ltl:0:0:y2", RAMP, 4),
)

#: The columns each of those units reads, in its bank's input order, written out by hand.
ONE_CELL_INPUTS = ((10,), (11,), (), (0, 2), (0, 2), (1, 2), (1, 2), (3, 4, 2), (5, 6, 2), (7, 8, 2),
                   (0, 2, 9), (1, 2, 9))


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_csv_exports_match_a_csv_writer_reference_byte_for_byte():
    n = len(ONE_CELL_UNITS)
    rng = np.random.default_rng(7)
    # a NaN with another payload and a negative NaN must still read "nan"
    other_nans = np.array([0x7FF0000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    rows = [rng.choice(np.array(ODD_FLOATS), size=len(cols)) for cols in ONE_CELL_INPUTS]
    rows[10][1:3] = other_nans
    banks, weights = {}, np.zeros((n, n))
    for unit, ((role, _, _), cols, row) in enumerate(zip(ONE_CELL_UNITS, ONE_CELL_INPUTS, rows)):
        banks.setdefault(role.split(":")[0], []).append(row)
        weights[unit, list(cols)] = row
    spec = NetworkSpec(banks={name: np.array(bank) for name, bank in banks.items()}, x_cells=1, y_cells=1)
    want = [["record", "a", "b", "c", "d"]]
    want += [["unit", u, role, kind, phase] for u, (role, kind, phase) in enumerate(ONE_CELL_UNITS)]
    want += [["weight", t, s, repr(float(weights[t, s])), ""]
             for t in range(n) for s in range(n) if float(weights[t, s]) != 0.0]
    assert network_csv(spec) == _csv_text(want)

    xs = rng.choice(np.array(ODD_FLOATS), size=(11, n))
    xs[0, 1:3] = other_nans
    states = tuple(NeuralState(x=x, macro=t // 5, micro=t % 5) for t, x in enumerate(xs))
    run = NaRun(states, max_divergence=0.0, divergence_step=-1)
    want = [["t", "micro"] + ["x%d" % (k + 1) for k in range(n)]]
    want += [[st.macro, st.micro] + [repr(float(v)) for v in st.x] for st in states]
    assert trajectory_csv(run) == _csv_text(want)
    assert "-0.0" in trajectory_csv(run) and "nan" in network_csv(spec)


def _seeded_case(grammar, sentence, seed):
    """(spec, start, nda) of a grammar's machine under ``random_encoding``
    seeded with ``seed``, started on ``sentence``."""
    machine = compile_cfg_topdown(parse_grammar(grammar))
    enc = random_encoding(machine, random.Random(seed))
    nda = from_versatile_shift(machine, enc)
    return synthesize(nda), encode_tape(initial_state(machine, sentence, "S"), enc), nda


def _chain_sentence(k):
    return ["t%d" % i for i in range(k + 1)]


def _fan_sentence(k, c):
    return ["t0"] + ["u%d" % (j % c) for j in range(k)]


#: Seeded encodings run past their acceptance: (grammar, sentence, macro
#: steps, seed, whether the run leaves the exact orbit under every kernel;
#: the other runs' verdicts are not pinned, as some depend on the kernel).
#: F^1_4:5 and F^3_4:3 are fan networks whose phase blocks, cut at the last
#: column each phase reads instead of aligned, change micro states under the
#: Haswell dgemv_t kernel.
SEEDED_RUNS = {
    "F^1_4:5": (fan_grammar(4, 1), _fan_sentence(4, 1), 11, 5, False),
    "F^3_4:3": (fan_grammar(4, 3), _fan_sentence(4, 3), 11, 3, False),
    "G_4:0": (chain_grammar(4), _chain_sentence(4), 9, 0, False),
    "G_4:3": (chain_grammar(4), _chain_sentence(4), 9, 3, True),
    "G_7:1": (chain_grammar(7), _chain_sentence(7), 15, 1, True),
    "F^3_4:0": (fan_grammar(4, 3), _fan_sentence(4, 3), 11, 0, True),
    "F^3_4:1": (fan_grammar(4, 3), _fan_sentence(4, 3), 11, 1, False),
}


@pytest.mark.parametrize("case", ["plain", "chain", *SEEDED_RUNS])
def test_micro_states_match_dense_reference_bit_for_bit(case, plain_nda, plain_net, plain_start, chain_case):
    spec, start, nda, macro_steps = plain_net, plain_start, plain_nda, 6
    diverges = False
    if case == "chain":
        spec, start, nda = chain_case
        macro_steps = 2 * CHAIN_K + 3
    elif case in SEEDED_RUNS:
        grammar, sentence, macro_steps, seed, diverges = SEEDED_RUNS[case]
        spec, start, nda = _seeded_case(grammar, sentence, seed)
    # each phase's block is a column prefix aligned to 64 (or all n columns)
    # that holds every column the phase's units read
    table = network._bank_table(spec.x_cells, spec.y_cells).values()
    for lo, hi, _, block in spec.phases:
        width = block.shape[1]
        assert block.shape[0] == hi - lo and (width % 64 == 0 or width == spec.n) and width <= spec.n
        last = max(int(bank.inputs.max(initial=-1)) for bank in table if lo <= bank.units.start < hi)
        assert last < width
    run = na_run(spec, embed(spec, start), macro_steps, reference=nda, point=start)
    assert len(run.states) == 1 + macro_steps * spec.micro_steps_per_macro
    assert spec.certificate is not None  # so the LTL steps are gated
    assert run.diverged or not diverges
    schedule = _schedule(spec)
    x = run.states[0].x
    for t, state in enumerate(run.states[1:]):
        x = _reference_step(schedule, spec.weights, x, t % spec.micro_steps_per_macro + 1)
        assert _same_bits(state.x, x), "micro state %d differs from the dense reference" % (t + 1)


def _step_against_dense_reference(spec, state, micro_steps):
    """Advance ``micro_steps`` micro steps, holding each state to the dense
    reference bit for bit; the branch units on after the first BSL phase,
    and the last state."""
    schedule, x, released = _schedule(spec), state.x, None
    for t in range(micro_steps):
        phase = state.micro + 1
        state = na_micro_step(spec, state)
        x = _reference_step(schedule, spec.weights, x, phase)
        assert _same_bits(state.x, x), "micro state %d differs from the dense reference" % (t + 1)
        if phase == 3 and released is None:
            bank = _bsl_bank(spec, state)
            released = sorted(cell for cell, value in bank.items() if value)
    return released, state


@pytest.mark.parametrize("y1, y2, released", [
    # both comparators of the interior edge 1/3 fire at their shared rounded
    # threshold (CHANGES.md, PR 23 FOUND): rows 0..3 and 8..11 are multiplied
    (0.33333333333233334, 0.1, [(0, 0), (1, 0)]),
    # defect 3a: less than EPS_B below the top edge 1 no cell reads the point,
    # so no row is multiplied and the MCL falls to 0
    (1.0 - EPS_B / 2, 0.1, []),
    # cell (2, 4) is cell 14 of 15: its rows 28, 29 make the LTL's last,
    # short group of two
    (0.8, 0.9, [(2, 4)]),
], ids=["two-cells", "no-cell", "short-last-group"])
def test_the_gated_affine_phase_matches_the_dense_reference(y1, y2, released, plain_net):
    assert plain_net.phases[3][3].shape[0] == 30
    state = embed(plain_net, PhasePoint(Fraction(y1), Fraction(y2)))
    got, state = _step_against_dense_reference(plain_net, state, 2 * plain_net.micro_steps_per_macro)
    assert got == released
    if not released:
        assert state.x[:2].tolist() == [0.0, 0.0]


def test_a_spec_without_a_certificate_multiplies_every_affine_row(plain_net):
    # an affine unit of cell (1, 2) that no longer waits for its branch unit:
    # read from cell (0, 0), its row sums its own image 1/10 and not 0
    units = _unit_of(plain_net)
    ungated = _ungated(plain_net, "ltl:1:2:y1")
    assert ungated.certificate is None
    state = embed(ungated, PhasePoint(Fraction(1, 10), Fraction(1, 10)))
    released, after = _step_against_dense_reference(ungated, state, 4)
    assert released == [(0, 0)] and after.x[units["ltl:1:2:y1"]] == 0.1
    # the gate skips exactly the rows a certificate says are silent: with the
    # clean network's certificate pinned on, the unit's row is not multiplied
    ungated.certificate = plain_net.certificate
    for _ in range(4):
        state = na_micro_step(ungated, state)
    assert state.x[units["ltl:1:2:y1"]] == 0.0


@pytest.mark.parametrize("kind", [RAMP, STEP])
def test_activation_edge_values_match_scalar_rule(kind):
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0),
              np.nextafter(1.0, 0.0), 5e-324, -5e-324, 0.5, -0.5, 2.0]
    got = activate(kind, np.array(values, dtype=np.float64))
    want = np.array([_scalar_activation(kind, v) for v in values], dtype=np.float64)
    assert got.dtype == np.float64
    assert _same_bits(got, want)


@pytest.mark.parametrize("case", ["plain", "chain"])
def test_phase_ranges_tile_all_units(case, plain_net, chain_case):
    spec = plain_net if case == "plain" else chain_case[0]
    schedule = _schedule(spec)
    assert [(phase, kind) for _, _, kind, phase in _unit_rows(spec)] == schedule
    assert len(spec.phases) == spec.micro_steps_per_macro
    covered = []
    for k, (lo, hi, kind, _) in enumerate(spec.phases):
        assert lo < hi
        assert all(schedule[u] == (k + 1, kind) for u in range(lo, hi))
        covered.extend(range(lo, hi))
    assert sorted(covered) == list(range(spec.n))


def test_spec_rejects_a_bank_of_the_wrong_shape(plain_net):
    message = r"^bank mcl of a 3 x 6 table needs \(2, 18\) weights, got \(2, 15\)$"
    with pytest.raises(InternalConsistencyError, match=message):
        replace(plain_net, y_cells=plain_net.y_cells + 1)
    narrow = {**plain_net.banks, "ltl": plain_net.banks["ltl"][:, :2]}
    message = r"^bank ltl of a 3 x 5 table needs \(30, 3\) weights, got \(30, 2\)$"
    with pytest.raises(InternalConsistencyError, match=message):
        replace(plain_net, banks=narrow)


def test_spec_weights_and_banks_are_read_only_copies(plain_net):
    with pytest.raises(ValueError, match="read-only"):
        plain_net.weights[0, 10] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        plain_net.banks["ltl"][0, 0] = 0.0
    with pytest.raises(TypeError):
        plain_net.banks["ltl"] = plain_net.banks["bsl"]
    # the spec keeps its own copy of a bank it was built from
    ltl = plain_net.banks["ltl"].copy()
    spec = replace(plain_net, banks={**plain_net.banks, "ltl": ltl})
    ltl[0, 1] = 0.0
    assert _same_bits(spec.weights, plain_net.weights)


def _with_weight(spec, unit, column, value):
    """``spec`` with the bank entry that unit ``unit`` reads column ``column`` by set to ``value``."""
    name, bank = next((name, bank) for name, bank in network._bank_table(spec.x_cells, spec.y_cells).items()
                      if unit in bank.units)
    row = unit - bank.units.start
    values = spec.banks[name].copy()
    values[row, bank.inputs[row].tolist().index(column)] = value
    return replace(spec, banks={**spec.banks, name: values})


def _corrupted(spec, unit, column, delta):
    return _with_weight(spec, unit, column, spec.weights[unit, column] + delta)


def test_validation_catches_a_corrupted_branch_weight(plain_nda, plain_net):
    # raising the threshold of one branch unit silences it on its own cell
    unit = _unit_of(plain_net)["bsl:1:2"]
    with pytest.raises(InternalConsistencyError, match="one-hot"):
        _certify(_corrupted(plain_net, unit, plain_net.always_on, -1.0), _side_maps(plain_nda))


#: Higham's gamma_2 = 2u / (1 - 2u), u = 2**-53, restated here.
GAMMA_2 = Fraction(2, 2**53) / (1 - Fraction(2, 2**53))


def _fraction_and(wa, wb, w1):
    """Whether theta(wa*xa + wb*xb + w1) is an AND of xa, xb in {0, 1} beyond
    gamma_2 rounding: both one-input sums below 0, the two-input sum at or
    above 0, each by gamma_2 times its terms' magnitudes, in Fractions."""
    wa, wb, w1 = map(Fraction, (wa, wb, w1))
    return (wb + w1 + GAMMA_2 * (abs(wb) + abs(w1)) < 0 and wa + w1 + GAMMA_2 * (abs(wa) + abs(w1)) < 0
            and wa + wb + w1 - GAMMA_2 * (abs(wa) + abs(wb) + abs(w1)) >= 0)


def _ulps_around(value, count=3):
    """The float nearest ``value`` (a Fraction) and the ``count`` floats on either side of it."""
    floats = [float(value)]
    for _ in range(count):
        floats = [float(np.nextafter(floats[0], -np.inf)), *floats, float(np.nextafter(floats[-1], np.inf))]
    return floats


def _and_threshold_triples():
    """Weight triples a few ulps either side of each AND threshold: for each
    pair of input weights, the offsets w1 < 0 at which a one-input sum, or
    the two-input sum, meets its gamma_2 bound.  The pairs (0.5, 0.5) and
    (0.5, 1 - 2**-51) meet the firing bound and a silent bound exactly at a
    float, -(1 - 2**-51) and -1."""
    pairs = ((1.0, 1.0), (0.75, 1.25), (3.0, 2.0**-20), (2.0**-30, 0.5), (1.0, 3.0), (0.5, 0.5), (0.5, 1 - 2.0**-51))
    for wa, wb in pairs:
        up, down = 1 + GAMMA_2, 1 - GAMMA_2
        for threshold in (-Fraction(wa) * up / down, -Fraction(wb) * up / down,
                          -(Fraction(wa) + Fraction(wb)) * down / up):
            for w1 in _ulps_around(threshold):
                yield wa, wb, w1


def test_the_integer_and_bank_test_agrees_with_fractions(plain_net):
    units = network._bank_table(plain_net.x_cells, plain_net.y_cells)["bsl"].units
    verdicts = []
    for triple in _and_threshold_triples():
        try:
            network._check_and_bank(plain_net, units, np.array([triple]))
            got = True
        except InternalConsistencyError as err:
            assert "do not make an AND of its two inputs" in str(err)
            got = False
        assert got == _fraction_and(*triple), triple
        verdicts.append(got)
    # each threshold is straddled: both verdicts occur
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("delta", [-0.05, 1e-6])
def test_validation_catches_a_corrupted_affine_weight(plain_nda, plain_net, delta):
    # an offset error on one affine unit moves its cell's image off the table
    i, j = next(divmod(k, 5) for k, c in enumerate(plain_nda.cells)
                if 0.1 < float(c.apply(PhasePoint(Fraction(k // 5, 3), Fraction(k % 5, 5))).y1) < 0.9)
    unit = _unit_of(plain_net)["ltl:%d:%d:y1" % (i, j)]
    with pytest.raises(InternalConsistencyError, match="off by"):
        _certify(_corrupted(plain_net, unit, plain_net.always_on, delta), _side_maps(plain_nda))


def _ungated(spec, role):
    """The affine unit ``role`` with its gate folded into its offset: it no
    longer waits for its branch unit."""
    units = _unit_of(spec)
    unit, gate = units[role], units["bsl:" + ":".join(role.split(":")[1:3])]
    folded = spec.weights[unit, spec.always_on] + spec.weights[unit, gate]
    spec = _with_weight(spec, unit, spec.always_on, folded)
    return _with_weight(spec, unit, gate, 0.0)


def _rewired(spec, role, column, value):
    units = _unit_of(spec)
    return _with_weight(spec, units[role], units[column], value)


@pytest.mark.parametrize("build, message", [
    (lambda spec: _rewired(spec, "ltl:1:2:y1", "one", float("nan")), r"^the network has a weight that is not finite$"),
    # the unit adds its image to the MCL from every cell
    (lambda spec: _ungated(spec, "ltl:1:2:y1"), r"^ltl:1:2:y1 \(unit 56\): does not clamp to 0 while its branch"),
    # an all-zero gain and offset clamps to 0, but on, the row sums its gate
    (lambda spec: _rewired(_rewired(spec, "ltl:1:2:y1", "mcl:y1", 0.0), "ltl:1:2:y1", "one", 0.0),
     r"^ltl:1:2:y1 \(unit 56\): off by 8\.66667 from the exact image over cell \(1, 2\), more than SOUNDNESS$"),
])
def test_certificate_refuses_structural_faults_the_sweep_cannot_make(build, message, plain_nda, plain_net):
    with pytest.raises(InternalConsistencyError, match=message):
        _certify(build(plain_net), _side_maps(plain_nda))


@pytest.mark.parametrize("gate", [0.5, 1.0, 3.0, 5e-324])
def test_a_row_with_zero_gain_and_offset_is_its_gate(gate):
    # off, the row sums 0*y + 0 + 0, exactly 0: it clamps with no allowance
    # for an underflowing product; on, it sums exactly the gate
    part = network._affine_row(0.0, 0.0, gate, Fraction(0), Fraction(gate))
    assert part is not None and part[:2] == (0, 0)


def test_certificate_records_a_thin_comparator_overlap_as_a_margin(plain_nda, plain_net):
    # moving the lower detection edge of axis cell x:1 down by 1e-6 makes the
    # top 1e-6 of cell x:0 read as both cells: a margin to keep, not a fault
    units = _unit_of(plain_net)
    lo_bias = plain_net.weights[units["cmp:x:1:lo"], plain_net.always_on]
    spec = _rewired(plain_net, "cmp:x:1:lo", "one", lo_bias + 1e-6)
    certificate = _certify(spec, _side_maps(plain_nda))
    below_edge = Fraction(1, 3) - Fraction(5, 10**7)
    for k, bound in enumerate(certificate):
        if k // 5 == 0:
            assert Fraction(1, 3) + bound.margins[1] < below_edge
        if k // 5 == 1:
            assert bound.margins[0] == plain_net.certificate[k].margins[0]
    state = embed(spec, PhasePoint(below_edge, Fraction(1, 10)))
    for _ in range(3):
        state = na_micro_step(spec, state)
    assert [key for key, value in _bsl_bank(spec, state).items() if value == 1.0] == [(0, 0), (1, 0)]


def _fault_message(spec, nda):
    with pytest.raises(InternalConsistencyError) as raised:
        _certify(spec, _side_maps(nda))
    return str(raised.value)


#: Each affine fault's message on its own: a clamp fault (the gate folded into
#: the offset) or an "off by" fault (the offset moved by 1e-6).
AFFINE_FAULTS = {
    ("clamp", "ltl:0:1:y2"): "ltl:0:1:y2 (unit 45): does not clamp to 0 while its branch unit is off",
    ("off", "ltl:0:1:y2"): "ltl:0:1:y2 (unit 45): off by 1e-06 from the exact image over cell (0, 1), "
                           "more than SOUNDNESS",
    ("clamp", "ltl:2:3:y1"): "ltl:2:3:y1 (unit 68): does not clamp to 0 while its branch unit is off",
    ("off", "ltl:2:3:y1"): "ltl:2:3:y1 (unit 68): off by 1e-06 from the exact image over cell (2, 3), "
                           "more than SOUNDNESS",
}


def _affine_fault(spec, kind, role):
    if kind == "clamp":
        return _ungated(spec, role)
    return _corrupted(spec, _unit_of(spec)[role], spec.always_on, 1e-6)


@pytest.mark.parametrize("kinds", [("clamp", "off"), ("off", "clamp")])
def test_two_affine_faults_name_the_earlier_unit(kinds, plain_nda, plain_net):
    roles = ("ltl:0:1:y2", "ltl:2:3:y1")
    spec = plain_net
    for kind, role in zip(kinds, roles):
        assert _fault_message(_affine_fault(plain_net, kind, role), plain_nda) == AFFINE_FAULTS[kind, role]
        spec = _affine_fault(spec, kind, role)
    assert _fault_message(spec, plain_nda) == AFFINE_FAULTS[kinds[0], roles[0]]


def _interval(lo, hi, edge):
    return ("its detection interval [%s, %s] does not hold the cell's lower edge %s alone, so the branch "
            "bank is not one-hot there" % (lo, hi, edge))


#: Each comparator fault's message on its own: a detection end moved 0.5 up
#: (an interval fault, named on the axis cell's lo comparator), or a gain
#: that is not +-1.
COMPARATOR_FAULTS = {
    ("x:1:lo", "end", 0.5):
        "cmp:x:1:lo (unit 5): " + _interval("0.8333333333323334", "0.6666666666656667", "1/3"),
    ("x:1:hi", "end", 0.5):
        "cmp:x:1:lo (unit 5): " + _interval("0.33333333333233334", "1.1666666666656667", "1/3"),
    ("y:3:lo", "end", 0.5):
        "cmp:y:3:lo (unit 15): " + _interval("1.099999999999", "0.7999999999990001", "3/5"),
    ("y:3:hi", "end", 0.5):
        "cmp:y:3:lo (unit 15): " + _interval("0.599999999999", "1.2999999999990002", "3/5"),
    ("x:2:hi", "gain", -2.0): "cmp:x:2:hi (unit 8): reads its coordinate with weight -2.0, not -1.0",
    ("y:1:lo", "gain", 0.5): "cmp:y:1:lo (unit 11): reads its coordinate with weight 0.5, not 1.0",
}


def _comparator_fault(spec, role, kind, value):
    """Comparator ``role`` with its detection end moved ``value`` up, or its gain set to ``value``."""
    unit = _unit_of(spec)["cmp:" + role]
    if kind == "gain":
        return _with_weight(spec, unit, spec.mcl["xy".index(role[0])], value)
    # a lo comparator's bias is minus its end, a hi comparator's is its end
    return _corrupted(spec, unit, spec.always_on, -value if role.endswith(":lo") else value)


@pytest.mark.parametrize("faults, named", [
    ((("x:1:lo", "end", 0.5), ("y:3:hi", "end", 0.5)), 0),
    ((("x:1:hi", "end", 0.5), ("y:3:lo", "end", 0.5)), 0),
    ((("x:2:hi", "gain", -2.0), ("y:1:lo", "gain", 0.5)), 0),
    # every gain is checked before any interval, so the later unit's gain is named
    ((("x:1:lo", "end", 0.5), ("y:1:lo", "gain", 0.5)), 1),
], ids=["lo-hi", "hi-lo", "gains", "interval-gain"])
def test_two_bad_comparators_name_the_earlier_fault(faults, named, plain_nda, plain_net):
    spec = plain_net
    for fault in faults:
        assert _fault_message(_comparator_fault(plain_net, *fault), plain_nda) == COMPARATOR_FAULTS[fault]
        spec = _comparator_fault(spec, *fault)
    assert _fault_message(spec, plain_nda) == COMPARATOR_FAULTS[faults[named]]


@pytest.mark.parametrize("shifts", [(-1.0, 1.0), (1.0, -1.0)])
def test_two_bad_branch_units_name_the_earlier_unit(shifts, plain_nda, plain_net):
    # thresholds moved to -2.5 (never fires) and -0.5 (fires on one input)
    units = _unit_of(plain_net)
    spec = plain_net
    for role, shift in zip(("bsl:0:1", "bsl:2:3"), shifts):
        spec = _corrupted(spec, units[role], spec.always_on, shift)
    assert _fault_message(spec, plain_nda) == (
        "bsl:0:1 (unit 28): weights (1.0, 1.0, %r) do not make an AND of its two inputs beyond their "
        "rounding, so the branch bank is not one-hot" % (-1.5 + shifts[0]))


@pytest.mark.parametrize("case", ["plain", "G4:1"])
def test_a_top_detection_end_above_1_bounds_the_rows_up_to_1_only(case, plain_nda):
    # moving the last stack-axis cell's hi end from 1 - EPS_B to 2 - EPS_B
    # widens its margin, but states stay in [0, 1], so every bound is as before
    nda = plain_nda if case == "plain" else _seeded_nda(chain_grammar(4), 1)
    clean = synthesize(nda)
    spec = _rewired(clean, "cmp:y:%d:hi" % (nda.y_cells - 1), "one", 2 - EPS_B)
    certificate = _certify(spec, _side_maps(nda))
    assert [bound.rounding for bound in certificate] == [bound.rounding for bound in clean.certificate]
    top = [bound.margins[3] for k, bound in enumerate(certificate) if k % nda.y_cells == nda.y_cells - 1]
    assert top == [Fraction(2 - EPS_B) - 1] * nda.x_cells


#: sha256 of the weight-corruption sweep's outcomes below, one line per
#: corrupted network, frozen so that any change to what the synthesis
#: certificate rejects, or to how it says so, shows here.
CORRUPTION_SWEEP_SHA256 = "930e631c21da6775397ab54b6b612b5b7c0d69f3b8e20d89ddfc6d63353690bd"

#: The (unit, column, delta) corruptions of each demo network that the check
#: the certificate replaced (one macro step from every cell corner) let
#: pass; it rejected the other 712 of the sweep's 884.  Most of them leave a
#: cell corner at an exact image of 0, or touch a comparator only a corner
#: never tests.
PARENT_PASSED = {
    "plain": (
        (0, 42, +1), (0, 42, -1), (0, 44, +1), (0, 44, -1), (0, 46, +1), (0, 46, -1), (0, 48, +1),
        (0, 48, -1), (0, 50, +1), (0, 50, -1), (0, 54, +1), (0, 54, -1), (0, 66, +1), (0, 66, -1),
        (1, 43, +1), (1, 43, -1), (1, 53, +1), (1, 53, -1), (1, 55, +1), (1, 55, -1), (1, 63, +1),
        (1, 63, -1), (1, 67, +1), (1, 67, -1), (3, 0, +1), (3, 0, -1), (3, 2, +1), (4, 0, -1),
        (5, 0, +1), (8, 0, +1), (8, 2, +1), (9, 1, +1), (9, 1, -1), (9, 2, +1), (10, 1, -1),
        (11, 1, +1), (18, 1, +1), (18, 2, +1), (19, 4, +1), (21, 7, +1), (22, 10, +1), (26, 17, +1),
        (42, 0, +1), (42, 0, -1), (42, 2, -1), (42, 27, -1), (43, 1, +1), (43, 1, -1), (43, 2, -1),
        (43, 27, -1), (44, 0, +1), (44, 0, -1), (44, 2, -1), (44, 28, -1), (46, 0, +1), (46, 0, -1),
        (46, 2, -1), (46, 29, -1), (48, 0, +1), (48, 0, -1), (48, 2, -1), (48, 30, -1), (50, 0, +1),
        (50, 0, -1), (50, 2, -1), (50, 31, -1), (53, 1, +1), (53, 1, -1), (53, 2, -1), (53, 32, -1),
        (54, 0, -1), (54, 2, -1), (54, 33, -1), (55, 1, -1), (55, 2, -1), (55, 33, -1), (63, 1, +1),
        (63, 1, -1), (63, 2, -1), (63, 37, -1), (66, 0, -1), (66, 2, -1), (66, 39, -1), (67, 1, -1),
        (67, 2, -1), (67, 39, -1),
    ),
    "mixed": (
        (0, 42, +1), (0, 42, -1), (0, 44, +1), (0, 44, -1), (0, 46, +1), (0, 46, -1), (0, 48, +1),
        (0, 48, -1), (0, 50, +1), (0, 50, -1), (0, 58, +1), (0, 58, -1), (0, 70, +1), (0, 70, -1),
        (1, 43, +1), (1, 43, -1), (1, 53, +1), (1, 53, -1), (1, 59, +1), (1, 59, -1), (1, 63, +1),
        (1, 63, -1), (1, 71, +1), (1, 71, -1), (3, 0, +1), (3, 0, -1), (3, 2, +1), (4, 0, -1),
        (5, 0, +1), (8, 0, +1), (8, 2, +1), (9, 1, +1), (9, 1, -1), (9, 2, +1), (10, 1, -1),
        (11, 1, +1), (18, 1, +1), (18, 2, +1), (19, 4, +1), (21, 7, +1), (22, 10, +1), (26, 17, +1),
        (42, 0, +1), (42, 0, -1), (42, 2, -1), (42, 27, -1), (43, 1, +1), (43, 1, -1), (43, 2, -1),
        (43, 27, -1), (44, 0, +1), (44, 0, -1), (44, 2, -1), (44, 28, -1), (46, 0, +1), (46, 0, -1),
        (46, 2, -1), (46, 29, -1), (48, 0, +1), (48, 0, -1), (48, 2, -1), (48, 30, -1), (50, 0, +1),
        (50, 0, -1), (50, 2, -1), (50, 31, -1), (53, 1, +1), (53, 1, -1), (53, 2, -1), (53, 32, -1),
        (58, 0, -1), (58, 2, -1), (58, 35, -1), (59, 1, -1), (59, 2, -1), (59, 35, -1), (63, 1, +1),
        (63, 1, -1), (63, 2, -1), (63, 37, -1), (70, 0, -1), (70, 2, -1), (70, 41, -1), (71, 1, -1),
        (71, 2, -1), (71, 41, -1),
    ),
}

#: sha256 of the positions "network,unit,column,delta" of those 712, in sweep order.
PARENT_REJECTED_SHA256 = "33e9f9554b0c115f35d30300bff0d2df4e161ee1285d453347197cc8cfadb043"


def test_validation_outcomes_under_every_unit_weight_corruption(plain_nda, mixed_nda):
    # +1.0, then -1.0, on each nonzero weight of both demo networks in turn
    outcomes, parent_rejected = [], []
    for name, nda in (("plain", plain_nda), ("mixed", mixed_nda)):
        spec = synthesize(nda)
        rows, cols = np.nonzero(spec.weights)
        for unit, column in zip(rows.tolist(), cols.tolist()):
            for delta in (1, -1):
                try:
                    _certify(_corrupted(spec, unit, column, float(delta)), _side_maps(nda))
                    outcomes.append("passed")
                except InternalConsistencyError as err:
                    outcomes.append("rejected: %s" % err)
                if (unit, column, delta) not in PARENT_PASSED[name]:
                    parent_rejected.append(("%s,%d,%d,%+d" % (name, unit, column, delta), outcomes[-1]))
    assert len(outcomes) == 884
    assert outcomes.count("passed") == 8
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == CORRUPTION_SWEEP_SHA256
    # every network the corner check rejected is still rejected
    positions = [position for position, _ in parent_rejected]
    assert len(positions) == 712
    assert hashlib.sha256("\n".join(positions).encode()).hexdigest() == PARENT_REJECTED_SHA256
    assert [position for position, outcome in parent_rejected if outcome == "passed"] == []


def _seeded_nda(grammar, seed):
    """Cell table of a grammar's machine under a seeded random blank-pinned encoding."""
    machine = compile_cfg_topdown(parse_grammar(grammar))
    return from_versatile_shift(machine, random_encoding(machine, random.Random(seed)))


#: sha256 of ``network_csv`` beyond the demo: (name, grammar, seed, units,
#: digest) under ``_seeded_nda(grammar, seed)``, recorded from the build
#: that laid the banks out with one offset function, one wiring function
#: and one role generator.
NETWORK_CSV_DIGESTS = [
    ("G_4", chain_grammar(4), 1, 231, "1543af204c1b2f665809d881ff274cb636ea86e25cc3a83570f7d220c7a66215"),
    ("G_7", chain_grammar(7), 2, 510, "1e95a858784f6eb715d43ad0ac064fd9066bfc3750e8f421e721ffa283c81a16"),
    ("F^1_5", fan_grammar(5, 1), 3, 72, "2282df1f83aef176a5a1d40de39f9b5415b79231614eed0209c72743845297ef"),
    ("F^3_4", fan_grammar(4, 3), 4, 180, "f44698a48de6e8ce5bab1700cc8289c1d80fba5d455b9d7c867350f3de2c9801"),
]


@pytest.mark.parametrize("name, grammar, seed, units, digest", NETWORK_CSV_DIGESTS,
                         ids=["%s-seed%d" % (name, seed) for name, _, seed, _, _ in NETWORK_CSV_DIGESTS])
def test_network_csv_keeps_its_bytes(name, grammar, seed, units, digest):
    spec = synthesize(_seeded_nda(grammar, seed))
    assert spec.n == units
    assert hashlib.sha256(network_csv(spec).encode()).hexdigest() == digest


def _synthesis_digest(ndas):
    """sha256 of each table's certificate repr and weight bytes, in turn."""
    digest = hashlib.sha256()
    for nda in ndas:
        spec = synthesize(nda)
        digest.update(repr(spec.certificate).encode())
        digest.update(spec.weights.tobytes())
    return digest.hexdigest()


#: sha256 of ``_synthesis_digest`` over each grammar's tables under
#: ``_seeded_nda(grammar, seed)``, recorded from the build that certified
#: every distinct (weights, exact map) key with Fractions of the weights.
SYNTHESIS_DIGESTS = [
    ("G_3", chain_grammar(3), 5, "ed67899fe2566912a008051a954b644def50d4d2819fe175f7785ca5ce19caf0"),
    ("G_4", chain_grammar(4), 5, "c2bf9ef25c57d82f12effc0e4226ef0589ee3d12339fb2286386f2f07964a98c"),
    ("G_7", chain_grammar(7), 5, "1699453c9f59f01e0ea693fa5f5f36a698a7fffcddd124223b848dba51fe248b"),
    ("G_10", chain_grammar(10), 5, "cdaad7566372c02e68a48ec9beb85c8767bcd55c194e045578c4117d80a769dc"),
    ("F^1_4", fan_grammar(4, 1), 3, "37cf5a7081ff42dd804d6598baff60cf73e01544587bf57066f5b26179c72b86"),
    ("F^1_8", fan_grammar(8, 1), 3, "abeb2fe037967e674c201b9e785c112ed54f5b58a13b5f38bccbccf3977a0a71"),
    ("F^3_6", fan_grammar(6, 3), 3, "9ce88a2170eb27f7690a8abb2af3220ca687f10f5cceb8ba00a16d4a6e6fa741"),
]


@pytest.mark.parametrize("name, grammar, seeds, digest", SYNTHESIS_DIGESTS,
                         ids=[name for name, _, _, _ in SYNTHESIS_DIGESTS])
def test_synthesis_keeps_its_weights_and_certificates(name, grammar, seeds, digest):
    assert _synthesis_digest(_seeded_nda(grammar, seed) for seed in range(seeds)) == digest


#: The same digest over the demo machine under all 2! * 4! of its blank-pinned
#: recodings, the input permutation outermost, both in lexicographic order.
DEMO_RECODINGS_SYNTHESIS_SHA256 = "1b1fe191854625f46910943f59528f977aaad248ae6eb9b13c026a7127edf854"


def test_synthesis_keeps_its_bytes_under_every_demo_recoding(machine, plain):
    pairs = [EncodingPair(input=recode_ordering(plain.input, pi), stack=recode_ordering(plain.stack, ps))
             for pi in zero_fixing_permutations(plain.m_in) for ps in zero_fixing_permutations(plain.m_st)]
    assert len(pairs) == len({(pair.input.table, pair.stack.table) for pair in pairs}) == 48
    ndas = (from_versatile_shift(machine, pair) for pair in pairs)
    assert _synthesis_digest(ndas) == DEMO_RECODINGS_SYNTHESIS_SHA256


def _with_own_fractions(nda):
    """``nda`` with each coefficient of each cell held in a Fraction object of its own."""
    def own(x):
        return Fraction(x.numerator, x.denominator)

    return Nda(nda.enc, nda.l, nda.r, [NdaCell(own(c.a1), own(c.a2), own(c.lam1), own(c.lam2), c.label)
                                       for c in nda.cells])


@pytest.mark.parametrize("case", ["plain", "G7:1"])
def test_equal_maps_in_distinct_fractions_synthesize_the_same_network(case, plain_nda):
    # synthesis tells maps apart by their Fraction objects; equal maps held
    # apart are worked out once each, to the same banks and certificate
    nda = plain_nda if case == "plain" else _seeded_nda(chain_grammar(7), 1)
    apart = _with_own_fractions(nda)
    assert len(network._side_maps(nda)[0]) < len(network._side_maps(apart)[0]) == 2 * len(nda.cells)
    spec, copy = synthesize(nda), synthesize(apart)
    assert all(_same_bits(spec.banks[name], copy.banks[name]) for name in spec.banks)
    assert copy.certificate == spec.certificate and repr(copy.certificate) == repr(spec.certificate)


def _clamp(y):
    return min(max(y, Fraction(0)), Fraction(1))


def _probe_coordinates(t, count):
    """Floats in axis cell t of count: the lower edge, the middle, and points
    10, 2 and 0.5 EPS_B below the upper edge."""
    top = (t + 1) / count
    return [t / count, (t + 0.5) / count, top - 10 * EPS_B, top - 2 * EPS_B, top - 0.5 * EPS_B]


def _inside(y, edge, lo_margin, top, hi_margin):
    return edge - lo_margin < y < top + hi_margin


@pytest.mark.parametrize("case", ["plain", "mixed", "G4:1", "G4:2", "G7:1"])
def test_certificate_bounds_one_macro_step_from_points_in_every_cell(case, plain_nda, mixed_nda):
    # the oracle is the engine itself (na_micro_step) against the exact cell
    # map, outside the certificate: from the lower edge, the middle and points
    # just below the upper edges of every cell, a point the certified margins
    # hold must select its cell alone and land within the cell's rounding bound
    if case in ("plain", "mixed"):
        nda = plain_nda if case == "plain" else mixed_nda
    else:
        k, seed = case[1:].split(":")
        nda = _seeded_nda(chain_grammar(int(k)), int(seed))
    spec = synthesize(nda)
    p, q = nda.x_cells, nda.y_cells
    bsl = network._bank_table(p, q)["bsl"].units.start
    held = missed = 0
    for k, (cell, bound) in enumerate(zip(nda.cells, spec.certificate)):
        i, j = divmod(k, q)
        lo1, hi1, lo2, hi2 = bound.margins
        for y1 in _probe_coordinates(i, p):
            for y2 in _probe_coordinates(j, q):
                point = (Fraction(y1), Fraction(y2))
                if not (_inside(point[0], Fraction(i, p), lo1, Fraction(i + 1, p), hi1)
                        and _inside(point[1], Fraction(j, q), lo2, Fraction(j + 1, q), hi2)):
                    missed += 1
                    continue
                held += 1
                state = embed(spec, PhasePoint(*point))
                for micro in range(1, 6):
                    state = na_micro_step(spec, state)
                    if micro == 3:
                        assert np.flatnonzero(state.x[bsl:bsl + p * q]).tolist() == [k]
                image = (cell.a1 + cell.lam1 * point[0], cell.a2 + cell.lam2 * point[1])
                for got, want, error in zip(state.x[:2].tolist(), image, bound.rounding):
                    assert abs(Fraction(got) - _clamp(want)) <= error
    # the points 0.5 EPS_B below an upper edge lie in the band the margins leave out
    assert held == 16 * len(nda.cells) and missed == 9 * len(nda.cells)


def _gate_cases():
    yield from (("G_%d" % k, chain_grammar(k)) for k in range(3, 13))
    yield from (("F^1_%d" % k, fan_grammar(k, 1)) for k in range(4, 31))
    yield from (("F^3_%d" % k, fan_grammar(k, 3)) for k in range(4, 13))


@pytest.mark.parametrize("name, grammar", list(_gate_cases()), ids=[name for name, _ in _gate_cases()])
def test_every_clean_network_of_the_grammar_families_is_certified(name, grammar):
    # ten seeded blank-pinned encodings each; synthesize raises on none
    machine = compile_cfg_topdown(parse_grammar(grammar))
    for seed in range(10):
        nda = from_versatile_shift(machine, random_encoding(machine, random.Random("%s:%d" % (name, seed))))
        certificate = synthesize(nda).certificate
        assert len(certificate) == len(nda.cells)
        for cell, bound in zip(nda.cells, certificate):
            assert bound.gain == (abs(cell.lam1), abs(cell.lam2))
            assert all(0 < e <= SOUNDNESS and e == Fraction(float(e)) for e in bound.rounding)
            # each lower edge reads as its cell; only about EPS_B below each upper edge does not
            lo1, hi1, lo2, hi2 = bound.margins
            assert lo1 > 0 and lo2 > 0 and hi1 < 0 and hi2 < 0
            assert all(abs(margin) < 2 * EPS_B for margin in bound.margins)


def _known_defect(defect, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="defect %s: %s (ROADMAP items 1, 8, 9 and 17)" % (defect, what))


#: The float network leaves the exact orbit on these runs today.
DEFECT_3A = _known_defect("3a", "the hi comparator reads a point less than EPS_B below an upper "
                                "cell edge as the next cell, so no branch unit fires")
DEFECT_3B = _known_defect("3b", "each attach multiplies y1's float error by m_in, until a point on "
                                "a lower cell edge reads as the cell below it")


@pytest.mark.parametrize("case, sentence, macro_steps", [
    pytest.param("plain", ("V",) * 26, 6, marks=DEFECT_3A, id="V*26-plain"),  # top edge 1, step 1
    pytest.param("plain", ("NP",) + ("V",) * 26, 6, marks=DEFECT_3A, id="NP-V*26-plain"),  # step 2
    pytest.param((4, 3), ["t%d" % i for i in range(5)], 9, marks=DEFECT_3B, id="G_4-seed3"),  # step 9
    pytest.param((7, 1), ["t%d" % i for i in range(8)], 15, marks=DEFECT_3B, id="G_7-seed1"),
])
def test_a_float_run_follows_the_exact_orbit(case, sentence, macro_steps, machine, plain, chain_machine):
    # the oracle is na_run's exact orbit: nda_step from the exactly encoded start
    if case == "plain":
        mach, enc = machine, plain
    else:
        k, seed = case
        mach = chain_machine(k)
        enc = random_encoding(mach, random.Random(seed))
    nda = from_versatile_shift(mach, enc)
    spec = synthesize(nda)
    start = encode_tape(initial_state(mach, sentence, "S"), enc)
    run = na_run(spec, embed(spec, start), macro_steps, reference=nda, point=start)
    assert not run.diverged


@pytest.mark.parametrize("case", ["plain", "G7"])
def test_synthesis_runs_no_simulation(case, plain_nda, monkeypatch):
    nda = plain_nda if case == "plain" else _seeded_nda(chain_grammar(7), 1)
    calls = []
    for name in ("na_micro_step", "nda_step"):
        real = getattr(network, name)
        monkeypatch.setattr(network, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    synthesize(nda)
    assert calls == []


def test_a_run_leaves_the_dense_matrix_unbuilt():
    # the engine multiplies the phase blocks; the dense matrix is built from
    # them on first read and equals the banks laid out at their input columns
    nda = _seeded_nda(chain_grammar(10), 1)
    machine = compile_cfg_topdown(parse_grammar(chain_grammar(10)))
    start = encode_tape(initial_state(machine, ["t%d" % i for i in range(11)], "S"), nda.enc)
    spec = synthesize(nda)
    na_run(spec, embed(spec, start), 3, reference=nda, point=start)
    assert "weights" not in vars(spec)
    want = np.zeros((spec.n, spec.n))
    for name, bank in network._bank_table(nda.x_cells, nda.y_cells).items():
        for row, (cols, values) in enumerate(zip(bank.inputs.tolist(), spec.banks[name].tolist())):
            want[bank.units[row], cols] = values
    assert spec.n == 897 and _same_bits(spec.weights, want)
    assert spec.weights is spec.weights
    with pytest.raises(ValueError, match="read-only"):
        spec.weights[0, 0] = 1.0


def test_only_synthesis_carries_a_certificate(plain_nda, plain_net):
    assert len(plain_net.certificate) == len(plain_nda.cells)
    assert replace(plain_net, banks=plain_net.banks).certificate is None
    assert NetworkSpec(banks=plain_net.banks, x_cells=3, y_cells=5).certificate is None
