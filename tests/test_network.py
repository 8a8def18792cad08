"""Network synthesis and micro-step simulation."""

import csv
import hashlib
import io
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from godelnet import (
    EncodingPair,
    Ordering,
    PhasePoint,
    embed,
    encode_tape,
    from_versatile_shift,
    initial_state,
    na_micro_step,
    na_run,
    synthesize,
)
from godelnet.errors import DomainError, InternalConsistencyError, ResourceLimitError
from godelnet.network import (
    RAMP,
    STEP,
    NaRun,
    NetworkSpec,
    NeuralState,
    _validate_synthesis,
    activate,
    network_csv,
    trajectory_csv,
)


@pytest.fixture(scope="module")
def plain_net(plain_nda):
    return synthesize(plain_nda)


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
    return synthesize(nda), start


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
    for cell in plain_nda.cells:
        interior = PhasePoint(
            Fraction(cell.i, 3) + Fraction(1, 1000),
            Fraction(cell.j, 5) + Fraction(1, 1000),
        )
        state = embed(plain_net, interior)
        for _ in range(3):
            state = na_micro_step(plain_net, state)
        bank = _bsl_bank(plain_net, state)
        assert bank[(cell.i, cell.j)] == 1.0
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


def test_macro_run_follows_exact_orbit(plain_nda, plain_net, plain_start, plain_orbit):
    run = na_run(plain_net, embed(plain_net, plain_start), 6,
                 reference=plain_nda, tol=1e-9, point=plain_start)
    assert not run.diverged
    assert run.max_divergence <= 1e-9
    assert len(run.macro_states) == 7
    for state, expected in zip(run.macro_states, plain_orbit):
        assert abs(state.x[0] - float(expected[0])) <= 1e-9
        assert abs(state.x[1] - float(expected[1])) <= 1e-9


def test_runs_are_deterministic(plain_net, plain_start):
    a = na_run(plain_net, embed(plain_net, plain_start), 6)
    b = na_run(plain_net, embed(plain_net, plain_start), 6)
    for sa, sb in zip(a.states, b.states):
        assert (sa.x == sb.x).all()


def test_states_stay_in_unit_box(plain_net, plain_nda, plain_start):
    run = na_run(plain_net, embed(plain_net, plain_start), 6)
    for state in run.states:
        assert state.x.min() >= 0.0 and state.x.max() <= 1.0


def test_divergence_detection_against_wrong_reference(plain_nda, mixed_nda, plain_net, plain_start):
    # comparing the plain network against the mixed table must diverge
    run = na_run(plain_net, embed(plain_net, plain_start), 6,
                 reference=mixed_nda, tol=1e-9, point=plain_start)
    assert run.diverged and run.divergence_step >= 1


@pytest.mark.parametrize("given", ["reference", "point"])
def test_one_sided_comparison_is_refused(given, plain_nda, plain_net, plain_start):
    # either alone would compare nothing and report a sound run
    kwargs = {"reference": plain_nda, "point": plain_start}
    del kwargs["point" if given == "reference" else "reference"]
    message = r"^na_run compares with the exact orbit given both reference and point, got only %s$" % given
    with pytest.raises(DomainError, match=message):
        na_run(plain_net, embed(plain_net, plain_start), 6, **kwargs)


def test_csv_exports(plain_net, plain_start):
    net_lines = network_csv(plain_net).strip().splitlines()
    assert net_lines[0] == "record,a,b,c,d"
    assert sum(1 for l in net_lines if l.startswith("unit,")) == plain_net.n
    assert not any(l.startswith("bias,") for l in net_lines)
    run = na_run(plain_net, embed(plain_net, plain_start), 2)
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


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_csv_exports_match_a_csv_writer_reference_byte_for_byte():
    n = len(ONE_CELL_UNITS)
    rng = np.random.default_rng(7)
    # a NaN with another payload and a negative NaN must still read "nan"
    other_nans = np.array([0x7FF0000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    weights = rng.choice(np.array(ODD_FLOATS), size=(n, n))
    weights[0, 1:3] = other_nans
    spec = NetworkSpec(weights=weights, x_cells=1, y_cells=1)
    want = [["record", "a", "b", "c", "d"]]
    want += [["unit", u, role, kind, phase] for u, (role, kind, phase) in enumerate(ONE_CELL_UNITS)]
    want += [["weight", t, s, repr(float(weights[t, s])), ""]
             for t in range(n) for s in range(n) if float(weights[t, s]) != 0.0]
    assert network_csv(spec) == _csv_text(want)

    xs = rng.choice(np.array(ODD_FLOATS), size=(11, n))
    xs[0, 1:3] = other_nans
    states = tuple(NeuralState(x=x, macro=t // 5, micro=t % 5) for t, x in enumerate(xs))
    run = NaRun(states)
    want = [["t", "micro"] + ["x%d" % (k + 1) for k in range(n)]]
    want += [[st.macro, st.micro] + [repr(float(v)) for v in st.x] for st in states]
    assert trajectory_csv(run) == _csv_text(want)
    assert "-0.0" in trajectory_csv(run) and "nan" in network_csv(spec)


@pytest.mark.parametrize("case", ["plain", "chain"])
def test_micro_states_match_dense_reference_bit_for_bit(case, plain_net, plain_start, chain_case):
    spec, start, macro_steps = plain_net, plain_start, 6
    if case == "chain":
        spec, start = chain_case
        macro_steps = 2 * CHAIN_K + 3
    run = na_run(spec, embed(spec, start), macro_steps)
    assert len(run.states) == 1 + macro_steps * spec.micro_steps_per_macro
    schedule = _schedule(spec)
    x = run.states[0].x
    for t, state in enumerate(run.states[1:]):
        x = _reference_step(schedule, spec.weights, x, t % spec.micro_steps_per_macro + 1)
        assert _same_bits(state.x, x), "micro state %d differs from the dense reference" % (t + 1)


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
    assert len(spec.phase_ranges) == spec.micro_steps_per_macro
    covered = []
    for k, (lo, hi, kind) in enumerate(spec.phase_ranges):
        assert lo < hi
        assert all(schedule[u] == (k + 1, kind) for u in range(lo, hi))
        covered.extend(range(lo, hi))
    assert sorted(covered) == list(range(spec.n))


def test_spec_rejects_weights_of_another_grid(plain_net):
    with pytest.raises(InternalConsistencyError):
        replace(plain_net, y_cells=plain_net.y_cells + 1)


def _corrupted(spec, unit, column, delta):
    weights = spec.weights.copy()
    weights[unit, column] += delta
    return replace(spec, weights=weights)


def test_validation_catches_a_corrupted_branch_weight(plain_nda, plain_net):
    # raising the threshold of one branch unit silences it on its own cell
    unit = _unit_of(plain_net)["bsl:1:2"]
    with pytest.raises(InternalConsistencyError, match="one-hot"):
        _validate_synthesis(_corrupted(plain_net, unit, plain_net.always_on, -1.0), plain_nda)


@pytest.mark.parametrize("delta", [-0.05, 1e-6])
def test_validation_catches_a_corrupted_affine_weight(plain_nda, plain_net, delta):
    # an offset error on one affine unit moves its cell's image off the table
    cell = next(c for c in plain_nda.cells
                if 0.1 < float(c.apply(PhasePoint(Fraction(c.i, 3), Fraction(c.j, 5))).y1) < 0.9)
    unit = _unit_of(plain_net)["ltl:%d:%d:y1" % (cell.i, cell.j)]
    with pytest.raises(InternalConsistencyError, match="off by"):
        _validate_synthesis(_corrupted(plain_net, unit, plain_net.always_on, delta), plain_nda)


#: sha256 of the weight-corruption sweep's outcomes below, one line per
#: corrupted network, frozen so that any change to what the synthesis check
#: rejects, or to how it says so, shows here.
CORRUPTION_SWEEP_SHA256 = "d654be56564509d37e60ac157a08d35a73cffe8b06a7da200f35ac20484b5173"


def test_validation_outcomes_under_every_unit_weight_corruption(plain_nda, mixed_nda):
    # +1.0, then -1.0, on each nonzero weight of both demo networks in turn
    outcomes = []
    for nda in (plain_nda, mixed_nda):
        spec = synthesize(nda)
        rows, cols = np.nonzero(spec.weights)
        for unit, column in zip(rows.tolist(), cols.tolist()):
            for delta in (1.0, -1.0):
                try:
                    _validate_synthesis(_corrupted(spec, unit, column, delta), nda)
                    outcomes.append("passed")
                except InternalConsistencyError as err:
                    outcomes.append("rejected: %s" % err)
    assert len(outcomes) == 884
    assert outcomes.count("passed") == 172
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == CORRUPTION_SWEEP_SHA256
