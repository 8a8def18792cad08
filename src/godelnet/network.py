"""Neural realization of a piecewise-affine automaton.

The network state is one vector x; the update is x(t+1) = F(W x(t)) with
unitwise activations (saturating ramp or Heaviside step with
theta(s) = 1 iff s >= 0).  Units are organized in banks and updated on a
fixed 5-phase schedule per macro step:

  1. endpoint comparators: Heaviside units comparing each machine
     configuration coordinate against its cell endpoints,
  2. axis interval units: AND of a cell's two endpoint tests per axis,
  3. branch selection (BSL): one unit per partition cell, exactly one active,
  4. linear transformation (LTL): per (cell, coordinate) a ramp unit holding
     lambda*y + a, released only when its cell's branch unit is active,
  5. write-back: the machine configuration layer (MCL) sums the LTL bank.

All thresholds ride on a single always-on unit, so the network needs no
bias vector.  Both endpoint tests carry a small margin eps_b; this shifts
every detection cell to [lo - eps_b, hi - eps_b), which keeps the branch
bank exactly one-hot even when a float state sits one ulp below a cell
corner.

For a machine with p input-axis cells, q stack-axis cells and C = p*q
rectangles the unit count is n = 3 + 3(p + q) + 3C: MCL 2, always-on 1,
comparators 2(p+q), axis units p+q, branch units C, affine units 2C.

Units are laid out so that each phase is one contiguous range with a single
activation: MCL (phase 5, ramp), always-on unit and comparators (phase 1,
step), axis units (phase 2, step), BSL (phase 3, step), LTL (phase 4, ramp).
A micro step therefore computes only the phase's row slice of W x and
activates it in one vectorised call.  The BLAS matrix-vector product sums
each row in the same order whether or not the other rows are computed, so
the slice update is bit-identical to a full W x followed by a per-unit
update of the phase; tests/test_network.py holds it to that.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InternalConsistencyError, ResourceLimitError
from .nda import PhasePoint, nda_step

RAMP = "ramp"
STEP = "step"

MICRO_STEPS_PER_MACRO = 5


@dataclass
class NetworkSpec:
    """Synthesized network: weights, unit metadata, and index maps.

    Treat instances as immutable; the arrays are shared, not copied.
    """

    weights: np.ndarray
    activations: tuple  # per unit: RAMP or STEP
    phases: tuple  # per unit: 1..MICRO_STEPS_PER_MACRO, or 0 (never updated)
    roles: tuple  # per unit: readable role string
    x_cells: int
    y_cells: int
    mcl: tuple = (0, 1)
    always_on: int = 2
    bsl_index: dict = field(default_factory=dict)  # (i, j) -> unit
    ltl_index: dict = field(default_factory=dict)  # (i, j, coord) -> unit
    micro_steps_per_macro: int = MICRO_STEPS_PER_MACRO
    # phase_ranges[k] = (lo, hi, activation) of the units updated in phase k + 1
    phase_ranges: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ranges = []
        for phase in range(1, self.micro_steps_per_macro + 1):
            units = [u for u, ph in enumerate(self.phases) if ph == phase]
            kinds = {self.activations[u] for u in units}
            if not units or units[-1] - units[0] + 1 != len(units) or len(kinds) != 1:
                raise InternalConsistencyError(
                    "phase %d units must form one non-empty contiguous range with one "
                    "activation, got %d units with activations %r" % (phase, len(units), sorted(kinds))
                )
            ranges.append((units[0], units[-1] + 1, kinds.pop()))
        self.phase_ranges = tuple(ranges)

    @property
    def n(self):
        return len(self.activations)

    def bsl_units(self):
        return [self.bsl_index[key] for key in sorted(self.bsl_index)]


@dataclass(frozen=True)
class NeuralState:
    """State vector plus position in the macro-step schedule."""

    x: np.ndarray
    macro: int = 0
    micro: int = 0

    def at_boundary(self):
        return self.micro == 0


def synthesize(nda, eps_b=1e-12, unit_budget=4096):
    """Build the network for an affine cell table.

    Raises ResourceLimitError when the unit count would exceed the budget.
    The construction is validated before returning: from every cell corner,
    one macro step must reproduce the exact affine image to within 1e-9 and
    the branch bank must be one-hot on the correct cell.
    """
    p, q = nda.x_cells, nda.y_cells
    cell_count = p * q
    n = 3 + 3 * (p + q) + 3 * cell_count
    if n > unit_budget:
        raise ResourceLimitError("network needs %d units, budget is %d" % (n, unit_budget))

    mcl_y1, mcl_y2, one = 0, 1, 2
    cmp_x = {}
    cmp_y = {}
    idx = 3
    for i in range(p):
        cmp_x[i] = (idx, idx + 1)
        idx += 2
    for j in range(q):
        cmp_y[j] = (idx, idx + 1)
        idx += 2
    ax_x = {i: idx + i for i in range(p)}
    idx += p
    ax_y = {j: idx + j for j in range(q)}
    idx += q
    bsl = {}
    for i in range(p):
        for j in range(q):
            bsl[(i, j)] = idx
            idx += 1
    ltl = {}
    for i in range(p):
        for j in range(q):
            ltl[(i, j, 1)] = idx
            ltl[(i, j, 2)] = idx + 1
            idx += 2
    assert idx == n

    roles = [""] * n
    activations = [RAMP] * n
    phases = [0] * n
    weights = np.zeros((n, n), dtype=np.float64)

    roles[mcl_y1], roles[mcl_y2] = "mcl:y1", "mcl:y2"
    phases[mcl_y1] = phases[mcl_y2] = 5
    roles[one] = "one"
    activations[one] = STEP
    phases[one] = 1  # recomputes theta(0) = 1; value never changes

    # gating offset: larger than any |lambda*y + a| the affine bank can see
    slab = max(float(abs(c.lam1) + abs(c.a1)) for c in nda.cells)
    slab = max(slab, max(float(abs(c.lam2) + abs(c.a2)) for c in nda.cells))
    big = float(int(slab) + 2)

    for i in range(p):
        lo_u, hi_u = cmp_x[i]
        lo, hi = i / p, (i + 1) / p
        roles[lo_u], roles[hi_u] = "cmp:x:%d:lo" % i, "cmp:x:%d:hi" % i
        activations[lo_u] = activations[hi_u] = STEP
        phases[lo_u] = phases[hi_u] = 1
        weights[lo_u, mcl_y1] = 1.0
        weights[lo_u, one] = -lo + eps_b
        weights[hi_u, mcl_y1] = -1.0
        weights[hi_u, one] = hi - eps_b
    for j in range(q):
        lo_u, hi_u = cmp_y[j]
        lo, hi = j / q, (j + 1) / q
        roles[lo_u], roles[hi_u] = "cmp:y:%d:lo" % j, "cmp:y:%d:hi" % j
        activations[lo_u] = activations[hi_u] = STEP
        phases[lo_u] = phases[hi_u] = 1
        weights[lo_u, mcl_y2] = 1.0
        weights[lo_u, one] = -lo + eps_b
        weights[hi_u, mcl_y2] = -1.0
        weights[hi_u, one] = hi - eps_b

    for i, unit in ax_x.items():
        roles[unit] = "ax:x:%d" % i
        activations[unit] = STEP
        phases[unit] = 2
        weights[unit, cmp_x[i][0]] = 1.0
        weights[unit, cmp_x[i][1]] = 1.0
        weights[unit, one] = -1.5
    for j, unit in ax_y.items():
        roles[unit] = "ax:y:%d" % j
        activations[unit] = STEP
        phases[unit] = 2
        weights[unit, cmp_y[j][0]] = 1.0
        weights[unit, cmp_y[j][1]] = 1.0
        weights[unit, one] = -1.5

    for (i, j), unit in bsl.items():
        roles[unit] = "bsl:%d:%d" % (i, j)
        activations[unit] = STEP
        phases[unit] = 3
        weights[unit, ax_x[i]] = 1.0
        weights[unit, ax_y[j]] = 1.0
        weights[unit, one] = -1.5

    for cell in nda.cells:
        u1 = ltl[(cell.i, cell.j, 1)]
        u2 = ltl[(cell.i, cell.j, 2)]
        roles[u1] = "ltl:%d:%d:y1" % (cell.i, cell.j)
        roles[u2] = "ltl:%d:%d:y2" % (cell.i, cell.j)
        phases[u1] = phases[u2] = 4
        weights[u1, mcl_y1] = float(cell.lam1)
        weights[u1, one] = float(cell.a1) - big
        weights[u1, bsl[(cell.i, cell.j)]] = big
        weights[u2, mcl_y2] = float(cell.lam2)
        weights[u2, one] = float(cell.a2) - big
        weights[u2, bsl[(cell.i, cell.j)]] = big
        weights[mcl_y1, u1] = 1.0
        weights[mcl_y2, u2] = 1.0

    spec = NetworkSpec(
        weights=weights,
        activations=tuple(activations),
        phases=tuple(phases),
        roles=tuple(roles),
        x_cells=p,
        y_cells=q,
        bsl_index=bsl,
        ltl_index=ltl,
    )
    _validate_synthesis(spec, nda)
    return spec


def _validate_synthesis(spec, nda, tol=1e-9):
    """Drive one macro step from every cell corner and compare to the table."""
    bsl_lo, bsl_hi, _ = spec.phase_ranges[2]  # branch unit of (i, j) is bsl_lo + i*q + j
    for cell in nda.cells:
        corner = PhasePoint(cell.x_interval.lo, cell.y_interval.lo)
        state = embed(spec, corner)
        for _ in range(3):
            state = na_micro_step(spec, state)
        active = [divmod(int(k), spec.y_cells)
                  for k in np.flatnonzero(state.x[bsl_lo:bsl_hi] == 1.0)]
        if active != [(cell.i, cell.j)]:
            raise InternalConsistencyError(
                "branch bank not one-hot on cell (%d, %d): active %r" % (cell.i, cell.j, active)
            )
        for _ in range(2):
            state = na_micro_step(spec, state)
        exact = cell.apply(corner)
        err = max(abs(state.x[0] - float(exact.y1)), abs(state.x[1] - float(exact.y2)))
        if err > tol:
            raise InternalConsistencyError(
                "macro step from corner of cell (%d, %d) off by %g" % (cell.i, cell.j, err)
            )


def embed(spec, point):
    """Initial network state holding a phase point in the MCL."""
    x = np.zeros(spec.n, dtype=np.float64)
    x[spec.mcl[0]], x[spec.mcl[1]] = point.as_floats() if isinstance(point, PhasePoint) else point
    x[spec.always_on] = 1.0
    return NeuralState(x=x, macro=0, micro=0)


def activate(kind, net):
    """Unitwise activation of a net-input array.

    ramp: min(1, max(0, s)), with 0 for NaN; step: 1 iff s >= 0, so 0 for NaN.
    """
    if kind == RAMP:
        return np.where(net > 0.0, np.minimum(net, 1.0), 0.0)
    return (net >= 0.0).astype(np.float64)


def na_micro_step(spec, state):
    """Advance one micro step: units of the next phase update, others hold."""
    lo, hi, kind = spec.phase_ranges[state.micro]
    x = state.x.copy()
    x[lo:hi] = activate(kind, spec.weights[lo:hi] @ state.x)
    micro = state.micro + 1
    macro = state.macro
    if micro == spec.micro_steps_per_macro:
        micro, macro = 0, macro + 1
    return NeuralState(x=x, macro=macro, micro=micro)


def mcl_projection(state_or_vector, spec=None):
    """The two machine-configuration components as floats."""
    if isinstance(state_or_vector, NeuralState):
        vec = state_or_vector.x
    else:
        vec = state_or_vector
    i1, i2 = (spec.mcl if spec is not None else (0, 1))
    return float(vec[i1]), float(vec[i2])


@dataclass(frozen=True)
class NaRun:
    """All micro states of a run plus divergence bookkeeping."""

    states: tuple  # every micro state, starting with the embedding
    macro_states: tuple  # the subsequence at macro boundaries
    max_divergence: float = 0.0
    diverged: bool = False
    divergence_step: int = -1


def na_run(spec, state, macro_steps, reference=None, tol=1e-9, point=None):
    """Run ``macro_steps`` macro steps from ``state``.

    With ``reference`` (an affine cell table) and ``point`` (the exact phase
    point embedded in ``state``) the MCL trace is compared at every macro
    boundary; exceeding ``tol`` flags the run as diverged.
    """
    states = [state]
    boundaries = [state]
    max_div, diverged, div_step = 0.0, False, -1
    exact = point
    for k in range(macro_steps):
        for _ in range(spec.micro_steps_per_macro):
            state = na_micro_step(spec, state)
            states.append(state)
        boundaries.append(state)
        if reference is not None and exact is not None:
            exact = nda_step(reference, exact)
            e1, e2 = float(exact.y1), float(exact.y2)
            err = max(abs(state.x[0] - e1), abs(state.x[1] - e2))
            max_div = max(max_div, err)
            if err > tol and not diverged:
                diverged, div_step = True, k + 1
    return NaRun(tuple(states), tuple(boundaries), max_div, diverged, div_step)


def require_sound(run):
    if run.diverged:
        raise DivergenceError(
            "network diverged from the affine table at macro step %d (max %g)"
            % (run.divergence_step, run.max_divergence),
            counterexample=run.divergence_step,
        )
    return run


def network_csv(spec):
    """CSV blocks: unit roles, then nonzero weights."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["record", "a", "b", "c", "d"])
    for unit in range(spec.n):
        w.writerow(["unit", unit, spec.roles[unit], spec.activations[unit], spec.phases[unit]])
    rows, cols = np.nonzero(spec.weights)
    for t, s in zip(rows.tolist(), cols.tolist()):
        w.writerow(["weight", t, s, repr(float(spec.weights[t, s])), ""])
    return out.getvalue()


def trajectory_csv(run):
    """CSV of every micro state: t, micro, x1..xn."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    n = len(run.states[0].x)
    w.writerow(["t", "micro"] + ["x%d" % (k + 1) for k in range(n)])
    for st in run.states:
        w.writerow([st.macro, st.micro] + [repr(float(v)) for v in st.x])
    return out.getvalue()
