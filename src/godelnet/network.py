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
bias vector.  Both endpoint tests carry a small margin EPS_B; this shifts
every detection cell to [lo - EPS_B, hi - EPS_B), which keeps the branch
bank exactly one-hot even when a float state sits one ulp below a cell
corner.

For a machine with p input-axis cells, q stack-axis cells and C = p*q
rectangles the unit count is n = 3 + 3(p + q) + 3C: MCL 2, always-on 1,
comparators 2(p+q), axis units p+q, branch units C, affine units 2C.

Units are index grids laid out bank by bank, so a unit's role follows from
its index and (p, q) alone (``_layout`` gives the bank offsets):

  units                 bank                               phase
  0, 1                  MCL y1, y2                         5, ramp
  2                     always-on unit                     1, step
  cmp + 2a, cmp + 2a+1  lo/hi comparators of axis cell a   1, step
  ax + a                axis unit of axis cell a           2, step
  bsl + k               branch unit of cell k              3, step
  ltl + 2k, ltl + 2k+1  affine units y1, y2 of cell k      4, ramp

where axis cell a < p is input-axis cell a, axis cell p + j is stack-axis
cell j, and k = i*q + j is the row-major index of cell (i, j).  Each phase
is one contiguous range with a single activation, so a micro step computes
only the phase's row slice of W x and activates it in one vectorised call.
The BLAS matrix-vector product sums each row in the same order whether or
not the other rows are computed, so the slice update is bit-identical to a
full W x followed by a per-unit update of the phase; tests/test_network.py
holds it to that.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import DomainError, InternalConsistencyError, ResourceLimitError
from .nda import PhasePoint, nda_step

RAMP = "ramp"
STEP = "step"

MICRO_STEPS_PER_MACRO = 5
MCL = (0, 1)
ALWAYS_ON = 2

#: Margin of the endpoint comparators (see the module docstring).
EPS_B = 1e-12
#: Largest network a synthesis may build, in units.
UNIT_BUDGET = 4096
#: Largest MCL deviation from the exact image allowed at a macro boundary.
SOUNDNESS = 1e-9


def _layout(p, q):
    """Bank offsets (comparators, axis units, BSL, LTL) and the unit count n."""
    cmp = ALWAYS_ON + 1
    ax = cmp + 2 * (p + q)
    bsl = ax + p + q
    ltl = bsl + p * q
    return cmp, ax, bsl, ltl, ltl + 2 * p * q


@dataclass
class NetworkSpec:
    """Synthesized network: dense weights over the grid layout of a p x q table.

    Treat instances as immutable; the arrays are shared, not copied.
    """

    weights: np.ndarray
    x_cells: int
    y_cells: int
    mcl = MCL
    always_on = ALWAYS_ON
    micro_steps_per_macro = MICRO_STEPS_PER_MACRO
    # phase_ranges[k] = (lo, hi, activation) of the units updated in phase k + 1
    phase_ranges: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _, ax, bsl, ltl, n = _layout(self.x_cells, self.y_cells)
        if self.weights.shape != (n, n):
            raise InternalConsistencyError(
                "a %d x %d table needs %d x %d weights, got %r"
                % (self.x_cells, self.y_cells, n, n, self.weights.shape)
            )
        self.phase_ranges = (
            (ALWAYS_ON, ax, STEP),  # the always-on unit recomputes theta(0) = 1
            (ax, bsl, STEP),
            (bsl, ltl, STEP),
            (ltl, n, RAMP),
            (MCL[0], MCL[1] + 1, RAMP),
        )

    @property
    def n(self):
        return len(self.weights)

    def bsl_units(self):
        lo, hi, _ = self.phase_ranges[2]
        return range(lo, hi)


@dataclass(frozen=True)
class NeuralState:
    """State vector plus position in the macro-step schedule."""

    x: np.ndarray
    macro: int = 0
    micro: int = 0


def synthesize(nda):
    """Build the network for an affine cell table.

    Raises ResourceLimitError when the unit count would exceed UNIT_BUDGET.
    The construction is validated before returning: from every cell corner,
    one macro step must reproduce the exact affine image to within SOUNDNESS and
    the branch bank must be one-hot on the correct cell.
    """
    p, q = nda.x_cells, nda.y_cells
    cmp, ax, bsl, ltl, n = _layout(p, q)
    if n > UNIT_BUDGET:
        raise ResourceLimitError("network needs %d units, budget is %d" % (n, UNIT_BUDGET))
    weights = np.zeros((n, n), dtype=np.float64)
    y1, y2 = MCL

    # comparators: lo fires iff y >= lo - EPS_B, hi iff y <= hi - EPS_B
    for coord, first, count in ((y1, 0, p), (y2, p, q)):
        k = np.arange(count)
        lo_u = cmp + 2 * (first + k)
        weights[lo_u, coord] = 1.0
        weights[lo_u, ALWAYS_ON] = -(k / count) + EPS_B
        weights[lo_u + 1, coord] = -1.0
        weights[lo_u + 1, ALWAYS_ON] = (k + 1) / count - EPS_B

    # axis unit a: AND of its two comparators
    a = np.arange(p + q)
    weights[ax + a, cmp + 2 * a] = 1.0
    weights[ax + a, cmp + 2 * a + 1] = 1.0
    weights[ax + a, ALWAYS_ON] = -1.5

    # branch unit of cell k = (i, j): AND of axis units i and p + j
    k = np.arange(p * q)
    i, j = np.divmod(k, q)
    weights[bsl + k, ax + i] = 1.0
    weights[bsl + k, ax + p + j] = 1.0
    weights[bsl + k, ALWAYS_ON] = -1.5

    # gating offset: larger than any |lambda*y + a| the affine bank can see
    slab = max(float(abs(c.lam1) + abs(c.a1)) for c in nda.cells)
    slab = max(slab, max(float(abs(c.lam2) + abs(c.a2)) for c in nda.cells))
    big = float(int(slab) + 2)

    # affine units of cell k, released by its branch unit, summed into the MCL
    for u, cell in zip(range(ltl, n, 2), nda.cells):
        weights[u, y1] = float(cell.lam1)
        weights[u, ALWAYS_ON] = float(cell.a1) - big
        weights[u + 1, y2] = float(cell.lam2)
        weights[u + 1, ALWAYS_ON] = float(cell.a2) - big
    weights[ltl + 2 * k, bsl + k] = big
    weights[ltl + 2 * k + 1, bsl + k] = big
    weights[y1, ltl:n:2] = 1.0
    weights[y2, ltl + 1:n:2] = 1.0

    spec = NetworkSpec(weights=weights, x_cells=p, y_cells=q)
    _validate_synthesis(spec, nda)
    return spec


def _validate_synthesis(spec, nda):
    """Drive one macro step from every cell corner and compare to the table."""
    bsl_lo, bsl_hi, _ = spec.phase_ranges[2]  # branch unit of (i, j) is bsl_lo + i*q + j
    for cell in nda.cells:
        corner = PhasePoint(Fraction(cell.i, spec.x_cells), Fraction(cell.j, spec.y_cells))
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
        if err > SOUNDNESS:
            raise InternalConsistencyError(
                "macro step from corner of cell (%d, %d) off by %g" % (cell.i, cell.j, err)
            )


def embed(spec, point):
    """Initial network state holding a phase point in the MCL."""
    x = np.zeros(spec.n, dtype=np.float64)
    x[MCL[0]], x[MCL[1]] = point.as_floats()
    x[ALWAYS_ON] = 1.0
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


@dataclass(frozen=True)
class NaRun:
    """All micro states of a run plus divergence bookkeeping."""

    states: tuple  # every micro state, starting with the embedding
    max_divergence: float = 0.0
    divergence_step: int = -1  # first macro step off the exact orbit, or -1

    @property
    def macro_states(self):  # the subsequence at macro boundaries
        return self.states[::MICRO_STEPS_PER_MACRO]

    @property
    def diverged(self):
        return self.divergence_step >= 0


def na_run(spec, state, macro_steps, reference=None, tol=SOUNDNESS, point=None):
    """Run ``macro_steps`` macro steps from ``state``.

    With ``reference`` (an affine cell table) and ``point`` (the exact phase
    point embedded in ``state``) the MCL trace is compared at every macro
    boundary; exceeding ``tol`` flags the run as diverged.  Either one
    without the other would compare nothing and raises DomainError.
    """
    if (reference is None) != (point is None):
        raise DomainError("na_run compares with the exact orbit given both reference and point, "
                          "got only %s" % ("point" if reference is None else "reference"))
    states = [state]
    max_div, div_step = 0.0, -1
    exact = point
    for k in range(macro_steps):
        for _ in range(spec.micro_steps_per_macro):
            state = na_micro_step(spec, state)
            states.append(state)
        if reference is not None:
            exact = nda_step(reference, exact)
            e1, e2 = float(exact.y1), float(exact.y2)
            err = max(abs(state.x[0] - e1), abs(state.x[1] - e2))
            max_div = max(max_div, err)
            if err > tol and div_step < 0:
                div_step = k + 1
    return NaRun(tuple(states), max_div, div_step)


def _roles(p, q):
    """Readable role of every unit, in unit order."""
    yield from ("mcl:y1", "mcl:y2", "one")
    axes = [("x", i) for i in range(p)] + [("y", j) for j in range(q)]
    for axis, i in axes:
        yield "cmp:%s:%d:lo" % (axis, i)
        yield "cmp:%s:%d:hi" % (axis, i)
    for axis, i in axes:
        yield "ax:%s:%d" % (axis, i)
    cells = list(product(range(p), range(q)))
    for i, j in cells:
        yield "bsl:%d:%d" % (i, j)
    for i, j in cells:
        yield "ltl:%d:%d:y1" % (i, j)
        yield "ltl:%d:%d:y2" % (i, j)


def network_csv(spec):
    """CSV blocks: unit roles, then nonzero weights.

    No field needs CSV quoting (roles are colon-separated tokens, weights
    float reprs), so each line is formatted directly.
    """
    lines = ["record,a,b,c,d"]
    roles = _roles(spec.x_cells, spec.y_cells)
    for lo, hi, kind, phase in sorted((lo, hi, kind, phase) for phase, (lo, hi, kind)
                                      in enumerate(spec.phase_ranges, 1)):
        lines += ["unit,%d,%s,%s,%d" % (unit, next(roles), kind, phase) for unit in range(lo, hi)]
    rows, cols = np.nonzero(spec.weights)
    values = spec.weights[rows, cols].tolist()
    lines += ["weight,%d,%d,%r," % entry for entry in zip(rows.tolist(), cols.tolist(), values)]
    return "\n".join(lines) + "\n"


def trajectory_csv(run):
    """CSV of every micro state: t, micro, x1..xn.

    Each distinct float64 (told apart by its bits, so -0.0 and 0.0 stay
    apart) is formatted once with repr.  No field needs CSV quoting, so
    each line is joined directly.
    """
    xs = np.array([st.x for st in run.states], dtype=np.float64)
    bits, inverse = np.unique(xs.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    lines = [",".join(["t", "micro"] + ["x%d" % (k + 1) for k in range(xs.shape[1])])]
    for st, row in zip(run.states, texts[inverse.reshape(xs.shape)].tolist()):
        lines.append(",".join([str(st.macro), str(st.micro)] + row))
    return "\n".join(lines) + "\n"
