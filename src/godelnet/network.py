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
bias vector.  Both endpoint tests carry a small margin EPS_B: axis cell a
detects the floats in [lo - EPS_B, hi - EPS_B], each end rounded once, so a
float state one ulp below a cell corner still reads as the corner's cell.
Neighbouring cells share that rounded end, where both fire, and the top
EPS_B of each cell reads as the next cell (as no cell at the top of an axis).

For a machine with p input-axis cells, q stack-axis cells and C = p*q
rectangles the unit count is n = 3 + 3(p + q) + 3C: MCL 2, always-on 1,
comparators 2(p+q), axis units p+q, branch units C, affine units 2C.

Units are index grids laid out bank by bank, so a unit's role follows from
its index and (p, q) alone.  ``_bank_table`` is that layout, built once per
(p, q): each bank's units, inputs grid, tuple of role names, phase and
activation.  A network is one weight per entry of each bank's inputs grid;
its dense matrix is derived from them, so no weight lies outside a bank.

  units                 bank                               phase
  0, 1                  MCL y1, y2                         5, ramp
  2                     always-on unit                     1, step
  cmp + 2a, cmp + 2a+1  lo/hi comparators of axis cell a   1, step
  ax + a                axis unit of axis cell a           2, step
  bsl + k               branch unit of cell k              3, step
  ltl + 2k, ltl + 2k+1  affine units y1, y2 of cell k      4, ramp

where axis cell a < p is input-axis cell a, axis cell p + j is stack-axis
cell j, and k = i*q + j is the row-major index of cell (i, j).  Each phase
is one contiguous range with a single activation, and but for the MCL its
units read only units laid out before them.  So the spec keeps for phase
k + 1 one entry phases[k] = (lo, hi, activation, block), block being
W[lo:hi, :width] of the weights, width one past the last column the phase
reads, rounded up to BLOCK_ALIGN = 64 and capped at n; a micro step of
the bank engine computes block @ x[:width] and activates it in one
vectorised call.
The dense n x n matrix is built only when something reads it.

The blocks give the dense W x its bits.  The BLAS matrix-vector product
(OpenBLAS dgemv_t) sums each row on its own, but not each row alike: a
kernel takes the rows four at a time and sums a short last group apart, so
a row multiplied alone can round unlike the same row in its block (of the
2,544 rows released in 60 seeded G_10 runs and the two demo runs, 10 did
under Haswell, 299 under Prescott and Sandybridge, none under SkylakeX).
Rows keep their bits in aligned groups of four: block[4g:4g + 4], clipped
at the block's end, gives those rows' bits of the whole block under every
kernel tried.  Leaving columns
out can change bits too: a kernel spreads a row over SIMD lanes and
unrolled groups counted from column 0, and sums a short tail apart.  Each
block starts at column 0 and its width is a multiple of the column unroll
of every dgemv_t kernel (64 is checked under the default, Prescott,
Sandybridge, Haswell, Zen and SkylakeX kernels), so each weight keeps its
lane and group, and only whole groups of zero weights drop out, which add
exact zeros (and 0.0 and -0.0 activate alike).  A width cut at the last
column read moves the last weights into the tail and changes the bits of
some runs.  This holds for states of finite values, which every state from
``embed`` or from the activations is: a hand-built state with NaN or an
infinity in a column at or past a block's width no longer turns that
phase's sums into NaN.

``na_run`` runs a spec that ``synthesize`` certified by the facts its
certificate proves (below), one macro step at a time:

  1. the always-on unit is 1, and the lo (hi) comparator of axis cell a is
     y >= lo_a (y <= hi_a) on its coordinate, exactly;
  2. each axis unit is the AND of its two comparators;
  3. each branch unit is the AND of its input-axis and stack-axis units;
  4. the affine units of the released cells (branch unit on) are their
     aligned groups of four rows, block[4g:4g + 4] @ x[:width] for cell k
     and g = k // 2 (cells 2g and 2g + 1 share the group), ramped; every
     other affine unit is 0.0, the value its row is proved to clamp to;
  5. with one cell released, the MCL is that cell's two affine outputs,
     which the MCL rows add to exact zeros; with none (defect 3a) or two or
     more (cells that share a rounded edge) the MCL block is multiplied.

The only sums whose bits depend on summation order are the released affine
rows and the MCL under several released cells; they keep the bank engine's
BLAS calls, so every micro state keeps its bits under every kernel.  Every
other output is 0 or 1 by a proved sign, or one value added to exact zeros.
This is exact on the domain ``na_run`` admits, which every later state stays
in: a start whose x is a 1-d float64 array of n finite entries, with the
always-on unit at 1 and the MCL in [0, 1].  ``na_micro_step`` is the bank
engine, every row of every block: it runs a spec without a certificate
(built or ``replace``d by hand) and is the certified step's oracle.
tests/test_network.py holds both to the dense update, bit for bit.

``synthesize`` certifies its network without running it: ``_certify`` reads
the banks back and checks, in exact arithmetic (a float64 converts to a
Fraction exactly), what one macro step does from every point of every cell.

  - Support needs no check: each unit reads only its bank's inputs, so no
    state left over from an earlier step enters a sum.
  - Comparators: the gain on the coordinate is exactly +1 (lo) or -1 (hi),
    so each fires on an exact interval (a sum of two floats rounds to a
    float of its sign, and to 0 only when it is 0).  Each axis cell's
    interval must hold the cell's lower edge and no other cell's; how far
    it reaches past the true edges is the cell's margin, kept, not judged.
  - Axis and branch units: every sum of the AND truth table over {0, 1}
    lies beyond its rounding bound on the right side of 0, so the branch
    bank is one-hot wherever the margins hold.
  - Write-back: every MCL weight is exactly 1, and an affine unit whose
    branch unit is off outputs exactly 0 for every y in [0, 1], so the MCL
    sum adds one value to exact zeros and rounds nothing.
  - Affine units: with the branch unit on, the row's exact value departs
    from the cell's lambda*y + a over the cell by a linear function of y;
    that departure plus the row's rounding must stay within SOUNDNESS.

Rounding is bounded as in Higham, "Accuracy and Stability of Numerical
Algorithms" (section 3.1): a dot product of k nonzero terms is off by at
most gamma_k = k u / (1 - k u), u = 2**-53, times the sum of the terms'
magnitudes, in any summation order, with or without fused multiply-adds,
so the bounds hold under every BLAS kernel; zero weights add exact zeros.
Any fault above is an InternalConsistencyError, naming the first faulting
unit.  The numbers are kept on ``NetworkSpec.certificate``, a Certificate
that holds each fact once: per axis cell its exact detection interval and
margins, shared by every spec of one detection key; the distinct bounds,
each with its gain and rounding; and per affine unit the index of its
bound.  Entry k, built on read, is cell k's CellBound (margins, gain,
rounding).

Each fact is proved once, in integers wherever it can be: each comparator
pair once per axis cell (its ends n/d against the edges t/count by
cross-multiplication), each AND bank once per distinct row (its three sums
as numerators over the row's power-of-two denominator), the MCL in one
vectorised test, and each affine row once per distinct (row, side map)
pair.  Rows are told apart by their bytes and side maps (lambda, a) by the
identities of their Fraction objects, which the cell table shares among
equal maps; equal maps held in distinct objects are proved once each, to
the same result.  A pair's bound is proved once when the row's gain is the
exact lambda, else once per axis cell it is read on.

Only the affine (LTL) bank carries lambda and a.  The other banks' proof
(``_certify_detection``) and their blocks of phases 1, 2, 3 and 5, shared
read-only by every spec of one key (``_detection_phases``), are memoised
across calls in ``lru_cache``s of 32 keys, keyed on (p, q) and the exact
bytes of those banks (``_detection_key``).  A bank one bit apart is a new
key, so a ``replace``d or corrupted spec is proved afresh; a fault is raised,
never cached.  The LTL block and the affine proofs are built per spec.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InternalConsistencyError, ResourceLimitError
from .nda import nda_step
from .symbols import check_whole

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
#: Column alignment of the phase blocks.  Load-bearing: a width that is a
#: multiple of every OpenBLAS dgemv_t column unroll keeps each row's
#: summation order, so the blocks give the dense product's bits (see the
#: module docstring); a width cut at the last column read does not.
BLOCK_ALIGN = 64
#: Index in ``NetworkSpec.phases`` of the LTL (phase 4); the BSL is the one before it.
_LTL = 3


class Bank(NamedTuple):
    """One bank of the layout: unit ``units[t]`` reads columns ``inputs[t]``."""

    units: range
    inputs: np.ndarray  # read-only, one row per unit
    phase: int
    activation: str
    roles: tuple  # the role name of each unit


def _bank_sizes(p, q):
    """Units per bank of the network of a p x q table, in layout order; a network
    past UNIT_BUDGET is refused here, before any layout of it is built or cached."""
    sizes = {"mcl": 2, "one": 1, "cmp": 2 * (p + q), "ax": p + q, "bsl": p * q, "ltl": 2 * p * q}
    n = sum(sizes.values())
    if n > UNIT_BUDGET:
        raise ResourceLimitError("network needs %d units, budget is %d" % (n, UNIT_BUDGET))
    return sizes


@lru_cache(maxsize=32)
def _bank_table(p, q):
    """The banks of the network of a p x q table, by name, in unit order.

    Each bank starts where the one before it stops: MCL (units MCL), the
    always-on unit (ALWAYS_ON), comparators, axis units, BSL, LTL.  Inputs:
    comparators (coordinate, always-on), axis units (lo, hi comparator,
    always-on), branch units (axis unit i, axis unit p + j, always-on),
    affine units (coordinate, always-on, branch unit) and the two MCL units
    (every affine unit of their coordinate); the always-on unit reads nothing.
    """
    sizes = _bank_sizes(p, q)
    start = dict(zip(sizes, accumulate(sizes.values(), initial=0)))
    cmp, ax, bsl, ltl, one = start["cmp"], start["ax"], start["bsl"], start["ltl"], ALWAYS_ON
    a = np.arange(p + q)
    k, c = np.divmod(np.arange(2 * p * q), 2)
    i, j = np.divmod(np.arange(p * q), q)
    coord = np.repeat((a >= p).astype(np.intp), 2)
    axes = [("x", t) for t in range(p)] + [("y", t) for t in range(q)]
    banks = {
        "mcl": (ltl + np.arange(2 * p * q).reshape(p * q, 2).T, 5, RAMP, ("mcl:y1", "mcl:y2")),
        "one": (np.empty((1, 0), np.intp), 1, STEP, ("one",)),  # recomputes theta(0) = 1
        "cmp": (np.stack([coord, np.full_like(coord, one)], 1), 1, STEP,
                tuple("cmp:%s:%d:%s" % (*axis, side) for axis in axes for side in ("lo", "hi"))),
        "ax": (np.stack([cmp + 2 * a, cmp + 2 * a + 1, np.full_like(a, one)], 1), 2, STEP,
               tuple("ax:%s:%d" % axis for axis in axes)),
        "bsl": (np.stack([ax + i, ax + p + j, np.full_like(i, one)], 1), 3, STEP,
                tuple("bsl:%d:%d" % divmod(t, q) for t in range(p * q))),
        "ltl": (np.stack([c, np.full_like(c, one), bsl + k], 1), 4, RAMP,
                tuple("ltl:%d:%d:y%d" % (*divmod(t // 2, q), t % 2 + 1) for t in range(2 * p * q))),
    }
    for name, (inputs, *_) in banks.items():
        inputs.flags.writeable = False
    return MappingProxyType({name: Bank(range(start[name], start[name] + sizes[name]), *bank)
                             for name, bank in banks.items()})


@dataclass
class NetworkSpec:
    """Synthesized network: one weight per entry of each bank's inputs grid.

    ``banks`` maps each bank of ``_bank_table(x_cells, y_cells)`` to an array
    of its inputs grid's shape.  ``phases[k] = (lo, hi, activation, block)``
    is phase k + 1: its units lo..hi - 1, their activation, and the block
    W[lo:hi, :width] of the weight matrix that the engine multiplies, built
    from the banks; ``weights``, the dense n x n matrix, is built from the
    blocks when first read.  All are read-only, so the engine runs the
    weights the certificate read: the banks, the LTL block and ``weights``
    are the spec's own copies, and the other blocks are shared by every spec
    of the same detection banks (``_detection_phases``).  Treat instances as
    immutable.
    """

    banks: dict
    x_cells: int
    y_cells: int
    mcl = MCL
    always_on = ALWAYS_ON
    micro_steps_per_macro = MICRO_STEPS_PER_MACRO
    n: int = field(init=False, repr=False)
    phases: tuple = field(init=False, repr=False)
    # the Certificate of the banks; only synthesize sets it, so a spec built
    # or replaced with other banks carries none and na_run runs it on the
    # bank engine
    certificate: "Certificate" = field(init=False, default=None, repr=False)

    def __post_init__(self):
        p, q = self.x_cells, self.y_cells
        table = _bank_table(p, q)
        self.n = table["ltl"].units.stop  # the LTL is laid out last
        banks = {}
        for name, bank in table.items():
            values = banks[name] = np.array(self.banks[name], dtype=np.float64)
            if values.shape != bank.inputs.shape:
                raise InternalConsistencyError("bank %s of a %d x %d table needs %r weights, got %r" % (
                    name, p, q, bank.inputs.shape, values.shape))
            values.flags.writeable = False
        self.banks = MappingProxyType(banks)
        shared = _detection_phases(*_detection_key(p, q, banks))
        self.phases = (*shared[:_LTL], _phase_block(p, q, _LTL + 1, banks), *shared[_LTL:])

    @cached_property
    def weights(self):
        """The dense n x n weight matrix, read-only, built on first read."""
        weights = np.zeros((self.n, self.n), dtype=np.float64)
        for lo, hi, _, block in self.phases:
            weights[lo:hi, :block.shape[1]] = block
        weights.flags.writeable = False
        return weights


def _phase_block(p, q, phase, banks):
    """Entry (lo, hi, activation, block) of ``NetworkSpec.phases`` for ``phase``,
    built from the weights ``banks`` of the p x q table's banks of that phase."""
    table = _bank_table(p, q)
    # the banks of one phase are adjacent and share its activation
    members = [(bank, banks[name]) for name, bank in table.items() if bank.phase == phase]
    lo, hi = members[0][0].units.start, members[-1][0].units.stop
    reads = max(int(bank.inputs.max(initial=-1)) + 1 for bank, _ in members)
    width = min(-(-reads // BLOCK_ALIGN) * BLOCK_ALIGN, table["ltl"].units.stop)
    block = np.zeros((hi - lo, width), dtype=np.float64)
    for bank, values in members:
        np.put_along_axis(block[bank.units.start - lo:bank.units.stop - lo], bank.inputs, values, 1)
    block.flags.writeable = False
    return lo, hi, members[0][0].activation, block


#: The banks but the LTL that hold weights; the always-on unit reads nothing.
_DETECTION = ("cmp", "ax", "bsl", "mcl")


def _detection_key(p, q, banks):
    """Key of the detection memos: (p, q) and the bytes of each ``_DETECTION``
    bank, so a bank that differs by one bit is a new key."""
    return (p, q, *(banks[name].tobytes() for name in _DETECTION))


def _detection_banks(p, q, data):
    """Every bank but the LTL, by name, as read-only arrays over the bytes ``data`` of a key."""
    table = _bank_table(p, q)
    banks = {name: np.frombuffer(raw).reshape(table[name].inputs.shape) for name, raw in zip(_DETECTION, data)}
    return {"one": np.empty(table["one"].inputs.shape), **banks}


@lru_cache(maxsize=32)
def _detection_phases(p, q, *data):
    """The phase entries but the LTL's, in phase order, shared read-only by every
    spec whose ``_detection_key`` is (p, q, *data)."""
    banks = _detection_banks(p, q, data)
    return tuple(_phase_block(p, q, phase, banks) for phase in (1, 2, 3, 5))


@dataclass(frozen=True)
class NeuralState:
    """State vector plus position in the macro-step schedule."""

    x: np.ndarray
    macro: int = 0
    micro: int = 0


def synthesize(nda):
    """Build the network for an affine cell table.

    Raises ResourceLimitError when the unit count would exceed UNIT_BUDGET;
    the budget is checked from the table's size before the layout is built.
    Before returning, the weights are certified over every whole cell
    without running the network (``_certify``, see the module docstring):
    a structural fault raises InternalConsistencyError, and what it proves
    is kept on the spec's ``certificate``.
    """
    p, q = nda.x_cells, nda.y_cells
    _bank_sizes(p, q)  # on every call: a cached layout must not skip the budget
    table = _bank_table(p, q)

    # comparators: lo fires iff y >= lo - EPS_B, hi iff y <= hi - EPS_B
    comparators = np.empty((2 * (p + q), 2))
    comparators[:, 0] = (1.0, -1.0) * (p + q)
    comparators[0::2, 1] = -np.concatenate([np.arange(p) / p, np.arange(q) / q]) + EPS_B
    comparators[1::2, 1] = np.concatenate([np.arange(1, p + 1) / p, np.arange(1, q + 1) / q]) - EPS_B

    # affine units of cell k: lambda*y + a, held below 0 by a gating offset
    # larger than any |lambda*y + a| until the branch unit adds it back; the
    # cells share a few side maps, so each is converted once (an integer true
    # division rounds as float() of the Fraction does)
    maps, which = side_maps = _side_maps(nda)
    big = float(int(max((abs(lam.numerator) * a.denominator + abs(a.numerator) * lam.denominator)
                        / (lam.denominator * a.denominator) for lam, a in maps)) + 2)
    lam, offset = np.array(maps, dtype=np.float64)[which].T
    affine = np.stack([lam, offset - big, np.full_like(lam, big)], 1)

    # axis and branch units are ANDs of their two inputs; the MCL sums its affine units
    values = {"mcl": 1.0, "one": (), "cmp": comparators, "ax": (1.0, 1.0, -1.5), "bsl": (1.0, 1.0, -1.5),
              "ltl": affine}
    banks = {name: np.broadcast_to(values[name], bank.inputs.shape) for name, bank in table.items()}
    spec = NetworkSpec(banks, p, q)
    spec.certificate = _certify(spec, side_maps)
    return spec


def _role(p, q, unit):
    bank = next(bank for bank in _bank_table(p, q).values() if unit in bank.units)
    return bank.roles[unit - bank.units.start]


def _fault(p, q, unit, message, *args):
    return InternalConsistencyError(("%s (unit %d): " % (_role(p, q, unit), unit)) + message % args)


#: Unit roundoff of float64 arithmetic (round to nearest even).
_U = Fraction(1, 2**53)
#: The least subnormal float64; a product that underflows is off by at most half of it.
_TINY = Fraction(1, 2**1074)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): a k-term dot product is off by at
    most gamma_k times the sum of its terms' magnitudes, in any summation order."""
    return k * _U / (1 - k * _U)


_GAMMA2, _GAMMA3 = _gamma(2), _gamma(3)


class CellBound(NamedTuple):
    """What the certificate proves about one macro step from cell (i, j).

    margins = (lo1, hi1, lo2, hi2): every y1 in (i/p - lo1, (i+1)/p + hi1) and
    every y2 in (j/q - lo2, (j+1)/q + hi2) read as this cell and no other; a
    negative hi margin is the top band of the cell that reads as another cell
    or as none.  gain = (|lambda1|, |lambda2|) of the cell's exact map.
    rounding = (e1, e2): from any such point, the MCL after one macro step
    lies within e of the cell's exact image of it, clamped to [0, 1]; each e
    is a float64, rounded up.  All numbers are exact Fractions.
    """

    margins: tuple
    gain: tuple
    rounding: tuple


class Certificate(Sequence):
    """What ``_certify`` proves about one macro step, each fact held once.

    Per axis cell a (input-axis cell a < p, stack-axis cell a - p): the ends
    lo[a], hi[a] of its exact detection interval, two read-only float
    arrays (its lo comparator fires iff y >= lo[a], its hi comparator iff
    y <= hi[a]), and margins[a] = (lo, hi), as in CellBound.  Per distinct
    bound d: gains[d], the |lambda| of its exact map, and rounding[d], its
    float64 bound rounded up.  Per affine unit u (unit ltl + u):
    bound_of[u], the index of its bound, a read-only array.

    As a sequence of the p*q cells, entry k is the CellBound of cell k,
    built on read.  Two certificates are equal when their cells and their
    detection intervals are.
    """

    def __init__(self, x_cells, y_cells, lo, hi, margins, gains, rounding, bound_of):
        self.x_cells, self.y_cells = x_cells, y_cells
        self.lo, self.hi, self.margins = lo, hi, margins
        self.gains, self.rounding, self.bound_of = gains, rounding, bound_of

    def __len__(self):
        return self.x_cells * self.y_cells

    def __getitem__(self, k):
        """The CellBound of cell k = i*q + j."""
        k = range(len(self))[k]  # an IndexError past either end, as a tuple's
        i, j = divmod(k, self.y_cells)
        b1, b2 = self.bound_of[2 * k:2 * k + 2].tolist()
        return CellBound(self.margins[i] + self.margins[self.x_cells + j],
                         (self.gains[b1], self.gains[b2]), (self.rounding[b1], self.rounding[b2]))

    cell = __getitem__

    def __eq__(self, other):
        if not isinstance(other, Certificate):
            return NotImplemented
        return (np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
                and (self.x_cells, self.y_cells) == (other.x_cells, other.y_cells) and tuple(self) == tuple(other))

    __hash__ = None

    def __repr__(self):
        return "Certificate(%d x %d cells, %d bounds)" % (self.x_cells, self.y_cells, len(self.gains))


def _distinct(keys):
    """(first, inverse): the first position of each distinct key, and each position's key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _row_keys(values):
    """One key per row of a 2-d array: the row's bytes, so -0.0 and 0.0 differ."""
    values = np.ascontiguousarray(values)
    return values.view(np.dtype((np.void, values.shape[1] * values.itemsize))).ravel()


def _side_maps(nda):
    """The table's distinct side maps (lambda, a), told apart by the identities
    of their Fraction objects, and per affine unit (two per cell) its map."""
    objects = [x for cell in nda.cells for x in (cell.lam1, cell.a1, cell.lam2, cell.a2)]
    ids = np.array(list(map(id, objects)), dtype=np.uint64).reshape(-1, 2)
    first, which = _distinct(_row_keys(ids))
    return [tuple(objects[2 * u:2 * u + 2]) for u in first.tolist()], which


def _check_and_bank(p, q, units, weights):
    """Each unit theta(wa*xa + wb*xb + w1) must fire on xa = xb = 1 and on no
    other pair in {0, 1}, every sum beyond its rounding bound.  The products
    are exact, so only the two additions round: gamma_2.  The pair (0, 0)
    needs no test: its sum w1 is the two silent sums less the firing one.
    Each distinct row is tested once, at its first unit, in unit order, in
    integers: the weights are numerators over their common denominator (a
    power of two), and each s + gamma_2 r (silent) or s - gamma_2 r (firing),
    scaled by gamma_2's denominator, is compared with 0."""
    first = np.sort(_distinct(_row_keys(weights))[0])
    g_num, g_den = _GAMMA2.numerator, _GAMMA2.denominator
    for unit, triple in zip(first.tolist(), weights[first].tolist()):
        ratios = [w.as_integer_ratio() for w in triple]
        den = max(d for _, d in ratios)
        wa, wb, w1 = (n * (den // d) for n, d in ratios)
        if not all((s * g_den - g_num * r >= 0) if fires else (s * g_den + g_num * r < 0)
                   for s, r, fires in ((wb + w1, abs(wb) + abs(w1), False),
                                       (wa + w1, abs(wa) + abs(w1), False),
                                       (wa + wb + w1, abs(wa) + abs(wb) + abs(w1), True))):
            raise _fault(p, q, units[unit], "weights %r do not make an AND of its two inputs beyond their "
                         "rounding, so the branch bank is not one-hot", tuple(triple))


def _certify_comparators(p, q, units, weights):
    """Detection interval of each axis cell and its margins against the true edges.

    A lo comparator fires iff y + w >= 0 and a hi comparator iff w - y >= 0:
    the sum of two floats rounds to a float of the same sign, and to 0 only
    when it is 0, so the interval [-w_lo, w_hi] is exact.  The comparators
    must read each cell's lower edge as that cell's alone.  Each end n/d is
    compared with the edges t/count by cross-multiplying integers.  Returns
    per axis cell its detection interval's ends lo and hi, as two read-only
    float arrays, its margins (lo, hi) as Fractions, and the interval of
    coordinates, true cell and certified part together, that the affine rows
    are bounded on, as two (numerator, denominator) pairs.
    """
    gains, want = weights[:, 0], np.tile((1.0, -1.0), len(units) // 2)
    wrong = np.flatnonzero(gains != want)
    if len(wrong):
        t = wrong[0]
        raise _fault(p, q, units[t], "reads its coordinate with weight %r, not %r",
                     gains[t].item(), want[t].item())
    # 0.0 - w and w + 0.0 are exact and turn -0.0 into 0.0
    ends = 0.0 - weights[0::2, 1], weights[1::2, 1] + 0.0
    lo, hi = (end.tolist() for end in ends)
    margins, domains = [], []
    for first, count in ((0, p), (p, q)):
        for t in range(count):
            a = first + t
            (ln, ld), (hn, hd) = lo[a].as_integer_ratio(), hi[a].as_integer_ratio()
            below = ln * count > (t - 1) * ld if t else True
            above = hn * count < (t + 1) * hd if t + 1 < count else True
            if not (below and ln * count < t * ld and t * hd < hn * count and above):
                raise _fault(p, q, units[2 * a], "its detection interval [%r, %r] does not hold the "
                             "cell's lower edge %s alone, so the branch bank is not one-hot there",
                             lo[a], hi[a], Fraction(t, count))
            # the cell reads from the higher of its lo end and the hi end below,
            # up to the lower of its hi end and the lo end above
            gn, gd = max(lo[a], hi[a - 1]).as_integer_ratio() if t else (ln, ld)
            sn, sd = min(hi[a], lo[a + 1]).as_integer_ratio() if t + 1 < count else (hn, hd)
            margins.append((Fraction(t * gd - gn * count, count * gd),
                            Fraction(sn * count - (t + 1) * sd, count * sd)))
            top = (sn, sd) if sn * count > (t + 1) * sd else (t + 1, count)
            domains.append(((gn, gd) if gn > 0 else (0, 1), top if top[0] < top[1] else (1, 1)))
    for end in ends:
        end.flags.writeable = False
    return (*ends, tuple(margins), tuple(domains))


def _affine_row(lam_w, off_w, gate_w, lam, a):
    """(d_lam, d_a, rounding, den) of an affine row against y -> lam*y + a, as
    integer numerators over one denominator, or None when the row does not
    clamp to exactly 0 while its branch unit is off.

    Off, the row sums lam_w*y + off_w (gamma_2; lam_w*y may underflow
    unless lam_w is 0) and must stay <= 0 for every y in [0, 1].  On, it sums
    lam_w*y + off_w + gate_w (gamma_3, bounded here for every y in [0, 1];
    the caller adds the underflow), whose exact value departs from
    lam*y + a by d_lam*y + d_a.  The ramp's clamp to [0, 1] never moves it
    further from the clamped image.  Both run in integers: the weights are
    numerators over their common denominator den, and the clamp test is
    scaled by 2**1074 * (2**52 - 1), which makes _TINY and gamma_2 integers.
    """
    ratios = [w.as_integer_ratio() for w in (lam_w, off_w, gate_w)]
    den = max(d for _, d in ratios)  # a power of two, as every float's is
    lw, ow, gw = (n * (den // d) for n, d in ratios)
    g2, g3 = _GAMMA2.denominator, _GAMMA3.denominator
    size = abs(lw) + abs(ow)
    underflow = g2 if lw else 0  # _TINY, scaled; 0*y is exact
    if ((ow + max(lw, 0)) * g2 + _GAMMA2.numerator * size) * (_TINY.denominator // den) + underflow > 0:
        return None
    ln, ld, an, ad = lam.numerator, lam.denominator, a.numerator, a.denominator
    return ((lw * ld - ln * den) * ad * g3, ((ow + gw) * ad - an * den) * ld * g3,
            _GAMMA3.numerator * (size + abs(gw)) * ld * ad, den * ld * ad * g3)


def _bound(part, domain):
    """The rounded-up largest |d_lam*y + d_a| + rounding of an affine row
    over ``domain`` (two (numerator, denominator) ends), or over any y when
    d_lam is 0, as a float."""
    d_lam, d_a, r, den = part
    if not d_lam:
        return _round_up(abs(d_a) + r, den)
    (n0, y0), (n1, y1) = domain
    e0, e1 = abs(d_lam * n0 + d_a * y0), abs(d_lam * n1 + d_a * y1)
    e, y = (e0, y0) if e0 * y1 >= e1 * y0 else (e1, y1)
    return _round_up(e + r * y, den * y)


def _round_up(num, den):
    """One float64 step above the least float64 >= num/den (den > 0): an
    upper bound on it plus one product that underflows, short enough to
    print.  Integer true division rounds correctly."""
    f = num / den
    n, d = f.as_integer_ratio()
    return math.nextafter(f if n * den >= num * d else math.nextafter(f, math.inf), math.inf)


@lru_cache(maxsize=32)
def _certify_detection(p, q, *data):
    """Certify the banks but the LTL of the p x q table, given as the bytes
    ``data`` of a ``_detection_key``: the comparators, the axis and branch
    ANDs and the MCL (see the module docstring).  Returns per axis cell, as
    ``_certify_comparators`` does, the ends of its detection interval, its
    margins and the interval of coordinates the affine rows are bounded on;
    raises InternalConsistencyError on a fault, naming the first faulting unit.
    """
    table, banks = _bank_table(p, q), _detection_banks(p, q, data)
    detection = _certify_comparators(p, q, table["cmp"].units, banks["cmp"])
    _check_and_bank(p, q, table["ax"].units, banks["ax"])
    _check_and_bank(p, q, table["bsl"].units, banks["bsl"])
    wrong = np.argwhere(banks["mcl"] != 1.0)
    if len(wrong):
        row, col = wrong[0].tolist()
        raise _fault(p, q, table["mcl"].units[row], "reads %s with weight %r, not 1",
                     _role(p, q, int(table["mcl"].inputs[row, col])), banks["mcl"][row, col].item())
    return detection


def _certify(spec, side_maps):
    """Certify one macro step of ``spec`` over every whole cell of the table
    whose ``_side_maps`` are ``side_maps``.

    Reads the banks back, without running the network, and checks them in
    exact arithmetic (see the module docstring).  Returns the Certificate;
    raises InternalConsistencyError on a structural fault, naming the first
    faulting unit.
    """
    p, q = spec.x_cells, spec.y_cells
    table, banks = _bank_table(p, q), spec.banks
    if not all(np.isfinite(values).all() for values in banks.values()):
        raise InternalConsistencyError("the network has a weight that is not finite")
    lo, hi, margins, domains = _certify_detection(*_detection_key(p, q, banks))

    # affine rows: each distinct (row, side map) pair is worked out once, and
    # bounded once per axis cell when the row's gain is not the exact lambda
    # (its error then depends on the cell's position), else once
    maps, which = side_maps
    rows = banks["ltl"]
    keys = np.concatenate([rows.view(np.uint64), which.astype(np.uint64)[:, None]], 1)
    pair_first, pair_of = _distinct(_row_keys(keys))
    parts = [_affine_row(*row, *maps[which[u]])
             for u, row in zip(pair_first.tolist(), rows[pair_first].tolist())]
    clamped = np.array([part is not None for part in parts])
    moving = np.array([part is not None and part[0] != 0 for part in parts])
    k, c = np.divmod(np.arange(len(rows)), 2)
    axis = np.where(c, p + k % q, k // q)  # y1 of cell (i, j) reads axis cell i, y2 axis cell p + j
    bound_first, bound_of = _distinct(pair_of * (p + q + 1) + np.where(moving[pair_of], axis, p + q))
    bounds = [_bound(parts[pair_of[u]], domains[axis[u]]) if clamped[pair_of[u]] else 0.0
              for u in bound_first.tolist()]
    faults = ~clamped[pair_of] | (np.array(bounds) > SOUNDNESS)[bound_of]
    if faults.any():
        t = int(np.argmax(faults))  # the first faulting unit
        unit = table["ltl"].units[t]
        if not clamped[pair_of[t]]:
            raise _fault(p, q, unit, "does not clamp to 0 while its branch unit is off")
        raise _fault(p, q, unit, "off by %g from the exact image over cell (%d, %d), more than SOUNDNESS",
                     bounds[bound_of[t]], *divmod(t // 2, q))

    gains = tuple(abs(maps[which[u]][0]) for u in bound_first.tolist())
    bound_of.flags.writeable = False
    return Certificate(p, q, lo, hi, margins, gains, tuple(map(Fraction, bounds)), bound_of)


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
    """Advance one micro step of the bank engine: the units of the next phase
    update from every row of its block, the others hold.  It runs specs
    without a certificate, and it is the oracle of ``na_run``'s certified
    macro step."""
    lo, hi, kind, block = spec.phases[state.micro]
    x = state.x.copy()
    x[lo:hi] = activate(kind, block @ state.x[:block.shape[1]])
    micro = state.micro + 1
    macro = state.macro
    if micro == spec.micro_steps_per_macro:
        micro, macro = 0, macro + 1
    return NeuralState(x=x, macro=macro, micro=micro)


def _bank_states(spec, state, macro_steps):
    """``state`` and the micro states of ``macro_steps`` macro steps of the bank engine."""
    states = [state]
    for _ in range(macro_steps * spec.micro_steps_per_macro):
        states.append(na_micro_step(spec, states[-1]))
    return states


def _certified_states(spec, state, macro_steps):
    """``state`` and the micro states of ``macro_steps`` certified macro steps:
    the bank engine's states, bit for bit, computed from the facts that
    ``spec.certificate`` proves (see the module docstring)."""
    certificate, p = spec.certificate, spec.x_cells
    table = _bank_table(p, spec.y_cells)
    coordinate = table["cmp"].inputs[0::2, 0]  # the coordinate each axis cell's comparators read
    cmp, ax, bsl, ltl = (table[name].units for name in ("cmp", "ax", "bsl", "ltl"))
    block, (mcl_lo, mcl_hi, _, mcl) = spec.phases[_LTL][3], spec.phases[_LTL + 1]
    affine = block.shape[1]
    states = [state]
    for _ in range(macro_steps):
        x, macro = states[-1].x, states[-1].macro
        # phase 1: the always-on unit and each comparator, exactly
        y = x[coordinate]
        lo, hi = y >= certificate.lo, y <= certificate.hi
        x1 = x.copy()
        x1[ALWAYS_ON] = 1.0
        x1[cmp.start:cmp.stop:2], x1[cmp.start + 1:cmp.stop:2] = lo, hi
        # phases 2 and 3: ANDs proved beyond their rounding
        axis = lo & hi
        x2 = x1.copy()
        x2[ax.start:ax.stop] = axis
        branch = (axis[:p, None] & axis[None, p:]).ravel()
        x3 = x2.copy()
        x3[bsl.start:bsl.stop] = branch
        # phase 4: the released cells' aligned four-row groups (cells 2g and
        # 2g + 1 share rows 4g..4g + 3); every other affine unit is 0.0
        released = np.flatnonzero(branch).tolist()
        x4 = x3.copy()
        out = x4[ltl.start:]
        out[:] = 0.0
        for cell in released:
            rows = slice(cell // 2 * 4, cell // 2 * 4 + 4)
            out[rows] = activate(RAMP, block[rows] @ x3[:affine])
        # phase 5: one released cell's outputs added to exact zeros are its
        # outputs; none or several are summed as the MCL block sums them
        x5 = x4.copy()
        if len(released) == 1:
            x5[mcl_lo:mcl_hi] = out[2 * released[0]:2 * released[0] + 2]
        else:
            x5[mcl_lo:mcl_hi] = activate(RAMP, mcl @ x4[:mcl.shape[1]])
        states += (NeuralState(x1, macro, 1), NeuralState(x2, macro, 2), NeuralState(x3, macro, 3),
                   NeuralState(x4, macro, 4), NeuralState(x5, macro + 1, 0))
    return states


@dataclass(frozen=True)
class NaRun:
    """All micro states of a run plus divergence bookkeeping."""

    states: tuple  # every micro state, starting with the embedding
    max_divergence: float
    divergence_step: int  # first macro step off the exact orbit, or -1

    @property
    def macro_states(self):  # the subsequence at macro boundaries
        return self.states[::MICRO_STEPS_PER_MACRO]

    @property
    def diverged(self):
        return self.divergence_step >= 0


def _check_start(spec, state):
    """Refuse a start ``state`` off the domain on which the certified step is
    exact: a macro boundary whose x is a 1-d float64 array of spec.n finite
    entries, the always-on unit at 1.0 and the MCL in [0, 1]."""
    if state.micro != 0:
        raise DomainError("na_run starts at a macro boundary (micro 0), got micro %r" % (state.micro,))
    x = state.x
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (spec.n,)):
        got = "%s array of shape %r" % (x.dtype, x.shape) if isinstance(x, np.ndarray) else type(x).__name__
        raise DomainError("na_run starts from a float64 array of shape (%d,), got a %s" % (spec.n, got))
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise DomainError("na_run starts from finite values, got %r at unit %d" % (x[bad[0]].item(), bad[0]))
    if x[ALWAYS_ON] != 1.0:
        raise DomainError("na_run starts with the always-on unit at 1.0, got %r" % (x[ALWAYS_ON].item(),))
    if not (0.0 <= x[MCL[0]] <= 1.0 and 0.0 <= x[MCL[1]] <= 1.0):
        raise DomainError("na_run starts with the MCL in [0, 1], got (%r, %r)" % tuple(x[:2].tolist()))


def na_run(spec, state, macro_steps, *, reference, point, tol=SOUNDNESS):
    """Run ``macro_steps`` macro steps from ``state`` against the exact orbit.

    ``reference`` (the affine cell table) and ``point`` (the exact phase
    point embedded in ``state``) are both required: the MCL is compared with
    the exact orbit at every macro boundary, and a deviation above SOUNDNESS
    flags the run as diverged.  ``tol`` is accepted only as SOUNDNESS, for
    the callers that still pass it (ROADMAP item 14); any other value is a
    DomainError.  So is a ``macro_steps`` that is not an int >= 0, and a
    ``state`` off the certified step's domain: off a macro boundary
    (micro != 0), whose MCL the check would compare between boundaries, or
    whose x is not a 1-d float64 array of spec.n finite entries with the
    always-on unit at 1.0 and the MCL in [0, 1].

    A spec with a certificate runs the certified macro step, one without runs
    the bank engine ``na_micro_step``; both give the same micro states (see
    the module docstring).
    """
    if tol != SOUNDNESS:
        raise DomainError("na_run checks the orbit at SOUNDNESS = %r only, got tol = %r" % (SOUNDNESS, tol))
    check_whole("macro_steps", macro_steps)
    _check_start(spec, state)
    engine = _bank_states if spec.certificate is None else _certified_states
    states = engine(spec, state, macro_steps)
    max_div, div_step = 0.0, -1
    for k, boundary in enumerate(states[spec.micro_steps_per_macro::spec.micro_steps_per_macro]):
        point = nda_step(reference, point)
        x = boundary.x
        err = max(abs(x[MCL[0]] - float(point.y1)), abs(x[MCL[1]] - float(point.y2)))
        max_div = max(max_div, err)
        if err > SOUNDNESS and div_step < 0:
            div_step = k + 1
    return NaRun(tuple(states), max_div, div_step)


def network_csv(spec):
    """CSV blocks: unit roles, then nonzero weights.

    No field needs CSV quoting (roles are colon-separated tokens, weights
    float reprs), so each line is formatted directly.
    """
    lines = ["record,a,b,c,d"]
    for bank in _bank_table(spec.x_cells, spec.y_cells).values():
        kind = "%s,%d" % (bank.activation, bank.phase)
        lines += ["unit,%d,%s,%s" % (unit, role, kind) for unit, role in zip(bank.units, bank.roles)]
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
