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
reads, rounded up to BLOCK_ALIGN = 64 and capped at n; a micro step
computes block @ x[:width] and activates it in one vectorised call.
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

The LTL phase of a certified spec multiplies only the row groups of the
released cells: the group g = k // 2 of each cell k whose branch unit is
on, which holds the pairs of cells 2g and 2g + 1.  Every other affine unit
is set to 0.0, the value the certificate proves its row clamps to while its
branch unit is off.  This is exact for the states ``embed`` and the
activations produce: the MCL in [0, 1], the always-on unit at 1 and each
branch unit at 0 or 1.  A hand-built state outside them (a branch unit at
0.5, say) can read otherwise than the dense product, and a spec without a
certificate, built or ``replace``d by hand, multiplies every row.
tests/test_network.py holds the engine to the dense update, bit for bit.

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
unit.  The numbers are kept on ``NetworkSpec.certificate``, one CellBound
(margins, gain, rounding) per cell.

Each fact is proved once, in integers wherever it can be: each comparator
pair once per axis cell (its ends n/d against the edges t/count by
cross-multiplication), each AND bank once per distinct row (its three sums
as numerators over the row's power-of-two denominator), the MCL in one
vectorised test, and each affine row once per distinct (row, side map)
pair.  Rows are told apart by their bytes and side maps (lambda, a) by the
identities of their Fraction objects, which the cell table shares among
equal maps; equal maps held in distinct objects are proved once each, to
the same result.  A pair's bound is proved once when the row's gain is the
exact lambda, else once per axis cell it is read on.  Nothing is cached past
one call.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
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
    blocks when first read.  All are read-only copies, so the engine runs
    the weights the certificate read.  Treat instances as immutable.
    """

    banks: dict
    x_cells: int
    y_cells: int
    mcl = MCL
    always_on = ALWAYS_ON
    micro_steps_per_macro = MICRO_STEPS_PER_MACRO
    n: int = field(init=False, repr=False)
    phases: tuple = field(init=False, repr=False)
    # per-cell CellBound table; only synthesize sets it, so a spec built or
    # replaced with other banks carries none
    certificate: tuple = field(init=False, default=None, repr=False)

    def __post_init__(self):
        table = _bank_table(self.x_cells, self.y_cells)
        self.n = n = table["ltl"].units.stop  # the LTL is laid out last
        banks, by_phase = {}, {}
        for name, bank in table.items():
            values = banks[name] = np.array(self.banks[name], dtype=np.float64)
            if values.shape != bank.inputs.shape:
                raise InternalConsistencyError("bank %s of a %d x %d table needs %r weights, got %r" % (
                    name, self.x_cells, self.y_cells, bank.inputs.shape, values.shape))
            values.flags.writeable = False
            by_phase.setdefault(bank.phase, []).append((bank, values))
        phases = []
        for phase in sorted(by_phase):
            # the banks of one phase are adjacent and share its activation
            members = by_phase[phase]
            lo, hi = members[0][0].units.start, members[-1][0].units.stop
            reads = max(int(bank.inputs.max(initial=-1)) + 1 for bank, _ in members)
            block = np.zeros((hi - lo, min(-(-reads // BLOCK_ALIGN) * BLOCK_ALIGN, n)), dtype=np.float64)
            for bank, values in members:
                np.put_along_axis(block[bank.units.start - lo:bank.units.stop - lo], bank.inputs, values, 1)
            block.flags.writeable = False
            phases.append((lo, hi, members[0][0].activation, block))
        self.banks, self.phases = MappingProxyType(banks), tuple(phases)

    @cached_property
    def weights(self):
        """The dense n x n weight matrix, read-only, built on first read."""
        weights = np.zeros((self.n, self.n), dtype=np.float64)
        for lo, hi, _, block in self.phases:
            weights[lo:hi, :block.shape[1]] = block
        weights.flags.writeable = False
        return weights


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
    a structural fault raises InternalConsistencyError, and the per-cell
    bounds are kept on the spec's ``certificate``.
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


def _role(spec, unit):
    bank = next(bank for bank in _bank_table(spec.x_cells, spec.y_cells).values() if unit in bank.units)
    return bank.roles[unit - bank.units.start]


def _fault(spec, unit, message, *args):
    return InternalConsistencyError(("%s (unit %d): " % (_role(spec, unit), unit)) + message % args)


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


def _check_and_bank(spec, units, weights):
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
            raise _fault(spec, units[unit], "weights %r do not make an AND of its two inputs beyond their "
                         "rounding, so the branch bank is not one-hot", tuple(triple))


def _certify_comparators(spec, units, weights):
    """Detection interval of each axis cell and its margins against the true edges.

    A lo comparator fires iff y + w >= 0 and a hi comparator iff w - y >= 0:
    the sum of two floats rounds to a float of the same sign, and to 0 only
    when it is 0, so the interval [-w_lo, w_hi] is exact.  The comparators
    must read each cell's lower edge as that cell's alone.  Each end n/d is
    compared with the edges t/count by cross-multiplying integers.  Returns
    per axis cell the margins (lo, hi) as Fractions, and the interval of
    coordinates, true cell and certified part together, that the affine rows
    are bounded on, as two (numerator, denominator) pairs.
    """
    gains, want = weights[:, 0], np.tile((1.0, -1.0), len(units) // 2)
    wrong = np.flatnonzero(gains != want)
    if len(wrong):
        t = wrong[0]
        raise _fault(spec, units[t], "reads its coordinate with weight %r, not %r",
                     gains[t].item(), want[t].item())
    # 0.0 - w and w + 0.0 are exact and turn -0.0 into 0.0
    lo, hi = (0.0 - weights[0::2, 1]).tolist(), (weights[1::2, 1] + 0.0).tolist()
    margins, domains = [], []
    for first, count in ((0, spec.x_cells), (spec.x_cells, spec.y_cells)):
        for t in range(count):
            a = first + t
            (ln, ld), (hn, hd) = lo[a].as_integer_ratio(), hi[a].as_integer_ratio()
            below = ln * count > (t - 1) * ld if t else True
            above = hn * count < (t + 1) * hd if t + 1 < count else True
            if not (below and ln * count < t * ld and t * hd < hn * count and above):
                raise _fault(spec, units[2 * a], "its detection interval [%r, %r] does not hold the "
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
    return margins, domains


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


def _certify(spec, side_maps):
    """Certify one macro step of ``spec`` over every whole cell of the table
    whose ``_side_maps`` are ``side_maps``.

    Reads the banks back, without running the network, and checks them in
    exact arithmetic (see the module docstring).  Returns one CellBound per
    cell in the table's order; raises InternalConsistencyError on a
    structural fault, naming the first faulting unit.
    """
    p, q = spec.x_cells, spec.y_cells
    table, banks = _bank_table(p, q), spec.banks
    if not all(np.isfinite(values).all() for values in banks.values()):
        raise InternalConsistencyError("the network has a weight that is not finite")

    margins, domains = _certify_comparators(spec, table["cmp"].units, banks["cmp"])
    _check_and_bank(spec, table["ax"].units, banks["ax"])
    _check_and_bank(spec, table["bsl"].units, banks["bsl"])
    wrong = np.argwhere(banks["mcl"] != 1.0)
    if len(wrong):
        row, col = wrong[0].tolist()
        raise _fault(spec, table["mcl"].units[row], "reads %s with weight %r, not 1",
                     _role(spec, int(table["mcl"].inputs[row, col])), banks["mcl"][row, col].item())

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
            raise _fault(spec, unit, "does not clamp to 0 while its branch unit is off")
        raise _fault(spec, unit, "off by %g from the exact image over cell (%d, %d), more than SOUNDNESS",
                     bounds[bound_of[t]], *divmod(t // 2, q))

    gains = [abs(maps[which[u]][0]) for u in bound_first.tolist()]
    rounding = [Fraction(bound) for bound in bounds]
    cells = zip(product(margins[:p], margins[p:]), bound_of.reshape(-1, 2).tolist())
    return tuple(CellBound(x + y, (gains[b1], gains[b2]), (rounding[b1], rounding[b2]))
                 for (x, y), (b1, b2) in cells)


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
    """Advance one micro step: units of the next phase update, others hold.
    On a certified spec the LTL phase multiplies only the released cells'
    groups of four rows (see the module docstring)."""
    lo, hi, kind, block = spec.phases[state.micro]
    x = state.x.copy()
    columns = state.x[:block.shape[1]]
    if state.micro == _LTL and spec.certificate is not None:
        out = x[lo:hi]
        out[:] = 0.0
        b_lo, b_hi = spec.phases[_LTL - 1][:2]
        for cell in state.x[b_lo:b_hi].nonzero()[0].tolist():
            rows = slice(cell // 2 * 4, cell // 2 * 4 + 4)  # cells 2g and 2g + 1 share rows 4g..4g + 3
            out[rows] = activate(kind, block[rows] @ columns)
    else:
        x[lo:hi] = activate(kind, block @ columns)
    micro = state.micro + 1
    macro = state.macro
    if micro == spec.micro_steps_per_macro:
        micro, macro = 0, macro + 1
    return NeuralState(x=x, macro=macro, micro=micro)


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


def na_run(spec, state, macro_steps, *, reference, point, tol=SOUNDNESS):
    """Run ``macro_steps`` macro steps from ``state`` against the exact orbit.

    ``reference`` (the affine cell table) and ``point`` (the exact phase
    point embedded in ``state``) are both required: the MCL is compared with
    the exact orbit at every macro boundary, and a deviation above SOUNDNESS
    flags the run as diverged.  ``tol`` is accepted only as SOUNDNESS, for
    the callers that still pass it (ROADMAP item 14); any other value is a
    DomainError.  So is a ``macro_steps`` that is not an int >= 0, and
    a ``state`` off a macro boundary (micro != 0), whose MCL the check would
    compare between boundaries.  ``na_micro_step`` is the unchecked engine,
    its LTL gate included.
    """
    if tol != SOUNDNESS:
        raise DomainError("na_run checks the orbit at SOUNDNESS = %r only, got tol = %r" % (SOUNDNESS, tol))
    check_whole("macro_steps", macro_steps)
    if state.micro != 0:
        raise DomainError("na_run starts at a macro boundary (micro 0), got micro %r" % (state.micro,))
    states = [state]
    max_div, div_step = 0.0, -1
    for k in range(macro_steps):
        for _ in range(spec.micro_steps_per_macro):
            state = na_micro_step(spec, state)
            states.append(state)
        point = nda_step(reference, point)
        err = max(abs(state.x[MCL[0]] - float(point.y1)), abs(state.x[MCL[1]] - float(point.y2)))
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
