"""Self-contained property suites behind the ``check`` CLI command.

Every suite states a law the toolkit relies on and verifies it against an
independent oracle: brute-force permutation search for orbit equality,
grid-index cell lookups for the metric/cylinder correspondence, symbolic
machine steps for the affine cell maps, and the exact cell table for the
network.  Suites return a CheckResult with a counterexample on failure
instead of raising, so a run reports every broken law at once.

Each suite works out each distinct fact once per call: a word's pattern
key, a side word's minimal image, a pair's distance, how many radii a
distance is within.  It keeps them in local tables that are gone when it
returns, and makes its checks through the same calls of the layers it
tests.  The triangle and orbit laws compare whole relations as arrays;
draws come from the random module, not numpy.random.  The invariance suite
moves each window cell by the identity, a generating set of the recoding
pairs and one drawn other pair, not by every pair, and tests that the
motions compose (see check_invariance).
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .errors import ConfigError, DomainError
from .nda import EncodingPair, PhasePoint, encode_tape, from_versatile_shift, nda_step
from .network import _bank_table, embed, na_run, synthesize
from .observables import PermutationPair, build_step_observable, rho_pi, step_observable
from .patterns import interval_partition, pattern_of, same_orbit, square_partition
from .shift import DoD, VersatileShift, VsRule, compile_cfg_topdown, initial_state, parse_grammar, vs_step
from .symbols import (
    BLANK,
    Alphabet,
    DottedSequence,
    Ordering,
    _trim,
    all_permutations,
    compose_perms,
    digits_to_index,
    encode_digits,
    godel_encode,
    identity_ordering,
    index_to_digits,
    invert_perm,
    recode,
    recode_ordering,
    ultrametric,
    zero_fixing_permutations,
)

# after the package's modules: imported before them, numpy is resident while they compile
# from source, which raises a run's peak RSS by about 0.5 MB
import numpy as np

#: Two-production demo grammar; one deterministic parse per sentence.
DEMO_GRAMMAR = """\
S -> NP VP
VP -> V NP
"""

DEMO_SENTENCE = ("NP", "V", "NP")

#: Two digit assignments for the demo machine that differ by nontrivial
#: zero-fixing permutations on both tape sides.
DEMO_TABLES = (
    ("plain", {BLANK: 0, "NP": 1, "V": 2}, {BLANK: 0, "NP": 1, "V": 2, "VP": 3, "S": 4}),
    ("mixed", {BLANK: 0, "NP": 2, "V": 1}, {BLANK: 0, "NP": 4, "V": 3, "VP": 1, "S": 2}),
)


def demo_machine():
    return compile_cfg_topdown(parse_grammar(DEMO_GRAMMAR, source="<demo>"))


def demo_encodings(machine):
    return {
        name: EncodingPair(
            input=Ordering(machine.input_alphabet, in_table),
            stack=Ordering(machine.stack_alphabet, st_table),
        )
        for name, in_table, st_table in DEMO_TABLES
    }


def chain_grammar(k):
    """G_k: S -> t0 A1, A_i -> t_i A_(i+1), ..., A_(k-1) -> t_(k-1) t_k.

    The sentence is t0 ... tk; the stack never holds more than two symbols.
    """
    if k < 2:
        raise DomainError("a chain grammar needs k >= 2, got %d" % k)
    lines = ["S -> t0 A1"] + ["A%d -> t%d A%d" % (i, i, i + 1) for i in range(1, k - 1)]
    lines.append("A%d -> t%d t%d" % (k - 1, k - 1, k))
    return "\n".join(lines) + "\n"


def fan_grammar(k, c):
    """F_k^c: S -> t0 A_0 ... A_(k-1), the nonterminals cycling over c kinds
    A0 ... A(c-1), and A_j -> u_j.

    The sentence is t0 and then u_(j mod c) for j < k; the stack reaches
    depth k + 1, and the machine accepts after 2k + 3 trace rows.
    """
    if not 1 <= c <= k:
        raise DomainError("a fan grammar needs 1 <= c <= k, got k = %d, c = %d" % (k, c))
    lines = ["S -> t0 " + " ".join("A%d" % (j % c) for j in range(k))]
    lines += ["A%d -> u%d" % (j, j) for j in range(c)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    counterexample: object = None


def _words(m, max_len, min_len=0):
    out = []
    for length in range(min_len, max_len + 1):
        out.extend(product(range(m), repeat=length))
    return out


# ---------------------------------------------------------------------------
# suite: ultrametric

def check_ultrametric(seed=0):
    """Identity, symmetry and value range on every pair, each pair's distance
    taken once, then the strong triangle inequality on all triples, compared
    at once on the distances' ranks; nothing is drawn, so ``seed`` is unused.
    """
    m = 3
    words = _words(m, 3)
    valid = {Fraction(0)} | {Fraction(1, m**k) for k in range(0, 4 + 1)}
    rank = {v: n for n, v in enumerate(sorted(valid))}
    ranks = np.zeros((len(words), len(words)), dtype=np.uint8)  # ranks[i, j]: rank of d(words i, j)
    for i, p in enumerate(words):
        for j, q in enumerate(words):
            d = ultrametric(p, q, m, tail=0)
            if d != ultrametric(q, p, m, tail=0):
                return CheckResult("ultrametric", False, "asymmetric distance", (p, q))
            trimmed_eq = _trim(p, 0) == _trim(q, 0)
            if (d == 0) != trimmed_eq:
                return CheckResult("ultrametric", False, "identity of indiscernibles fails", (p, q, d))
            if d not in valid:
                return CheckResult("ultrametric", False, "distance %s is not a power of 1/m" % d, (p, q))
            ranks[i, j] = rank[d]
    # broken[i, j, k]: d(i, k) > max(d(i, j), d(j, k)), in the ranks' order
    broken = ranks[:, None, :] > np.maximum(ranks[:, :, None], ranks[None, :, :])
    if broken.any():
        i, j, k = np.unravel_index(broken.argmax(), broken.shape)  # the first in row-major order
        return CheckResult("ultrametric", False, "strong triangle inequality fails",
                           (words[i], words[j], words[k]))
    return CheckResult("ultrametric", True,
                       "%d pairs (identity, symmetry, range) and %d triples" % (ranks.size, broken.size))


# ---------------------------------------------------------------------------
# suite: cylinders

def _grid_cells(word, m, resolutions):
    """Cell of the word's encoding k / m**len on the m**n grid, for n < resolutions."""
    k, den = digits_to_index(word, m), m ** len(word)
    return [k * m**n // den for n in range(resolutions)]


def check_cylinders(seed=0):
    """Distance at most m**-n coincides with sharing the n-th grid cell, for
    every pair of words of length <= 4 (n <= 4), then 10,000 sampled pairs
    (n <= 6): one law, at as many resolutions as a pair's grid cells list.

    A sampled word's length, uniform on 0..8, then its digits are each
    int(u * k) for a uniform u of random.Random(seed).random(), p before q;
    each pair is drawn as it is checked, so no more than one is held.

    A pair's cells are nested and its radii decrease, so the law holds at
    resolutions below both the pair's count of radii its distance is
    within and its run of shared cells, and fails at the lesser of the two
    when they differ.  The radii count is taken in integers, d <= m**-n
    iff num * m**n <= den for d = num / den, once per distinct distance.
    """
    m = 3
    # each word of length <= 4 with its grid cells at resolutions 0..4
    words = [(w, _grid_cells(w, m, 5)) for w in _words(m, 4)]

    def sampled():
        uniform = random.Random(seed).random
        for _ in range(10000):
            p = tuple(int(uniform() * m) for _ in range(int(uniform() * 9)))
            q = tuple(int(uniform() * m) for _ in range(int(uniform() * 9)))
            yield (p, _grid_cells(p, m, 7)), (q, _grid_cells(q, m, 7))

    checked = 0
    radii_within = {}  # (num, den, resolutions) -> how many of the radii 1, 1/m, ... the distance is within
    for (p, cells_p), (q, cells_q) in chain(product(words, repeat=2), sampled()):
        count = len(cells_p)
        d = ultrametric(p, q, m, tail=0)
        try:
            num, den = d.as_integer_ratio()
        except (OverflowError, ValueError):  # an infinite or NaN float is within every radius or none
            num, den = (-1, 1) if d < 0 else (1, 0)
        within = radii_within.get((num, den, count))
        if within is None:
            within = 0
            while within < count and num * m**within <= den:
                within += 1
            radii_within[num, den, count] = within
        shared = 0
        while shared < count and cells_p[shared] == cells_q[shared]:
            shared += 1
        if within != shared:
            n = min(within, shared)
            return CheckResult("cylinders", False,
                               "metric/cell disagreement at resolution %d" % n, (p, q, n))
        checked += count
    return CheckResult("cylinders", True, "%d word pairs x resolutions" % checked)


# ---------------------------------------------------------------------------
# suite: orbits

def check_orbits(seed=0):
    """Pattern criterion against brute-force permutation search.

    On same-length pairs the criterion is same_orbit's own comparison of
    pattern keys, each word's key taken once per mode, and each length's
    pairs are compared as two relations over its words: the brute-force
    one and equal keys.  The cross-length sample calls same_orbit.
    """
    checked = 0
    for m, max_len in ((2, 5), (3, 5)):
        words = _words(m, max_len)
        for pinned in (False, True):
            perms = _perms(m, pinned)
            for group in (_words(m, n, min_len=n) for n in range(max_len + 1)):
                keys = [pattern_of(w, m, pinned) for w in group]
                classes = {}  # key -> the number of its first word's class
                claimed = np.array([classes.setdefault(key, len(classes)) for key in keys])
                claimed = claimed[:, None] == claimed[None, :]  # claimed[a, b]: words a and b have equal keys
                position = {w: n for n, w in enumerate(group)}
                found = np.zeros_like(claimed)  # found[a, b]: some permutation sends word a to word b
                for a, w in enumerate(group):
                    found[a, [position[recode(w, perm)] for perm in perms]] = True
                wrong = found != claimed
                if wrong.any():
                    a, b = np.unravel_index(wrong.argmax(), wrong.shape)  # the first (w, u) in loop order
                    return CheckResult(
                        "orbits", False,
                        "pattern criterion disagrees with permutation search "
                        "(m=%d pinned=%s)" % (m, pinned), (group[a], group[b]))
                checked += wrong.size
            # cross-length pairs must never be equivalent
            rng = random.Random(seed)
            for _ in range(500):
                w = rng.choice(words)
                u = rng.choice(words)
                if len(w) == len(u):
                    continue
                checked += 1
                if same_orbit(w, u, m, blank_pinned=pinned):
                    return CheckResult("orbits", False,
                                       "words of different length reported equivalent", (w, u))
    return CheckResult("orbits", True, "%d word pairs, m in {2, 3}, lengths <= 5, both modes" % checked)


# ---------------------------------------------------------------------------
# suite: recoding

def check_recoding(seed=0):
    """Digit permutations act as a group on words and on encodings."""
    checked = 0
    for m in (2, 3):
        words = _words(m, 3, min_len=1)
        perms = all_permutations(m)
        ident = tuple(range(m))
        for w in words:
            if recode(w, ident) != w:
                return CheckResult("recoding", False, "identity permutation moved a word", w)
            for p in perms:
                if recode(recode(w, p), invert_perm(p)) != w:
                    return CheckResult("recoding", False, "inverse law fails", (w, p))
                for q in perms:
                    left = recode(w, compose_perms(p, q))
                    right = recode(recode(w, q), p)
                    checked += 1
                    if left != right:
                        return CheckResult("recoding", False, "composition law fails", (w, p, q))
        # recoding the word equals recoding the ordering
        base = identity_ordering(m)
        for w in words:
            for p in perms:
                if encode_digits(recode(w, p), m) != godel_encode(w, recode_ordering(base, p)):
                    return CheckResult("recoding", False,
                                       "word recoding and ordering recoding disagree", (w, p))
    return CheckResult("recoding", True, "%d composition triples plus inverse/identity laws" % checked)


# ---------------------------------------------------------------------------
# suite: partitions

def _brute_classes(cells, key_fn):
    groups = {}
    for cell, key in ((c, key_fn(c)) for c in cells):
        groups.setdefault(key, set()).add(cell)
    return {frozenset(g) for g in groups.values()}


def _min_image(word, perms):
    return min(recode(word, p) for p in perms)


def _perms(m, pinned):
    return zero_fixing_permutations(m) if pinned else all_permutations(m)


def _interval_case(m, l, pinned):
    """Interval map, its cells and the brute-force orbit key of a cell."""
    perms = _perms(m, pinned)
    return (interval_partition(m, l, blank_pinned=pinned), list(range(m**l)),
            lambda k: _min_image(index_to_digits(k, m, l), perms))


def _square_case(m, m_right, l, r, mode, pinned):
    """Square map, its cells and the brute-force orbit key of a cell."""
    perms_x, perms_y = _perms(m, pinned), _perms(m_right, pinned)

    lefts = [index_to_digits(i, m, l) for i in range(m**l)]
    rights = [index_to_digits(j, m_right, r) for j in range(m_right**r)]
    if mode == "joint":
        def key(cell):
            return _min_image(lefts[cell[0]] + rights[cell[1]], perms_x)
    else:  # a product cell's key pairs its side words' minimal images, each taken once
        left_keys = [_min_image(w, perms_x) for w in lefts]
        right_keys = [_min_image(w, perms_y) for w in rights]

        def key(cell):
            return left_keys[cell[0]], right_keys[cell[1]]

    cells = [(i, j) for i in range(m**l) for j in range(m_right**r)]
    return square_partition(m, l, r, mode=mode, blank_pinned=pinned, m_right=m_right), cells, key


def check_partitions(seed=0):
    """Partition builders against brute-force orbit grouping: every map's
    class ids first occur in row-major order as 0, 1, 2, ..., and its
    classes are the brute-force orbits.  A product map's brute-force key
    takes each side word's minimal image once, not once per cell."""
    cases = [("interval", _interval_case, (m, l, pinned))
             for m in (2, 3) for l in range(5) for pinned in (False, True)]
    cases += [("square", _square_case, geometry + (pinned,))
              for geometry in ((3, 3, 1, 1, "joint"), (3, 3, 2, 1, "joint"), (3, 3, 2, 2, "joint"),
                               (3, 3, 2, 2, "product"), (3, 2, 2, 2, "product"), (3, 5, 3, 2, "product"))
              for pinned in (False, True)]
    checked = 0
    for kind, case, where in cases:
        cmap, cells, key = case(*where)
        if list(dict.fromkeys(cmap.assignment)) != list(range(cmap.class_count)):
            return CheckResult("partitions", False, "class ids not numbered in row-major order", where)
        checked += len(cells)
        if _brute_classes(cells, key) != {frozenset(cmap.members(cid)) for cid in range(cmap.class_count)}:
            return CheckResult("partitions", False, "%s classes differ from brute-force orbits" % kind, where)
    return CheckResult("partitions", True, "%d cells across interval and square grids" % checked)


# ---------------------------------------------------------------------------
# suite: commutation

def random_machine(rng):
    """Small random machine: full-window rules, shifts within replacements."""
    m = rng.choice((2, 3))
    syms = (BLANK, "x", "y")[:m]
    alpha = Alphabet(syms, blank=BLANK)
    l = rng.randrange(1, 3)
    r = rng.randrange(1, 3)
    windows = [(ws, wi) for ws in product(syms, repeat=l) for wi in product(syms, repeat=r)]
    count = rng.randrange(1, min(6, len(windows) + 1))
    rules = []
    for idx, (ws, wi) in enumerate(rng.sample(windows, count)):
        repl_st = tuple(rng.choice(syms) for _ in range(rng.randrange(3)))
        repl_in = tuple(rng.choice(syms) for _ in range(rng.randrange(3)))
        shifts = [0]
        if repl_in:
            shifts.append(1)
        if repl_st:
            shifts.append(-1)
        rules.append(VsRule("r%d" % idx, ws, wi, repl_st, repl_in, rng.choice(shifts)))
    return VersatileShift(alpha, alpha, DoD(l, r), tuple(rules))


def random_encoding(machine, rng):
    def table(alpha):
        digits = list(range(1, alpha.size))
        rng.shuffle(digits)
        nonblank = [s for s in alpha.symbols if s != alpha.blank]
        return Ordering(alpha, {alpha.blank: 0, **dict(zip(nonblank, digits))})

    return EncodingPair(input=table(machine.input_alphabet), stack=table(machine.stack_alphabet))


def random_tape(machine, rng):
    """Random tape with at most five symbols on each side."""
    stack = tuple(rng.choice(machine.stack_alphabet.symbols) for _ in range(rng.randrange(6)))
    inp = tuple(rng.choice(machine.input_alphabet.symbols) for _ in range(rng.randrange(6)))
    return DottedSequence(stack, inp, machine.blank)


def _first_divergence(machine, nda, pair, tapes):
    """The first of ``tapes`` whose stepped encoding differs from the cell
    table's step of its encoding; None when every tape commutes."""
    for tape in tapes:
        if encode_tape(vs_step(machine, tape)[0], pair) != nda_step(nda, encode_tape(tape, pair)):
            return tape
    return None


def check_commutation(seed=0):
    """Encoding a machine step equals stepping the encoded point: on the demo
    trace, stepped once for all encodings, and on random tapes."""
    rng = random.Random(seed)
    machines, tapes = 10, 100
    machine = demo_machine()
    trace = [initial_state(machine, DEMO_SENTENCE, "S")]
    for _ in range(7):
        trace.append(vs_step(machine, trace[-1])[0])
    checked = 0
    for name, pair in demo_encodings(machine).items():
        nda = from_versatile_shift(machine, pair)
        tape = _first_divergence(machine, nda, pair,
                                 chain(trace, (random_tape(machine, rng) for _ in range(tapes))))
        if tape is not None:
            return CheckResult("commutation", False, "demo machine diverges under encoding %s" % name, tape)
        checked += len(trace) + tapes

    for k in range(machines):
        machine = random_machine(rng)
        pair = random_encoding(machine, rng)
        try:
            nda = from_versatile_shift(machine, pair)
        except Exception as err:
            return CheckResult("commutation", False,
                               "cell table construction failed on random machine %d: %s" % (k, err),
                               machine)
        tape = _first_divergence(machine, nda, pair, (random_tape(machine, rng) for _ in range(tapes)))
        if tape is not None:
            return CheckResult("commutation", False, "random machine %d diverges" % k, (machine, tape))
        checked += tapes
    return CheckResult("commutation", True,
                       "%d tape steps across the demo machine and %d random machines" % (checked, machines))


# ---------------------------------------------------------------------------
# suite: invariance

def _zero_fixing_generators(m):
    """(1 2) and the cycle 1 -> 2 -> ... -> m-1 -> 1, which generate the permutations of 0..m-1
    fixing 0 for m >= 3; at m = 3 the two are one, and at m = 2 there is none."""
    if m < 3:
        return ()
    swap = (0, 2, 1) + tuple(range(3, m))
    return (swap,) if m == 3 else (swap, (0,) + tuple(range(2, m)) + (1,))


def check_invariance(seed=0):
    """Class observables are constant on recoding orbits; aggregates need not be.

    rho_pi translates each window cell onto a cell, so it moves a cell's
    corner and interior point onto another cell's, and it is an action of
    the group of recoding pairs, as the sampled composition law below
    tests.  An observable constant on each cell and unchanged by the
    generators is then unchanged by every pair.  So each cell's two points
    are moved by the identity pair, by each side's generators with the
    other side at the identity, stack side first, and by one other pair
    drawn per cell, which shows a motion wrong only off the generators.
    """
    checked = 0
    draw = random.Random(seed)  # the non-generator pairs; the composition law keeps its own draws
    for m_in, m_st, l, r in ((3, 3, 2, 3), (3, 5, 2, 3)):
        spec = build_step_observable(l, r, m_in, m_st, seed=seed + 17)
        if len(set(spec.coefficients)) != spec.class_map.class_count:
            return CheckResult("invariance", False, "class coefficients are not distinct",
                               (m_in, m_st))
        window, bases = (l, r), (m_in, m_st)
        id_in, id_st = tuple(range(m_in)), tuple(range(m_st))
        moves = [PermutationPair(id_in, id_st)]
        moves += [PermutationPair(id_in, g) for g in _zero_fixing_generators(m_st)]
        moves += [PermutationPair(g, id_st) for g in _zero_fixing_generators(m_in)]
        others = [pair for pair in (PermutationPair(pi, ps)
                                    for pi in zero_fixing_permutations(m_in)
                                    for ps in zero_fixing_permutations(m_st))
                  if pair not in moves]
        dx = Fraction(1, 2 * m_in**r)
        dy = Fraction(1, 2 * m_st**l)
        for i in range(m_in**r):
            for j in range(m_st**l):
                corner = PhasePoint(Fraction(i, m_in**r), Fraction(j, m_st**l))
                interior = PhasePoint(corner.y1 + dx, corner.y2 + dy)
                points = corner, interior
                base_val = step_observable(spec, corner)
                if step_observable(spec, interior) != base_val:
                    return CheckResult("invariance", False,
                                       "observable not constant on a rectangle", (i, j))
                for pair in chain(moves, (draw.choice(others),)):
                    for point in points:
                        if step_observable(spec, rho_pi(point, pair, window, bases)) != base_val:
                            return CheckResult(
                                "invariance", False,
                                "recoding changed the observable on cell (%d, %d)" % (i, j),
                                (pair, point))
                checked += (len(moves) + 1) * len(points)
    # group laws of the square motion
    rng = random.Random(seed)
    m_in, m_st, l, r = 3, 5, 2, 3
    window, bases = (l, r), (m_in, m_st)
    perms_in = zero_fixing_permutations(m_in)
    perms_st = zero_fixing_permutations(m_st)
    ident = PermutationPair(tuple(range(m_in)), tuple(range(m_st)))
    for _ in range(300):
        point = PhasePoint(Fraction(rng.randrange(m_in**r * 8), m_in**r * 8),
                           Fraction(rng.randrange(m_st**l * 8), m_st**l * 8))
        if rho_pi(point, ident, window, bases) != point:
            return CheckResult("invariance", False, "identity recoding moved a point", point)
        pa = PermutationPair(rng.choice(perms_in), rng.choice(perms_st))
        pb = PermutationPair(rng.choice(perms_in), rng.choice(perms_st))
        composed = PermutationPair(compose_perms(pa.input_perm, pb.input_perm),
                                   compose_perms(pa.stack_perm, pb.stack_perm))
        one = rho_pi(point, composed, window, bases)
        two = rho_pi(rho_pi(point, pb, window, bases), pa, window, bases)
        checked += 1
        if one != two:
            return CheckResult("invariance", False, "square motions do not compose", (pa, pb, point))
    return CheckResult("invariance", True,
                       "%d moved points across two window geometries" % checked)


# ---------------------------------------------------------------------------
# suite: network

def check_network(seed=0):
    """Synthesized networks stay on the exact orbit with a one-hot branch bank."""
    rng = random.Random(seed)
    machine = demo_machine()
    checked = 0
    for name, pair in demo_encodings(machine).items():
        nda = from_versatile_shift(machine, pair)
        spec = synthesize(nda)
        branch = _bank_table(nda.x_cells, nda.y_cells)["bsl"]  # tested once its phase has run
        want_units = 3 + 3 * (nda.x_cells + nda.y_cells) + 3 * nda.x_cells * nda.y_cells
        if spec.n != want_units:
            return CheckResult("network", False,
                               "unit count %d, expected %d" % (spec.n, want_units), name)
        state0 = initial_state(machine, DEMO_SENTENCE, "S")
        point0 = encode_tape(state0, pair)
        run_a = na_run(spec, embed(spec, point0), 6, reference=nda, point=point0)
        run_b = na_run(spec, embed(spec, point0), 6, reference=nda, point=point0)
        if run_a.diverged:
            return CheckResult("network", False,
                               "network left the exact orbit (max %g) under encoding %s"
                               % (run_a.max_divergence, name), run_a.divergence_step)
        for sa, sb in zip(run_a.states, run_b.states):
            if not (sa.x == sb.x).all():
                return CheckResult("network", False, "identical runs differ (nondeterminism)", name)
        starts = [point0] + [
            PhasePoint(Fraction(rng.randrange(nda.x_cells * 4), nda.x_cells * 4),
                       Fraction(rng.randrange(nda.y_cells * 4), nda.y_cells * 4))
            for _ in range(10)
        ]
        for start in starts:
            run = na_run(spec, embed(spec, start), 4, reference=nda, point=start)
            if run.diverged:
                return CheckResult("network", False,
                                   "divergence from start %r under encoding %s" % (start, name),
                                   run.divergence_step)
            for st in run.states:
                checked += 1
                if st.x.min() < 0.0 or st.x.max() > 1.0:
                    return CheckResult("network", False, "unit left [0, 1]", (name, st.macro, st.micro))
                if st.micro == branch.phase:
                    bank = st.x[branch.units.start:branch.units.stop].tolist()
                    if sum(1 for v in bank if v == 1.0) != 1 or any(v not in (0.0, 1.0) for v in bank):
                        return CheckResult("network", False, "branch bank not one-hot",
                                           (name, st.macro))
    return CheckResult("network", True,
                       "%d micro states checked for bounds, one-hot branching, determinism, soundness"
                       % checked)


# ---------------------------------------------------------------------------
# registry

SUITES = (
    ("ultrametric", check_ultrametric),
    ("cylinders", check_cylinders),
    ("orbits", check_orbits),
    ("recoding", check_recoding),
    ("partitions", check_partitions),
    ("commutation", check_commutation),
    ("invariance", check_invariance),
    ("network", check_network),
)

#: Suites whose failure means the two computation routes disagree (as
#: opposed to a broken invariance/property law).
DIVERGENCE_SUITES = frozenset({"commutation", "network"})


def suite_names():
    return [name for name, _ in SUITES]


def run_checks(names=None, seed=0):
    """Run the selected suites (all by default); returns CheckResults.

    An empty selection and unknown names are configuration errors.
    """
    table = dict(SUITES)
    if names is None:
        names = suite_names()
    names = list(names)
    if not names:
        raise ConfigError("nothing to check: no suites selected (available: %s)"
                          % ", ".join(suite_names()))
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ConfigError("unknown suite(s) %s; available: %s"
                          % (", ".join(unknown), ", ".join(suite_names())))
    results = []
    for name in names:
        try:
            results.append(table[name](seed=seed))
        except Exception as err:  # a crashed suite is a failed suite
            results.append(CheckResult(name, False, "suite raised %s: %s" % (type(err).__name__, err)))
    return results
