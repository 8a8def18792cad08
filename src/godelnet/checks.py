"""Self-contained property suites behind the ``check`` CLI command.

Every suite states a law the toolkit relies on and verifies it against an
independent oracle: brute-force permutation search for orbit equality,
direct interval membership for the metric/cylinder correspondence, symbolic
machine steps for the affine cell maps, and the exact cell table for the
network.  Suites return a CheckResult with a counterexample on failure
instead of raising, so a run reports every broken law at once.

The injectable keyword arguments (``metric``, ``same_orbit_fn``,
``step_fn``, ``move_fn``) exist so the test suite can feed deliberately
broken implementations and confirm the suites catch them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import ConfigError
from .nda import EncodingPair, PhasePoint, encode_tape, from_versatile_shift, nda_step
from .network import embed, na_run, synthesize
from .observables import PermutationPair, build_step_observable, rho_pi, step_observable
from .patterns import interval_partition, same_orbit, square_partition
from .shift import DoD, VersatileShift, VsRule, compile_cfg_topdown, initial_state, parse_grammar, vs_step
from .symbols import (
    BLANK,
    Alphabet,
    DottedSequence,
    Ordering,
    all_permutations,
    compose_perms,
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

def check_ultrametric(seed=0, metric=ultrametric):
    """Identity, symmetry, strong triangle inequality, value range."""
    m = 3
    words = _words(m, 3)
    valid = {Fraction(0)} | {Fraction(1, m**k) for k in range(0, 4 + 1)}
    checked = 0
    for p in words:
        for q in words:
            d = metric(p, q, m, tail=0)
            checked += 1
            if d != metric(q, p, m, tail=0):
                return CheckResult("ultrametric", False, "asymmetric distance", (p, q))
            trimmed_eq = _trim0(p) == _trim0(q)
            if (d == 0) != trimmed_eq:
                return CheckResult("ultrametric", False, "identity of indiscernibles fails", (p, q, d))
            if d not in valid:
                return CheckResult("ultrametric", False, "distance %s is not a power of 1/m" % d, (p, q))
    rng = random.Random(seed)
    triples = 20000
    for _ in range(triples):
        p, q, s = (rng.choice(words) for _ in range(3))
        dpq = metric(p, q, m, tail=0)
        dqs = metric(q, s, m, tail=0)
        dps = metric(p, s, m, tail=0)
        if dps > max(dpq, dqs):
            return CheckResult("ultrametric", False, "strong triangle inequality fails", (p, q, s))
    return CheckResult("ultrametric", True,
                       "%d pairs (identity, symmetry, range) and %d sampled triples" % (checked, triples))


def _trim0(word):
    word = tuple(word)
    while word and word[-1] == 0:
        word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# suite: cylinders

def check_cylinders(seed=0, samples=10000, metric=ultrametric):
    """Distance at most m**-n coincides with sharing the n-th grid cell."""
    m = 3
    words = _words(m, 4)
    checked = 0
    for p in words:
        psi_p = encode_digits(p, m)
        for q in words:
            psi_q = encode_digits(q, m)
            for n in range(0, 5):
                close = metric(p, q, m, tail=0) <= Fraction(1, m**n)
                same_cell = (psi_p * m**n).__floor__() == (psi_q * m**n).__floor__()
                checked += 1
                if close != same_cell:
                    return CheckResult("cylinders", False,
                                       "metric/cell disagreement at resolution %d" % n, (p, q, n))
    rng = random.Random(seed)
    for _ in range(samples):
        length = rng.randrange(0, 9)
        p = tuple(rng.randrange(m) for _ in range(length))
        q = tuple(rng.randrange(m) for _ in range(rng.randrange(0, 9)))
        psi_p, psi_q = encode_digits(p, m), encode_digits(q, m)
        for n in range(0, 7):
            close = metric(p, q, m, tail=0) <= Fraction(1, m**n)
            same_cell = (psi_p * m**n).__floor__() == (psi_q * m**n).__floor__()
            checked += 1
            if close != same_cell:
                return CheckResult("cylinders", False,
                                   "metric/cell disagreement at resolution %d" % n, (p, q, n))
    return CheckResult("cylinders", True, "%d word pairs x resolutions" % checked)


# ---------------------------------------------------------------------------
# suite: orbits

def _orbit_oracle(w, u, m, pinned):
    """Brute force: search the permutation group directly."""
    if len(w) != len(u):
        return False
    perms = zero_fixing_permutations(m) if pinned else all_permutations(m)
    return any(recode(w, perm) == u for perm in perms)


def check_orbits(seed=0, same_orbit_fn=same_orbit):
    """Pattern criterion against brute-force permutation search."""
    checked = 0
    for m, max_len in ((2, 5), (3, 5)):
        words = _words(m, max_len)
        by_len = {}
        for w in words:
            by_len.setdefault(len(w), []).append(w)
        for pinned in (False, True):
            for group in by_len.values():
                for w in group:
                    for u in group:
                        want = _orbit_oracle(w, u, m, pinned)
                        got = same_orbit_fn(w, u, m, blank_pinned=pinned)
                        checked += 1
                        if want != got:
                            return CheckResult(
                                "orbits", False,
                                "pattern criterion disagrees with permutation search "
                                "(m=%d pinned=%s)" % (m, pinned), (w, u))
            # cross-length pairs must never be equivalent
            rng = random.Random(seed)
            for _ in range(500):
                w = rng.choice(words)
                u = rng.choice(words)
                if len(w) == len(u):
                    continue
                checked += 1
                if same_orbit_fn(w, u, m, blank_pinned=pinned):
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


def check_partitions(seed=0):
    """Partition builders against brute-force orbit grouping."""
    checked = 0
    for m in (2, 3):
        for l in range(0, 5):
            for pinned in (False, True):
                cmap = interval_partition(m, l, blank_pinned=pinned)
                cells = list(range(m**l))
                if set(cmap.assignment) != set(range(cmap.class_count)):
                    return CheckResult("partitions", False, "class ids not contiguous", (m, l, pinned))
                perms = zero_fixing_permutations(m) if pinned else all_permutations(m)
                want = _brute_classes(cells, lambda k: _min_image(index_to_digits(k, m, l), perms))
                got = {frozenset(cmap.members(cid)) for cid in range(cmap.class_count)}
                checked += len(cells)
                if want != got:
                    return CheckResult("partitions", False,
                                       "interval classes differ from brute-force orbits", (m, l, pinned))

    for m, m_right, l, r, mode in (
        (3, 3, 1, 1, "joint"),
        (3, 3, 2, 1, "joint"),
        (3, 3, 2, 2, "joint"),
        (3, 3, 2, 2, "product"),
        (3, 2, 2, 2, "product"),
        (3, 5, 3, 2, "product"),
    ):
        for pinned in (False, True):
            cmap = square_partition(m, l, r, mode=mode, blank_pinned=pinned, m_right=m_right)
            cells = [(i, j) for i in range(m**l) for j in range(m_right**r)]
            perms_x = zero_fixing_permutations(m) if pinned else all_permutations(m)
            perms_y = zero_fixing_permutations(m_right) if pinned else all_permutations(m_right)

            def key(cell):
                i, j = cell
                left = index_to_digits(i, m, l)
                right = index_to_digits(j, m_right, r)
                if mode == "joint":
                    return _min_image(left + right, perms_x)
                return (_min_image(left, perms_x), _min_image(right, perms_y))

            want = _brute_classes(cells, key)
            got = {frozenset(cmap.members(cid)) for cid in range(cmap.class_count)}
            checked += len(cells)
            if want != got:
                return CheckResult("partitions", False,
                                   "square classes differ from brute-force orbits",
                                   (m, m_right, l, r, mode, pinned))
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
        perm = rng.choice(zero_fixing_permutations(alpha.size))
        nonblank = [s for s in alpha.symbols if s != alpha.blank]
        mapping = {alpha.blank: 0}
        mapping.update({sym: perm[k + 1] for k, sym in enumerate(nonblank)})
        return Ordering(alpha, mapping)

    return EncodingPair(input=table(machine.input_alphabet), stack=table(machine.stack_alphabet))


def random_tape(machine, rng, max_len=5):
    stack = tuple(rng.choice(machine.stack_alphabet.symbols) for _ in range(rng.randrange(max_len + 1)))
    inp = tuple(rng.choice(machine.input_alphabet.symbols) for _ in range(rng.randrange(max_len + 1)))
    return DottedSequence(stack, inp, machine.blank)


def _commutes_on(machine, nda, pair, state, step_fn):
    symbolic, _ = vs_step(machine, state)
    want = encode_tape(symbolic, pair)
    got = step_fn(nda, encode_tape(state, pair))
    return want == got


def check_commutation(seed=0, machines=10, tapes=100, step_fn=nda_step):
    """Encoding a machine step equals stepping the encoded point."""
    rng = random.Random(seed)
    machine = demo_machine()
    checked = 0
    for name, pair in demo_encodings(machine).items():
        nda = from_versatile_shift(machine, pair)
        state = initial_state(machine, DEMO_SENTENCE, "S")
        for _ in range(8):
            if not _commutes_on(machine, nda, pair, state, step_fn):
                return CheckResult("commutation", False,
                                   "demo machine diverges under encoding %s" % name, state)
            checked += 1
            state, _ = vs_step(machine, state)
        for _ in range(tapes):
            tape = random_tape(machine, rng)
            if not _commutes_on(machine, nda, pair, tape, step_fn):
                return CheckResult("commutation", False,
                                   "demo machine diverges under encoding %s" % name, tape)
            checked += 1

    for k in range(machines):
        machine = random_machine(rng)
        pair = random_encoding(machine, rng)
        try:
            nda = from_versatile_shift(machine, pair)
        except Exception as err:
            return CheckResult("commutation", False,
                               "cell table construction failed on random machine %d: %s" % (k, err),
                               machine)
        for _ in range(tapes):
            tape = random_tape(machine, rng)
            if not _commutes_on(machine, nda, pair, tape, step_fn):
                return CheckResult("commutation", False,
                                   "random machine %d diverges" % k, (machine, tape))
            checked += 1
    return CheckResult("commutation", True,
                       "%d tape steps across the demo machine and %d random machines" % (checked, machines))


# ---------------------------------------------------------------------------
# suite: invariance

def check_invariance(seed=0, move_fn=rho_pi):
    """Class observables are constant on recoding orbits; aggregates need not be."""
    checked = 0
    for m_in, m_st, l, r in ((3, 3, 2, 3), (3, 5, 2, 3)):
        spec = build_step_observable(l, r, m_in, m_st, seed=seed + 17)
        if len(set(spec.coefficients)) != spec.class_map.class_count:
            return CheckResult("invariance", False, "class coefficients are not distinct",
                               (m_in, m_st))
        window, bases = (l, r), (m_in, m_st)
        pairs = [PermutationPair(pi, ps)
                 for pi in zero_fixing_permutations(m_in)
                 for ps in zero_fixing_permutations(m_st)]
        dx = Fraction(1, 2 * m_in**r)
        dy = Fraction(1, 2 * m_st**l)
        for i in range(m_in**r):
            for j in range(m_st**l):
                corner = PhasePoint(Fraction(i, m_in**r), Fraction(j, m_st**l))
                interior = PhasePoint(corner.y1 + dx, corner.y2 + dy)
                base_val = step_observable(spec, corner)
                if step_observable(spec, interior) != base_val:
                    return CheckResult("invariance", False,
                                       "observable not constant on a rectangle", (i, j))
                for pair in pairs:
                    for point in (corner, interior):
                        moved = move_fn(point, pair, window, bases)
                        checked += 1
                        if step_observable(spec, moved) != base_val:
                            return CheckResult(
                                "invariance", False,
                                "recoding changed the observable on cell (%d, %d)" % (i, j),
                                (pair, point))
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
        if move_fn(point, ident, window, bases) != point:
            return CheckResult("invariance", False, "identity recoding moved a point", point)
        pa = PermutationPair(rng.choice(perms_in), rng.choice(perms_st))
        pb = PermutationPair(rng.choice(perms_in), rng.choice(perms_st))
        composed = PermutationPair(compose_perms(pa.input_perm, pb.input_perm),
                                   compose_perms(pa.stack_perm, pb.stack_perm))
        one = move_fn(point, composed, window, bases)
        two = move_fn(move_fn(point, pb, window, bases), pa, window, bases)
        checked += 1
        if one != two:
            return CheckResult("invariance", False, "square motions do not compose", (pa, pb, point))
    return CheckResult("invariance", True,
                       "%d moved points across two window geometries" % checked)


# ---------------------------------------------------------------------------
# suite: network

def check_network(seed=0, tol=1e-9):
    """Synthesized networks stay on the exact orbit with a one-hot branch bank."""
    rng = random.Random(seed)
    machine = demo_machine()
    checked = 0
    for name, pair in demo_encodings(machine).items():
        nda = from_versatile_shift(machine, pair)
        spec = synthesize(nda)
        want_units = 3 + 3 * (nda.x_cells + nda.y_cells) + 3 * nda.x_cells * nda.y_cells
        if spec.n != want_units:
            return CheckResult("network", False,
                               "unit count %d, expected %d" % (spec.n, want_units), name)
        state0 = initial_state(machine, DEMO_SENTENCE, "S")
        point0 = encode_tape(state0, pair)
        run_a = na_run(spec, embed(spec, point0), 6, reference=nda, tol=tol, point=point0)
        run_b = na_run(spec, embed(spec, point0), 6)
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
            run = na_run(spec, embed(spec, start), 4, reference=nda, tol=tol, point=start)
            if run.diverged:
                return CheckResult("network", False,
                                   "divergence from start %r under encoding %s" % (start, name),
                                   run.divergence_step)
            for st in run.states:
                checked += 1
                if st.x.min() < 0.0 or st.x.max() > 1.0:
                    return CheckResult("network", False, "unit left [0, 1]", (name, st.macro, st.micro))
                if st.micro == 3:
                    bank = [st.x[u] for u in spec.bsl_units()]
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
