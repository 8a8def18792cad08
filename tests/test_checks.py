"""The check suites must pass on the real code and catch planted faults."""

import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import godelnet.checks as checks
import godelnet.cli as cli
from godelnet import (
    BLANK,
    Alphabet,
    DottedSequence,
    PermutationPair,
    PhasePoint,
    interval_partition,
    nda_step,
    pattern_of,
    rho_pi,
    square_partition,
    ultrametric,
)
from godelnet.checks import (
    SUITES,
    check_commutation,
    check_cylinders,
    check_invariance,
    check_network,
    check_orbits,
    check_partitions,
    check_recoding,
    check_ultrametric,
    run_checks,
    suite_names,
)
from godelnet.errors import ConfigError
from godelnet.network import NeuralState, _bank_table
from godelnet.symbols import compose_perms, encode_digits, zero_fixing_permutations


def test_every_suite_has_a_callable():
    assert suite_names() == [name for name, _ in SUITES]
    assert len(set(suite_names())) == len(SUITES)


@pytest.mark.parametrize("fn", [check_recoding, check_partitions])
def test_fast_suites_pass(fn):
    result = fn(seed=3)
    assert result.ok, result.detail


def test_run_checks_selection_errors():
    with pytest.raises(ConfigError, match="nothing to check"):
        run_checks([])
    with pytest.raises(ConfigError, match="nosuch"):
        run_checks(["nosuch"])


def test_run_checks_turns_crashes_into_failures(monkeypatch):
    def explode(seed=0):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(checks, "SUITES", (("recoding", explode),))
    (result,) = checks.run_checks(["recoding"])
    assert not result.ok and "kaboom" in result.detail


def test_ultrametric_suite_catches_non_ultrametric_metric(monkeypatch):
    def euclidean(p, q, m, tail=0):
        return abs(encode_digits(p, m) - encode_digits(q, m))

    monkeypatch.setattr(checks, "ultrametric", euclidean)
    result = check_ultrametric()
    assert (result.ok, result.detail, result.counterexample) == (
        False, "distance 2/3 is not a power of 1/m", ((), (2,)))


def test_cylinder_suite_catches_scaled_metric(monkeypatch):
    # dividing by m claims one extra resolution level of closeness
    def shrunk(p, q, m, tail=0):
        return ultrametric(p, q, m, tail=tail) / m

    monkeypatch.setattr(checks, "ultrametric", shrunk)
    result = check_cylinders()
    assert not result.ok
    assert result.counterexample == ((), (1,), 1)


def test_ultrametric_suite_catches_a_fault_only_triples_show(monkeypatch):
    # Hamming distance on zero-padded words, mapped onto the powers of 1/m:
    # it keeps identity, symmetry and the value range, but the first triple
    # in row-major order, (), (1,), (1, 1), has d((), (1,)) = d((1,), (1, 1))
    # = 1/27 and d((), (1, 1)) = 1/9
    def hamming(p, q, m, tail=0):
        n = max(len(p), len(q))
        differ = sum(a != b for a, b in zip(p + (tail,) * (n - len(p)), q + (tail,) * (n - len(q))))
        return Fraction(0) if differ == 0 else Fraction(1, m ** (4 - differ))

    monkeypatch.setattr(checks, "ultrametric", hamming)
    result = check_ultrametric()
    assert (result.ok, result.detail, result.counterexample) == (
        False, "strong triangle inequality fails", ((), (1,), (1, 1)))



def test_ultrametric_suite_catches_one_corrupted_pair(monkeypatch):
    # (0, 1) and (0, 1, 1) moved from 1/9 to 1/27, in both orders, keeps
    # identity, symmetry and the value range; it breaks only 2 of the 64,000
    # triples, which 20,000 randomly drawn triples miss with probability
    # about (1 - 2/64000)**20000 = 0.54
    def corrupted(p, q, m, tail=0):
        if {p, q} == {(0, 1), (0, 1, 1)}:
            return Fraction(1, m**3)
        return ultrametric(p, q, m, tail=tail)

    monkeypatch.setattr(checks, "ultrametric", corrupted)
    result = check_ultrametric()
    assert (result.ok, result.detail, result.counterexample) == (
        False, "strong triangle inequality fails", ((0, 1, 0), (0, 1), (0, 1, 1)))

def test_orbit_suite_catches_length_only_criterion(monkeypatch):
    def sloppy(w, m, blank_pinned=False):
        return len(w)

    monkeypatch.setattr(checks, "pattern_of", sloppy)
    result = check_orbits()
    assert (result.ok, result.detail, result.counterexample) == (
        False, "pattern criterion disagrees with permutation search (m=2 pinned=False)",
        ((0, 0), (0, 1)))


def test_orbit_suite_catches_cross_length_equivalence(monkeypatch):
    monkeypatch.setattr(checks, "same_orbit", lambda w, u, m, blank_pinned=False: True)
    result = check_orbits()
    # the first pair of unequal lengths that random.Random(0) draws from the
    # 63 binary words of length <= 5
    assert (result.ok, result.detail, result.counterexample) == (
        False, "words of different length reported equivalent", ((1, 0, 1, 1, 1), (1, 0, 0, 1)))


def _late_shrunk(p, q, m, tail=0):
    """Wrong only for 7-symbol words, which only the sampled pairs have."""
    d = ultrametric(p, q, m, tail=tail)
    return d / m if len(p) == 7 else d


def _long_shrunk(p, q, m, tail=0):
    """Wrong only when both words are longer than 4, which only the sampled pairs are."""
    d = ultrametric(p, q, m, tail=tail)
    return d / m if len(p) > 4 and len(q) > 4 else d


@pytest.mark.parametrize("seed, detail, counterexample", [
    (0, "metric/cell disagreement at resolution 1", ((1, 0, 2, 2, 2), (2, 2, 1, 1, 2, 0, 2), 1)),
    (3, "metric/cell disagreement at resolution 1", ((1, 2, 0, 2, 1, 0, 0, 2), (0, 2, 1, 0, 0, 2, 2, 0), 1)),
], ids=["seed0", "seed3"])
def test_cylinder_suite_catches_a_fault_only_sampled_pairs_show(monkeypatch, seed, detail, counterexample):
    # the pairs of words of length <= 4 all pass, so the sampled pairs must run
    monkeypatch.setattr(checks, "ultrametric", _long_shrunk)
    result = check_cylinders(seed=seed)
    assert (result.ok, result.detail, result.counterexample) == (False, detail, counterexample)



@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_cylinder_pairs_take_every_length_on_both_sides(monkeypatch, seed):
    # _late_shrunk and _long_shrunk are wrong only on words of 7 and of more
    # than 4 symbols, which only the sampled pairs hold
    lengths = []

    def recording(p, q, m, tail=0):
        lengths.append((len(p), len(q)))
        return ultrametric(p, q, m, tail=tail)

    monkeypatch.setattr(checks, "ultrametric", recording)
    assert check_cylinders(seed=seed).ok
    sampled = lengths[121**2:]  # after every pair of the 121 words of length <= 4
    assert len(sampled) == 10000
    assert {p for p, _ in sampled} == {q for _, q in sampled} == set(range(9))


def test_the_suites_leave_numpy_random_unimported():
    # importing numpy.random adds about 5 MB of resident memory to a check
    # run, whose draws come from the random module
    code = ("import sys; import godelnet.checks as checks; "
            "assert all(result.ok for result in checks.run_checks()); "
            "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))")
    src = str(Path(checks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr

def _grown(p, q, m, tail=0):
    """Each distance m times larger: the law now fails from above."""
    return min(ultrametric(p, q, m, tail=tail) * m, 1)


def _four_fifths(p, q, m, tail=0):
    """Not a power of 1/m, yet within exactly the radii the true distance is within."""
    return ultrametric(p, q, m, tail=tail) * Fraction(4, 5)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("fake, ok, detail, counterexample", [
    (_grown, False, "metric/cell disagreement at resolution 1", ((), (0, 1), 1)),
    (_four_fifths, True, "143205 word pairs x resolutions", None),
    (lambda p, q, m, tail=0: float("nan"), False, "metric/cell disagreement at resolution 0", ((), (), 0)),
    (lambda p, q, m, tail=0: float("-inf"), False, "metric/cell disagreement at resolution 1", ((), (1,), 1)),
], ids=["grown", "four-fifths", "nan", "minus-infinity"])
def test_cylinder_suite_reads_radii_from_both_sides(monkeypatch, seed, fake, ok, detail, counterexample):
    # the other planted faults shrink distances; these grow one, move one
    # off the powers of 1/m without crossing a radius, and give floats
    # that have no integer ratio: NaN is within no radius, -inf within all
    monkeypatch.setattr(checks, "ultrametric", fake)
    result = check_cylinders(seed=seed)
    assert (result.ok, result.detail, result.counterexample) == (ok, detail, counterexample)


def _unpinned_key(w, m, blank_pinned=False):
    return pattern_of(w, m, blank_pinned=False)


@pytest.mark.parametrize("suite, name, fake, detail, counterexample", [
    (check_orbits, "pattern_of", _unpinned_key,
     "pattern criterion disagrees with permutation search (m=2 pinned=True)", ((0,), (1,))),
    (check_cylinders, "ultrametric", _late_shrunk,
     "metric/cell disagreement at resolution 1", ((2, 1, 0, 1, 1, 2, 0), (1, 2, 1, 0), 1)),
], ids=["orbits-unpinned", "cylinders-sampled"])
def test_suites_report_the_first_counterexample_in_iteration_order(monkeypatch, suite, name, fake, detail,
                                                                   counterexample):
    monkeypatch.setattr(checks, name, fake)
    result = suite()
    assert (result.ok, result.detail, result.counterexample) == (False, detail, counterexample)


def test_partition_suite_catches_renumbered_product_classes(monkeypatch):
    def renumbered(m, l, r, mode="joint", blank_pinned=False, m_right=None):
        cmap = square_partition(m, l, r, mode=mode, blank_pinned=blank_pinned, m_right=m_right)
        if mode != "product":
            return cmap
        left = interval_partition(m, l, blank_pinned=blank_pinned).class_count
        right = interval_partition(m_right or m, r, blank_pinned=blank_pinned).class_count
        # the pair (a, b) of side classes is a * right + b; number it a + b * left
        return replace(cmap, assignment=tuple(c // right + c % right * left for c in cmap.assignment))

    product_map = square_partition(3, 2, 2, mode="product")
    moved = renumbered(3, 2, 2, mode="product")
    assert moved.assignment != product_map.assignment
    assert ({frozenset(moved.members(c)) for c in range(moved.class_count)}
            == {frozenset(product_map.members(c)) for c in range(product_map.class_count)})
    monkeypatch.setattr(checks, "square_partition", renumbered)
    result = check_partitions()
    assert not result.ok
    assert result.detail == "class ids not numbered in row-major order"
    assert result.counterexample == (3, 3, 2, 2, "product", False)


def _merge_last_two_classes(cmap):
    """The same map with its last class folded into the one before: still
    numbered in row-major order, but one class short of the orbits."""
    last = cmap.class_count - 1
    if last < 1:
        return cmap
    return replace(cmap, assignment=tuple(last - 1 if c == last else c for c in cmap.assignment))


@pytest.mark.parametrize("name, build, mode, detail, counterexample", [
    ("interval_partition", interval_partition, None,
     "interval classes differ from brute-force orbits", (2, 1, True)),
    ("square_partition", square_partition, None,
     "square classes differ from brute-force orbits", (3, 3, 1, 1, "joint", False)),
    ("square_partition", square_partition, "product",
     "square classes differ from brute-force orbits", (3, 3, 2, 2, "product", False)),
], ids=["interval", "square", "product"])
def test_partition_suite_catches_merged_classes(monkeypatch, name, build, mode, detail, counterexample):
    def merged(*args, **kwargs):
        cmap = build(*args, **kwargs)
        if mode is None or kwargs.get("mode") == mode:  # given a mode, only its maps are merged
            cmap = _merge_last_two_classes(cmap)
        # every planted map keeps the numbering law, so only the orbit law can fail
        assert list(dict.fromkeys(cmap.assignment)) == list(range(cmap.class_count))
        return cmap

    monkeypatch.setattr(checks, name, merged)
    result = check_partitions()
    assert (result.ok, result.detail, result.counterexample) == (False, detail, counterexample)


#: ``godelnet check --seed 0`` details; their counts pin how much each suite
#: checks, so a faster suite must still check as much.  Invariance moves
#: each cell by the identity, the generators and one drawn pair, not by all
#: of its geometry's 4 or 48 pairs: 243 * 4 * 2 + 675 * 5 * 2 points, then
#: 300 composition laws.
SEED0_DETAILS = {
    "ultrametric": "1600 pairs (identity, symmetry, range) and 64000 triples",
    "cylinders": "143205 word pairs x resolutions",
    "orbits": "136736 word pairs, m in {2, 3}, lengths <= 5, both modes",
    "recoding": "1460 composition triples plus inverse/identity laws",
    "partitions": "2122 cells across interval and square grids",
    "commutation": "1216 tape steps across the demo machine and 10 random machines",
    "invariance": "8994 moved points across two window geometries",
    "network": "462 micro states checked for bounds, one-hot branching, determinism, soundness",
}


def test_seed0_suite_details_are_unchanged(suite_runs):
    assert {name: result.detail for name, (result, _) in suite_runs.items()} == SEED0_DETAILS


#: ``godelnet check --seed 3`` stdout; seed 3 draws other cross-length
#: orbit pairs than seed 0, so the orbits count differs.
SEED3_STDOUT = """\
ok   ultrametric  1600 pairs (identity, symmetry, range) and 64000 triples
ok   cylinders    143205 word pairs x resolutions
ok   orbits       136774 word pairs, m in {2, 3}, lengths <= 5, both modes
ok   recoding     1460 composition triples plus inverse/identity laws
ok   partitions   2122 cells across interval and square grids
ok   commutation  1216 tape steps across the demo machine and 10 random machines
ok   invariance   8994 moved points across two window geometries
ok   network      462 micro states checked for bounds, one-hot branching, determinism, soundness
8/8 suites passed
"""


def test_seed3_check_stdout_is_unchanged(capsys):
    assert cli.main(["check", "--seed", "3"]) == cli.EXIT_OK
    assert capsys.readouterr().out == SEED3_STDOUT


def test_orbit_suite_passes_on_real_criterion(suite_runs):
    result, _ = suite_runs["orbits"]  # check_orbits at seed 0
    assert result.ok


def test_commutation_suite_catches_perturbed_step(monkeypatch):
    def drifting(nda, point):
        moved = nda_step(nda, point)
        return PhasePoint(moved.y1, (moved.y2 + Fraction(1, 1000)) % 1)

    monkeypatch.setattr(checks, "nda_step", drifting)
    result = check_commutation()
    assert (result.ok, result.detail) == (False, "demo machine diverges under encoding plain")
    assert result.counterexample == DottedSequence(("S",), ("NP", "V", "NP"), BLANK)


def test_commutation_suite_passes(seed=5):
    result = check_commutation(seed=seed)
    assert result.ok, result.detail


def test_random_encoding_pins_the_blank_of_a_twelve_symbol_alphabet():
    # (12 - 1)! = 39,916,800 blank-pinned orderings; one draw must not list them
    alphabet = Alphabet(("_",) + tuple("abcdefghijk"), blank="_")
    machine = SimpleNamespace(input_alphabet=alphabet, stack_alphabet=alphabet)
    pairs = [checks.random_encoding(machine, random.Random(seed)) for seed in range(5)]
    for pair in pairs:
        for ordering in (pair.input, pair.stack):
            assert ordering.blank_pinned
            assert sorted(ordering.digits(alphabet.symbols)) == list(range(12))
    assert len({pair.input for pair in pairs}) > 1


def test_invariance_suite_catches_non_rigid_motion(monkeypatch):
    def sheared(point, pair, window, bases):
        moved = rho_pi(point, pair, window, bases)
        return PhasePoint((moved.y1 + Fraction(1, 2)) % 1, moved.y2)

    monkeypatch.setattr(checks, "rho_pi", sheared)
    result = check_invariance()
    assert (result.ok, result.detail) == (False, "recoding changed the observable on cell (0, 0)")
    assert result.counterexample == (PermutationPair((0, 1, 2), (0, 1, 2)), PhasePoint(0, 0))


def _half_turned_stack(point, pair, window, bases):
    """Moves y2 by a further 1/2 where y2 has an even denominator and the
    stack permutation is not the identity: only interior points show it."""
    moved = rho_pi(point, pair, window, bases)
    if point.y2.denominator % 2 or pair.stack_perm == tuple(range(len(pair.stack_perm))):
        return moved
    return PhasePoint(moved.y1, (moved.y2 + Fraction(1, 2)) % 1)


@pytest.mark.parametrize("seed", [0, 3])
def test_invariance_suite_reports_the_first_interior_point_a_stack_recoding_moves(monkeypatch, seed):
    # every corner passes, so the suite must move each cell's interior point under each pair
    monkeypatch.setattr(checks, "rho_pi", _half_turned_stack)
    result = check_invariance(seed=seed)
    assert (result.ok, result.detail) == (False, "recoding changed the observable on cell (0, 0)")
    assert result.counterexample == (PermutationPair((0, 1, 2), (0, 2, 1)),
                                     PhasePoint(Fraction(1, 54), Fraction(1, 18)))


@pytest.mark.parametrize("m", range(2, 8))
def test_invariance_generators_generate_every_zero_fixing_permutation(m):
    # breadth-first closure of the generators under composition, from the identity
    generators = checks._zero_fixing_generators(m)
    reached, queue = {tuple(range(m))}, deque([tuple(range(m))])
    while queue:
        p = queue.popleft()
        for q in (compose_perms(g, p) for g in generators):
            if q not in reached:
                reached.add(q)
                queue.append(q)
    assert reached == set(zero_fixing_permutations(m))


def _reversed_stack_shifted(point, pair, window, bases):
    """Moves y2 one stack cell further under the stack permutation
    (0, 4, 3, 2, 1) only, which is neither the identity nor a generator."""
    moved = rho_pi(point, pair, window, bases)
    if pair.stack_perm != (0, 4, 3, 2, 1):
        return moved
    return PhasePoint(moved.y1, (moved.y2 + Fraction(1, 25)) % 1)


@pytest.mark.parametrize("seed, cell, pair, point", [
    (0, (2, 11), ((0, 2, 1), (0, 4, 3, 2, 1)), (Fraction(2, 27), Fraction(11, 25))),
    (3, (0, 0), ((0, 1, 2), (0, 4, 3, 2, 1)), (Fraction(0), Fraction(0))),
], ids=["seed0", "seed3"])
def test_invariance_suite_catches_a_motion_wrong_only_off_the_generators(monkeypatch, seed, cell, pair,
                                                                         point):
    # the identity and generator pairs all pass, so only a drawn pair can show it
    assert (0, 4, 3, 2, 1) not in checks._zero_fixing_generators(5)
    monkeypatch.setattr(checks, "rho_pi", _reversed_stack_shifted)
    result = check_invariance(seed=seed)
    assert (result.ok, result.detail) == (False, "recoding changed the observable on cell (%d, %d)" % cell)
    assert result.counterexample == (PermutationPair(*pair), PhasePoint(*point))


def test_network_suite_passes():
    result = check_network(seed=1)
    assert result.ok, result.detail


def _edit_runs(monkeypatch, edit):
    """Wrap ``checks.na_run`` so that each micro state of each run it returns
    is ``edit(call, spec, state)``, call counting the runs from 1."""
    real, calls = checks.na_run, count(1)

    def edited(spec, state, macro_steps, **kwargs):
        run, call = real(spec, state, macro_steps, **kwargs), next(calls)
        return replace(run, states=tuple(edit(call, spec, st) for st in run.states))

    monkeypatch.setattr(checks, "na_run", edited)


def _set_units(state, units, value):
    x = state.x.copy()
    x[units] = value
    return NeuralState(x, state.macro, state.micro)


def _two_branch_units_on(call, spec, state):
    if state.micro != 3:
        return state
    bsl = _bank_table(spec.x_cells, spec.y_cells)["bsl"].units
    return _set_units(state, [bsl[0], bsl[1]], 1.0)


def _always_on_above_1(call, spec, state):
    return _set_units(state, [spec.always_on], 1.5) if state.micro == 1 else state


def _second_run_one_ulp_off(call, spec, state):
    if call != 2 or state.micro != 2:
        return state
    return _set_units(state, [spec.always_on], np.nextafter(state.x[spec.always_on], 0.0))


@pytest.mark.parametrize("edit, detail, counterexample", [
    (_two_branch_units_on, "branch bank not one-hot", ("plain", 0)),
    (_always_on_above_1, "unit left [0, 1]", ("plain", 0, 1)),
    (_second_run_one_ulp_off, "identical runs differ (nondeterminism)", "plain"),
], ids=["one-hot", "bounds", "determinism"])
def test_network_suite_catches_planted_run_faults(monkeypatch, edit, detail, counterexample):
    _edit_runs(monkeypatch, edit)
    result = check_network()
    assert (result.ok, result.detail, result.counterexample) == (False, detail, counterexample)
