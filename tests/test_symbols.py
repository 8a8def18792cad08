"""Encodings, the sequence metric, recodings, dotted sequences."""

import math
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from godelnet import (
    Alphabet,
    BLANK,
    DoD,
    DottedSequence,
    Ordering,
    PermutationPair,
    PhasePoint,
    embed,
    godel_encode,
    identity_ordering,
    interval_partition,
    na_run,
    nda_run,
    orbit,
    pattern_of,
    recode,
    recode_ordering,
    rho_pi,
    square_partition,
    synthesize,
    ultrametric,
    vs_run,
)
from godelnet import symbols
from godelnet.errors import DomainError
from godelnet.symbols import (
    all_permutations,
    compose_perms,
    digits_to_index,
    encode_digits,
    grid_index,
    index_to_digits,
    invert_perm,
    zero_fixing_permutations,
)


def test_known_encoding_value(plain):
    assert godel_encode(("NP", "V", "NP"), plain.input) == Fraction(16, 27)
    assert godel_encode(("S",), plain.stack) == Fraction(4, 5)


def test_empty_word_encodes_to_zero(plain):
    assert godel_encode((), plain.input) == 0


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_encoders_match_term_by_term_sum(m):
    # oracle: sum_k digit_k * m**-k, one Fraction term per position
    rng = random.Random(m)
    symbols = tuple("s%d" % d for d in range(m))
    digit_of = dict(zip(symbols, rng.sample(range(m), m)))
    ordering = Ordering(Alphabet(symbols), digit_of)
    for n in range(61):  # the empty word, then lengths well past float precision
        word = tuple(rng.choice(symbols) for _ in range(n))
        digits = tuple(digit_of[s] for s in word)
        want = sum((Fraction(d, m**k) for k, d in enumerate(digits, 1)), Fraction(0))
        assert encode_digits(digits, m) == want
        assert godel_encode(word, ordering) == want
    for bad in (-1, m):
        with pytest.raises(DomainError, match=r"^digit %d outside 0\.\.%d$" % (bad, m - 1)):
            encode_digits((1, bad, 0), m)


@pytest.mark.parametrize("m", [2, 3])
def test_decode_inverts_encode(m):
    # decoding a word of length n: its grid index on the m**n grid, then that index's digits
    for length in range(4):
        for digits in product(range(m), repeat=length):
            assert index_to_digits(grid_index(encode_digits(digits, m), m**length), m, length) == digits


def test_cylinder_contains_extensions():
    ordering = identity_ordering(3)
    # a word given as a one-shot iterator must encode the same
    for word in ((1, 2), [1, 2], iter((1, 2))):
        assert godel_encode(word, ordering) == Fraction(5, 9)
    # every extension of 1 2 lies in cell 5 of the 9-cell grid, 1 1 does not
    for ext in product(range(3), repeat=2):
        assert grid_index(encode_digits((1, 2) + ext, 3), 9) == 5
    assert grid_index(encode_digits((1, 1, 2, 2), 3), 9) == 4


#: The demo's grids: its cell table is 3 x 5 cells, its step observable (window 2 3) 27 x 25.
DEMO_GRIDS = [3, 9, 27, 5, 25]


@pytest.mark.parametrize("cells", DEMO_GRIDS)
def test_grid_index_matches_floor(cells):
    for k in range(cells):
        left = Fraction(k, cells)
        points = (left, left + Fraction(1, 3 * cells), Fraction(k + 1, cells) - Fraction(1, 10**12))
        for y in points:
            assert grid_index(y, cells) == math.floor(y * cells) == k, (y, cells)


def test_ultrametric_values():
    assert ultrametric((1, 2, 1), (1, 2, 2), 3, tail=0) == Fraction(1, 9)
    assert ultrametric((1,), (2,), 3, tail=0) == 1
    assert ultrametric((1, 0), (1,), 3, tail=0) == 0
    assert ultrametric((), (0, 0, 1), 3, tail=0) == Fraction(1, 9)


def _padded_distance(p, q, tail, m):
    """m**-n for the first position n (0-based) where the padded sequences differ, else 0."""
    horizon = max(len(p), len(q)) + 1  # past both words each side is the constant tail
    p = tuple(p) + (tail,) * (horizon - len(p))
    q = tuple(q) + (tail,) * (horizon - len(q))
    for n, (a, b) in enumerate(zip(p, q)):
        if a != b:
            return Fraction(1, m**n)
    return Fraction(0)


@pytest.mark.parametrize("tail", [0, BLANK], ids=["tail0", "blank"])
def test_ultrametric_matches_padded_oracle_on_short_words(tail):
    words = [w for n in range(4) for w in product(range(3), repeat=n)]
    for p in words:
        for q in words:
            assert ultrametric(p, q, 3, tail=tail) == _padded_distance(p, q, tail, 3), (p, q)


def test_ultrametric_matches_padded_oracle_on_sequences_with_other_tails():
    # a tail that is a digit of the words but not 0, and a word given as a list
    words = [w for n in range(3) for w in product(range(3), repeat=n)]
    for p, q in product(words, repeat=2):
        assert ultrametric(list(p), q, 3, tail=1) == _padded_distance(p, q, 1, 3), (p, q)


def test_ultrametric_shares_one_fraction_per_radius():
    m, k = 10**6, 40
    p, q = (7,) * k + (1,), (7,) * k + (2,)
    d = ultrametric(p, q, m, tail=0)
    assert d == _padded_distance(p, q, 0, m) == Fraction(1, m**k)
    assert ultrametric(q, p, m, tail=0) is d
    assert ultrametric((), (0, 0), m, tail=0) is ultrametric((1,), (1,), 3, tail=0) == 0
    # the shared radii are kept in a bounded cache, so many bases cannot grow it without end
    cache = symbols._radius.cache_info
    for base in range(2, cache().maxsize + 12):
        assert ultrametric((1,), (2,), base, tail=0) == 1
    assert cache().currsize <= cache().maxsize


def test_ultrametric_rejects_a_base_below_two():
    with pytest.raises(DomainError, match="^base m must be an integer >= 2, got 1$"):
        ultrametric((0,), (1,), 1)


#: Every entry point that takes a whole number: (the argument's name in the
#: message, its least value, a call passing the value ``v`` with ``c`` the
#: demo machine's parts).  Bases are at least 2, except an orbit's, since a
#: word of one repeated symbol has m = 1; counts and lengths are at least 0.
WHOLE_NUMBER_ENTRIES = {
    "ultrametric": ("base m", 2, lambda v, c: ultrametric((0,), (1,), v)),
    "DoD-l": ("window length l", 0, lambda v, c: DoD(v, 1)),
    "DoD-r": ("window length r", 0, lambda v, c: DoD(1, v)),
    "vs_run": ("max_steps", 0, lambda v, c: vs_run(c["machine"], c["state"], v)),
    "nda_run": ("steps", 0, lambda v, c: nda_run(c["nda"], c["point"], v)),
    "na_run": ("macro_steps", 0, lambda v, c: na_run(c["net"], embed(c["net"], c["point"]), v,
                                                    reference=c["nda"], point=c["point"])),
    "rho_pi-l": ("window length l", 0, lambda v, c: rho_pi(c["point"], c["pair"], (v, 1), (3, 5))),
    "rho_pi-r": ("window length r", 0, lambda v, c: rho_pi(c["point"], c["pair"], (1, v), (3, 5))),
    "interval-m": ("base m", 2, lambda v, c: interval_partition(v, 1)),
    "interval-l": ("window length l", 0, lambda v, c: interval_partition(3, v)),
    "square-m": ("base m", 2, lambda v, c: square_partition(v, 1, 1, mode="product", m_right=3)),
    "square-m_right": ("base m_right", 2, lambda v, c: square_partition(3, 1, 1, mode="product", m_right=v)),
    "square-l": ("window length l", 0, lambda v, c: square_partition(3, v, 1)),
    "square-r": ("window length r", 0, lambda v, c: square_partition(3, 1, v)),
    "orbit": ("base m", 1, lambda v, c: orbit((0, 1), v)),
}


@pytest.fixture(scope="module")
def demo_parts(machine, plain_nda, start_state, plain_start):
    return {"machine": machine, "state": start_state, "nda": plain_nda, "point": plain_start,
            "net": synthesize(plain_nda), "pair": PermutationPair((0, 2, 1), (0, 3, 1, 4, 2))}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in WHOLE_NUMBER_ENTRIES for bad in ("below-least", 2.0, True, None, Fraction(3), np.int64(3))
    if (entry, bad) != ("square-m_right", None)  # None is m_right's default: the base m
], ids=lambda x: x if isinstance(x, str) else repr(x))
def test_every_whole_number_entry_refuses_what_is_not_an_int_at_least_its_least(entry, bad, demo_parts):
    name, least, call = WHOLE_NUMBER_ENTRIES[entry]
    value = least - 1 if bad == "below-least" else bad
    with pytest.raises(DomainError) as err:
        call(value, demo_parts)
    assert str(err.value) == "%s must be an integer >= %d, got %r" % (name, least, value)


def test_the_least_whole_numbers_are_accepted(plain_nda, plain_start):
    assert nda_run(plain_nda, plain_start, 0) == [plain_start]
    # godelnet orbit aaa has m = 1
    assert orbit(("a", "a", "a"), 1) == {("a", "a", "a")}
    assert orbit((0, 0), 1) == {(0, 0)}
    assert (DoD(0, 0).l, DoD(0, 0).r) == (0, 0)
    assert ultrametric((0,), (1,), 2) == 1
    assert interval_partition(2, 0).class_count == 1
    assert square_partition(2, 0, 0).class_count == 1


def test_ordering_requires_exact_digit_cover():
    alpha = Alphabet(("a", "b", "c"))
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 1})
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 1, "c": 3})
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 0, "c": 1})


def test_ordering_names_the_missing_and_unknown_symbols():
    alpha = Alphabet(("a", "b", "c"))
    with pytest.raises(DomainError) as err:
        Ordering(alpha, {"a": 0, "x": 1, "y": 2})
    assert str(err.value) == "ordering must cover the alphabet exactly: missing b, c; unknown x, y"
    with pytest.raises(DomainError, match="exactly: missing c$"):
        Ordering(alpha, {"a": 0, "b": 1})


def test_ordering_lookup_and_pinning():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    pinned = Ordering(alpha, {BLANK: 0, "x": 1})
    unpinned = Ordering(alpha, {BLANK: 1, "x": 0})
    assert pinned.blank_pinned and not unpinned.blank_pinned
    assert pinned.digits(("x", BLANK)) == (1, 0)
    with pytest.raises(DomainError):
        pinned.digit("y")


def test_recode_ordering_matches_word_recoding():
    base = identity_ordering(3)
    for perm in all_permutations(3):
        recoded = recode_ordering(base, perm)
        for word in product(range(3), repeat=3):
            assert godel_encode(word, recoded) == encode_digits(recode(word, perm), 3)


def test_permutation_helpers():
    p, q = (1, 2, 0), (0, 2, 1)
    assert compose_perms(p, invert_perm(p)) == (0, 1, 2)
    w = (0, 1, 2, 2)
    assert recode(recode(w, q), p) == recode(w, compose_perms(p, q))
    assert len(all_permutations(3)) == 6
    assert zero_fixing_permutations(4) == [
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1)]
    with pytest.raises(DomainError):
        recode((0, 3), (1, 0, 2))


@pytest.mark.parametrize("refuse", [digits_to_index, lambda word, m: recode(word, tuple(range(m))), pattern_of],
                         ids=["digits_to_index", "recode", "pattern_of"])
@pytest.mark.parametrize("word, m, message", [
    ((0, 3), 3, "digit 3 outside 0..2"),
    ((1, -1, 0), 2, "digit -1 outside 0..1"),
    ((0, 1, 7, 9), 5, "digit 7 outside 0..4"),
])
def test_a_digit_outside_the_base_is_refused_in_one_text(refuse, word, m, message):
    # the first digit outside 0..m-1 is named, and the passing words still pass
    with pytest.raises(DomainError, match="^%s$" % re.escape(message)):
        refuse(word, m)
    refuse(tuple(d % m for d in word), m)


def test_dotted_sequence_trims_and_compares():
    a = DottedSequence(("S", BLANK), ("NP", BLANK, BLANK))
    b = DottedSequence(("S",), ("NP",))
    assert a == b
    assert str(b) == "S . NP"
    assert str(DottedSequence()) == "ε . ε"
    assert DottedSequence().is_empty


class _Word(tuple):
    """A tuple subclass: a dotted sequence must still store plain tuples."""


def _canonical(word, blank):
    """Oracle: the word as a plain tuple, trailing blanks dropped one by one."""
    symbols = list(word)
    while symbols and symbols[-1] == blank:
        symbols.pop()
    return tuple(symbols)


def _padded(word, n, blank):
    """Oracle: symbol k of the half-tape for k < n, blank past the word."""
    return tuple(word[k] if k < len(word) else blank for k in range(n))


SIDES = [
    (),
    ("S",),
    ("S", "NP"),
    ("S", BLANK),
    (BLANK, BLANK),
    (BLANK, "S", BLANK, BLANK),
    ["NP", BLANK],
    _Word(("NP", "V", BLANK)),
    _Word(("V",)),
]


@pytest.mark.parametrize("stack", SIDES)
def test_dotted_sequence_canonical_form_matches_an_oracle(stack):
    ways = (lambda w: w, lambda w: (sym for sym in w))  # as given, and as a generator
    for input, make in product(SIDES, ways):
        state = DottedSequence(make(stack), make(input))
        want_stack, want_input = _canonical(stack, BLANK), _canonical(input, BLANK)
        assert (state.stack, state.input) == (want_stack, want_input)
        assert type(state.stack) is tuple and type(state.input) is tuple
        assert state == DottedSequence(want_stack, want_input)
        assert hash(state) == hash(DottedSequence(want_stack, want_input))
        assert state.is_empty == (not want_stack and not want_input)
        for l, r in product(range(4), repeat=2):  # l = r = 0 and past the support
            left, right = state.window(l, r)
            assert (left, right) == (_padded(want_stack, l, BLANK), _padded(want_input, r, BLANK))
            assert type(left) is tuple and type(right) is tuple


def test_dotted_sequence_canonical_form_under_another_blank():
    state = DottedSequence([1, 0, 2, 0, 0], iter([0, 0]), blank=0)
    assert (state.stack, state.input) == ((1, 0, 2), ())
    assert state.window(4, 2) == ((1, 0, 2, 0), (0, 0))
    assert state.window(0, 0) == ((), ())
    assert state != DottedSequence((1, 0, 2), (), blank=BLANK)


def test_dotted_sequence_window_pads_with_blanks():
    state = DottedSequence(("V", "NP"), ("NP",))
    left, right = state.window(3, 2)
    assert left == ("V", "NP", BLANK)
    assert right == ("NP", BLANK)
