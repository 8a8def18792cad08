"""Encodings, the sequence metric, recodings, dotted sequences."""

import random
from fractions import Fraction
from itertools import product

import pytest

from godelnet import (
    Alphabet,
    BLANK,
    DottedSequence,
    Interval,
    OneSidedSequence,
    Ordering,
    cylinder,
    godel_decode,
    godel_encode,
    identity_ordering,
    recode,
    recode_ordering,
    ultrametric,
)
from godelnet.errors import DomainError, UnsupportedInputError
from godelnet.symbols import (
    all_permutations,
    compose_perms,
    encode_digits,
    invert_perm,
    zero_fixing_permutations,
)


def test_known_encoding_value(plain):
    assert godel_encode(("NP", "V", "NP"), plain.input) == Fraction(16, 27)
    assert godel_encode(("S",), plain.stack) == Fraction(4, 5)


def test_empty_word_encodes_to_zero(plain):
    assert godel_encode((), plain.input) == 0


def test_sequence_and_word_agree(plain):
    seq = OneSidedSequence(("NP", "V", BLANK, BLANK))
    assert godel_encode(seq, plain.input) == godel_encode(("NP", "V"), plain.input)


def test_nonzero_tail_is_rejected():
    ordering = identity_ordering(3)
    with pytest.raises(UnsupportedInputError):
        godel_encode(OneSidedSequence((0, 1), tail=2), ordering)


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
    for length in range(4):
        for digits in product(range(m), repeat=length):
            assert godel_decode(encode_digits(digits, m), m, length) == digits


def test_decode_domain():
    with pytest.raises(DomainError):
        godel_decode(1, 3, 2)
    with pytest.raises(DomainError):
        godel_decode(Fraction(-1, 3), 3, 2)


def test_cylinder_contains_extensions():
    ordering = identity_ordering(3)
    # a word given as a one-shot iterator must give the same interval
    for word in ((1, 2), [1, 2], iter((1, 2))):
        iv = cylinder(word, ordering)
        assert (iv.lo, iv.hi) == (Fraction(5, 9), Fraction(2, 3))
        for ext in product(range(3), repeat=2):
            assert encode_digits((1, 2) + ext, 3) in iv
        assert encode_digits((1, 1), 3) not in iv


def test_interval_is_half_open():
    iv = Interval(Fraction(1, 3), Fraction(2, 3))
    assert Fraction(1, 3) in iv
    assert Fraction(2, 3) not in iv


def test_ultrametric_values():
    assert ultrametric((1, 2, 1), (1, 2, 2), 3, tail=0) == Fraction(1, 9)
    assert ultrametric((1,), (2,), 3, tail=0) == 1
    assert ultrametric((1, 0), (1,), 3, tail=0) == 0
    assert ultrametric((), (0, 0, 1), 3, tail=0) == Fraction(1, 9)


def test_ultrametric_distinguishes_tails():
    p = OneSidedSequence((1,), tail=0)
    q = OneSidedSequence((1,), tail=BLANK)
    assert ultrametric(p, q, 3) == Fraction(1, 3)


def _padded_distance(p, p_tail, q, q_tail, m):
    """m**-n for the first position n (0-based) where the padded sequences differ, else 0."""
    horizon = max(len(p), len(q)) + 1  # past both prefixes each side is its constant tail
    p = tuple(p) + (p_tail,) * (horizon - len(p))
    q = tuple(q) + (q_tail,) * (horizon - len(q))
    for n, (a, b) in enumerate(zip(p, q)):
        if a != b:
            return Fraction(1, m**n)
    return Fraction(0)


@pytest.mark.parametrize("tail", [0, BLANK], ids=["tail0", "blank"])
def test_ultrametric_matches_padded_oracle_on_short_words(tail):
    words = [w for n in range(4) for w in product(range(3), repeat=n)]
    for p in words:
        for q in words:
            assert ultrametric(p, q, 3, tail=tail) == _padded_distance(p, tail, q, tail, 3), (p, q)


def test_ultrametric_matches_padded_oracle_on_sequences_with_other_tails():
    tails = (0, 1, BLANK)
    words = [w for n in range(3) for w in product(range(3), repeat=n)]
    for p, p_tail, q, q_tail in product(words, tails, words, tails):
        want = _padded_distance(p, p_tail, q, q_tail, 3)
        got = ultrametric(OneSidedSequence(p, tail=p_tail), OneSidedSequence(q, tail=q_tail), 3)
        assert got == want, (p, p_tail, q, q_tail)
        # a bare word takes the ``tail`` argument, a sequence keeps its own
        assert ultrametric(p, OneSidedSequence(q, tail=q_tail), 3, tail=p_tail) == want, (p, p_tail, q, q_tail)


def test_ultrametric_rejects_a_base_below_two():
    with pytest.raises(DomainError, match="base m must be >= 2, got 1"):
        ultrametric((0,), (1,), 1)


def test_ordering_requires_exact_digit_cover():
    alpha = Alphabet(("a", "b", "c"))
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 1})
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 1, "c": 3})
    with pytest.raises(DomainError):
        Ordering(alpha, {"a": 0, "b": 0, "c": 1})


def test_ordering_lookup_and_pinning():
    alpha = Alphabet((BLANK, "x"), blank=BLANK)
    pinned = Ordering(alpha, {BLANK: 0, "x": 1})
    unpinned = Ordering(alpha, {BLANK: 1, "x": 0})
    assert pinned.blank_pinned and not unpinned.blank_pinned
    assert pinned.digits(("x", BLANK)) == (1, 0)
    assert pinned.word((1, 0)) == ("x", BLANK)
    with pytest.raises(DomainError):
        pinned.digit("y")
    with pytest.raises(DomainError):
        pinned.symbol(2)


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


def test_one_sided_sequence_positions():
    seq = OneSidedSequence((5, 6), tail=0)
    assert (seq.at(1), seq.at(2), seq.at(3), seq.at(99)) == (5, 6, 0, 0)
    with pytest.raises(DomainError):
        seq.at(0)


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
