"""Symbol spaces and their Godel encodings.

A finite alphabet with an injective digit assignment ("ordering") maps
one-sided symbol sequences into the unit interval: the word a_1 a_2 ... goes
to sum_k gamma(a_k) * m**(-k), where m is the alphabet size.  All arithmetic
here is exact (fractions.Fraction); floats only appear much later, inside the
neural module.

The module also provides the sequence ultrametric (m**-n for a shared prefix
of length n), cylinder intervals, digit permutations acting on words
("recodings"), and the dotted two-sided sequences used by shift machines.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .errors import DomainError, UnsupportedInputError

#: Canonical blank glyph.  Alphabets may declare any token as their blank;
#: this is the default used by dotted sequences and the grammar pipeline.
BLANK = "⊔"


def _check_symbols(symbols):
    if len(symbols) < 2:
        raise DomainError("alphabet needs at least 2 symbols, got %d" % len(symbols))
    if len(set(symbols)) != len(symbols):
        raise DomainError("alphabet symbols must be distinct: %r" % (symbols,))


@dataclass(frozen=True)
class Alphabet:
    """A finite, ordered collection of distinct symbol tokens.

    ``blank`` is the optional designated blank; when present it must be one
    of the symbols.  Tokens are arbitrary hashables in principle; in practice
    strings (grammar symbols) and small ints (digits) are used.
    """

    symbols: tuple
    blank: object = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        _check_symbols(self.symbols)
        if self.blank is not None and self.blank not in self.symbols:
            raise DomainError("blank %r is not an alphabet symbol" % (self.blank,))

    @property
    def size(self):
        return len(self.symbols)

    def __contains__(self, sym):
        return sym in self.symbols

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class Ordering:
    """An injective assignment of the digits 0..m-1 to an alphabet's symbols.

    ``blank_pinned`` is not stored but derived: it holds when the alphabet
    declares a blank and that blank carries digit 0.  Orderings with the same
    digit table compare equal regardless of construction order.
    """

    alphabet: Alphabet
    table: tuple = field(default=())  # tuple of (symbol, digit) pairs

    def __post_init__(self):
        pairs = tuple(self.table.items()) if isinstance(self.table, dict) else tuple(self.table)
        mapping = dict(pairs)
        m = self.alphabet.size
        if set(mapping) != set(self.alphabet.symbols):
            raise DomainError(
                "ordering must cover the alphabet exactly; alphabet %r vs table keys %r"
                % (self.alphabet.symbols, sorted(map(str, mapping)))
            )
        if sorted(mapping.values()) != list(range(m)):
            raise DomainError(
                "ordering digits must be exactly 0..%d, got %r" % (m - 1, sorted(mapping.values()))
            )
        canon = tuple(sorted(mapping.items(), key=lambda kv: kv[1]))
        object.__setattr__(self, "table", canon)
        object.__setattr__(self, "_digit_of", mapping)
        object.__setattr__(self, "_symbol_of", {d: s for s, d in mapping.items()})

    @property
    def m(self):
        return self.alphabet.size

    @property
    def blank_pinned(self):
        b = self.alphabet.blank
        return b is not None and self._digit_of[b] == 0

    def digit(self, sym):
        try:
            return self._digit_of[sym]
        except KeyError:
            raise DomainError("symbol %r not in alphabet %r" % (sym, self.alphabet.symbols)) from None

    def symbol(self, digit):
        try:
            return self._symbol_of[digit]
        except KeyError:
            raise DomainError("digit %r outside 0..%d" % (digit, self.m - 1)) from None

    def digits(self, word):
        return tuple(self.digit(s) for s in word)

    def word(self, digits):
        return tuple(self.symbol(d) for d in digits)


def identity_ordering(m, pinned_blank=True):
    """Ordering on the digit alphabet {0..m-1} mapping each digit to itself.

    With ``pinned_blank`` the digit 0 doubles as the declared blank, which is
    the convention digit words use throughout.
    """
    alpha = Alphabet(tuple(range(m)), blank=0 if pinned_blank else None)
    return Ordering(alpha, tuple((d, d) for d in range(m)))


@dataclass(frozen=True)
class OneSidedSequence:
    """A one-sided infinite sequence with eventually-constant tail.

    Stored as a finite prefix plus the constant tail symbol; the prefix is
    canonicalized by trimming trailing copies of the tail symbol, so equality
    of the dataclass is equality of the sequences.
    """

    prefix: tuple
    tail: object = BLANK

    def __post_init__(self):
        p = tuple(self.prefix)
        while p and p[-1] == self.tail:
            p = p[:-1]
        object.__setattr__(self, "prefix", p)

    def at(self, k):
        """Symbol at 1-based position k."""
        if k < 1:
            raise DomainError("positions are 1-based, got %d" % k)
        return self.prefix[k - 1] if k <= len(self.prefix) else self.tail


def as_sequence(seq, tail=BLANK):
    if isinstance(seq, OneSidedSequence):
        return seq
    return OneSidedSequence(tuple(seq), tail)


def godel_encode(seq, ordering):
    """Exact Godel encoding of a word or one-sided sequence.

    Each symbol contributes digit * m**-position.  A sequence tail is only
    accepted when its digit is 0 (then the series terminates); anything else
    raises UnsupportedInputError rather than silently truncating.
    """
    m = ordering.m
    if isinstance(seq, OneSidedSequence):
        if ordering.digit(seq.tail) != 0:
            raise UnsupportedInputError(
                "tail symbol %r has digit %d != 0; only digit-0 tails encode to a finite sum"
                % (seq.tail, ordering.digit(seq.tail))
            )
        word = seq.prefix
    else:
        word = tuple(seq)
    total = Fraction(0)
    scale = Fraction(1)
    for sym in word:
        scale /= m
        total += ordering.digit(sym) * scale
    return total


def encode_digits(digits, m):
    """Godel encoding of a digit word under the identity ordering on 0..m-1."""
    total = Fraction(0)
    scale = Fraction(1)
    for d in digits:
        if not 0 <= d < m:
            raise DomainError("digit %r outside 0..%d" % (d, m - 1))
        scale /= m
        total += d * scale
    return total


def godel_decode(x, m, length):
    """First ``length`` base-m digits of x in [0, 1).

    Truncates: for x in cell k/m**length the result is the digit expansion of
    k.  The right endpoint 1 is outside the domain.
    """
    if m < 2:
        raise DomainError("base m must be >= 2, got %r" % (m,))
    if length < 0:
        raise DomainError("length must be >= 0, got %r" % (length,))
    x = Fraction(x)
    if not 0 <= x < 1:
        raise DomainError("decode needs 0 <= x < 1, got %s" % x)
    return index_to_digits((x * m**length).__floor__(), m, length)


def digits_to_index(digits, m):
    """Integer whose base-m expansion (most significant first) is ``digits``."""
    k = 0
    for d in digits:
        if not 0 <= d < m:
            raise DomainError("digit %r outside 0..%d" % (d, m - 1))
        k = k * m + d
    return k


def index_to_digits(k, m, length):
    """Inverse of digits_to_index for 0 <= k < m**length."""
    if not 0 <= k < m**length:
        raise DomainError("index %d outside 0..%d" % (k, m**length - 1))
    digits = []
    for _ in range(length):
        k, d = divmod(k, m)
        digits.append(d)
    return tuple(reversed(digits))


@dataclass(frozen=True)
class Interval:
    """Half-open rational interval [lo, hi)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.hi < self.lo:
            raise DomainError("interval endpoints out of order: [%s, %s)" % (self.lo, self.hi))

    def __contains__(self, x):
        return self.lo <= x < self.hi

    @property
    def width(self):
        return self.hi - self.lo


def cylinder(word, ordering):
    """Interval of encodings of all sequences beginning with ``word``.

    The empty word gives the whole of [0, 1).
    """
    lo = godel_encode(tuple(word), ordering)
    return Interval(lo, lo + Fraction(1, ordering.m ** len(tuple(word))))


def ultrametric(p, q, m, tail=BLANK):
    """Sequence distance m**-n where n is the shared prefix length.

    Accepts finite words (implicitly extended by ``tail``) or
    OneSidedSequence values.  Equal sequences are at distance 0; sequences
    already differing in the first symbol are at distance 1.
    """
    if m < 2:
        raise DomainError("base m must be >= 2, got %r" % (m,))
    p = as_sequence(p, tail)
    q = as_sequence(q, tail)
    horizon = max(len(p.prefix), len(q.prefix))
    for k in range(1, horizon + 1):
        if p.at(k) != q.at(k):
            return Fraction(1, m ** (k - 1))
    if p.tail != q.tail:
        return Fraction(1, m**horizon)
    return Fraction(0)


# ---------------------------------------------------------------------------
# digit permutations (recodings)

def check_permutation(perm, m):
    """Validate ``perm`` as a bijection of 0..m-1 given as an image tuple."""
    perm = tuple(perm)
    if sorted(perm) != list(range(m)):
        raise DomainError("not a permutation of 0..%d: %r" % (m - 1, perm))
    return perm


def recode(word, perm):
    """Apply a digit permutation positionwise to a digit word."""
    perm = check_permutation(perm, len(perm))
    m = len(perm)
    out = []
    for d in word:
        if not 0 <= d < m:
            raise DomainError("digit %r outside 0..%d" % (d, m - 1))
        out.append(perm[d])
    return tuple(out)


def compose_perms(p, q):
    """Permutation acting as q first, then p."""
    if len(p) != len(q):
        raise DomainError("cannot compose permutations of sizes %d and %d" % (len(p), len(q)))
    return tuple(p[q[i]] for i in range(len(q)))


def invert_perm(p):
    inv = [0] * len(p)
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def all_permutations(m):
    """All m! permutations of 0..m-1, lexicographic."""
    return [tuple(p) for p in permutations(range(m))]


def zero_fixing_permutations(m):
    """The (m-1)! permutations of 0..m-1 fixing 0, lexicographic."""
    return [(0,) + tuple(p) for p in permutations(range(1, m))]


def recode_ordering(ordering, perm):
    """New ordering pi∘gamma: the symbol with digit d now carries perm[d]."""
    perm = check_permutation(perm, ordering.m)
    return Ordering(
        ordering.alphabet,
        tuple((sym, perm[d]) for sym, d in ordering.table),
    )


# ---------------------------------------------------------------------------
# dotted sequences (two-sided tapes with a distinguished gap)

@dataclass(frozen=True)
class DottedSequence:
    """A two-sided tape ...a-2 a-1 . a0 a1... with finite support.

    ``stack`` holds the left half in reversed order: stack[0] is the symbol
    immediately left of the dot (top of stack).  ``input`` holds the right
    half in reading order.  Both halves are trimmed of trailing blanks, so
    states that print the same are equal.
    """

    stack: tuple = ()
    input: tuple = ()
    blank: object = BLANK

    def __post_init__(self):
        object.__setattr__(self, "stack", _trim(tuple(self.stack), self.blank))
        object.__setattr__(self, "input", _trim(tuple(self.input), self.blank))

    @property
    def is_empty(self):
        return not self.stack and not self.input

    def window(self, l, r):
        """The l symbols left of the dot (top first) and r symbols right of
        it, padded with blanks beyond the support."""
        left = tuple(self.stack[k] if k < len(self.stack) else self.blank for k in range(l))
        right = tuple(self.input[k] if k < len(self.input) else self.blank for k in range(r))
        return left, right

    def shift(self, steps):
        """Move the dot ``steps`` positions right (negative: left).

        Symbols crossing the dot change sides; blanks materialize when a
        side runs out.
        """
        stack, inp = list(self.stack), list(self.input)
        for _ in range(steps):
            head = inp.pop(0) if inp else self.blank
            stack.insert(0, head)
        for _ in range(-steps):
            top = stack.pop(0) if stack else self.blank
            inp.insert(0, top)
        return DottedSequence(tuple(stack), tuple(inp), self.blank)

    def __str__(self):
        left = " ".join(str(s) for s in reversed(self.stack)) or "ε"
        right = " ".join(str(s) for s in self.input) or "ε"
        return f"{left} . {right}"


def _trim(word, blank):
    while word and word[-1] == blank:
        word = word[:-1]
    return word
