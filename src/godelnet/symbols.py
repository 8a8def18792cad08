"""Symbol spaces and their Godel encodings.

A finite alphabet with an injective digit assignment ("ordering") maps
one-sided symbol sequences into the unit interval: the word a_1 a_2 ... goes
to sum_k gamma(a_k) * m**(-k), where m is the alphabet size.  A word of
length n is computed as its grid index k (the digits read as one base-m
integer) over m**n: the left corner of its cell on the m**n grid.  All
arithmetic here is exact (integers and fractions.Fraction); floats only
appear much later, inside the neural module.

A point's cell on the m**n grid is its grid index, floor(y * m**n), read
by ``grid_index`` in integers.  The module also provides the sequence
ultrametric (m**-n for a shared prefix of length n), digit permutations
acting on words ("recodings"), and the dotted two-sided sequences used by
shift machines.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .errors import DomainError

#: Canonical blank glyph.  Alphabets may declare any token as their blank;
#: this is the default used by dotted sequences and the grammar pipeline.
BLANK = "⊔"


def check_whole(name, value, least=0):
    """DomainError naming ``name`` unless ``value`` is a plain int (no bool or numpy integer) >= ``least``."""
    if type(value) is not int or value < least:
        raise DomainError("%s must be an integer >= %d, got %r" % (name, least, value))


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
        missing = [s for s in self.alphabet.symbols if s not in mapping]
        unknown = [s for s in mapping if s not in self.alphabet.symbols]
        if missing or unknown:
            parts = ["%s %s" % (what, ", ".join(sorted(map(str, syms))))
                     for what, syms in (("missing", missing), ("unknown", unknown)) if syms]
            raise DomainError("ordering must cover the alphabet exactly: %s" % "; ".join(parts))
        if sorted(mapping.values()) != list(range(m)):
            raise DomainError(
                "ordering digits must be exactly 0..%d, got %r" % (m - 1, sorted(mapping.values()))
            )
        canon = tuple(sorted(mapping.items(), key=lambda kv: kv[1]))
        object.__setattr__(self, "table", canon)
        object.__setattr__(self, "_digit_of", mapping)

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

    def digits(self, word):
        return tuple(self.digit(s) for s in word)


def identity_ordering(m):
    """Ordering on the digit alphabet {0..m-1} mapping each digit to itself.

    The digit 0 doubles as the declared blank, which is the convention digit
    words use throughout.
    """
    alpha = Alphabet(tuple(range(m)), blank=0)
    return Ordering(alpha, tuple((d, d) for d in range(m)))


def godel_encode(word, ordering):
    """Exact Godel encoding of a word: each symbol contributes digit * m**-position."""
    return encode_digits(ordering.digits(word), ordering.m)


def encode_digits(digits, m):
    """Godel encoding of a digit word: its grid index k over m**n, as k / m**n."""
    digits = tuple(digits)
    return Fraction(digits_to_index(digits, m), m ** len(digits))


def grid_index(y, cells):
    """Index of the cell holding an exact y in [0, 1) on the grid of ``cells`` equal cells."""
    num, den = y.as_integer_ratio()
    return num * cells // den


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


_ZERO = Fraction(0)


@lru_cache(maxsize=256)
def _radius(m, k):
    """The distance m**-k, one shared Fraction per (m, k): Fractions are immutable."""
    return Fraction(1, m**k)


def ultrametric(p, q, m, tail=BLANK):
    """Sequence distance m**-n where n is the shared prefix length.

    Both words are extended by the constant ``tail``.  Equal sequences are
    at distance 0; sequences already differing in the first symbol are at
    distance 1.
    """
    check_whole("base m", m, 2)
    # a word's trailing tail symbols need no trimming: they equal the tail that follows them
    p, q = tuple(p), tuple(q)
    p_len, q_len = len(p), len(q)
    for k in range(max(p_len, q_len)):
        a = p[k] if k < p_len else tail
        b = q[k] if k < q_len else tail
        if a != b:
            return _radius(m, k)
    return _ZERO


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
        # a plain tuple without a trailing blank is canonical already
        stack, inp, blank = self.stack, self.input, self.blank
        if type(stack) is not tuple or stack and stack[-1] == blank:
            object.__setattr__(self, "stack", _trim(tuple(stack), blank))
        if type(inp) is not tuple or inp and inp[-1] == blank:
            object.__setattr__(self, "input", _trim(tuple(inp), blank))

    @property
    def is_empty(self):
        return not self.stack and not self.input

    def window(self, l, r):
        """The l symbols left of the dot (top first) and r symbols right of
        it, padded with blanks beyond the support."""
        return _pad(self.stack, l, self.blank), _pad(self.input, r, self.blank)

    def side_texts(self):
        """(left, right): each side's symbols in tape order, or ε for an empty side."""
        return " ".join(map(str, reversed(self.stack))) or "ε", " ".join(map(str, self.input)) or "ε"

    def __str__(self):
        return "%s . %s" % self.side_texts()


def _pad(word, n, blank):
    """The first n symbols of a trimmed word, blanks past its end."""
    if len(word) < n:
        return word + (blank,) * (n - len(word))
    return word[:n] if n > 0 else ()


def _trim(word, blank):
    while word and word[-1] == blank:
        word = word[:-1]
    return word
