"""Equality patterns of words and the partitions they induce.

The equality pattern of a length-l word is the set partition of positions
{1..l} grouping positions holding equal symbols.  Two words of equal length
lie in one digit-permutation orbit exactly when their patterns agree; in
blank-pinned mode only permutations fixing digit 0 are allowed, so the
pattern additionally remembers which block (if any) carries the zero/blank.

Grouping the corner words of the m-adic grid on [0,1) (or of the product
grid on the unit square) by pattern yields the invariant partitions used by
the macroscopic observables.
"""

import csv
import io
from dataclasses import dataclass
from itertools import permutations

from .errors import DomainError, ResourceLimitError
from .svg import grid_svg, strip_svg
from .symbols import BLANK, index_to_digits

#: Enumeration guard: maximum number of cells a partition or cell-table build may enumerate.
DEFAULT_CELL_BUDGET = 1_000_000


@dataclass(frozen=True)
class EqualityPattern:
    """Set partition of 1-based positions, plus optional zero marking.

    ``blocks`` are tuples of ascending positions, ordered by smallest
    element.  In pinned mode ``zero_block`` is the index of the block whose
    positions carry the zero/blank token, or None when no position does; in
    unpinned mode it is always None and the flag distinguishes the modes.
    """

    length: int
    blocks: tuple
    pinned: bool = False
    zero_block: object = None

    def block_of(self, position):
        for i, b in enumerate(self.blocks):
            if position in b:
                return i
        raise DomainError("position %r outside 1..%d" % (position, self.length))


def _zero_token_for(word, blank):
    if blank is not None:
        return blank
    if word and all(isinstance(t, int) for t in word):
        return 0
    return BLANK


def pattern_of(word, blank_pinned=False, blank=None):
    """Equality pattern of a word of hashable tokens.

    ``blank`` names the token playing the zero role in pinned mode; by
    default 0 for digit words and the blank glyph for symbol words.
    """
    word = tuple(word)
    first_pos = {}
    groups = {}
    for pos, tok in enumerate(word, start=1):
        if tok not in first_pos:
            first_pos[tok] = pos
            groups[tok] = []
        groups[tok].append(pos)
    blocks = tuple(tuple(groups[tok]) for tok in sorted(groups, key=first_pos.get))
    zero_block = None
    if blank_pinned:
        zero = _zero_token_for(word, blank)
        for i, tok in enumerate(sorted(groups, key=first_pos.get)):
            if tok == zero:
                zero_block = i
                break
    return EqualityPattern(len(word), blocks, blank_pinned, zero_block)


def _distinct_count(word):
    return len(set(word))


def same_orbit(w, u, m, blank_pinned=False, blank=None):
    """True when some digit permutation (fixing 0 if pinned) sends w to u.

    Realizes the pattern criterion: equal lengths and equal patterns.  Works
    on digit words and on symbol words alike; for digit words the digits are
    validated against 0..m-1, for symbol words the number of distinct
    symbols is validated against m.
    """
    w, u = tuple(w), tuple(u)
    for word in (w, u):
        for tok in word:
            if isinstance(tok, int) and not 0 <= tok < m:
                raise DomainError("digit %r outside 0..%d" % (tok, m - 1))
        if _distinct_count(word) > m:
            raise DomainError(
                "word %r uses %d distinct symbols, more than m=%d" % (word, _distinct_count(word), m)
            )
    if len(w) != len(u):
        return False
    return pattern_of(w, blank_pinned, blank) == pattern_of(u, blank_pinned, blank)


def orbit(word, m, blank_pinned=False, universe=None, blank=None):
    """All images of ``word`` under digit permutations of an m-symbol universe.

    Digit words use the universe 0..m-1.  Symbol words need ``universe``
    (an ordered m-tuple) unless they already use exactly m distinct symbols,
    in which case the sorted symbol set serves.  Pinned mode permutes only
    the non-blank symbols.
    """
    word = tuple(word)
    if universe is None:
        if all(isinstance(t, int) for t in word):
            universe = tuple(range(m))
        else:
            universe = tuple(sorted(set(word), key=str))
            if len(universe) != m:
                raise DomainError(
                    "word %r uses %d distinct symbols; pass an explicit %d-symbol universe"
                    % (word, len(universe), m)
                )
    universe = tuple(universe)
    if len(universe) != m or len(set(universe)) != m:
        raise DomainError("universe must hold exactly m=%d distinct symbols: %r" % (m, universe))
    missing = set(word) - set(universe)
    if missing:
        raise DomainError("word symbols %r missing from universe %r" % (sorted(map(str, missing)), universe))

    if blank_pinned:
        zero = _zero_token_for(word, blank)
        if zero not in universe:
            raise DomainError("pinned orbit needs the blank %r in the universe %r" % (zero, universe))
        rest = [s for s in universe if s != zero]
        tables = []
        for image in permutations(rest):
            table = dict(zip(rest, image))
            table[zero] = zero
            tables.append(table)
    else:
        tables = [dict(zip(universe, image)) for image in permutations(universe)]

    return frozenset(tuple(table[t] for t in word) for table in tables)


# ---------------------------------------------------------------------------
# pattern partitions of the interval and the square

@dataclass(frozen=True)
class PatternClassMap:
    """Assignment of grid cells to equality-pattern classes.

    ``kind`` is "interval" or "square".  Cells are indexed by int (interval)
    or (i, j) pairs (square); ``assignment`` maps cell index to a contiguous
    class id, assigned in order of each class's minimal cell index.
    ``class_patterns`` records the defining pattern (or pattern pair) per
    class id.
    """

    kind: str
    m: int
    l: int
    r: int = 0
    m_right: int = 0
    mode: str = ""
    blank_pinned: bool = False
    assignment: tuple = ()
    class_patterns: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "_class_of", dict(self.assignment))

    @property
    def class_count(self):
        return len(self.class_patterns)

    def cells(self):
        if self.kind == "interval":
            return [k for k, _ in self.assignment]
        return [ij for ij, _ in self.assignment]

    def class_of(self, cell):
        try:
            return self._class_of[cell]
        except KeyError:
            raise DomainError("cell %r outside the partition" % (cell,)) from None

    def members(self, class_id):
        return [cell for cell, cid in self.assignment if cid == class_id]


def _assign_classes(cells_with_keys):
    """Contiguous class ids in order of first (minimal) cell occurrence."""
    key_to_id = {}
    patterns = []
    assignment = []
    for cell, key in cells_with_keys:
        if key not in key_to_id:
            key_to_id[key] = len(patterns)
            patterns.append(key)
        assignment.append((cell, key_to_id[key]))
    return tuple(assignment), tuple(patterns)


def interval_partition(m, l, blank_pinned=False, cell_budget=DEFAULT_CELL_BUDGET):
    """Group the m**l corner words of length l by equality pattern."""
    if m < 2 or l < 0:
        raise DomainError("need m >= 2 and l >= 0, got m=%r l=%r" % (m, l))
    count = m**l
    if count > cell_budget:
        raise ResourceLimitError("interval partition needs %d cells, budget is %d" % (count, cell_budget))
    rows = []
    for k in range(count):
        digits = index_to_digits(k, m, l)
        rows.append((k, pattern_of(digits, blank_pinned)))
    assignment, patterns = _assign_classes(rows)
    return PatternClassMap(
        kind="interval", m=m, l=l, blank_pinned=blank_pinned,
        assignment=assignment, class_patterns=patterns,
    )


def square_partition(m, l, r, mode="joint", blank_pinned=False, m_right=None,
                     cell_budget=DEFAULT_CELL_BUDGET):
    """Group the rectangles of the product grid by corner-word pattern.

    The x axis is split into m**l cells (corner words of length l), the
    y axis into m_right**r cells (length r, base ``m_right`` defaulting to
    m).  In ``joint`` mode the two corner words concatenate to a single
    length-(l+r) word whose pattern is the class key (one shared
    permutation; requires a shared base).  In ``product`` mode each side is
    patterned independently (independent permutations per side).
    """
    if mode not in ("joint", "product"):
        raise DomainError("mode must be 'joint' or 'product', got %r" % (mode,))
    if m_right is None:
        m_right = m
    if mode == "joint" and m_right != m:
        raise DomainError("joint mode needs one shared base, got m=%d vs m_right=%d" % (m, m_right))
    if m < 2 or m_right < 2 or l < 0 or r < 0:
        raise DomainError("need bases >= 2 and lengths >= 0")
    count = (m**l) * (m_right**r)
    if count > cell_budget:
        raise ResourceLimitError("square partition needs %d cells, budget is %d" % (count, cell_budget))
    rows = []
    for i in range(m**l):
        left = index_to_digits(i, m, l)
        for j in range(m_right**r):
            right = index_to_digits(j, m_right, r)
            if mode == "joint":
                key = pattern_of(left + right, blank_pinned)
            else:
                key = (pattern_of(left, blank_pinned), pattern_of(right, blank_pinned))
            rows.append(((i, j), key))
    assignment, patterns = _assign_classes(rows)
    return PatternClassMap(
        kind="square", m=m, l=l, r=r, m_right=m_right, mode=mode,
        blank_pinned=blank_pinned, assignment=assignment, class_patterns=patterns,
    )


# ---------------------------------------------------------------------------
# exports

def class_map_csv(cmap):
    """CSV text: one row per cell with corner digits and class id."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    if cmap.kind == "interval":
        w.writerow(["cell", "corner_digits", "class"])
        for k, cid in cmap.assignment:
            digits = index_to_digits(k, cmap.m, cmap.l)
            w.writerow([k, " ".join(map(str, digits)), cid])
    else:
        w.writerow(["i", "j", "x_corner_digits", "y_corner_digits", "class"])
        for (i, j), cid in cmap.assignment:
            xd = index_to_digits(i, cmap.m, cmap.l)
            yd = index_to_digits(j, cmap.m_right, cmap.r)
            w.writerow([i, j, " ".join(map(str, xd)), " ".join(map(str, yd)), cid])
    return out.getvalue()


def class_map_svg(cmap):
    """Deterministic SVG rendering: cells colored by class id."""
    if cmap.kind == "interval":
        values = [cid for _, cid in cmap.assignment]
        return strip_svg(values, cmap.class_count,
                         title="interval pattern classes m=%d l=%d" % (cmap.m, cmap.l))
    nx, ny = cmap.m**cmap.l, cmap.m_right**cmap.r
    grid = {cell: cid for cell, cid in cmap.assignment}
    return grid_svg(nx, ny, grid, cmap.class_count,
                    title="square pattern classes (%s) %d x %d" % (cmap.mode, nx, ny))


def write_class_map(cmap, csv_path=None, svg_path=None):
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(class_map_csv(cmap))
    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(class_map_svg(cmap))
