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
from functools import cached_property
from itertools import permutations
from operator import index

from .errors import DomainError, InternalConsistencyError, ResourceLimitError
from .svg import grid_svg, strip_svg
from .symbols import BLANK, check_whole, digit_outside, index_to_digits

#: Enumeration guard: the most cells a partition or cell-table build, or images an orbit, may enumerate.
DEFAULT_CELL_BUDGET = 1_000_000


def _zero_token_for(tokens):
    """The token playing the zero role: 0 when the distinct tokens are all ints, else the blank glyph."""
    return 0 if all(isinstance(t, int) for t in tokens) else BLANK


def pattern_of(word, m, blank_pinned=False):
    """Equality pattern of a word of hashable tokens, as a hashable key.

    The key holds each position's block number, blocks numbered in order of
    first occurrence; in pinned mode it is paired with the zero block, the
    block of 0 in digit words and of the blank glyph in symbol words (None
    when no position holds it).  Digits are validated against 0..m-1 and
    the number of distinct symbols against m.
    """
    word = tuple(word)
    blocks = {}  # token -> block number; each token is validated once, at its first occurrence
    key = []
    for tok in word:
        block = blocks.get(tok)
        if block is None:
            if isinstance(tok, int) and not 0 <= tok < m:
                raise digit_outside(tok, m)
            block = blocks[tok] = len(blocks)
        key.append(block)
    if len(blocks) > m:
        raise DomainError("word %r uses %d distinct symbols, more than m=%d" % (word, len(blocks), m))
    key = tuple(key)
    return (key, blocks.get(_zero_token_for(blocks))) if blank_pinned else key


def same_orbit(w, u, m, blank_pinned=False):
    """True when some digit permutation (fixing 0 if pinned) sends w to u.

    Realizes the pattern criterion: equal lengths and equal patterns, of
    digit and symbol words alike, each word validated as pattern_of does.
    """
    return pattern_of(w, m, blank_pinned) == pattern_of(u, m, blank_pinned)


def orbit(word, m, blank_pinned=False, universe=None):
    """All images of ``word`` under digit permutations of an m-symbol universe, m an int >= 1.

    Digit words use the universe 0..m-1.  Symbol words need ``universe``
    (an ordered m-tuple) unless they already use exactly m distinct symbols,
    in which case the sorted symbol set serves.  Pinned mode permutes only
    the non-blank symbols; the empty word takes its kind from the universe.
    """
    check_whole("base m", m, 1)
    word = tuple(word)
    tokens = dict.fromkeys(word)  # the distinct tokens, in order of first occurrence
    if universe is None and _zero_token_for(tokens) == 0:
        # a digit word's universe 0..m-1 stays a range that nothing below builds, whatever m is
        universe = members = range(m)
        zero = 0
    else:
        if universe is None:
            universe = tuple(sorted(tokens, key=str))
            if len(universe) != m:
                raise DomainError(
                    "word %r uses %d distinct symbols; pass an explicit %d-symbol universe"
                    % (word, len(universe), m)
                )
        universe = tuple(universe)
        members = set(universe)
        zero = _zero_token_for(tokens or universe)
    if len(universe) != m or len(members) != m:
        raise DomainError("universe must hold exactly m=%d distinct symbols: %r" % (m, tuple(universe)))
    missing = {t for t in tokens if t not in members}
    if missing:
        raise DomainError("word symbols %r missing from universe %r" % (sorted(map(str, missing)), universe))

    fixed = {}
    if blank_pinned:
        if zero not in members:
            raise DomainError("pinned orbit needs the blank %r in the universe %r" % (zero, universe))
        fixed = {zero: zero}
    # an image depends only on where the word's own symbols go: count those injections (a falling
    # factorial) against the budget, then enumerate them, not the permutations of the whole universe
    movable = [s for s in tokens if s not in fixed]
    images = 1
    for taken in range(len(movable)):
        images *= m - len(fixed) - taken
        if images > DEFAULT_CELL_BUDGET:
            raise ResourceLimitError("orbit needs more than its budget of %d images" % DEFAULT_CELL_BUDGET)
    # no more targets than images; none when nothing moves, as permutations() builds its whole pool
    targets = [s for s in universe if s not in fixed] if movable else []
    tables = ({**fixed, **dict(zip(movable, image))} for image in permutations(targets, len(movable)))
    return frozenset(tuple(table[t] for t in word) for table in tables)


# ---------------------------------------------------------------------------
# pattern partitions of the interval and the square

@dataclass(frozen=True)
class PatternClassMap:
    """Equality-pattern class id of every grid cell, as a row-major grid.

    ``kind`` is "interval" or "square".  The x axis has m**l cells; a square
    map's y axis has m_right**r cells and an interval map is the one-column
    grid.  ``assignment[k]`` is the class id of cell k = i * y_cells + j,
    where a square cell is named (i, j) and an interval cell by its int i.
    Class ids are contiguous, assigned in order of each class's minimal cell
    index.
    """

    kind: str
    m: int
    l: int
    r: int = 0
    m_right: int = 0
    mode: str = ""
    blank_pinned: bool = False
    assignment: tuple = ()

    def __post_init__(self):
        if len(self.assignment) != self.x_cells * self.y_cells:
            raise InternalConsistencyError(
                "class map holds %d ids for a %d x %d grid"
                % (len(self.assignment), self.x_cells, self.y_cells)
            )

    @cached_property
    def class_count(self):
        return len(set(self.assignment))

    @cached_property
    def x_cells(self):
        return self.m**self.l

    @cached_property
    def y_cells(self):
        return self.m_right**self.r if self.kind == "square" else 1

    def cells(self):
        if self.kind == "interval":
            return list(range(self.x_cells))
        return [divmod(k, self.y_cells) for k in range(len(self.assignment))]

    def class_of(self, cell):
        try:
            i, j = (index(cell), 0) if self.kind == "interval" else map(index, cell)
        except (TypeError, ValueError):
            raise DomainError("cell %r outside the partition" % (cell,)) from None
        if not (0 <= i < self.x_cells and 0 <= j < self.y_cells):
            raise DomainError("cell %r outside the partition" % (cell,))
        return self.assignment[i * self.y_cells + j]

    def members(self, class_id):
        return [cell for cell, cid in zip(self.cells(), self.assignment) if cid == class_id]


def _budget_cells(what, *sides):
    """Cells of the grid with m**l cells along each (m, l) side, within DEFAULT_CELL_BUDGET.

    Each side's product stops once it passes the budget, so an oversized
    grid raises ResourceLimitError without its count ever being built.
    """
    count = 1
    for m, l in sides:
        cells = 1
        for _ in range(l):
            if cells > DEFAULT_CELL_BUDGET:
                raise ResourceLimitError("%s needs more than its budget of %d cells" % (what, DEFAULT_CELL_BUDGET))
            cells *= m
        count *= cells
    if count > DEFAULT_CELL_BUDGET:
        raise ResourceLimitError("%s needs %d cells, budget is %d" % (what, count, DEFAULT_CELL_BUDGET))
    return count


def interval_partition(m, l, blank_pinned=False):
    """Group the m**l corner words of length l by equality pattern; m is an int >= 2, l an int >= 0."""
    check_whole("base m", m, 2)
    check_whole("window length l", l)
    count = _budget_cells("interval partition", (m, l))
    keys = (pattern_of(index_to_digits(k, m, l), m, blank_pinned) for k in range(count))
    key_to_id = {}
    ids = tuple(key_to_id.setdefault(key, len(key_to_id)) for key in keys)
    return PatternClassMap(kind="interval", m=m, l=l, blank_pinned=blank_pinned, assignment=ids)


def square_partition(m, l, r, mode="joint", blank_pinned=False, m_right=None):
    """Group the rectangles of the product grid by corner-word pattern.

    The x axis is split into m**l cells (corner words of length l), the
    y axis into m_right**r cells (length r, base ``m_right`` defaulting to
    m).  Both modes are composed from interval maps.  In ``joint`` mode (one
    shared permutation and base) cell (i, j) holds the word left + right of
    grid index i * m**r + j, so the length-(l+r) interval map is the square
    map.  In ``product`` mode (independent permutations per side) a class is
    a pair (a, b) of side classes, and pairs first occur in row-major order,
    so the pair's id is a * right.class_count + b.
    """
    if mode not in ("joint", "product"):
        raise DomainError("mode must be 'joint' or 'product', got %r" % (mode,))
    if m_right is None:
        m_right = m
    for name, value, least in (("base m", m, 2), ("base m_right", m_right, 2),
                               ("window length l", l, 0), ("window length r", r, 0)):
        check_whole(name, value, least)
    if mode == "joint" and m_right != m:
        raise DomainError("joint mode needs one shared base, got m=%d vs m_right=%d" % (m, m_right))
    _budget_cells("square partition", (m, l), (m_right, r))
    if mode == "joint":
        ids = interval_partition(m, l + r, blank_pinned).assignment
    else:
        left = interval_partition(m, l, blank_pinned)
        right = interval_partition(m_right, r, blank_pinned)
        ids = tuple(a * right.class_count + b for a in left.assignment for b in right.assignment)
    return PatternClassMap(
        kind="square", m=m, l=l, r=r, m_right=m_right, mode=mode,
        blank_pinned=blank_pinned, assignment=ids,
    )


# ---------------------------------------------------------------------------
# exports

def class_map_csv(cmap):
    """CSV text: one row per cell with corner digits and class id."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    if cmap.kind == "interval":
        w.writerow(["cell", "corner_digits", "class"])
        for k, cid in enumerate(cmap.assignment):
            digits = index_to_digits(k, cmap.m, cmap.l)
            w.writerow([k, " ".join(map(str, digits)), cid])
    else:
        w.writerow(["i", "j", "x_corner_digits", "y_corner_digits", "class"])
        for (i, j), cid in zip(cmap.cells(), cmap.assignment):
            xd = index_to_digits(i, cmap.m, cmap.l)
            yd = index_to_digits(j, cmap.m_right, cmap.r)
            w.writerow([i, j, " ".join(map(str, xd)), " ".join(map(str, yd)), cid])
    return out.getvalue()


def class_map_svg(cmap):
    """Deterministic SVG rendering: cells colored by class id."""
    if cmap.kind == "interval":
        return strip_svg(cmap.assignment, title="interval pattern classes m=%d l=%d" % (cmap.m, cmap.l))
    nx, ny = cmap.x_cells, cmap.y_cells
    return grid_svg(nx, ny, cmap.assignment,
                    title="square pattern classes (%s) %d x %d" % (cmap.mode, nx, ny))
