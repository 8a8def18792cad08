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
from operator import index

from .errors import DomainError, InternalConsistencyError, ResourceLimitError
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
    """Equality-pattern class id of every grid cell, as a row-major grid.

    ``kind`` is "interval" or "square".  The x axis has m**l cells; a square
    map's y axis has m_right**r cells and an interval map is the one-column
    grid.  ``assignment[k]`` is the class id of cell k = i * y_cells + j,
    where a square cell is named (i, j) and an interval cell by its int i.
    Class ids are contiguous, assigned in order of each class's minimal cell
    index; ``class_count`` is their number.
    """

    kind: str
    m: int
    l: int
    r: int = 0
    m_right: int = 0
    mode: str = ""
    blank_pinned: bool = False
    assignment: tuple = ()
    class_count: int = 0

    def __post_init__(self):
        if len(self.assignment) != self.x_cells * self.y_cells:
            raise InternalConsistencyError(
                "class map holds %d ids for a %d x %d grid"
                % (len(self.assignment), self.x_cells, self.y_cells)
            )

    @property
    def x_cells(self):
        return self.m**self.l

    @property
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


def _assign_classes(keys):
    """Contiguous class ids of row-major cell keys, in order of first occurrence."""
    key_to_id = {}
    return tuple(key_to_id.setdefault(key, len(key_to_id)) for key in keys)


def interval_partition(m, l, blank_pinned=False, cell_budget=DEFAULT_CELL_BUDGET):
    """Group the m**l corner words of length l by equality pattern."""
    if m < 2 or l < 0:
        raise DomainError("need m >= 2 and l >= 0, got m=%r l=%r" % (m, l))
    count = m**l
    if count > cell_budget:
        raise ResourceLimitError("interval partition needs %d cells, budget is %d" % (count, cell_budget))
    ids = _assign_classes(pattern_of(index_to_digits(k, m, l), blank_pinned) for k in range(count))
    return PatternClassMap(
        kind="interval", m=m, l=l, blank_pinned=blank_pinned,
        assignment=ids, class_count=max(ids) + 1,
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
    keys = []
    for i in range(m**l):
        left = index_to_digits(i, m, l)
        for j in range(m_right**r):
            right = index_to_digits(j, m_right, r)
            if mode == "joint":
                keys.append(pattern_of(left + right, blank_pinned))
            else:
                keys.append((pattern_of(left, blank_pinned), pattern_of(right, blank_pinned)))
    ids = _assign_classes(keys)
    return PatternClassMap(
        kind="square", m=m, l=l, r=r, m_right=m_right, mode=mode,
        blank_pinned=blank_pinned, assignment=ids, class_count=max(ids) + 1,
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
        return strip_svg(cmap.assignment, cmap.class_count,
                         title="interval pattern classes m=%d l=%d" % (cmap.m, cmap.l))
    nx, ny = cmap.x_cells, cmap.y_cells
    return grid_svg(nx, ny, cmap.assignment, cmap.class_count,
                    title="square pattern classes (%s) %d x %d" % (cmap.mode, nx, ny))


def write_class_map(cmap, csv_path=None, svg_path=None):
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(class_map_csv(cmap))
    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(class_map_svg(cmap))
