"""Catalan words, their bargraph polyominoes, and the four statistics.

A Catalan word is a sequence starting at 0 in which each letter exceeds
its predecessor by at most one.  Its polyomino has bottom-justified
columns of height letter+1.  The statistics (area, semiperimeter,
interior points, last letter) come in two independent flavours: closed
formulas over the height profile, and geometric oracles that count on the
cell grid, held as one bitmask per row.  Both are exported so they can be
cross-checked: ``stat_record`` gathers the formulas into one named tuple,
and ``grid_oracles`` reads both oracles off one grid per word
(``sper_oracle`` and ``inter_oracle`` are its two views).  They, ``avoids``
and ``to_dyck`` read a word through the sequence protocol: a
``CatalanWord``, or its letters as a tuple or a list.

Enumeration and counting run the same (last letter, flag) automaton:
``enumerate_words`` walks ``_successors`` depth first on an explicit
stack, and ``transfer`` steps all words of one length at a time, letter
by letter, with the ``weigh`` and the rise and fall weights its caller
chooses.  ``word_counts`` is ``transfer`` with unit weights; the
statistic tables and the area and interior-point series are the same DP
in other rings, weighed by the increments of ``INCREMENTS``.
"""

import enum
from itertools import count, islice
from operator import sub
from typing import Iterator, NamedTuple, Sequence

from .errors import EmptyWord, InternalInconsistency, NotCatalan, ResourceLimit

#: Largest length accepted by full enumeration unless overridden.
DEFAULT_ENUM_LIMIT = 16


class WordClass(enum.Enum):
    ALL_CATALAN = "catalan"
    AVOID_GEQ_GEQ = "geqgeq"
    AVOID_NEQ_ADJACENT = "neq"
    CLASS_B = "b"

    @classmethod
    def parse(cls, text):
        for member in cls:
            if text == member.value or text == member.name.lower():
                return member
        raise ValueError(f"unknown word class {text!r}")


class CatalanWord:
    """Validated immutable Catalan word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[int]):
        letters = tuple(letters)
        if letters:
            if letters[0] != 0:
                raise NotCatalan(0)
            prev = 0
            for i, w in enumerate(letters[1:], start=1):
                if w < 0 or w > prev + 1:
                    raise NotCatalan(i)
                prev = w
        self.letters = letters

    @classmethod
    def _raw(cls, letters):
        # internal: a tuple of letters already known to be a Catalan word
        w = object.__new__(cls)
        w.letters = letters
        return w

    @classmethod
    def parse(cls, text: str) -> "CatalanWord":
        """Accepts a digit string (letters <= 9) or comma-separated integers."""
        text = text.strip()
        if text in ("", "ε", "eps", "epsilon"):
            return cls(())
        if "," in text:
            try:
                return cls(int(part) for part in text.split(","))
            except ValueError:
                raise NotCatalan(0, f"cannot parse word {text!r}") from None
        if not text.isdecimal():  # exactly the digits int reads; isdigit takes "²"
            raise NotCatalan(0, f"cannot parse word {text!r}")
        return cls(int(ch) for ch in text)

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        if isinstance(other, CatalanWord):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return _word_text(self.letters)

    def __repr__(self):
        return f"CatalanWord({self})"

    def heights(self):
        return tuple(w + 1 for w in self.letters)


def _word_text(letters) -> str:
    """Digit string for letters <= 9, comma-separated otherwise; ε if empty."""
    if not letters:
        return "ε"
    if max(letters) <= 9:
        return "".join(str(w) for w in letters)
    return ",".join(str(w) for w in letters)


class Polyomino:
    """Column-height view of a Catalan word (bottom-justified bargraph)."""

    __slots__ = ("heights",)

    def __init__(self, heights: Sequence[int]):
        heights = tuple(heights)
        if any(h < 1 for h in heights):
            raise ValueError("column heights must be positive")
        self.heights = heights

    @classmethod
    def from_word(cls, w: CatalanWord) -> "Polyomino":
        return cls(w.heights())

    def __len__(self):
        return len(self.heights)

    def cells(self):
        """Set of (column, row) cells, both 0-based."""
        return {(i, j) for i, h in enumerate(self.heights) for j in range(h)}

    def interior_points(self):
        """Set of lattice points (x, y) shared by four cells."""
        cells = self.cells()
        return {
            (x, y)
            for x in range(1, len(self))
            for y in range(1, max(self.heights))
            if (x - 1, y - 1) in cells
            and (x, y - 1) in cells
            and (x - 1, y) in cells
            and (x, y) in cells
        }


class StatRecord(NamedTuple):
    """A word's length and its four statistics."""

    length: int
    area: int
    sper: int
    inter: int
    last: int


def validate(seq: Sequence[int]) -> CatalanWord:
    """Return the validated word, raising NotCatalan on the first bad index."""
    return seq if isinstance(seq, CatalanWord) else CatalanWord(seq)


def avoids(w: CatalanWord, word_class: WordClass) -> bool:
    """Membership test for the supported word classes."""
    n = len(w)
    if word_class is WordClass.ALL_CATALAN:
        return True
    if word_class is WordClass.AVOID_NEQ_ADJACENT:
        return all(w[i] != w[i + 1] for i in range(n - 1))
    geqgeq = all(not (w[i] >= w[i + 1] >= w[i + 2]) for i in range(n - 2))
    if word_class is WordClass.AVOID_GEQ_GEQ:
        return geqgeq
    if word_class is WordClass.CLASS_B:
        return geqgeq and (n < 2 or w[-2] < w[-1])
    raise ValueError(f"unknown class {word_class}")


def _successors(b, flag, word_class):
    """Letters that may follow last letter b within the class.

    ``flag`` says the letter before b was >= b; the (>=,>=)-avoiding
    classes then need a rise, and the unequal-adjacent class never
    repeats b.
    """
    if word_class is WordClass.AVOID_NEQ_ADJACENT:
        return [c for c in range(b + 2) if c != b]
    if flag and word_class in (WordClass.AVOID_GEQ_GEQ, WordClass.CLASS_B):
        return range(b + 1, b + 2)
    return range(b + 2)


def enumerate_words(
    n: int,
    word_class: WordClass = WordClass.AVOID_GEQ_GEQ,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Iterator[CatalanWord]:
    """Yield every word of length n in the class, in lexicographic order.

    Depth first on an explicit stack, one word at a time, so any length
    within the limit streams: ``options[i]`` iterates the letters still
    to try at position i.  Every word the automaton yields is Catalan, so
    none is validated again.
    """
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n > limit:
        raise ResourceLimit(f"enumeration of length {n} exceeds limit {limit}")
    if n == 0:
        yield CatalanWord._raw(())
        return
    rising_tail = word_class is WordClass.CLASS_B and n >= 2
    last = n - 1
    prefix = [0] * n
    options = [iter((0,))] * n
    i = 0
    while i >= 0:
        for c in options[i]:
            prefix[i] = c
            if i < last:
                i += 1
                options[i] = iter(_successors(c, i >= 2 and prefix[i - 2] >= c, word_class))
                break
            if not rising_tail or prefix[i - 1] < c:
                yield CatalanWord._raw(tuple(prefix))
        else:
            i -= 1


#: (start, slope, rise, fall) of each statistic: the word 0 has the value
#: start, and appending letter c adds slope * c + rise on a rise and
#: slope * c + fall on a fall or stay
INCREMENTS = {"sper": (2, 0, 2, 1), "area": (1, 1, 1, 1), "inter": (0, 1, -1, 0)}


def increments(stat, n, unit=1):
    """The weights ``transfer`` takes for ``stat``: the increments of a rise
    and of a fall or stay to each letter 0..n-1, times ``unit``, as two
    lists."""
    _start, slope, up, down = INCREMENTS[stat]
    return [list(islice(count(first * unit, slope * unit), n)) for first in (up, down)]


def transfer(max_n: int, word_class: WordClass, start, weigh, rise, fall) -> Iterator[tuple]:
    """Yield the weighted states (U, F) of the class at each length 1..max_n,
    with their total.

    The transfer DP of the automaton of ``_successors`` (P. Flajolet and
    R. Sedgewick, Analytic Combinatorics, 2009, section V.5).  U[c] holds
    the words of length n that end in c after a smaller letter (or have
    length 1), F[c] those whose previous letter is >= c; the word 0 carries
    ``start``.  A rise to c may follow U[c-1] and F[c-1]; a fall or stay to
    c may follow U[b] for b >= c, and also F[b] in the classes that do not
    avoid (>=,>=); the unequal-adjacent class needs b > c.  The rising-tail
    class keeps only U, and its F reads 0.  So one step, taken one letter
    at a time from the top, is one running sum and two weighings:
      U'[c] = weigh(U[c-1] + F[c-1], rise[c]) for c >= 1,
      F'[c] = weigh(sum of U[b] (+ F[b]) over b >= c (> c), fall[c]).
    ``weigh(value, weight)`` appends a letter, weighted rise[c] for a rise
    to c and fall[c] for a fall or stay to c (c < max_n; rise[0] is never
    read), and must map 0 to 0.  Any ring serves: ints for counts, packed
    q-integers for the series, dual numbers for the statistic tables.
    The yielded lists are read only.

    Each length comes as (U, F, total): the total is the sum of U and F, all
    the words of that length, weighted, read off the next step's running
    sum.  It ends as the sum of U, to which the (>=,>=) class adds that of
    F; the classes that sum U + F find the whole total there, and the
    rising-tail class counts U alone.  The last length, with no next step,
    sums its own states.
    """
    both = word_class in (WordClass.ALL_CATALAN, WordClass.AVOID_NEQ_ADJACENT)
    strict = word_class is WordClass.AVOID_NEQ_ADJACENT
    rising_tail = word_class is WordClass.CLASS_B
    u, f = [start], [0]
    for n in range(1, max_n + 1):
        shown = [0] * n if rising_tail else f
        if n == max_n:
            yield u, shown, sum(u) + sum(shown)
            return
        nu, nf = [0] * (n + 1), [0] * (n + 1)
        run = 0
        for c in range(n - 1, -1, -1):
            x = u[c] + f[c]
            nu[c + 1] = weigh(x, rise[c + 1])
            if strict:
                nf[c] = weigh(run, fall[c])
                run += x
            else:
                run += x if both else u[c]
                nf[c] = weigh(run, fall[c])
        yield u, shown, run if both or rising_tail else run + sum(f)
        u, f = nu, nf


def word_counts(max_n: int, word_class: WordClass = WordClass.AVOID_GEQ_GEQ) -> list:
    """Exact counts of the words of every length 0..max_n, in one pass of
    ``transfer`` with unit weights; never materializes words."""
    if max_n < 0:
        raise ValueError(f"word length must be >= 0, got {max_n}")
    units = [1] * max_n
    states = transfer(max_n, word_class, 1, lambda value, _unit: value, units, units)
    return [1] + [total for _u, _f, total in states]


def count_words(n: int, word_class: WordClass = WordClass.AVOID_GEQ_GEQ) -> int:
    """Exact count of the words of length n, read from ``word_counts``."""
    return word_counts(n, word_class)[n]


# -- statistics -------------------------------------------------------------


def _require_nonempty(letters):
    if not letters:
        raise EmptyWord("statistic undefined on the empty word")


def stat_area(w) -> int:
    """Total number of cells: sum of (letter + 1)."""
    _require_nonempty(w)
    return sum(w) + len(w)


def stat_last(w) -> int:
    _require_nonempty(w)
    return w[-1]


def stat_sper(w) -> int:
    """Semiperimeter via the height profile: n + (h1 + hn + sum|dh|)/2."""
    _require_nonempty(w)
    # heights are letters + 1, so h1 + hn is w[0] + w[-1] + 2
    variation = sum(map(abs, map(sub, w[1:], w)))
    total = w[0] + w[-1] + 2 + variation
    if total % 2:
        raise InternalInconsistency(f"odd height-profile total {total} for {w}")
    return len(w) + total // 2


def stat_inter(w) -> int:
    """Interior points via adjacent columns: sum of min(h_i, h_{i+1}) - 1."""
    _require_nonempty(w)
    # min(h_i, h_{i+1}) - 1 is the smaller of the two letters
    return sum(map(min, w, w[1:]))


def _grid_rows(letters):
    """Row bitmasks of the cell grid: bit i of row y is set when column i
    is taller than y, i.e. when letter i >= y."""
    if min(letters) < 0:
        raise ValueError("column heights must be positive")
    at = [0] * (max(letters) + 1)
    for i, c in enumerate(letters):
        at[c] |= 1 << i
    rows = []
    acc = 0
    for bits in reversed(at):
        acc |= bits
        rows.append(acc)
    rows.reverse()
    return rows


def grid_oracles(w) -> tuple:
    """(semiperimeter, interior points) counted on one cell grid.

    Semiperimeter: half the number of cell edges not shared with another
    cell.  Per row r, the horizontal edges below it, where r differs from
    the row under it, and the vertical edges, where a column differs from
    its left neighbour; the top row's upper edges close the count.

    Interior points: lattice points surrounded by four cells.  A point
    between columns i and i+1 and rows y-1 and y is interior when both
    rows hold both columns: bit i of a & a>>1 & b & b>>1.
    """
    _require_nonempty(w)
    boundary = inter = below = 0
    for r in _grid_rows(w):
        boundary += (r ^ below).bit_count() + (r ^ (r << 1)).bit_count()
        inter += (below & (below >> 1) & r & (r >> 1)).bit_count()
        below = r
    boundary += below.bit_count()
    if boundary % 2:
        raise InternalInconsistency(f"odd boundary length {boundary} for {w}")
    return boundary // 2, inter


def sper_oracle(w) -> int:
    """Semiperimeter counted on the cell grid (``grid_oracles``)."""
    return grid_oracles(w)[0]


def inter_oracle(w) -> int:
    """Interior points counted on the cell grid (``grid_oracles``)."""
    return grid_oracles(w)[1]


def stat_record(w) -> StatRecord:
    """The length and the four statistics of a word, by their closed
    formulas (looked up by name, so a patched formula reaches every caller)."""
    _require_nonempty(w)
    return StatRecord(len(w), stat_area(w), stat_sper(w), stat_inter(w), w[-1])


# -- Dyck path correspondence -------------------------------------------------


def to_dyck(w) -> str:
    """The unique Dyck path whose up-step starting heights read off the word."""
    _require_nonempty(w)
    steps = []
    height = 0
    for target in w:
        # descend to the up-step's starting height, then go up
        steps.append("D" * (height - target))
        steps.append("U")
        height = target + 1
    steps.append("D" * height)
    return "".join(steps)


def from_dyck(path: str) -> CatalanWord:
    """Inverse of to_dyck: record the starting height of each up step.

    A path that never dips below the axis starts each up step at most one
    above the start of the previous one, so the letters are a Catalan word
    by construction and are not validated again.
    """
    letters = []
    height = 0
    for step in path:
        if step == "U":
            letters.append(height)
            height += 1
        elif step == "D":
            height -= 1
            if height < 0:
                raise ValueError("path dips below the axis")
        else:
            raise ValueError(f"bad step {step!r}")
    if height != 0:
        raise ValueError("path does not return to the axis")
    return CatalanWord._raw(tuple(letters))
