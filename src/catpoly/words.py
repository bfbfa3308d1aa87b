"""Catalan words, their bargraph polyominoes, and the four statistics.

A Catalan word is a sequence starting at 0 in which each letter exceeds
its predecessor by at most one.  Its polyomino has bottom-justified
columns of height letter+1.  The statistics (area, semiperimeter,
interior points, last letter) come in two independent flavours: closed
formulas over the height profile, and geometric oracles that walk the
explicit cell grid.  Both are exported so they can be cross-checked.
"""

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

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
        if not text.isdigit():
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
        if not self.letters:
            return "ε"
        if max(self.letters) <= 9:
            return "".join(str(w) for w in self.letters)
        return ",".join(str(w) for w in self.letters)

    def __repr__(self):
        return f"CatalanWord({self})"

    def heights(self):
        return tuple(w + 1 for w in self.letters)


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


@dataclass(frozen=True)
class StatRecord:
    length: int
    area: int
    sper: int
    inter: int
    last: int


def validate(seq: Sequence[int]) -> CatalanWord:
    """Return the validated word, raising NotCatalan on the first bad index."""
    return seq if isinstance(seq, CatalanWord) else CatalanWord(seq)


def _tuple_of(w) -> tuple:
    return w.letters if isinstance(w, CatalanWord) else tuple(w)


def avoids(w: CatalanWord, word_class: WordClass) -> bool:
    """Membership test for the supported word classes."""
    letters = _tuple_of(w)
    n = len(letters)
    if word_class is WordClass.ALL_CATALAN:
        return True
    if word_class is WordClass.AVOID_NEQ_ADJACENT:
        return all(letters[i] != letters[i + 1] for i in range(n - 1))
    geqgeq = all(
        not (letters[i] >= letters[i + 1] >= letters[i + 2]) for i in range(n - 2)
    )
    if word_class is WordClass.AVOID_GEQ_GEQ:
        return geqgeq
    if word_class is WordClass.CLASS_B:
        return geqgeq and (n < 2 or letters[-2] < letters[-1])
    raise ValueError(f"unknown class {word_class}")


def _next_letters(letters, word_class):
    """Letters that may legally extend the prefix within the class."""
    if not letters:
        return (0,)
    b = letters[-1]
    candidates = range(b + 2)
    if word_class is WordClass.AVOID_NEQ_ADJACENT:
        return [c for c in candidates if c != b]
    if word_class in (WordClass.AVOID_GEQ_GEQ, WordClass.CLASS_B):
        if len(letters) >= 2 and letters[-2] >= b:
            return [c for c in candidates if c > b]
        return candidates
    return candidates


def enumerate_words(
    n: int,
    word_class: WordClass = WordClass.AVOID_GEQ_GEQ,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Iterator[CatalanWord]:
    """Yield every word of length n in the class, in lexicographic order."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n > limit:
        raise ResourceLimit(f"enumeration of length {n} exceeds limit {limit}")
    if n == 0:
        yield CatalanWord(())
        return

    def expand(prefix):
        if len(prefix) == n:
            if word_class is not WordClass.CLASS_B or n < 2 or prefix[-2] < prefix[-1]:
                yield CatalanWord(prefix)
            return
        for c in _next_letters(prefix, word_class):
            yield from expand(prefix + (c,))

    yield from expand(())


def count_words(n: int, word_class: WordClass = WordClass.AVOID_GEQ_GEQ) -> int:
    """Exact count by dynamic programming; never materializes words.

    State: (last letter b, flag "previous letter >= b"); appending c is
    forbidden in the (>=,>=)-avoiding classes when the flag holds and
    b >= c, and when c == b in the unequal-adjacent class.
    """
    if n == 0:
        return 1
    # states[(b, flag)] = count
    states = {(0, False): 1}
    for _pos in range(1, n):
        nxt = {}
        for (b, flag), cnt in states.items():
            for c in range(b + 2):
                if word_class in (WordClass.AVOID_GEQ_GEQ, WordClass.CLASS_B):
                    if flag and b >= c:
                        continue
                elif word_class is WordClass.AVOID_NEQ_ADJACENT:
                    if c == b:
                        continue
                key = (c, b >= c)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    if word_class is WordClass.CLASS_B and n >= 2:
        return sum(cnt for (b, flag), cnt in states.items() if not flag)
    return sum(states.values())


# -- statistics -------------------------------------------------------------


def _require_nonempty(letters):
    if not letters:
        raise EmptyWord("statistic undefined on the empty word")


def stat_area(w) -> int:
    """Total number of cells: sum of (letter + 1)."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    return sum(letters) + len(letters)


def stat_last(w) -> int:
    letters = _tuple_of(w)
    _require_nonempty(letters)
    return letters[-1]


def stat_sper(w) -> int:
    """Semiperimeter via the height profile: n + (h1 + hn + sum|dh|)/2."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    h = [x + 1 for x in letters]
    variation = sum(abs(h[i + 1] - h[i]) for i in range(len(h) - 1))
    total = h[0] + h[-1] + variation
    if total % 2:
        raise InternalInconsistency(f"odd height-profile total {total} for {w}")
    return len(h) + total // 2


def stat_inter(w) -> int:
    """Interior points via adjacent columns: sum of min(h_i, h_{i+1}) - 1."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    h = [x + 1 for x in letters]
    return sum(max(0, min(h[i], h[i + 1]) - 1) for i in range(len(h) - 1))


def sper_oracle(w) -> int:
    """Half the number of cell edges not shared with another cell."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    cells = Polyomino(x + 1 for x in letters).cells()
    boundary = 0
    for (i, j) in cells:
        for (di, dj) in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if (i + di, j + dj) not in cells:
                boundary += 1
    if boundary % 2:
        raise InternalInconsistency(f"odd boundary length {boundary} for {w}")
    return boundary // 2


def inter_oracle(w) -> int:
    """Count lattice points surrounded by four cells of the polyomino."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    return len(Polyomino(x + 1 for x in letters).interior_points())


def stat_record(w) -> StatRecord:
    letters = _tuple_of(w)
    _require_nonempty(letters)
    return StatRecord(
        length=len(letters),
        area=stat_area(letters),
        sper=stat_sper(letters),
        inter=stat_inter(letters),
        last=letters[-1],
    )


# -- Dyck path correspondence -------------------------------------------------


def to_dyck(w) -> str:
    """The unique Dyck path whose up-step starting heights read off the word."""
    letters = _tuple_of(w)
    _require_nonempty(letters)
    steps = []
    height = 0
    for target in letters:
        # descend to the up-step's starting height, then go up
        steps.append("D" * (height - target))
        steps.append("U")
        height = target + 1
    steps.append("D" * height)
    return "".join(steps)


def from_dyck(path: str) -> CatalanWord:
    """Inverse of to_dyck: record the starting height of each up step."""
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
    return CatalanWord(letters)
