"""Recursive bijections between the word classes.

``chi`` maps the avoiding words of length n onto the unequal-adjacent
words of length n+1, shifting the semiperimeter by exactly +2.  ``psi``
maps the strictly-rising-tail words onto unequal-adjacent words of the
same length, preserving area and interior points.  Both recurse on the
first-return split w = 0 . (elevated block) . remainder, taken on plain
letter tuples; ``decompose`` returns the same split as a record.

``chi``, ``psi`` and the exhaustive check all run one memoized recursion
per bijection (``memoized_maps``).  The check has two entry points:
``verify_bijectivity`` enumerates its words, and ``bijectivity_report``
takes words and statistics a caller already holds (``verify`` passes its
census, and one pair of memoized maps for every length).  Each law is
evaluated once per length, as one list of flags over the domain, and
every violation is read off that list.
"""

import sys
from itertools import compress, count
from operator import eq, not_
from typing import Collection, List, NamedTuple, Sequence, Tuple

from . import words
from .errors import NotInDomain, ResourceLimit
from .words import (
    CatalanWord,
    StatRecord,
    WordClass,
    _word_text,
    avoids,
    enumerate_words,
    stat_record,
)


class FirstReturnDecomp(NamedTuple):
    """w = 0 . elevated_block . remainder, with the block maximal."""

    elevated_block: Tuple[int, ...]
    remainder: Tuple[int, ...]


def decompose(w) -> FirstReturnDecomp:
    """Maximal first-return split of a nonempty word."""
    letters = w.letters if isinstance(w, CatalanWord) else tuple(w)
    if not letters:
        raise NotInDomain("cannot decompose the empty word")
    return FirstReturnDecomp(*_split(letters))


def _split(letters):
    """(elevated block, remainder) of a nonempty letter tuple."""
    cut = 1
    n = len(letters)
    while cut < n and letters[cut] >= 1:
        cut += 1
    return letters[1:cut], letters[cut:]


def _lowered(block):
    return tuple([x - 1 for x in block])


def _raised(letters):
    return tuple([x + 1 for x in letters])


def _memoized(rule):
    """``rule`` with its recursive calls answered from one fresh dict.

    ``rule(letters, image)`` recurses through ``image``; the returned
    function computes each distinct argument once, for as long as it lives.
    """
    memo = {}

    def image(letters):
        img = memo.get(letters)
        if img is None:
            img = memo[letters] = rule(letters, image)
        return img

    return image


def memoized_maps():
    """A fresh memoized (chi, psi) pair on letter tuples.

    ``_chi`` and ``_psi`` are looked up when this is called, so a patched
    rule reaches the maps.  One pair may serve any number of reports: an
    image computed at one length answers every later call on the same
    letters.
    """
    return _memoized(_chi), _memoized(_psi)


def _chi(letters, image):
    """chi on a letter tuple, recursing through ``image``."""
    if not letters:
        return (0,)
    block, rem = _split(letters)
    if not rem:
        # w = 0(1+u): image is 0(1 + chi(u)); covers w = "0" via u = empty
        return (0,) + _raised(image(_lowered(block)))
    if not block:
        # w = 00z: append a trailing 0 to the image of 0z
        return image((0,) + rem[1:]) + (0,)
    # w = 0(1+u)v with both parts nonempty: drop the block's last letter
    return (0,) + _raised(image(_lowered(block[:-1]))) + image(rem)


def _image(name, rule, word):
    """``rule`` applied to ``word`` through a fresh memo, as a word.

    The recursion goes one level per letter on 0123..., two frames a
    level; a word too deep for the interpreter's recursion limit is a
    resource limit, not a crash.
    """
    try:
        return CatalanWord(_memoized(rule)(word.letters))
    except RecursionError:
        raise ResourceLimit(
            f"{name} of a word of length {len(word)} recurses past "
            f"the interpreter's recursion limit {sys.getrecursionlimit()}"
        ) from None


def chi(w) -> CatalanWord:
    """Map an avoiding word to an unequal-adjacent word one letter longer."""
    word = w if isinstance(w, CatalanWord) else CatalanWord(w)
    if not avoids(word.letters, WordClass.AVOID_GEQ_GEQ):
        raise NotInDomain(f"{word} contains a weakly decreasing triple")
    return _image("chi", _chi, word)


def _psi(letters, image):
    """psi on a letter tuple, recursing through ``image``."""
    if not letters:
        return ()
    block, rem = _split(letters)
    if block:
        return (0,) + _raised(image(_lowered(block))) + image(rem)
    return image(letters[1:]) + (0,)


def psi(w) -> CatalanWord:
    """Map a strictly-rising-tail word to an unequal-adjacent word,
    preserving length, area and interior points."""
    word = w if isinstance(w, CatalanWord) else CatalanWord(w)
    if not avoids(word.letters, WordClass.CLASS_B):
        raise NotInDomain(f"{word} is not in the strictly-rising-tail class")
    return _image("psi", _psi, word)


class BijectionReport:
    """Outcome of the exhaustive bijectivity check at one length, filled in
    as the check runs."""

    __slots__ = ("length", "chi_domain", "chi_codomain", "psi_domain", "violations")

    def __init__(self, length: int):
        self.length = length
        self.chi_domain = self.chi_codomain = self.psi_domain = 0
        self.violations: List[str] = []

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"n={self.length}: chi {self.chi_domain}->{self.chi_codomain}, "
            f"psi on {self.psi_domain} words: {status}"
        )


def verify_bijectivity(n: int, limit: int = words.DEFAULT_ENUM_LIMIT) -> BijectionReport:
    """Exhaustively check both bijections at length n.

    chi must map the avoiding words injectively onto the unequal-adjacent
    words of length n+1 with semiperimeter shifted by +2; psi must be
    injective on the rising-tail words with length, area and interior
    points preserved and images avoiding equal adjacent letters.
    """

    def letters(length, word_class, top):
        return [w.letters for w in enumerate_words(length, word_class, top)]

    avoiding = letters(n, WordClass.AVOID_GEQ_GEQ, limit)
    rising_tail = letters(n, WordClass.CLASS_B, limit)
    return bijectivity_report(
        n,
        avoiding,
        rising_tail,
        set(letters(n, WordClass.AVOID_NEQ_ADJACENT, limit)),
        set(letters(n + 1, WordClass.AVOID_NEQ_ADJACENT, limit + 1)),
        # the empty word has no statistics
        list(map(stat_record, filter(None, avoiding))),
        list(map(stat_record, filter(None, rising_tail))),
    )


def bijectivity_report(
    n: int,
    avoiding: Sequence[Tuple[int, ...]],
    rising_tail: Sequence[Tuple[int, ...]],
    unequal: Collection[Tuple[int, ...]],
    unequal_next: Collection[Tuple[int, ...]],
    avoiding_records: Sequence[StatRecord],
    rising_tail_records: Sequence[StatRecord],
    maps=None,
) -> BijectionReport:
    """The check of ``verify_bijectivity`` on words given as letter tuples.

    ``avoiding`` and ``rising_tail`` are every word of length n in their
    class, taken as members without validating them again.  ``unequal``
    and ``unequal_next`` hold every unequal-adjacent word of length n and
    n+1: an image is valid exactly when it lies in the set of its length,
    which also rules out non-Catalan images.  ``avoiding_records`` and
    ``rising_tail_records`` are the statistics of the two domains, in the
    same order, and empty at n = 0, where no statistic is checked; an
    image's are computed by ``words.stat_sper``, ``stat_area`` and
    ``stat_inter``, only those the check reads.  Sub-words repeat heavily
    across a domain and across lengths, so both recursions are memoized:
    ``maps`` is a (chi, psi) pair from ``memoized_maps``, which a caller
    may share across lengths, and a fresh pair for this call by default.
    Every domain word's image is still checked.

    Each law is evaluated once, as one list of flags over its domain: chi
    maps to images not seen before, in the codomain, with semiperimeter
    + 2; psi to images not seen before, unequal-adjacent, of length n,
    keeping area and interior points.  The violations are read off the
    same lists, in word order and, within a word, in law order; chi's
    count of images against its codomain comes after its words.
    """
    report = BijectionReport(n)
    report.chi_domain = len(avoiding)
    report.chi_codomain = len(unequal_next)
    report.psi_domain = len(rising_tail)
    chi_of, psi_of = maps or memoized_maps()
    sper, area, inter = words.stat_sper, words.stat_area, words.stat_inter
    out, text = report.violations, _word_text

    images = list(map(chi_of, avoiding))
    fresh = _first_seen(images)
    inside = list(map(unequal_next.__contains__, images))
    shifted = [sper(img) == rec.sper + 2 for rec, img in zip(avoiding_records, images)]
    for i, law in _broken(fresh, inside, shifted):
        w, img = text(avoiding[i]), text(images[i])
        if law == 0:
            out.append(f"chi collision at {w} -> {img}")
        elif law == 1:
            out.append(f"chi({w}) = {img} not unequal-adjacent of length {n + 1}")
        else:
            out.append(f"chi({w}) semiperimeter {sper(images[i])} != {avoiding_records[i].sper} + 2")
    distinct = sum(fresh)
    if distinct != len(unequal_next):
        out.append(f"chi image size {distinct} != codomain size {len(unequal_next)}")

    images = list(map(psi_of, rising_tail))
    fresh = _first_seen(images)
    inside = list(map(unequal.__contains__, images))
    same_length = list(map(n.__eq__, map(len, images)))
    kept = [
        area(img) == rec.area and inter(img) == rec.inter
        for rec, img in zip(rising_tail_records, images)
    ]
    for i, law in _broken(fresh, inside, same_length, kept):
        w, img = text(rising_tail[i]), text(images[i])
        if law == 0:
            out.append(f"psi collision at {w} -> {img}")
        elif law == 1:  # an image of another length is named by the next law
            if any(map(eq, images[i], images[i][1:])):
                out.append(f"psi({w}) = {img} has equal adjacent letters")
            elif len(images[i]) == n:
                out.append(f"psi({w}) = {img} is not a Catalan word")
        elif law == 2:
            out.append(f"psi({w}) changed length")
        else:
            out.append(f"psi({w}) = {img} does not preserve area/interior")
    return report


def _first_seen(images):
    """Flags over ``images``: whether each is the first of its value."""
    first = dict(zip(reversed(images), range(len(images) - 1, -1, -1)))
    return list(map(eq, map(first.__getitem__, images), range(len(images))))


def _broken(*laws):
    """The (word, law) index pairs of every flag down in ``laws``, lists of
    flags over one domain, in word order and then law order."""
    return sorted(
        (i, k) for k, flags in enumerate(laws) if not all(flags)
        for i in compress(count(), map(not_, flags))
    )
