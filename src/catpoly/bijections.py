"""Recursive bijections between the word classes.

``chi`` maps the avoiding words of length n onto the unequal-adjacent
words of length n+1, shifting the semiperimeter by exactly +2.  ``psi``
maps the strictly-rising-tail words onto unequal-adjacent words of the
same length, preserving area and interior points.  Both recurse on the
first-return split w = 0 . (elevated block) . remainder, taken on plain
letter tuples; ``decompose`` returns the same split as a record.

The exhaustive check has two entry points: ``verify_bijectivity``
enumerates its words, and ``bijectivity_report`` takes words a caller
has already enumerated (``verify`` passes its census, and one pair of
memoized maps from ``memoized_maps`` for every length).
"""

from typing import Callable, Collection, List, NamedTuple, Sequence, Tuple

from . import words
from .errors import NotInDomain
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


def _chi(letters, image=None):
    """chi on a letter tuple, recursing through ``image`` (plain recursion
    by default)."""
    image = image or _chi
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


def chi(w) -> CatalanWord:
    """Map an avoiding word to an unequal-adjacent word one letter longer."""
    word = w if isinstance(w, CatalanWord) else CatalanWord(w)
    if not avoids(word.letters, WordClass.AVOID_GEQ_GEQ):
        raise NotInDomain(f"{word} contains a weakly decreasing triple")
    return CatalanWord(_chi(word.letters))


def _psi(letters, image=None):
    """psi on a letter tuple, recursing through ``image`` (plain recursion
    by default)."""
    image = image or _psi
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
    return CatalanWord(_psi(word.letters))


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


def verify_bijectivity(n: int, limit: int = 16) -> BijectionReport:
    """Exhaustively check both bijections at length n.

    chi must map the avoiding words injectively onto the unequal-adjacent
    words of length n+1 with semiperimeter shifted by +2; psi must be
    injective on the rising-tail words with length, area and interior
    points preserved and images avoiding equal adjacent letters.
    """

    def letters(length, word_class, top):
        return [w.letters for w in enumerate_words(length, word_class, top)]

    return bijectivity_report(
        n,
        letters(n, WordClass.AVOID_GEQ_GEQ, limit),
        letters(n, WordClass.CLASS_B, limit),
        set(letters(n, WordClass.AVOID_NEQ_ADJACENT, limit)),
        set(letters(n + 1, WordClass.AVOID_NEQ_ADJACENT, limit + 1)),
        stat_record,
    )


def bijectivity_report(
    n: int,
    avoiding: Sequence[Tuple[int, ...]],
    rising_tail: Sequence[Tuple[int, ...]],
    unequal: Collection[Tuple[int, ...]],
    unequal_next: Collection[Tuple[int, ...]],
    record: Callable[[Tuple[int, ...]], StatRecord],
    maps=None,
) -> BijectionReport:
    """The check of ``verify_bijectivity`` on words given as letter tuples.

    ``avoiding`` and ``rising_tail`` are every word of length n in their
    class, taken as members without validating them again.  ``unequal``
    and ``unequal_next`` hold every unequal-adjacent word of length n and
    n+1: an image is valid exactly when it lies in the set of its length,
    which also rules out non-Catalan images.  ``record`` gives a domain
    word's statistics; an image's are computed by ``words.stat_sper``,
    ``stat_area`` and ``stat_inter``, only those the check reads.  Sub-words
    repeat heavily across a domain and across lengths, so both recursions
    are memoized: ``maps`` is a (chi, psi) pair from ``memoized_maps``,
    which a caller may share across lengths, and a fresh pair for this
    call by default.  Every domain word's image is still checked.

    Each bijection is checked a whole domain at a time: its images and
    their statistics as lists, compared with the domain's.  Only a domain
    that fails is walked word by word, to list every violation in order.
    """
    report = BijectionReport(n)
    report.chi_domain = len(avoiding)
    report.chi_codomain = len(unequal_next)
    report.psi_domain = len(rising_tail)
    chi_of, psi_of = maps or memoized_maps()
    sper, area, inter = words.stat_sper, words.stat_area, words.stat_inter

    images = list(map(chi_of, avoiding))
    if not (
        len(set(images)) == len(images) == len(unequal_next)
        and all(map(unequal_next.__contains__, images))
        and (n < 1 or list(map(sper, images)) == [record(w).sper + 2 for w in avoiding])
    ):
        _chi_violations(report, avoiding, images, unequal_next, record, sper)

    images = list(map(psi_of, rising_tail))
    if not (
        len(set(images)) == len(images)
        and all(map(unequal.__contains__, images))
        and set(map(len, images)) <= {n}
        and (n < 1 or _preserved(images, list(map(record, rising_tail)), area, inter))
    ):
        _psi_violations(report, rising_tail, images, unequal, record, area, inter)
    return report


def _preserved(images, before, area, inter):
    """Whether every image keeps the area and interior points of its word."""
    return (
        list(map(area, images)) == [rec.area for rec in before]
        and list(map(inter, images)) == [rec.inter for rec in before]
    )


def _chi_violations(report, avoiding, images, unequal_next, record, sper):
    """Append every violation of chi, word by word, to ``report``."""
    n, text = report.length, _word_text
    seen = set()
    for w, img in zip(avoiding, images):
        if img in seen:
            report.violations.append(f"chi collision at {text(w)} -> {text(img)}")
        seen.add(img)
        if img not in unequal_next:
            report.violations.append(
                f"chi({text(w)}) = {text(img)} not unequal-adjacent of length {n + 1}"
            )
        if n >= 1:
            before, after = record(w).sper, sper(img)
            if after != before + 2:
                report.violations.append(
                    f"chi({text(w)}) semiperimeter {after} != {before} + 2"
                )
    if len(seen) != len(unequal_next):
        report.violations.append(
            f"chi image size {len(seen)} != codomain size {len(unequal_next)}"
        )


def _psi_violations(report, rising_tail, images, unequal, record, area, inter):
    """Append every violation of psi, word by word, to ``report``."""
    n, text = report.length, _word_text
    seen = set()
    for w, img in zip(rising_tail, images):
        if img in seen:
            report.violations.append(f"psi collision at {text(w)} -> {text(img)}")
        seen.add(img)
        if img not in unequal:
            if any(a == b for a, b in zip(img, img[1:])):
                report.violations.append(
                    f"psi({text(w)}) = {text(img)} has equal adjacent letters"
                )
            elif len(img) == n:
                report.violations.append(f"psi({text(w)}) = {text(img)} is not a Catalan word")
        if len(img) != n:
            report.violations.append(f"psi({text(w)}) changed length")
        if n >= 1:
            before = record(w)
            if area(img) != before.area or inter(img) != before.inter:
                report.violations.append(
                    f"psi({text(w)}) = {text(img)} does not preserve area/interior"
                )
