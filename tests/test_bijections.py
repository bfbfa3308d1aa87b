import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catpoly import bijections, gfs
from catpoly.bijections import (
    FirstReturnDecomp,
    bijectivity_report,
    chi,
    decompose,
    memoized_maps,
    psi,
    verify_bijectivity,
)
from catpoly.errors import NotInDomain, ResourceLimit
from catpoly.mpoly import MPoly
from catpoly.words import (
    CatalanWord,
    WordClass,
    avoids,
    enumerate_words,
    stat_area,
    stat_inter,
    stat_record,
    stat_sper,
)


def W(text):
    return CatalanWord.parse(text)


# first-return decomposition -------------------------------------------------------


def test_decompose_worked_example():
    d = decompose(W("011201123011"))
    assert d == FirstReturnDecomp((1, 1, 2), (0, 1, 1, 2, 3, 0, 1, 1))


def test_decompose_single_letter():
    assert decompose(W("0")) == FirstReturnDecomp((), ())


def test_decompose_forced_empty_block():
    assert decompose(W("0010")) == FirstReturnDecomp((), (0, 1, 0))


def test_decompose_reassembles():
    for n in range(1, 10):
        for w in enumerate_words(n):
            d = decompose(w)
            assert (0,) + d.elevated_block + d.remainder == w.letters
            assert all(x >= 1 for x in d.elevated_block)
            assert not d.remainder or d.remainder[0] == 0


# chi -------------------------------------------------------------------------------


def test_chi_base_cases():
    assert str(chi(W(""))) == "0"
    assert str(chi(W("0"))) == "01"
    assert str(chi(W("00"))) == "010"
    assert str(chi(W("001"))) == "0120"


def test_chi_worked_example():
    w = W("011201123011")
    img = chi(w)
    assert str(img) == "0121012310121"
    assert stat_sper(w) == 19
    assert stat_sper(img) == 21


def test_chi_area_does_not_transfer():
    w = W("011201123011")
    assert stat_area(chi(w)) != stat_area(w)


def test_chi_domain_guard():
    with pytest.raises(NotInDomain):
        chi(W("0001"))


def test_chi_single_letter_sper_shift():
    w = W("0")
    img = chi(w)
    assert str(img) == "01"
    assert stat_sper(w) == 2
    assert stat_sper(img) == 4


def test_chi_bijective_with_sper_shift():
    for n in range(11):
        domain = list(enumerate_words(n, WordClass.AVOID_GEQ_GEQ))
        codomain = set(enumerate_words(n + 1, WordClass.AVOID_NEQ_ADJACENT))
        images = {chi(w) for w in domain}
        assert len(images) == len(domain)
        assert images == codomain
        for w in domain:
            if n >= 1:
                assert stat_sper(chi(w)) == stat_sper(w) + 2


# psi -------------------------------------------------------------------------------


def test_psi_base_cases():
    assert psi(W("")) == W("")
    assert str(psi(W("001"))) == "010"


def test_psi_domain_guard():
    with pytest.raises(NotInDomain):
        psi(W("0110"))
    with pytest.raises(NotInDomain):
        psi(W("00"))


def test_psi_preserves_statistics():
    for n in range(11):
        for w in enumerate_words(n, WordClass.CLASS_B):
            img = psi(w)
            assert len(img) == len(w)
            assert avoids(img, WordClass.AVOID_NEQ_ADJACENT)
            if n >= 1:
                assert stat_area(img) == stat_area(w)
                assert stat_inter(img) == stat_inter(w)


def test_psi_injective():
    for n in range(11):
        words = list(enumerate_words(n, WordClass.CLASS_B))
        assert len({psi(w) for w in words}) == len(words)


# deep words -------------------------------------------------------------------------


@pytest.mark.parametrize("fn", [chi, psi], ids=["chi", "psi"])
def test_too_deep_a_word_is_a_resource_limit(fn):
    # on 0123... both recurse one level per letter, two frames a level:
    # 600 letters pass the default recursion limit of 1000
    with pytest.raises(ResourceLimit, match="recursion limit"):
        fn(CatalanWord(range(600)))


def test_a_long_shallow_word_still_maps():
    # 0101... recurses one level per block, half as deep
    w = CatalanWord((0, 1) * 300)
    image = chi(w)
    assert len(image) == 601 and stat_sper(image) == stat_sper(w) + 2
    image = psi(w)
    assert len(image) == 600
    assert (stat_area(image), stat_inter(image)) == (stat_area(w), stat_inter(w))


def test_psi_area_histogram_matches_series():
    b = gfs.sum_B(10)
    for n in range(1, 10):
        hist = MPoly.zero()
        for w in enumerate_words(n, WordClass.CLASS_B):
            hist = hist + MPoly.monomial(1, 0, stat_area(psi(w)), 0)
        assert hist == b.coeff(n)


# the exhaustive report --------------------------------------------------------------


def test_verify_bijectivity_small():
    rep = verify_bijectivity(4)
    assert rep.ok
    assert rep.chi_domain == 9
    assert rep.chi_codomain == 9


def test_verify_bijectivity_range():
    for n in range(9):
        assert verify_bijectivity(n).ok


def letters(n, cls):
    return [w.letters for w in enumerate_words(n, cls)]


def test_bijectivity_report_rejects_a_short_codomain():
    # an image missing from the unequal-adjacent set fails, and so does
    # the count of images against the codomain
    codomain = set(letters(5, WordClass.AVOID_NEQ_ADJACENT))
    codomain.discard(chi(W("0123")).letters)
    avoiding, rising_tail = letters(4, WordClass.AVOID_GEQ_GEQ), letters(4, WordClass.CLASS_B)
    rep = bijectivity_report(
        4,
        avoiding,
        rising_tail,
        set(letters(4, WordClass.AVOID_NEQ_ADJACENT)),
        codomain,
        list(map(stat_record, avoiding)),
        list(map(stat_record, rising_tail)),
    )
    assert rep.violations == [
        f"chi(0123) = {chi(W('0123'))} not unequal-adjacent of length 5",
        "chi image size 9 != codomain size 8",
    ]


def patch_rule(monkeypatch, name, target, image):
    """Patch the rule ``name`` to send the word ``target`` to ``image``."""
    real = getattr(bijections, name)
    monkeypatch.setattr(
        bijections, name, lambda letters, rec: image if letters == target else real(letters, rec),
    )


def test_psi_image_of_the_wrong_length(monkeypatch):
    # 01012 is one letter too long: no unequal-adjacent word of length 4,
    # yet it has no equal adjacent letters, so only its length is named
    patch_rule(monkeypatch, "_psi", (0, 0, 1, 2), (0, 1, 0, 1, 2))
    assert verify_bijectivity(4).violations == [
        "psi(0012) changed length",
        "psi(0012) = 01012 does not preserve area/interior",
    ]


def test_psi_collision_with_a_later_word(monkeypatch):
    # 0012 takes the image of 0123, the last rising-tail word of length 4:
    # the area fault is named at 0012, the collision at 0123
    image = psi(W("0123")).letters
    patch_rule(monkeypatch, "_psi", (0, 0, 1, 2), image)
    assert verify_bijectivity(4).violations == [
        "psi(0012) = 0123 does not preserve area/interior",
        "psi collision at 0123 -> 0123",
    ]


def test_chi_collision_that_also_breaks_the_semiperimeter(monkeypatch):
    # 0123 (semiperimeter 8) takes the image of 0010 (semiperimeter 6):
    # one word, two laws in law order, then the codomain count
    image = chi(W("0010")).letters
    patch_rule(monkeypatch, "_chi", (0, 1, 2, 3), image)
    assert verify_bijectivity(4).violations == [
        "chi collision at 0123 -> 01010",
        "chi(0123) semiperimeter 8 != 8 + 2",
        "chi image size 8 != codomain size 9",
    ]


def test_verify_bijectivity_summary_text():
    rep = verify_bijectivity(3)
    assert "n=3" in rep.summary()
    assert "ok" in rep.summary()


# randomized coverage beyond the exhaustive range -------------------------------


@st.composite
def random_avoiding_word(draw, max_len=30):
    n = draw(st.integers(min_value=1, max_value=max_len))
    letters = [0]
    for _ in range(n - 1):
        lo = 0
        if len(letters) >= 2 and letters[-2] >= letters[-1]:
            lo = letters[-1] + 1
        letters.append(draw(st.integers(min_value=lo, max_value=letters[-1] + 1)))
    return CatalanWord(letters)


@settings(max_examples=120, deadline=None)
@given(random_avoiding_word())
def test_chi_laws_on_random_words(w):
    img = chi(w)
    assert len(img) == len(w) + 1
    assert avoids(img, WordClass.AVOID_NEQ_ADJACENT)
    assert stat_sper(img) == stat_sper(w) + 2


@settings(max_examples=120, deadline=None)
@given(random_avoiding_word())
def test_psi_laws_on_random_words(w):
    if len(w) >= 2 and w[-2] >= w[-1]:
        w = CatalanWord(w.letters + (w[-1] + 1,))  # force a rising tail
    img = psi(w)
    assert len(img) == len(w)
    assert avoids(img, WordClass.AVOID_NEQ_ADJACENT)
    assert stat_area(img) == stat_area(w)
    assert stat_inter(img) == stat_inter(w)


def test_shared_memoized_images_equal_fresh_ones():
    # one memo per bijection across all lengths, as verify's bijection
    # check shares one pair over every length, so later words reuse the
    # sub-word images of earlier ones; a fresh pair per word shares none
    chi_of, psi_of = memoized_maps()
    for n in range(9):
        for w in enumerate_words(n, WordClass.AVOID_GEQ_GEQ):
            assert chi_of(w.letters) == memoized_maps()[0](w.letters), w
        for w in enumerate_words(n, WordClass.CLASS_B):
            assert psi_of(w.letters) == memoized_maps()[1](w.letters), w
