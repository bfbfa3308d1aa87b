import hashlib
import inspect
import math
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catpoly.errors import EmptyWord, NotCatalan, ResourceLimit
from catpoly.words import (
    INCREMENTS,
    CatalanWord,
    Polyomino,
    WordClass,
    avoids,
    count_words,
    enumerate_words,
    from_dyck,
    increments,
    inter_oracle,
    sper_oracle,
    stat_area,
    stat_inter,
    stat_last,
    stat_record,
    stat_sper,
    to_dyck,
    transfer,
    validate,
    word_counts,
)

# independent oracles ---------------------------------------------------------


def all_catalan_brute(n):
    """Every Catalan word of length n by direct recursion."""
    if n == 0:
        return [()]
    words = [(0,)]
    for _ in range(n - 1):
        words = [w + (c,) for w in words for c in range(w[-1] + 2)]
    return words


def avoids_brute(w):
    return not any(w[i] >= w[i + 1] >= w[i + 2] for i in range(len(w) - 2))


def motzkin_by_recurrence(n):
    m = [1, 1]
    while len(m) <= n:
        k = len(m)
        m.append(m[k - 1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


# validation -----------------------------------------------------------------


def test_validate_known_word():
    assert validate([0, 0, 1, 2]).letters == (0, 0, 1, 2)


def test_validate_empty():
    assert validate([]).letters == ()


def test_validate_jump_rejected():
    with pytest.raises(NotCatalan) as err:
        validate([0, 0, 2])
    assert err.value.position == 2


def test_validate_bad_start():
    with pytest.raises(NotCatalan) as err:
        validate([1, 0])
    assert err.value.position == 0


@pytest.mark.parametrize("text,letters", [
    ("0012", (0, 0, 1, 2)),
    ("0,1,2,3", (0, 1, 2, 3)),
    ("ε", ()),
    ("", ()),
])
def test_parse_forms(text, letters):
    assert CatalanWord.parse(text).letters == letters


@pytest.mark.parametrize("text", ["0²", "01²"])
def test_parse_refuses_digits_int_does_not_read(text):
    # "²" is a digit to str.isdigit but not a decimal that int reads
    with pytest.raises(NotCatalan, match="cannot parse word"):
        CatalanWord.parse(text)


def test_str_roundtrip_large_letters():
    w = CatalanWord(range(12))
    assert str(w) == "0,1,2,3,4,5,6,7,8,9,10,11"
    assert CatalanWord.parse(str(w)) == w


# avoidance -------------------------------------------------------------------


def test_avoids_known_examples():
    assert avoids(CatalanWord.parse("0010"), WordClass.AVOID_GEQ_GEQ)
    assert not avoids(CatalanWord.parse("0001"), WordClass.AVOID_GEQ_GEQ)
    assert avoids(CatalanWord.parse("001"), WordClass.CLASS_B)


def test_avoids_matches_brute_force():
    for n in range(8):
        for w in all_catalan_brute(n):
            assert avoids(CatalanWord(w), WordClass.AVOID_GEQ_GEQ) == avoids_brute(w)


def test_class_inclusions():
    for n in range(8):
        words = [CatalanWord(w) for w in all_catalan_brute(n)]
        geq = {w for w in words if avoids(w, WordClass.AVOID_GEQ_GEQ)}
        b = {w for w in words if avoids(w, WordClass.CLASS_B)}
        assert b <= geq


# enumeration -----------------------------------------------------------------


def test_enumerate_length4_catalog():
    got = [str(w) for w in enumerate_words(4, WordClass.AVOID_GEQ_GEQ)]
    assert got == ["0010", "0011", "0012", "0101", "0112", "0120", "0121", "0122", "0123"]


def test_enumerate_length0():
    assert list(enumerate_words(0, WordClass.CLASS_B)) == [CatalanWord(())]


def test_enumerate_matches_brute_filter():
    for n in range(9):
        brute = all_catalan_brute(n)
        expected = sorted(w for w in brute if avoids_brute(w))
        got = [w.letters for w in enumerate_words(n, WordClass.AVOID_GEQ_GEQ)]
        assert got == expected
        # same words, same lexicographic order, for every class
        for cls in WordClass:
            expected = sorted(w for w in brute if avoids(w, cls))
            assert [w.letters for w in enumerate_words(n, cls)] == expected


def test_enumerated_words_are_whole_catalan_words():
    # enumerate_words does not validate its words again: each must still be
    # a CatalanWord equal to the validated one, with its own letter tuple
    for cls in WordClass:
        got = [w for n in range(8) for w in enumerate_words(n, cls)]
        assert all(type(w) is CatalanWord and type(w.letters) is tuple for w in got)
        assert got == [CatalanWord(w.letters) for w in got]
        assert len(set(got)) == len(got)


def test_enumerate_streams_the_top_length():
    words = enumerate_words(16, WordClass.AVOID_GEQ_GEQ)
    assert inspect.isgenerator(words)
    assert [str(w) for w in islice(words, 3)] == [
        "0010101010101010", "0010101010101011", "0010101010101012",
    ]


def test_enumerate_length5_is_motzkin():
    assert len(list(enumerate_words(5, WordClass.AVOID_GEQ_GEQ))) == 21


def test_enumerate_resource_limit():
    with pytest.raises(ResourceLimit):
        list(enumerate_words(17, WordClass.AVOID_GEQ_GEQ))
    # the guard is overridable
    assert len(list(enumerate_words(9, WordClass.AVOID_GEQ_GEQ, limit=9))) == 835


def test_enumerate_negative_length_raises():
    with pytest.raises(ValueError):
        list(enumerate_words(-1, WordClass.AVOID_GEQ_GEQ))


def test_enumerate_class_b_small():
    assert [str(w) for w in enumerate_words(3, WordClass.CLASS_B)] == ["001", "012"]
    assert len(list(enumerate_words(5, WordClass.CLASS_B))) == 9


def test_enumerate_class_b_equals_tail_condition():
    for n in range(13):
        geq = list(enumerate_words(n, WordClass.AVOID_GEQ_GEQ))
        b = set(enumerate_words(n, WordClass.CLASS_B))
        assert b == {w for w in geq if len(w) < 2 or w[-2] < w[-1]}


# counting --------------------------------------------------------------------


def test_count_examples():
    assert count_words(4, WordClass.AVOID_GEQ_GEQ) == 9
    assert count_words(1, WordClass.AVOID_GEQ_GEQ) == 1
    assert count_words(14, WordClass.AVOID_GEQ_GEQ) == 113634


def test_count_matches_motzkin_recurrence():
    for n in range(20):
        assert count_words(n, WordClass.AVOID_GEQ_GEQ) == motzkin_by_recurrence(n)


def test_count_matches_enumeration():
    for n in range(10):
        for cls in WordClass:
            assert count_words(n, cls) == len(list(enumerate_words(n, cls)))


def test_word_counts_keep_every_length_of_one_pass():
    for cls in WordClass:
        counts = word_counts(20, cls)
        assert counts == [count_words(n, cls) for n in range(21)]
        assert word_counts(7, cls) == counts[:8]
    assert word_counts(20, WordClass.AVOID_GEQ_GEQ) == [motzkin_by_recurrence(n) for n in range(21)]
    assert word_counts(0, WordClass.CLASS_B) == [1]


def test_transfer_states_match_enumeration():
    # U[c] / F[c] count the words ending in c whose previous letter is
    # not / is >= c, state by state, in every class, and the total counts
    # all of them; each max_n ends the DP at another length, where the
    # total is summed from the states, not read off a next step
    for cls in WordClass:
        want = []
        for n in range(1, 11):
            u, f = [0] * n, [0] * n
            for w in enumerate_words(n, cls):
                (f if n >= 2 and w[-2] >= w[-1] else u)[w[-1]] += 1
            want.append((u, f, sum(u) + sum(f)))
        for max_n in range(11):
            units = [1] * max_n
            states = list(transfer(max_n, cls, 1, lambda value, _unit: value, units, units))
            assert states == want[:max_n], (cls, max_n)


@pytest.mark.parametrize("stat", sorted(INCREMENTS))
def test_weighted_transfer_states_match_enumeration(stat):
    # each letter's weight lands on its own state: on dual numbers
    # count + total 2^W, U[c] / F[c] hold the (count, statistic total) of
    # the words ending in c, split by the flag, in every class and at
    # every max_n
    width = 64
    low = (1 << width) - 1
    value = {"sper": stat_sper, "area": stat_area, "inter": stat_inter}[stat]
    start = 1 + (INCREMENTS[stat][0] << width)

    def weigh(x, k):
        return x + ((x & low) * k << width)

    def pairs(layer):
        return [(x & low, x >> width) for x in layer]

    for cls in WordClass:
        want = []
        for n in range(1, 11):
            u, f = [(0, 0)] * n, [(0, 0)] * n
            for w in enumerate_words(n, cls):
                side = f if n >= 2 and w[-2] >= w[-1] else u
                count, total = side[w[-1]]
                side[w[-1]] = (count + 1, total + value(w))
            want.append((u, f, (sum(c for c, _ in u + f), sum(t for _, t in u + f))))
        for max_n in range(11):
            rise, fall = increments(stat, max_n)
            states = transfer(max_n, cls, start, weigh, rise, fall)
            got = [(pairs(u), pairs(f), (total & low, total >> width)) for u, f, total in states]
            assert got == want[:max_n], (cls, max_n)


# recorded before the transfer DP stepped one letter at a time: SHA-256 of
# the counts of every length up to 300 in each class
COUNT_300_DIGESTS = {
    WordClass.ALL_CATALAN: "e565f3eea9884585501efb165c9f31b11ead502fc02e8893a08fe19503ea90b3",
    WordClass.AVOID_GEQ_GEQ: "944b82dea1e3f9186529c4c87191f5af2cdd2a1ad2f97c0e76dfeb808c3765b9",
    WordClass.AVOID_NEQ_ADJACENT: "ba1e64cbd0709edb83d2d95bb500419be242fab2a4cf5706895a74d39c285a5d",
    WordClass.CLASS_B: "ba1e64cbd0709edb83d2d95bb500419be242fab2a4cf5706895a74d39c285a5d",
}


@pytest.mark.parametrize("cls", WordClass)
def test_word_counts_to_300_match_their_digest(cls):
    text = " ".join(map(str, word_counts(300, cls))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == COUNT_300_DIGESTS[cls]


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_counts_of_a_negative_length_raise(n):
    for count in (word_counts, count_words):
        with pytest.raises(ValueError, match="word length must be >= 0"):
            count(n)


def test_unequal_adjacent_shifted_motzkin():
    for n in range(1, 31):
        assert count_words(n, WordClass.AVOID_NEQ_ADJACENT) == motzkin_by_recurrence(n - 1)


def test_catalan_class_counts():
    # sanity: the unconstrained class counts Catalan numbers
    import math

    for n in range(31):
        assert count_words(n, WordClass.ALL_CATALAN) == math.comb(2 * n, n) // (n + 1)


# statistics ------------------------------------------------------------------

FLAGSHIP = CatalanWord.parse("00123223401011")


def test_flagship_statistics():
    assert stat_area(FLAGSHIP) == 34
    assert stat_sper(FLAGSHIP) == 22
    assert stat_inter(FLAGSHIP) == 13


@pytest.mark.parametrize("word,area,sper,inter", [
    ("0", 1, 2, 0),
    ("0123", 10, 8, 3),
    ("0012", 7, 7, 1),
    ("0101", 6, 7, 0),
    ("0010", 5, 6, 0),
    ("0122", 9, 7, 3),
])
def test_small_statistics(word, area, sper, inter):
    w = CatalanWord.parse(word)
    assert stat_area(w) == area
    assert stat_sper(w) == sper
    assert stat_inter(w) == inter


def test_stat_last():
    assert stat_last(CatalanWord.parse("0")) == 0
    assert stat_last(CatalanWord.parse("0123")) == 3


def test_empty_word_raises():
    eps = CatalanWord(())
    for fn in (stat_area, stat_sper, stat_inter, stat_last, sper_oracle, inter_oracle, to_dyck, stat_record):
        with pytest.raises(EmptyWord):
            fn(eps)


def test_oracle_values():
    assert sper_oracle(CatalanWord.parse("0101")) == 7
    assert sper_oracle(CatalanWord.parse("0")) == 2
    assert inter_oracle(CatalanWord.parse("0122")) == 3
    assert inter_oracle(CatalanWord.parse("0")) == 0


def test_oracles_agree_exhaustively():
    for n in range(1, 9):
        for w in all_catalan_brute(n):
            cw = CatalanWord(w)
            assert stat_sper(cw) == sper_oracle(cw)
            assert stat_inter(cw) == inter_oracle(cw)


def cell_sper(w):
    """Semiperimeter counted on the explicit cell set."""
    cells = Polyomino.from_word(w).cells()
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    return sum((i + di, j + dj) not in cells for (i, j) in cells for di, dj in steps) // 2


def cell_inter(w):
    return len(Polyomino.from_word(w).interior_points())


def test_bit_oracles_equal_cell_counts_exhaustively():
    for n in range(1, 10):
        for w in enumerate_words(n, WordClass.ALL_CATALAN):
            assert sper_oracle(w) == cell_sper(w)
            assert inter_oracle(w) == cell_inter(w)


def test_stat_record_equals_cell_counts_exhaustively():
    # a third route beside the formulas and the bit oracles: the explicit
    # cell set of every Catalan word
    for n in range(1, 10):
        for w in enumerate_words(n, WordClass.ALL_CATALAN):
            cells = Polyomino.from_word(w).cells()
            assert stat_record(w) == (n, len(cells), cell_sper(w), cell_inter(w), w.letters[-1])


@st.composite
def tall_catalan_word(draw, max_len=30):
    """Catalan words that rise at least half the time, so letters pass 9."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    letters = [0]
    for _ in range(n - 1):
        top = letters[-1] + 1
        letters.append(draw(st.one_of(st.just(top), st.integers(min_value=0, max_value=top))))
    return CatalanWord(letters)


@settings(max_examples=200, deadline=None)
@given(tall_catalan_word())
@example(CatalanWord(range(30)))
@example(CatalanWord([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]))
def test_bit_oracles_equal_cell_counts_on_tall_words(w):
    assert sper_oracle(w) == cell_sper(w)
    assert inter_oracle(w) == cell_inter(w)


def test_stat_record_invariants():
    for n in range(1, 8):
        for w in enumerate_words(n):
            rec = stat_record(w)
            assert rec.area >= rec.length
            assert rec.sper >= rec.length + 1
            assert rec.inter >= 0
            assert rec.last <= rec.length - 1


# Dyck paths ------------------------------------------------------------------


def test_dyck_examples():
    assert to_dyck(CatalanWord.parse("0")) == "UD"
    assert to_dyck(CatalanWord.parse("012")) == "UUUDDD"


def test_dyck_flagship_semilength():
    path = to_dyck(FLAGSHIP)
    assert len(path) == 28
    assert path.count("U") == 14


def test_dyck_stays_nonnegative():
    for n in range(1, 9):
        for w in enumerate_words(n, WordClass.ALL_CATALAN):
            height = 0
            for step in to_dyck(w):
                height += 1 if step == "U" else -1
                assert height >= 0
            assert height == 0


def test_dyck_roundtrip_injective():
    for n in range(1, 9):
        words = list(enumerate_words(n, WordClass.ALL_CATALAN))
        paths = {to_dyck(w) for w in words}
        assert len(paths) == len(words)
        for w in words:
            assert from_dyck(to_dyck(w)) == w


def dyck_paths(semilength):
    """Every Dyck path of the semilength, by first return: U p D q."""
    if semilength == 0:
        yield ""
        return
    for k in range(semilength):
        for inner in dyck_paths(k):
            for rest in dyck_paths(semilength - 1 - k):
                yield "U" + inner + "D" + rest


def test_from_dyck_gives_catalan_words_from_every_path():
    # from_dyck trusts its letters; the validating constructor must agree
    for n in range(9):
        paths = list(dyck_paths(n))
        assert len(paths) == math.comb(2 * n, n) // (n + 1)
        words = {from_dyck(path) for path in paths}
        assert len(words) == len(paths)
        for path in paths:
            w = from_dyck(path)
            assert CatalanWord(w.letters) == w and len(w) == n
            if n:
                assert to_dyck(w) == path


@pytest.mark.parametrize("path, message", [
    ("UDDU", "path dips below the axis"),
    ("UXD", "bad step 'X'"),
    ("UUD", "path does not return to the axis"),
])
def test_from_dyck_rejects_a_path_that_is_not_dyck(path, message):
    with pytest.raises(ValueError, match=message):
        from_dyck(path)


# randomized coverage beyond the exhaustive range -------------------------------


@st.composite
def random_catalan_word(draw, max_len=40):
    n = draw(st.integers(min_value=1, max_value=max_len))
    letters = [0]
    for _ in range(n - 1):
        letters.append(draw(st.integers(min_value=0, max_value=letters[-1] + 1)))
    return CatalanWord(letters)


@settings(max_examples=150, deadline=None)
@given(random_catalan_word())
def test_random_words_oracles_and_dyck(w):
    assert stat_sper(w) == sper_oracle(w)
    assert stat_inter(w) == inter_oracle(w)
    assert from_dyck(to_dyck(w)) == w
