import random
from fractions import Fraction
from math import comb, factorial, prod

from hypothesis import given, settings, strategies as st
import pytest

from reference import f_explicit_terms, suffix_sum
from yfpaths.functions import (
    _base_den,
    _f_pair,
    f_base,
    f_explicit,
    f_rec,
    f_rows,
    g_product,
    g_values,
    weight,
    weight_row,
)
from yfpaths.invariants import words_up_to_digits
from yfpaths.words import EPSILON, Word, common_suffix_len, level, parse_word

F = Fraction
words = st.builds(Word, st.lists(st.sampled_from([1, 2]), max_size=7).map(tuple))


def w(text):
    return parse_word(text)


def test_g_values():
    assert g_values(w("111")) == ()
    assert g_values(w("22")) == (1, 3)
    assert g_values(w("122112")) == (1, 5, 7)
    assert g_values(w("22"))[2 - 1] == 3


def test_g_trailing_two_is_one():
    for tail in ("2", "12", "1212", "11122"):
        assert g_values(w(tail))[1 - 1] == 1


def test_g_index_range():
    with pytest.raises(IndexError):
        g_values(w("111"))[1 - 1]
    with pytest.raises(IndexError):
        g_values(w("22"))[3 - 1]


def test_g_product():
    assert g_product(w("1111"), 5) == 1
    assert g_product(w("22"), 0) == 3
    assert g_product(w("1212"), 1) == 0


# the z = 0 row for 21221: y -> value
BASE_21221 = {
    0: F(1, 720),
    1: F(-1, 280),
    2: 0,
    3: F(1, 180),
    4: 0,
    5: F(-1, 120),
    6: F(1, 180),
    7: 0,
    8: F(-1, 1680),
}


def test_base_values_21221():
    x = w("21221")
    for y, expected in BASE_21221.items():
        assert f_base(x, y) == expected, f"f_base(21221, {y})"


# full low-rank tables: word -> rows indexed by z, columns by y
TABLES = {
    "e": [[1]],
    "1": [[1, -1], [1, 0]],
    "2": [[F(1, 2), 0, F(-1, 2)], [F(1, 2), 0, F(-1, 2)]],
    "11": [[F(1, 2), -1, F(1, 2)], [F(1, 2), 0, F(-1, 2)], [F(1, 2), 0, F(1, 2)]],
    "12": [
        [F(1, 6), 0, F(-1, 2), F(1, 3)],
        [F(1, 6), 0, F(-1, 2), F(1, 3)],
        [F(1, 6), 0, F(-1, 2), F(-1, 6)],
    ],
    "21": [
        [F(1, 3), F(-1, 2), 0, F(1, 6)],
        [F(1, 3), 0, 0, F(-1, 3)],
        [F(1, 3), 0, 0, F(-1, 3)],
    ],
    "111": [
        [F(1, 6), F(-1, 2), F(1, 2), F(-1, 6)],
        [F(1, 6), 0, F(-1, 2), F(1, 3)],
        [F(1, 6), 0, F(1, 2), F(-2, 3)],
        [F(1, 6), 0, F(1, 2), F(1, 3)],
    ],
    "112": [
        [F(1, 24), 0, F(-1, 4), F(1, 3), F(-1, 8)],
        [F(1, 24), 0, F(-1, 4), F(1, 3), F(-1, 8)],
        [F(1, 24), 0, F(-1, 4), F(-1, 6), F(5, 24)],
        [F(1, 24), 0, F(-1, 4), F(-1, 6), F(-1, 8)],
    ],
    "22": [
        [F(1, 8), 0, F(-1, 4), 0, F(1, 8)],
        [F(1, 8), 0, F(-1, 4), 0, F(1, 8)],
        [F(1, 8), 0, F(-1, 4), 0, F(1, 8)],
    ],
    "121": [
        [F(1, 12), F(-1, 6), 0, F(1, 6), F(-1, 12)],
        [F(1, 12), 0, 0, F(-1, 3), F(1, 4)],
        [F(1, 12), 0, 0, F(-1, 3), F(1, 4)],
        [F(1, 12), 0, 0, F(-1, 3), F(-1, 4)],
    ],
    "211": [
        [F(1, 8), F(-1, 3), F(1, 4), 0, F(-1, 24)],
        [F(1, 8), 0, F(-1, 4), 0, F(1, 8)],
        [F(1, 8), 0, F(1, 4), 0, F(-3, 8)],
        [F(1, 8), 0, F(1, 4), 0, F(-3, 8)],
    ],
    "1111": [
        [F(1, 24), F(-1, 6), F(1, 4), F(-1, 6), F(1, 24)],
        [F(1, 24), 0, F(-1, 4), F(1, 3), F(-1, 8)],
        [F(1, 24), 0, F(1, 4), F(-2, 3), F(3, 8)],
        [F(1, 24), 0, F(1, 4), F(1, 3), F(-5, 8)],
        [F(1, 24), 0, F(1, 4), F(1, 3), F(3, 8)],
    ],
}


@pytest.mark.parametrize("text", sorted(TABLES))
def test_recursive_tables(text):
    x = w(text)
    table = TABLES[text]
    assert len(table) == x.digit_count + 1
    for z, row in enumerate(table):
        assert len(row) == x.rank + 1
        for y, expected in enumerate(row):
            assert f_rec(x, y, z) == expected, f"f({text}, {y}, {z})"


def test_recursive_spot_values():
    assert f_rec(w("1"), 1, 1) == 0
    assert f_rec(w("1111"), 4, 4) == F(3, 8)
    assert f_rec(w("12"), 3, 2) == F(-1, 6)


def test_key_range_errors():
    x = w("12")
    with pytest.raises(ValueError):
        f_rec(x, 4, 0)
    with pytest.raises(ValueError):
        f_rec(x, 0, 3)
    with pytest.raises(ValueError):
        f_base(x, -1)
    with pytest.raises(ValueError):
        f_explicit(x, 4, 0)


def test_f_row_and_base_den_agree_with_f_rec_and_f_base():
    # the rows, and the pair shape inside them, against the Fraction one and
    # against the pair read one at a time, at every y, suffix sum or not
    for x in words_up_to_digits(7):
        ys = range(x.rank + 1)
        for z, row in enumerate(f_rows(x)):
            assert [F(*pair) for pair in row] == [f_rec(x, y, z) for y in ys], f"{x}, z={z}"
            for y, (num, den) in enumerate(row):
                pn, pd = _f_pair(x.digits, y, z)
                assert pd and num * pd == pn * den, f"{x}, y={y}, z={z}"
        dens = [_base_den(x, y) for y in ys]
        assert [F(1, den) if den else F(0) for den in dens] == [f_base(x, y) for y in ys], f"{x}"


def test_f_rows_take_no_entry_of_f_pair(monkeypatch):
    # the rows are a second evaluator: they walk each column themselves and
    # reach none of the helpers of _f_pair, so the tests that compare the
    # two compare code written apart
    import yfpaths.functions as functions

    def unreachable(*args):
        raise AssertionError("f_rows reached the evaluator of _f_pair")

    want = {x: f_rows(x) for x in words_up_to_digits(6)}
    for name in ("_f_pair", "_lagrange_walk", "_walk"):
        monkeypatch.setattr(functions, name, unreachable)
    assert all(f_rows(x) == rows for x, rows in want.items())


# words of 20 to 40 digits, mostly 2s, whose chains strip many of them;
# test_f_row_and_base_den_agree_with_f_rec_and_f_base takes every shorter one
_long_words = st.builds(
    Word, st.lists(st.sampled_from([1, 2, 2, 2]), min_size=20, max_size=40).map(tuple)
)


@settings(max_examples=40, deadline=None)
@given(_long_words)
def test_f_rows_match_f_pair(x):
    for z, row in enumerate(f_rows(x)):
        assert len(row) == x.rank + 1
        for y, (num, den) in enumerate(row):
            pn, pd = _f_pair(x.digits, y, z)
            assert den and num * pd == pn * den, f"{x}, y={y}, z={z}"


def test_zero_keys_take_no_walk(monkeypatch):
    # where no suffix of x sums to y, y is a g value of x that the chain
    # never strips, so f is 0 with no walk, binomial or factorial
    import yfpaths.functions as functions

    def unreachable(*args):
        raise AssertionError("a zero key reached the walk")

    keys = [
        (x.digits, y, z)
        for x in words_up_to_digits(7)
        for y in set(range(x.rank + 1)) - set(_suffix_sums(x))
        for z in range(x.digit_count + 1)
    ]
    assert len(keys) > 1000
    functions.clear_caches()
    for name in ("_g_less", "_lagrange_walk", "_walk", "comb", "factorial"):
        monkeypatch.setattr(functions, name, unreachable)
    for key in keys:
        assert _f_pair(*key)[0] == 0, key
    twos = Word((2,) * 1500)
    assert all(f_rec(twos, y, 3) == 0 for y in range(1, twos.rank, 2))
    functions.clear_caches()


def test_base_zero_when_no_suffix_split():
    assert f_base(w("21221"), 2) == 0
    assert f_base(w("2"), 1) == 0


def test_explicit_equals_base_at_z_zero():
    for x in words_up_to_digits(5):
        for y in range(x.rank + 1):
            assert f_explicit(x, y, 0) == f_base(x, y)


def test_explicit_matches_recursive_small_sweep():
    # every key up to 9 digits: each walk length, and every place a 2 can
    # stand in it, against the closed form
    for x in words_up_to_digits(9):
        for y in range(x.rank + 1):
            for z in range(x.digit_count + 1):
                assert f_explicit(x, y, z) == f_rec(x, y, z), f"({x}, {y}, {z})"


def test_explicit_term_count_bound():
    # At most 1 + min(p(x, z), y - 1) summands for y >= 1; the closing term
    # at p(x, z) = y - 1 is load-bearing, so the bound is tight there.
    for x in words_up_to_digits(6):
        for y in range(1, x.rank + 1):
            for z in range(x.digit_count + 1):
                p = suffix_sum(x, z)
                assert len(f_explicit_terms(x, y, z)) <= 1 + min(p, y - 1)


def test_explicit_boundary_needs_closing_term():
    # p(x, z) = y - 1: dropping the closing term would give the wrong value
    x = w("11")
    assert f_explicit_terms(x, 2, 1) == [F(1, 2), F(-1)]
    assert f_rec(x, 2, 1) == F(-1, 2)


def test_explicit_is_built_apart(monkeypatch):
    # the closed form reads f_base and the g values only: it builds no word
    # (no start word) and reaches no part of the recursion it checks
    import yfpaths.functions as functions

    keys = [
        (x, y, z)
        for x in words_up_to_digits(6)
        for y in range(x.rank + 1)
        for z in range(x.digit_count + 1)
    ]
    keys.append((Word((1,) * 2000), 1999, 2000))
    expected = [f_rec(*key) for key in keys]
    built = []
    validate = Word.__init__

    def counted(word, digits=()):
        built.append(digits)
        validate(word, digits)

    def unreachable(*args):
        raise AssertionError("the closed form reached the recursion")

    monkeypatch.setattr(Word, "__init__", counted)
    for name in ("f_rec", "_f_rec", "_f_pair", "_lagrange_walk", "_walk", "weight_row"):
        monkeypatch.setattr(functions, name, unreachable)
    assert [f_explicit(*key) for key in keys] == expected
    assert built == []


def test_weight_examples():
    for y in (w("22"), w("1212"), w("111")):
        assert weight(EPSILON, y, 0) == g_product(y, 0)
    assert weight(w("1"), w("1"), 0) == 1
    for ry in range(5):
        for y in level(ry):
            for rx in range(1, ry + 1):
                for x in level(rx):
                    assert weight(x, y, 1) == 0


def test_weight_rank_precondition():
    with pytest.raises(ValueError):
        weight(w("22"), w("1"), 0)


@given(words, st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=8))
def test_explicit_matches_recursive_random(x, y, z):
    if y <= x.rank and z <= x.digit_count:
        assert f_explicit(x, y, z) == f_rec(x, y, z)


def test_memo_cache_is_invisible():
    from yfpaths.functions import clear_caches

    keys = [(w("122112"), 5, 3), (w("2221"), 4, 2), (w("1111"), 4, 4)]
    first = [f_rec(x, y, z) for x, y, z in keys]
    clear_caches()
    assert [f_rec(x, y, z) for x, y, z in keys] == first


def _suffix_sums(x):
    sums = [0]
    for d in reversed(x.digits):
        sums.append(sums[-1] + d)
    return sums


def test_g_values_are_the_missing_suffix_sums():
    # the g values of x are exactly the m in 0..rank that no suffix sum hits
    for x in words_up_to_digits(12):
        missing = set(range(x.rank + 1)).difference(_suffix_sums(x))
        assert g_values(x) == tuple(sorted(missing)), f"{x}"


def test_base_is_the_lagrange_form():
    # rank! * f_base(x, i), the start of the row and of f_rec, against the
    # partial-sum product of f_base itself
    for x in words_up_to_digits(10):
        sums = set(_suffix_sums(x))
        scale = factorial(x.rank)
        for i in range(x.rank + 1):
            lagrange = (-1) ** i * comb(x.rank, i) * prod(g - i for g in g_values(x))
            assert scale * f_base(x, i) == (lagrange if i in sums else 0), f"({x}, {i})"


def test_weight_row_matches_explicit_small():
    for ry in range(7):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    h = common_suffix_len(x, y)
                    assert weight_row(x, y) == [
                        factorial(rx) * f_explicit(x, i, h) * g_product(y, i)
                        for i in range(rx + 1)
                    ], f"({x}, {y})"


def test_weight_row_skip_small():
    # an entry in the skip set is 0; every other entry is the full row's
    for ry in range(7):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    full = weight_row(x, y)
                    for skip in (range(0, rx + 1, 2), range(1, rx + 1, 2), range(rx + 1)):
                        assert weight_row(x, y, skip) == [
                            0 if i in skip else v for i, v in enumerate(full)
                        ], f"({x}, {y}, {skip})"


def _walked_shifts(monkeypatch, x, y, skip=()):
    """weight_row(x, y, skip) and the shifts i at which it ran a walk."""
    import yfpaths.functions as functions

    walked = []
    walk = functions._lagrange_walk
    with monkeypatch.context() as mp:
        mp.setattr(
            functions, "_lagrange_walk", lambda d, r, i, *rest: walked.append(i) or walk(d, r, i, *rest)
        )
        row = weight_row(x, y, skip)
    return row, walked


def _unshared_g_values(x, y):
    """The g values of y outside the common suffix of x and y."""
    h = common_suffix_len(x, y)
    return g_values(y)[x.digits[x.digit_count - h:].count(2):]


def test_weight_row_walks_no_unshared_g_value_of_y(monkeypatch):
    # a (g - i) factor of y's unshared g values is 0 at i = g, so the entry
    # is 0 with no walk; every other suffix sum of x is walked
    hits = 0
    pairs = [(x, y) for ry in range(7) for y in level(ry) for rx in range(ry + 1) for x in level(rx)]
    rng = random.Random(1)
    ones = Word((1,) * 100)
    pairs += [(ones, Word(_random_word(rng, 150) + ones.digits[:7])) for _ in range(3)]
    for x, y in pairs:
        row, walked = _walked_shifts(monkeypatch, x, y)
        unshared = set(_unshared_g_values(x, y))
        sums = set(_suffix_sums(x))
        assert sorted(walked) == sorted(sums - unshared), f"({x}, {y})"
        assert all(row[g] == 0 for g in unshared if g <= x.rank), f"({x}, {y})"
        hits += len(unshared & sums)
    assert hits > 100


def _random_word(rng, rank):
    digits = []
    while rank:
        digit = rng.choice((1, 2)) if rank >= 2 else 1
        digits.append(digit)
        rank -= digit
    return tuple(digits)


@pytest.mark.parametrize("rx, ry", [(120, 240), (150, 200), (200, 400)])
def test_weight_row_matches_explicit_at_scale(rx, ry):
    # x a suffix of y, so the chains walk all of x; i sampled from the
    # suffix sums of x (where the row can be nonzero) and from elsewhere
    rng = random.Random(rx + ry)
    x = Word(_random_word(rng, rx))
    y = Word(_random_word(rng, ry - rx) + x.digits)
    row = weight_row(x, y)
    assert len(row) == rx + 1
    sums = _suffix_sums(x)
    for i in rng.sample(sums, 6) + rng.sample(range(rx + 1), 4) + [0, rx]:
        expected = factorial(rx) * f_explicit(x, i, x.digit_count) * g_product(y, i)
        assert row[i] == expected, f"i={i}"
    assert any(row)


@pytest.mark.parametrize("rx, ry", [(120, 240), (150, 200), (200, 400)])
def test_weight_row_skip_at_scale(monkeypatch, rx, ry):
    # the suffix pairs above, with half of the suffix sums of x and one of
    # the shifts that are none skipped: those entries are 0 and unwalked,
    # the rest are the full row's
    rng = random.Random(rx + ry)
    x = Word(_random_word(rng, rx))
    y = Word(_random_word(rng, ry - rx) + x.digits)
    full = weight_row(x, y)
    sums = _suffix_sums(x)
    skip = set(rng.sample(sums, len(sums) // 2)) | set(g_values(x)[:1])
    row, walked = _walked_shifts(monkeypatch, x, y, skip)
    assert row == [0 if i in skip else v for i, v in enumerate(full)]
    assert sorted(walked) == sorted(set(sums) - skip)


@pytest.mark.parametrize("rx", [60, 100, 150])
def test_weight_row_walk_stops_at_the_common_suffix(rx):
    # y shares only part of x's suffix (h < digits(x)), so the walks of the
    # entries whose suffix reaches past the common one stop at its edge
    rng = random.Random(rx)
    for _ in range(3):
        x = Word(_random_word(rng, rx))
        h = rng.randrange(1, x.digit_count - 1)
        flipped = 3 - x.digits[-h - 1]
        prefix = _random_word(rng, rx + rng.randrange(0, 80) - flipped - suffix_sum(x, h))
        y = Word(prefix + (flipped,) + x.digits[-h:])
        assert common_suffix_len(x, y) == h < x.digit_count
        row = weight_row(x, y)
        sums = _suffix_sums(x)
        for i in rng.sample(sums, 5) + rng.sample(range(rx + 1), 3) + [sums[h], sums[h + 1], rx]:
            expected = factorial(rx) * f_explicit(x, i, h) * g_product(y, i)
            assert row[i] == expected, f"({x}, {y}), i={i}"
        assert any(row)


def test_weight_row_rank_precondition():
    with pytest.raises(ValueError):
        weight_row(w("22"), w("1"))


_RANK_300 = Word(_random_word(random.Random(300), 300))


@pytest.mark.parametrize(
    "x, y, z",
    [
        (Word((1,) * 2000), 700, 2000),
        (Word((2,) * 1000), 900, 900),
        (Word((2,) * 9), 12, 7),
        (Word((2,) * 1000), 900, 300),
        (_RANK_300, suffix_sum(_RANK_300, 120), 70),
        # the rank cap of yf f: the most closed-form summands, half of them,
        # and a walk through 2s that stops at z
        (Word((1,) * 10000), 9999, 10000),
        (Word((1,) * 10000), 5000, 10000),
        (Word((2,) * 5000), 6000, 2500),
    ],
)
def test_deep_chain_matches_explicit(x, y, z):
    # far deeper than any recursion limit: f_rec is one iterative walk; in
    # the last two cases the walk stops at z, short of the k digits that sum to y
    assert f_rec(x, y, z) == f_explicit(x, y, z) != 0
