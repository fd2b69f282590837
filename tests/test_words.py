import copy
import pickle
import re
from itertools import product

from hypothesis import given, strategies as st
import pytest

from reference import concat, start1, start2, suffix_sum
from yfpaths.functions import f_rec
from yfpaths.oracle import brute_count_down
from yfpaths.trajectories import Trajectory
from yfpaths.words import (
    EPSILON,
    Word,
    common_suffix_len,
    level,
    parse_word,
    predecessors,
    successors,
    tuples_below,
)

words = st.builds(Word, st.lists(st.sampled_from([1, 2]), max_size=8).map(tuple))


def w(text):
    return parse_word(text)


def test_parse_empty_word_literals():
    assert parse_word("e") == EPSILON
    assert parse_word("eps") == EPSILON
    assert str(EPSILON) == "e"


def test_parse_transcribes_digits():
    assert parse_word("21221").digits == (2, 1, 2, 2, 1)


@pytest.mark.parametrize("bad", ["", "120", "x", "2 1", "e1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_word(bad)


def test_word_rejects_bad_digits():
    with pytest.raises(ValueError):
        Word((1, 3))


@pytest.mark.parametrize(
    "cls, field, value, other, text, shown",
    [
        (Word, "digits", (1, 2, 1), (1, 2), "121", "Word(121)"),
        (Word, "digits", (), (1,), "e", "Word(e)"),
        (Trajectory, "values", (3, 2, 1), (3, 2), "3,2,1", "Trajectory(values=(3, 2, 1))"),
    ],
)
def test_words_and_trajectories_are_immutable_values(cls, field, value, other, text, shown):
    a, b = cls(value), cls(**{field: value})
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != cls(other) and not a == cls(other)
    assert {a: "a"}[b] == "a" and len({a, b, cls(other)}) == 2
    # never equal to a bare tuple, nor to the other class on the same tuple
    assert a != value and value != a
    assert a != (Trajectory((1,)) if cls is Word else Word((1,)))
    assert Word((1,)) != Trajectory((1,))
    with pytest.raises(AttributeError):
        setattr(a, field, other)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.label = "x"
    assert getattr(a, field) == value
    assert not hasattr(a, "__dict__")
    assert str(a) == text and repr(a) == shown
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("cls, field, value", [(Word, "digits", [2, 1]), (Trajectory, "values", [3, 2, 1])])
def test_words_and_trajectories_built_from_lists_keep_tuples(cls, field, value):
    a, b = cls(value), cls(tuple(value))
    value.append(1)  # the caller's list changes, the value built from it does not
    assert a == b and hash(a) == hash(b) and {a: "a"}[b] == "a"
    assert getattr(a, field) == getattr(b, field) and type(getattr(a, field)) is tuple
    if cls is Word:
        assert f_rec(a, 2, 1) == f_rec(b, 2, 1)
        assert brute_count_down(Word([1]), a) == brute_count_down(Word((1,)), b) == 2


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Word((1, 3)), "word digits must be 1 or 2, got (1, 3)"),
        (lambda: Word((0,)), "word digits must be 1 or 2, got (0,)"),
        (lambda: Trajectory(()), "a trajectory needs a starting value"),
        (lambda: Trajectory((2, 0)), "step 1 is -2, must be +1 or -1"),
        (lambda: Trajectory((1, 0, -1)), "value -1 at position 2 is negative"),
        # digits and values that are not integers, which counts would carry
        # into floats or trip on deep inside the library
        (lambda: Word((2.0, 1)), "word digits must be 1 or 2, got (2.0, 1)"),
        (lambda: Word((1.0,)), "word digits must be 1 or 2, got (1.0,)"),
        (lambda: Word((1.0, 2)), "word digits must be 1 or 2, got (1.0, 2)"),
        (lambda: Word("12"), "word digits must be 1 or 2, got '12'"),
        (lambda: Word(0), "word digits must be 1 or 2, got 0"),
        (
            lambda: Trajectory((3, 2, 3.0, 2, 1, 0)),
            "trajectory values must be integers, got (3, 2, 3.0, 2, 1, 0)",
        ),
        (lambda: Trajectory("32"), "trajectory values must be integers, got '32'"),
    ],
)
def test_invalid_digits_and_steps_raise_the_same_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_digits_and_values_are_plain_ints():
    # a True is stored as 1, so counts stay ints and words print as digits
    word, trajectory = Word((True, 2)), Trajectory((3, 2, True, 2, 1, 0))
    assert str(word) == "12" and word == Word((1, 2))
    assert str(trajectory) == "3,2,1,2,1,0"
    assert {type(v) for v in word.digits + trajectory.values} == {int}
    assert type(brute_count_down(Word((1,)), word)) is int


@given(words)
def test_str_parse_round_trip(word):
    assert parse_word(str(word)) == word


def test_rank():
    assert EPSILON.rank == 0
    assert w("21221").rank == 8
    assert w("122112").rank == 9


def word_stats(x):
    # digit count, 2s, and the 2s before the first 1: the predecessors that
    # turn one of those 2s into a 1 keep the digit count
    same_length = sum(p.digit_count == x.digit_count for p in predecessors(x))
    return x.digit_count, x.twos, same_length


def test_stats():
    assert word_stats(w("2221")) == (4, 3, 3)
    assert word_stats(w("1221")) == (4, 2, 0)
    assert word_stats(w("222")) == (3, 3, 3)


def test_predecessors_ordered():
    assert predecessors(w("2221")) == [w("1221"), w("2121"), w("2211"), w("222")]
    assert predecessors(w("2222")) == [w("1222"), w("2122"), w("2212"), w("2221")]
    assert predecessors(w("12")) == [w("2")]
    assert predecessors(EPSILON) == []


def test_successors_ordered():
    assert successors(EPSILON) == [w("1")]
    assert successors(w("222")) == [w("1222"), w("2122"), w("2212"), w("2221")]
    assert successors(w("221")) == [w("1221"), w("2121"), w("2211"), w("222")]


def test_successors_are_predecessors_of_two_prefixed():
    for n in range(7):
        for y in level(n):
            assert successors(y) == predecessors(concat(w("2"), y))


def covered(digits):
    # the graph's recursive definition: 1v covers v alone, and 2v covers 1v
    # and 2u for each u that v covers
    if not digits:
        return []
    if digits[0] == 1:
        return [digits[1:]]
    return [(1,) + digits[1:]] + [(2,) + u for u in covered(digits[1:])]


def test_tuples_below_are_the_word_neighbours():
    for n in range(13):
        for word in level(n):
            down, up = word.digits, (2,) + word.digits
            assert tuples_below(down) == covered(down) == [p.digits for p in predecessors(word)]
            assert tuples_below(up) == covered(up) == [s.digits for s in successors(word)]


def test_one_differential_degrees():
    for n in range(8):
        for word in level(n):
            assert len(successors(word)) == len(predecessors(word)) + 1


@given(words)
def test_duality(word):
    for p in predecessors(word):
        assert word in successors(p)
    for s in successors(word):
        assert word in predecessors(s)


def test_ranks_shift_by_one():
    for n in range(6):
        for word in level(n):
            assert all(p.rank == n - 1 for p in predecessors(word))
            assert all(s.rank == n + 1 for s in successors(word))


def test_common_suffix_len():
    assert common_suffix_len(w("1"), w("2")) == 0
    assert common_suffix_len(w("21221"), w("121")) == 2
    x = w("21221")
    assert common_suffix_len(x, x) == x.digit_count


@given(words, words)
def test_common_suffix_symmetry(a, b):
    assert common_suffix_len(a, b) == common_suffix_len(b, a)


@given(words, words)
def test_common_suffix_append_one(a, b):
    a1, b1 = Word(a.digits + (1,)), Word(b.digits + (1,))
    assert common_suffix_len(a1, b1) == common_suffix_len(a, b) + 1


def test_suffix_sum():
    x = w("122112")
    assert suffix_sum(x, 0) == 0
    assert suffix_sum(x, 3) == 4
    assert suffix_sum(x, 6) == 9
    with pytest.raises(ValueError):
        suffix_sum(x, 7)


# the full start1/start2 table for 122112
START_TABLE = {
    0: ("1221111", "122112"),
    1: ("122111", None),
    2: ("12211", "12211"),
    3: ("1221", "1221"),
    4: ("1211", "122"),
    5: ("121", None),
    6: ("111", "12"),
    7: ("11", None),
    8: ("1", "1"),
    9: ("e", "e"),
}


def test_start_functions_table():
    x = w("122112")
    for a, (s_text, s2_text) in START_TABLE.items():
        assert start1(x, a) == parse_word(s_text), f"start1 at a={a}"
        expected2 = None if s2_text is None else parse_word(s2_text)
        assert start2(x, a) == expected2, f"start2 at a={a}"


def test_start_functions_range_errors():
    x = w("122112")
    for a in (-1, 10):
        with pytest.raises(ValueError):
            start1(x, a)
        with pytest.raises(ValueError):
            start2(x, a)


def test_start_functions_match_the_paper_cases():
    # every word of at most 10 digits, every a: the three start1 cases, built
    # here from slices and sums, are mutually exclusive and exactly one
    # applies below rank(x); start2 is the prefix left of a suffix of sum a
    for n in range(11):
        for digits in product((1, 2), repeat=n):
            x = Word(digits)
            for a in range(x.rank + 1):
                cases = []
                for j in range(n):  # x = x' d x'' with x' = digits[:j], d = digits[j]
                    rest = sum(digits[j + 1:])
                    if rest == a:
                        cases.append(digits[:j] + ((1,) if digits[j] == 1 else (1, 1)))
                    if digits[j] == 2 and rest == a - 1:
                        cases.append(digits[:j] + (1,))
                want = () if a == x.rank else cases[0]
                assert len(cases) == (a < x.rank), (x, a, cases)
                assert start1(x, a) == Word(want), (x, a)
                prefixes = [digits[:j] for j in range(n + 1) if sum(digits[j:]) == a]
                assert start2(x, a) == (Word(prefixes[0]) if prefixes else None), (x, a)


@given(words, st.integers(min_value=0, max_value=20))
def test_start1_total_on_range(word, a):
    if a <= word.rank:
        result = start1(word, a)
        assert result.rank == word.rank - a
    else:
        with pytest.raises(ValueError):
            start1(word, a)


def test_concat():
    assert concat(EPSILON, w("12")) == w("12")
    assert concat(w("2"), w("1221")) == w("21221")
    assert concat(w("12"), w("21")) == w("1221")


def test_level_small():
    assert level(0) == [EPSILON]
    assert [str(x) for x in level(3)] == ["111", "12", "21"]
    assert len(level(10)) == 89


def test_level_lexicographic():
    for n in range(9):
        texts = [str(x) for x in level(n)]
        assert texts == sorted(texts)


def test_level_sizes_fibonacci():
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for n in range(14):
        assert len(level(n)) == fib[n + 1]
