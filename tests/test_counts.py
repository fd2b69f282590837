import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st
import pytest

from yfpaths.counts import (
    _as_count,
    _odd_table,
    _xi_row,
    count_down,
    count_down_from_top,
    count_s_paths,
    count_s_paths_from_top,
    count_trajectory,
    odd_double_factorial,
    xi,
    xi_zero,
)
from yfpaths.functions import InconsistencyError
from yfpaths.oracle import brute_count_s, brute_count_trajectory, brute_xi
from yfpaths.trajectories import (
    Trajectory,
    enumerate_trajectories,
    reverse,
    trajectory_from_sequence,
)
from yfpaths.words import EPSILON, Word, level, parse_word, predecessors, successors


def w(text):
    return parse_word(text)


def test_down_base_cases():
    assert count_down(EPSILON, EPSILON) == 1
    assert count_down(w("1"), w("1")) == 1
    assert count_down(w("21"), w("12")) == 0
    assert count_down(EPSILON, w("22")) == 3


def test_down_equal_rank_dichotomy():
    for n in range(6):
        for x in level(n):
            for y in level(n):
                assert count_down(x, y) == (1 if x == y else 0)


def test_down_rank_precondition():
    with pytest.raises(ValueError):
        count_down(w("11"), w("1"))


def test_down_graph_recursion():
    # summing over the predecessors of the upper word reproduces the count
    for ry in range(1, 6):
        for y in level(ry):
            for rx in range(ry):
                for x in level(rx):
                    assert count_down(x, y) == sum(
                        count_down(x, p) for p in predecessors(y)
                    )


def test_down_from_top():
    assert count_down_from_top(w("1111")) == 1
    assert count_down_from_top(w("22")) == 3
    assert count_down_from_top(w("122112")) == 35
    for n in range(7):
        for x in level(n):
            assert count_down_from_top(x) == count_down(EPSILON, x)


def test_trajectory_all_down_equals_down():
    for ry in range(5):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    t = Trajectory(tuple(range(ry, rx - 1, -1)))
                    assert count_trajectory(x, y, t) == count_down(x, y)


def test_trajectory_base_cases():
    assert count_trajectory(w("12"), w("12"), Trajectory((3,))) == 1
    assert count_trajectory(EPSILON, EPSILON, Trajectory((0, 1, 0))) == 1
    assert count_trajectory(w("1"), w("1"), Trajectory((1, 0, 1))) == 1


def test_trajectory_endpoint_mismatch():
    with pytest.raises(ValueError):
        count_trajectory(EPSILON, w("1"), Trajectory((2, 1, 0)))


def test_trajectory_vs_oracle_small():
    for ry in range(4):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    for S in range(3):
                        for t in enumerate_trajectories(rx, ry, S):
                            assert count_trajectory(x, y, t) == brute_count_trajectory(
                                x, y, t
                            ), (x, y, t)


def test_trajectory_reversal_symmetry():
    for n in range(4):
        for x in level(n):
            for y in level(n):
                for S in range(3):
                    for t in enumerate_trajectories(n, n, S):
                        assert count_trajectory(x, y, t) == count_trajectory(
                            y, x, reverse(t)
                        )


def test_odd_double_factorial():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(5) == 15
    assert odd_double_factorial(7) == 105
    with pytest.raises(ValueError):
        odd_double_factorial(4)
    with pytest.raises(ValueError):
        odd_double_factorial(-3)


def test_xi_zero_values():
    for Y in range(6):
        assert xi_zero(Y, 0) == 1
    assert xi_zero(1, 1) == 3
    assert xi_zero(0, 1) == 1
    assert xi_zero(0, 2) == 3
    for Y in range(6):
        for S in range(5):
            assert xi_zero(Y, S) == brute_xi(0, Y, S, 0)


def test_xi_no_up_steps_is_one():
    for Y in range(6):
        for X in range(Y + 1):
            assert xi(X, Y, 0, 0) == 1


def test_xi_first_argument_one_collapses():
    for Y in range(1, 6):
        for S in range(4):
            assert xi(1, Y, S, 0) == xi(0, Y, S, 0)


def test_xi_frozen_value():
    assert xi(2, 3, 2, 0) == 95
    assert brute_xi(2, 3, 2, 0) == 95


def test_xi_matches_oracle():
    for Y in range(6):
        for X in range(Y + 1):
            for S in range(4):
                for i in range(X + 1):
                    assert xi(X, Y, S, i) == brute_xi(X, Y, S, i), (X, Y, S, i)


def test_xi_shift():
    for Y in range(6):
        for X in range(Y + 1):
            for S in range(4):
                for i in range(X + 1):
                    assert xi(X, Y, S, i) == xi(X - i, Y - i, S, 0)


def test_xi_preconditions():
    with pytest.raises(ValueError):
        xi(3, 2, 1, 0)
    with pytest.raises(ValueError):
        xi(2, 3, 1, 3)
    with pytest.raises(ValueError):
        xi(2, 3, -1, 0)


def test_s_paths_zero_is_down():
    for ry in range(5):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    assert count_s_paths(x, y, 0) == count_down(x, y)


def test_s_paths_base_cases():
    assert count_s_paths(EPSILON, EPSILON, 1) == 1
    assert count_s_paths(EPSILON, w("1"), 1) == 3
    assert count_s_paths(EPSILON, w("22"), 0) == 3


def test_s_paths_vs_oracle_small():
    for ry in range(5):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    for S in range(3):
                        assert count_s_paths(x, y, S) == brute_count_s(x, y, S), (x, y, S)


def test_s_paths_equal_trajectory_sum():
    for ry in range(4):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    for S in range(3):
                        total = sum(
                            count_trajectory(x, y, t)
                            for t in enumerate_trajectories(rx, ry, S)
                        )
                        assert count_s_paths(x, y, S) == total


def test_s_paths_from_top():
    assert count_s_paths_from_top(w("1"), 1) == 3
    assert count_s_paths_from_top(w("22"), 1) == comb(6, 4) * 3
    assert count_s_paths_from_top(w("22"), 1) == 45
    for n in range(5):
        for x in level(n):
            for S in range(4):
                assert count_s_paths_from_top(x, S) == count_s_paths(EPSILON, x, S)
                assert count_s_paths_from_top(x, S) == comb(
                    x.rank + 2 * S, x.rank
                ) * odd_double_factorial(2 * S - 1) * count_down_from_top(x)


def test_s_paths_preconditions():
    with pytest.raises(ValueError):
        count_s_paths(w("11"), w("1"), 1)
    with pytest.raises(ValueError):
        count_s_paths(EPSILON, EPSILON, -1)


def test_integrality_guard():
    with pytest.raises(InconsistencyError):
        _as_count(Fraction(1, 2), "test")
    with pytest.raises(InconsistencyError):
        _as_count(Fraction(-3), "test")
    assert _as_count(Fraction(7), "test") == 7


def test_xi_recurrence_in_first_argument():
    # descending recurrence: value at X from values at X-1 and X-2
    for Y in range(2, 7):
        for X in range(2, Y + 1):
            for S in range(1, 4):
                assert xi(X, Y, S, 0) == xi(X - 1, Y, S, 0) - (X - 1) * xi(
                    X - 2, Y, S - 1, 0
                )


def test_xi_zero_recurrences():
    # in the second argument, and the degenerate Y = 0 collapse
    for Y in range(1, 7):
        for S in range(1, 5):
            assert xi_zero(Y, S) == xi_zero(Y - 1, S) + (Y + 1) * xi_zero(Y + 1, S - 1)
    for S in range(1, 5):
        assert xi_zero(0, S) == xi_zero(1, S - 1)


@pytest.mark.parametrize("S", [0, 1, 200, 600])
@pytest.mark.parametrize(
    "X, Y", [(0, 0), (0, 160), (1, 1), (2, 9), (17, 17), (30, 45), (80, 80), (80, 160)]
)
def test_xi_row_matches_xi(X, Y, S):
    # the row shares one double-factorial table across all shifts i; each
    # xi call builds its own
    row = _xi_row(X, Y, S)
    assert row == [xi(X, Y, S, i) for i in range(X + 1)]
    # the last shift is the closed form, whose (2S - 1)!! is computed apart
    assert row[X] == xi_zero(Y - X, S)


def test_odd_table_keeps_only_the_ends():
    S, m = 20_000, 40
    odd = _odd_table(S, m)
    assert len(odd) <= 2 * m + 2
    assert set(odd) == set(range(m + 1)) | set(range(S - m, S + 1))
    assert odd[3] == 15 and odd[S] == odd[S - 1] * (2 * S - 1)


def _random_word(rng, rank):
    digits = []
    while rank:
        digit = rng.choice((1, 2)) if rank >= 2 else 1
        digits.append(digit)
        rank -= digit
    return Word(tuple(digits))


@pytest.mark.parametrize("rx, ry, S", [(30, 45, 200), (60, 100, 400), (40, 41, 600)])
def test_s_paths_first_step_split_at_scale(rx, ry, S):
    # every S-path from y to x starts with a down-step to a predecessor or an
    # up-step to a successor; holds far past the oracle's reach
    rng = random.Random(rx * 1000 + ry)
    x, y = _random_word(rng, rx), _random_word(rng, ry)
    down = sum(count_s_paths(x, p, S) for p in predecessors(y))
    up = sum(count_s_paths(x, s, S - 1) for s in successors(y))
    total = count_s_paths(x, y, S)
    assert total > 0
    assert total == down + up


def _suffix_pair(rx, ry):
    rng = random.Random(rx * 1000 + ry)
    x = _random_word(rng, rx)
    return x, Word(_random_word(rng, ry - rx).digits + x.digits)


@pytest.mark.parametrize(
    "x, y",
    [_suffix_pair(150, 300), _suffix_pair(200, 400), (Word((1,) * 400), Word((1,) * 500))],
)
def test_down_graph_recursion_at_scale(x, y):
    # every descending path from y starts with a step to a predecessor; holds
    # far past the oracle's reach
    total = count_down(x, y)
    split = sum(count_down(x, p) for p in predecessors(y))
    assert total > 0
    assert total == split


def test_down_all_ones_deep():
    assert count_down(Word((1,) * 500), Word((1,) * 500)) == 1


def test_down_suffix_pair_rank_1000():
    x, y = _suffix_pair(1000, 1010)
    assert count_down(x, y) > 0
    # the only predecessor of 1x is x
    assert count_down(x, Word((1,) + x.digits)) == 1


# words of rank up to 150
big_words = st.builds(Word, st.lists(st.sampled_from([1, 2]), max_size=75).map(tuple))


def _insert(t: tuple[int, ...], j: int, step: int) -> Trajectory:
    """t with the pair (a + step, a) inserted after its value a at position j."""
    a = t[j]
    return Trajectory(t[: j + 1] + (a + step, a) + t[j + 1 :])


@settings(deadline=None)
@given(big_words, big_words, st.data())
def test_commutation_at_trajectory_level(u, v, data):
    # DU - UD = I in a 1-differential poset (Stanley 1988): a peak (a, a+1, a)
    # counts the paths of the valley (a, a-1, a) in its place plus those of
    # the trajectory with the pair removed
    x, y = sorted((u, v), key=lambda word: word.rank)
    X, Y = x.rank, y.rank
    S = data.draw(st.integers(0, 3))
    lam: list[int] = []
    for i in range(1, S + 1):
        # an up-value at most one above the last, and room left to end at X
        hi = Y + 1 if not lam else lam[-1] + 1
        lam.append(data.draw(st.integers(max(1, X - (S - i)), hi)))
    t = trajectory_from_sequence(X, Y, S, tuple(lam)).values
    j = data.draw(st.integers(0, len(t) - 1))
    valley = count_trajectory(x, y, _insert(t, j, -1)) if t[j] else 0
    peak = count_trajectory(x, y, _insert(t, j, 1))
    assert peak - valley == count_trajectory(x, y, Trajectory(t))


def test_commutation_at_zero_has_no_valley_term():
    # at a = 0 the valley would dip below rank 0: the peak alone counts the
    # paths of the trajectory without it
    for n in range(6):
        for y in level(n):
            t = tuple(range(n, -1, -1))
            assert count_trajectory(EPSILON, y, _insert(t, n, 1)) == count_trajectory(
                EPSILON, y, Trajectory(t)
            )
