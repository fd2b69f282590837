import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, prod

from hypothesis import given, settings, strategies as st
import pytest

from reference import reverse, trajectory_from_sequence
from yfpaths import counts, functions
from yfpaths.counts import (
    _as_count,
    count_down,
    count_down_from_top,
    count_s_paths,
    count_s_paths_from_top,
    count_trajectory,
    odd_double_factorial,
    xi,
    xi_zero,
)
from yfpaths.functions import InconsistencyError, weight_row
from yfpaths.oracle import brute_count_s, brute_count_trajectory, brute_xi
from yfpaths.trajectories import Trajectory, enumerate_trajectories
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


def test_trajectory_batch_skips_only_common_up_values(monkeypatch):
    # one row serves every trajectory of a pair: it is walked at every shift
    # the full row walks but the up-values that every trajectory shares, and
    # each count is the count of its trajectory alone
    hits = 0
    for ry in range(5):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    ts = [t for S in range(3) for t in enumerate_trajectories(rx, ry, S)]
                    ups = [set(t.up_values) for t in ts]
                    common = set.intersection(*ups)
                    want = [count_trajectory(x, y, t) for t in ts]
                    full = _walked(monkeypatch, weight_row, x, y)[1]
                    got, walked = _walked(monkeypatch, counts._trajectory_counts, x, y, ts)
                    assert got == want, (x, y)
                    assert sorted(walked) == sorted(set(full) - common), (x, y)
                    hits += len(set(walked) & set.union(*ups))
    assert hits > 50  # shifts walked for some trajectories, not all


def _walked(monkeypatch, call, *args):
    """call(*args) and the shifts at which weight rows ran a walk."""
    walked = []
    walk = functions._lagrange_walk
    with monkeypatch.context() as mp:
        mp.setattr(
            functions, "_lagrange_walk", lambda d, r, i, *rest: walked.append(i) or walk(d, r, i, *rest)
        )
        return call(*args), walked


def test_odd_double_factorial():
    assert odd_double_factorial(-1) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(5) == 15
    assert odd_double_factorial(7) == 105
    with pytest.raises(ValueError):
        odd_double_factorial(4)
    with pytest.raises(ValueError):
        odd_double_factorial(-3)


def test_odd_double_factorial_matches_plain_product():
    product = 1  # (-1)!!
    for n in range(-1, 2002, 2):
        if n > 1:
            product *= n
        assert odd_double_factorial(n) == product, n


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


def test_successful_counts_format_no_label(monkeypatch):
    # a query's words and trajectory are formatted only when a check fails
    calls = []
    x, y = w("2112"), w("1212112")
    t = enumerate_trajectories(x.rank, y.rank, 2)[-1]
    monkeypatch.setattr(Word, "__str__", lambda self: calls.append(self) or "w")
    monkeypatch.setattr(Trajectory, "__str__", lambda self: calls.append(self) or "t")
    assert count_down(x, y) > 0
    assert count_trajectory(x, y, t) > 0
    assert count_s_paths(x, y, 3) > 0
    assert calls == []


def test_failed_checks_name_the_query(monkeypatch):
    x, y = w("11"), w("1211")
    with pytest.raises(ValueError, match=r"^count_down\(1211, 11\) needs rank\(11\) >= rank\(1211\)$"):
        count_down(y, x)
    # the S-path factor row is built only once the rank order holds: for
    # rank(y) < rank(x) it would divide by zero
    with pytest.raises(ValueError, match=r"^count_s_paths\(2222222, 1, 0\) needs rank\(1\)"):
        count_s_paths(w("2" * 7), w("1"), 0)
    # a row that does not sum to a multiple of rank(x)! is not a count
    monkeypatch.setattr(counts, "weight_row", lambda x, y, skip=(): [1, 0, 0])
    with pytest.raises(InconsistencyError, match=r"^count_down\(11, 1211\) evaluated to a non-integer$"):
        count_down(x, y)
    monkeypatch.setattr(counts, "weight_row", lambda x, y, skip=(): [-2, 0, 0])
    with pytest.raises(InconsistencyError, match=r"^count_s_paths\(11, 1211, 0\) evaluated to negative -1$"):
        count_s_paths(x, y, 0)


def test_trajectory_checks_the_rank_order_before_the_row(monkeypatch):
    # the endpoints match the ranks, so only the rank order is wrong; an
    # upward trajectory from y to x would count upward paths, not descents
    monkeypatch.setattr(counts, "weight_row", lambda *args: pytest.fail("weight_row called"))
    with pytest.raises(
        ValueError, match=r"^count_trajectory\(22, 1, 1,2,3,4\) needs rank\(1\) >= rank\(22\)$"
    ):
        count_trajectory(w("22"), w("1"), Trajectory((1, 2, 3, 4)))


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


def _xi_reference_row(X, Y, S):
    """[xi(X, Y, S, i) for i in 0..X] term by term: with X' = X - i and
    Y' = Y - i, the alternating sum over k of
    C(X', 2k) (2k - 1)!! C(Y' + 2(S - k), Y') (2(S - k) - 1)!!, each binomial
    fresh.  Every (2(S - k) - 1)!! is a multiple of (2(S - K) - 1)!!, with K the
    largest k of the row, which is multiplied in once per shift."""
    K = min(X // 2, S)
    base = odd_double_factorial(2 * (S - K) - 1)
    low, high = [1] * (K + 1), [1] * (K + 1)  # (2k - 1)!!, (2(S - k) - 1)!! / base
    for k in range(1, K + 1):
        low[k] = low[k - 1] * (2 * k - 1)
        high[K - k] = high[K - k + 1] * (2 * (S - K + k) - 1)
    return [
        base
        * sum(
            (-1) ** k * comb(X - i, 2 * k) * low[k] * comb(Y - i + 2 * (S - k), Y - i) * high[k]
            for k in range(min((X - i) // 2, S) + 1)
        )
        for i in range(X + 1)
    ]


def _xi_factor(X, Y, S):
    """The factor i -> xi(X, Y, S, i) that count_s_paths takes for words of
    ranks X <= Y, from every shift ``_xi_shifts`` gives; the double factorial
    it takes out of every shift is multiplied back in."""
    shifts, common = counts._xi_shifts(X, Y, S)
    assert len(shifts) == X + 1
    assert common == odd_double_factorial(2 * (S - min(X // 2, S)) - 1)
    return lambda i: common * shifts[X - i]


_XI_GRID = [(0, 0), (0, 160), (1, 1), (2, 9), (17, 17), (30, 45), (80, 80), (80, 160)]


@pytest.mark.parametrize(
    "X, Y, S",
    [(X, Y, S) for X, Y in _XI_GRID for S in (0, 1, 200, 600)]
    + [(100, 150, 20_000), (100, 1000, 20_000)],
)
def test_xi_row_matches_xi(X, Y, S):
    # count_s_paths takes every shift from one three-term recurrence in the
    # shift, started at the closed k = 0 term of shift X; the reference
    # builds every term of every shift from fresh binomials
    row = list(map(_xi_factor(X, Y, S), range(X + 1)))
    assert row == _xi_reference_row(X, Y, S)
    # xi takes the same evaluator with its own closed k = 0 term
    shifts = range(X + 1) if S <= 600 else (0, X // 2, X)
    assert [xi(X, Y, S, i) for i in shifts] == [row[i] for i in shifts]
    assert row[X] == xi_zero(Y - X, S)


def test_xi_row_divides_exactly_at_the_s_cap(monkeypatch):
    S, m = 20_000, 40
    row = list(map(_xi_factor(2 * m, 2 * m, S), range(2 * m + 1)))
    # xi(1, Y, S, 0) = xi(0, Y, S, 0): the last two shifts are closed forms,
    # (2S - 1)!! and (2S + 1)!!, reached from shift 0's k = 0 term
    assert row[-1] == xi_zero(0, S) == odd_double_factorial(2 * S - 1)
    assert row[-2] == xi_zero(1, S) == odd_double_factorial(2 * S + 1)
    # a k = 0 term off by one leaves a remainder in the xi divide, which is
    # an inconsistency, whether xi or count_s_paths built the term
    real = counts._xi_head
    monkeypatch.setattr(counts, "_xi_head", lambda Y, S, odds: real(Y, S, odds) + 1)
    x = Word((1,) * 2 * m)
    with pytest.raises(InconsistencyError, match=r"^xi\("):
        count_s_paths(x, x, S)
    with pytest.raises(InconsistencyError, match=r"^xi\("):
        xi(2 * m, 2 * m, S)


@pytest.mark.parametrize(
    "X, Y, S",
    [(X, Y, S) for X, Y in _XI_GRID for S in (0, 1, 200, 600)] + [(100, 3000, 20_000)],
)
def test_xi_head_is_xi_zero_over_the_shared_double_factorial(X, Y, S):
    # the head of every shift i, over the (2(S - K) - 1)!! of shift 0; K runs
    # from 0 (S = 0, or X < 2) to S (S <= X // 2)
    K = min(X // 2, S)
    common = odd_double_factorial(2 * (S - K) - 1)
    odds = counts._head_odds(S, K)
    for i in range(X + 1):
        assert counts._xi_head(Y - i, S, odds) * common == xi_zero(Y - i, S), i


def test_xi_head_divides_exactly(monkeypatch):
    # perm(2S, 2K) / (2^K perm(S, K)) off by one is an inconsistency
    real = counts.perm
    monkeypatch.setattr(counts, "perm", lambda n, k: real(n, k) + 1)
    with pytest.raises(InconsistencyError, match=r"^39999!! / 39919!! "):
        counts._head_odds(20_000, 40)


def test_s_paths_evaluates_one_horner_sum(monkeypatch):
    calls = []
    real = counts._xi_over
    monkeypatch.setattr(counts, "_xi_over", lambda X, *rest: calls.append(X) or real(X, *rest))
    odds = []
    real_odds = counts._head_odds
    monkeypatch.setattr(counts, "_head_odds", lambda S, K: odds.append((S, K)) or real_odds(S, K))
    x, y = w("2212"), w("21212121")
    row = weight_row(x, y)
    assert row.count(0) > x.rank // 2
    count_s_paths(x, y, 5)
    # every shift comes from the recurrence; the term sum runs once, at
    # shift 0, to check where the recurrence ends, and the heads of both
    # share one odd product
    assert calls == [x.rank]
    assert odds == [(5, x.rank // 2)]
    calls.clear()
    odds.clear()
    with pytest.raises(ValueError, match="needs rank"):
        count_s_paths(y, x, 5)
    assert calls == odds == []


def test_xi_shift_recurrence_matches_oracle():
    # Y xi(X, Y, S) = (2S + Y - X + 1) xi(X - 1, Y - 1, S)
    #                 + (X - 1) xi(X - 2, Y - 2, S), the step count_s_paths
    # takes from one shift to the one below; at X = 1 the last term is 0
    for Y in range(1, 9):
        for X in range(1, Y + 1):
            for S in range(5):
                below = (X - 1) * brute_xi(X - 2, Y - 2, S) if X > 1 else 0
                assert Y * brute_xi(X, Y, S) == (2 * S + Y - X + 1) * brute_xi(
                    X - 1, Y - 1, S
                ) + below, (X, Y, S)


@pytest.mark.parametrize("x, y, S", [("2212", "21212121", 5), ("1" * 80, "1" * 80, 20_000)])
def test_s_paths_checks_the_recurrence_against_the_term_sum(monkeypatch, x, y, S):
    x, y = w(x), w(y)
    expected = count_s_paths(x, y, S)
    # a term sum off by one disagrees with where the recurrence ends
    real_sum = counts._xi_over

    def sum_off_by_one(*args):
        value, *rest = real_sum(*args)
        return value + 1, *rest

    with monkeypatch.context() as mp:
        mp.setattr(counts, "_xi_over", sum_off_by_one)
        with pytest.raises(InconsistencyError, match=r"^xi\(\d+, \d+, \d+, 0\) from the shift"):
            count_s_paths(x, y, S)
    # a recurrence start that is wrong, with shift 0's head intact: off by one
    # it may leave a remainder in a shift's divide, doubled every divide is
    # exact and only the check at shift 0 sees it
    real_head = counts._xi_head
    start = y.rank - x.rank
    for fault in (lambda h: h + 1, lambda h: 2 * h):
        with monkeypatch.context() as mp:
            mp.setattr(
                counts,
                "_xi_head",
                lambda Y, S, odds: (
                    fault(real_head(Y, S, odds)) if Y == start else real_head(Y, S, odds)
                ),
            )
            with pytest.raises(InconsistencyError, match=r"^xi\("):
                count_s_paths(x, y, S)
    assert count_s_paths(x, y, S) == expected


def _random_word(rng, rank):
    digits = []
    while rank:
        digit = rng.choice((1, 2)) if rank >= 2 else 1
        digits.append(digit)
        rank -= digit
    return Word(tuple(digits))


@pytest.mark.parametrize(
    "rx, ry, S, digit",
    [
        pytest.param(30, 45, 200, None, id="30-45-200"),
        pytest.param(60, 100, 400, None, id="60-100-400"),
        pytest.param(40, 41, 600, None, id="40-41-600"),
        # every shift of 1^rx is a suffix sum, so only y's g values zero a
        # weight; every odd shift of 2^(rx/2) has weight zero
        pytest.param(60, 100, 400, 1, id="ones-60-100-400"),
        pytest.param(60, 100, 400, 2, id="twos-60-100-400"),
    ],
)
def test_s_paths_first_step_split_at_scale(rx, ry, S, digit):
    # every S-path from y to x starts with a down-step to a predecessor or an
    # up-step to a successor; holds far past the oracle's reach
    rng = random.Random(rx * 1000 + ry)
    x, y = _random_word(rng, rx), _random_word(rng, ry)
    if digit:
        x = Word((digit,) * (rx // digit))
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


def _trajectory_with_ups(X, Y, ups):
    """The trajectory from Y to X whose up-steps reach ``ups``, in order."""
    values = [Y]
    for e in ups:
        values.extend(range(values[-1] - 1, e - 2, -1))  # down to e - 1
        values.append(e)
    values.extend(range(values[-1] - 1, X - 1, -1))
    return Trajectory(tuple(values))


def _ungrouped_count(x, y, t):
    """count_trajectory with the factor prod_e (e - i) multiplied out over
    every up-value, one at a time."""
    row = weight_row(x, y)
    total = sum(w * prod(e - i for e in t.up_values) for i, w in enumerate(row))
    count, rest = divmod(total, factorial(x.rank))
    assert rest == 0
    return count


def _first_step_split(x, y, t):
    """count_trajectory(x, y, t) re-counted by the first step of t: to each
    successor of y if t goes up, to each predecessor if it goes down, then
    the rest of t from there."""
    rest = Trajectory(t.values[1:])
    neighbours = successors(y) if t.values[1] > t.values[0] else predecessors(y)
    return sum(count_trajectory(x, w, rest) for w in neighbours)


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_first_step_split_with_repeated_up_values(seed):
    # 600 up-values drawn from a band of 8 ranks around rank(x), so each
    # repeats ~75 times and some fall below the shifts i of the weight row;
    # odd seeds start with an up-step
    rng = random.Random(seed)
    X = rng.randint(60, 80)
    Y = X + rng.randint(1, 3)
    x, y = _random_word(rng, X), _random_word(rng, Y)
    S = 600
    ups = [Y + 1] if seed % 2 else []
    while len(ups) < S:
        prev = ups[-1] if ups else Y
        ups.append(rng.randint(max(X - 3, X - (S - 1 - len(ups))), min(prev + 1, X + 4)))
    t = _trajectory_with_ups(X, Y, ups)
    assert t.up_count == S and len(set(t.up_values)) <= 8
    total = count_trajectory(x, y, t)
    assert total > 0
    assert total == _first_step_split(x, y, t) == _ungrouped_count(x, y, t)


def test_trajectory_with_one_repeated_up_value():
    # down to rank(x), then 600 dips to rank(x) - 1 and back: every up-value
    # is rank(x), so the factor is (rank(x) - i)^600
    rng = random.Random(7)
    x, y = _random_word(rng, 70), _random_word(rng, 75)
    t = _trajectory_with_ups(70, 75, [70] * 600)
    assert set(t.up_values) == {70}
    total = count_trajectory(x, y, t)
    assert total > 0
    assert total == _first_step_split(x, y, t) == _ungrouped_count(x, y, t)


def _dipping_trajectory(rng, X, Y):
    """A trajectory from Y to X that steps up once, dips to random heights
    below X and climbs back to X, so most shifts 0..X are up-values."""
    dips = sorted(rng.sample(range(1, X), X // 3), reverse=True)
    return _trajectory_with_ups(X, Y, [Y + 1] + dips + list(range(dips[-1] + 1, X + 1)))


@pytest.mark.parametrize("seed", range(4))
def test_trajectory_walks_and_factors_no_up_value(monkeypatch, seed):
    # the factor prod_e (e - i) is 0 at every shift i that is an up-value, so
    # the row runs no walk there and the factor is not taken there
    rng = random.Random(seed)
    X = rng.randint(20, 40)
    Y = X + rng.randint(1, 10)
    x, y = _random_word(rng, X), _random_word(rng, Y)
    t = _dipping_trajectory(rng, X, Y)
    ups = set(t.up_values)
    walked, factored = [], []
    walk = functions._lagrange_walk
    monkeypatch.setattr(
        functions, "_lagrange_walk", lambda d, r, i, *rest: walked.append(i) or walk(d, r, i, *rest)
    )

    class UpValue(int):
        # at each shift i it is taken at, the factor takes e - i once per
        # distinct up-value e
        def __sub__(self, i):
            factored.append(i)
            return int(self) - i

    monkeypatch.setattr(counts, "Counter", lambda values: Counter(map(UpValue, values)))
    total = count_trajectory(x, y, t)
    monkeypatch.undo()
    assert ups & set(accumulate(reversed(x.digits), initial=0))  # some walks are skipped
    assert walked and not ups.intersection(walked)
    row = weight_row(x, y)
    assert factored == [i for i, v in enumerate(row) if v and i not in ups for _ in ups]
    assert total > 0
    assert total == _first_step_split(x, y, t) == _ungrouped_count(x, y, t)


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
