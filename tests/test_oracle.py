from math import prod

import pytest

from reference import reverse, trajectory_walk
import yfpaths.oracle as oracle
from yfpaths.oracle import (
    brute_count_down,
    brute_count_s,
    brute_count_trajectory,
    brute_xi,
)
from yfpaths.trajectories import (
    EnumerationCapExceeded,
    Trajectory,
    enumerate_trajectories,
)
from yfpaths.words import EPSILON, Word, level, parse_word


def w(text):
    return parse_word(text)


def test_down_hand_enumerated():
    # 22 -> 12 -> 2 -> 1 -> e, 22 -> 21 -> 11 -> 1 -> e, 22 -> 21 -> 2 -> 1 -> e
    assert brute_count_down(EPSILON, w("22")) == 3


def test_down_reflexive_and_single_edge():
    for n in range(5):
        for word in level(n):
            assert brute_count_down(word, word) == 1
    assert brute_count_down(w("1"), w("2")) == 1


def test_down_equal_rank_dichotomy():
    for n in range(5):
        for x in level(n):
            for y in level(n):
                assert brute_count_down(x, y) == (1 if x == y else 0)


def test_down_deep_chain_does_not_recurse():
    # far more ranks than the recursion limit allows nested calls (703 is
    # also what count_down gives)
    assert brute_count_down(EPSILON, w("1" * 2000)) == 1
    assert brute_count_down(w("22"), w("2" + "1" * 700 + "22")) == 703


@pytest.fixture
def small_work_cap(monkeypatch):
    """Set ``oracle.WORK_CAP`` through the returned function, with no walk
    memoized under another cap."""
    oracle.clear_caches()
    yield lambda cap: monkeypatch.setattr(oracle, "WORK_CAP", cap)
    oracle.clear_caches()


def test_work_bound_stops_every_walk(small_work_cap):
    small_work_cap(100)
    y = w("22")
    with pytest.raises(EnumerationCapExceeded):
        brute_count_down(EPSILON, y)
    with pytest.raises(EnumerationCapExceeded):
        brute_count_trajectory(EPSILON, y, Trajectory((4, 3, 2, 1, 0)))
    with pytest.raises(EnumerationCapExceeded):
        brute_count_s(EPSILON, y, 1)
    with pytest.raises(EnumerationCapExceeded):
        brute_xi(0, 8, 5, 0)


def test_work_bound_charges_each_front(small_work_cap):
    # 11 -> 1 -> e steps from one word of rank 2, then one of rank 1
    work = (2 + oracle._WORD_COST) + (1 + oracle._WORD_COST)
    small_work_cap(work - 1)
    with pytest.raises(EnumerationCapExceeded):
        brute_count_down(EPSILON, w("11"))
    small_work_cap(work)
    assert brute_count_down(EPSILON, w("11")) == 1
    # S-paths from a word back to its rank, with the fronts stepped from as
    # (words, rank): 1 -> {e; 11, 2} -> 1 steps from 1, then from e and from
    # 11, 2; from 111 the walk never steps from e, since three steps down
    # leave one step for its two up-steps
    for word, S, fronts, paths in (
        ("1", 1, [(1, 1), (1, 0), (2, 2)], 3),
        ("111", 2, [(1, 3), (1, 2), (2, 4), (1, 1), (2, 3), (4, 5), (2, 2), (4, 4)], 21),
    ):
        work = sum(n * (rank + oracle._WORD_COST) for n, rank in fronts)
        small_work_cap(work - 1)
        with pytest.raises(EnumerationCapExceeded):
            brute_count_s(w(word), w(word), S)
        small_work_cap(work)
        assert brute_count_s(w(word), w(word), S) == paths


def test_work_bound_stops_the_sweep_walks(small_work_cap):
    small_work_cap(100)
    y = w("22")
    with pytest.raises(EnumerationCapExceeded):
        oracle.s_path_distributions(y, 1)
    with pytest.raises(EnumerationCapExceeded):
        list(oracle.trajectory_distributions(y, [Trajectory((4, 3, 2, 1, 0))]))


def test_trajectory_walks_charge_each_trie_node(small_work_cap):
    # 2,1,0 steps from 11 and from 1; 2,1,2 shares 2,1 and steps from 1 once
    # more
    ts = [Trajectory((2, 1, 0)), Trajectory((2, 1, 2))]
    work = (2 + oracle._WORD_COST) + 2 * (1 + oracle._WORD_COST)
    small_work_cap(work - 1)
    with pytest.raises(EnumerationCapExceeded):
        list(oracle.trajectory_distributions(w("11"), ts))
    small_work_cap(work)
    assert [front for _, front in oracle.trajectory_distributions(w("11"), ts)] == [
        {(): 1}, {(1, 1): 1, (2,): 1}]


def test_walks_reach_the_rank_cap():
    # a word of rank 3000 (the CLI's rank(y) cap) with one word per level:
    # as a descent and as an S-path walk with S = 0 it is the same walk,
    # and it fits the work bound
    oracle.clear_caches()
    y = w("1" * 3000)
    assert brute_count_down(EPSILON, y) == 1
    assert brute_count_s(EPSILON, y, 0) == 1
    oracle.clear_caches()


def test_walks_build_no_words(monkeypatch):
    # the fronts hold digit tuples: the only words are the arguments
    x, y = w("21"), w("22121")
    t = Trajectory((8, 7, 6, 7, 6, 5, 4, 3))
    oracle.clear_caches()
    built = []
    validate = Word.__init__

    def counted(word, digits=()):
        built.append(digits)
        validate(word, digits)

    monkeypatch.setattr(Word, "__init__", counted)
    assert brute_count_down(x, y) > 0
    assert brute_count_trajectory(x, y, t) > 0
    assert brute_count_s(x, y, 2) > 0
    assert built == []


def test_height_walk_charges_entries_and_bits(small_work_cap):
    # 0 -> 1 -> 0 steps from one height whose value has 1 bit, then from one
    # whose value, 1 - i, has 2001 bits
    i = -(1 << 2000)
    work = oracle._HEIGHT_COST + (oracle._HEIGHT_COST + 2001 // oracle._BITS_PER_UNIT)
    small_work_cap(work - 1)
    with pytest.raises(EnumerationCapExceeded):
        brute_xi(0, 0, 1, i)
    small_work_cap(work)
    assert brute_xi(0, 0, 1, i) == 1 - i


def test_down_rank_precondition():
    with pytest.raises(ValueError):
        brute_count_down(w("22"), w("1"))


def test_trajectory_all_down_matches_down():
    for ry in range(5):
        for y in level(ry):
            for rx in range(ry + 1):
                for x in level(rx):
                    t = Trajectory(tuple(range(ry, rx - 1, -1)))
                    assert brute_count_trajectory(x, y, t) == brute_count_down(x, y)


def test_trajectory_epsilon_bounce():
    assert brute_count_trajectory(EPSILON, EPSILON, Trajectory((0, 1, 0))) == 1


def test_trajectory_reversal_symmetry():
    for n in range(4):
        for x in level(n):
            for y in level(n):
                for S in range(3):
                    for t in enumerate_trajectories(n, n, S):
                        assert brute_count_trajectory(x, y, t) == brute_count_trajectory(
                            y, x, reverse(t)
                        )


def test_trajectory_endpoint_mismatch():
    with pytest.raises(ValueError):
        brute_count_trajectory(EPSILON, w("1"), Trajectory((2, 1, 0)))


def test_s_zero_matches_down():
    for ry in range(7):
        for y in level(ry):
            for X in range(ry + 1):
                assert oracle.s_path_distribution(y, X, 0) == oracle._down(y, X)


def test_s_hand_enumerated():
    assert brute_count_s(EPSILON, EPSILON, 1) == 1
    # 1 -> 11 -> 1 -> e, 1 -> 2 -> 1 -> e, 1 -> e -> 1 -> e
    assert brute_count_s(EPSILON, w("1"), 1) == 3


def test_s_dp_matches_trajectory_sum():
    # an S-path walk is the sum of the trajectory walks with S up-steps, word
    # by word: this pins the fronts the walks drop
    for ry in range(7):
        for y in level(ry):
            for X in range(ry + 1):
                for S in range(4):
                    want = {}
                    ts = enumerate_trajectories(X, ry, S)
                    for _, front in oracle.trajectory_distributions(y, ts):
                        for d, c in front.items():
                            want[d] = want.get(d, 0) + c
                    assert oracle.s_path_distribution(y, X, S) == want, (y, X, S)


def test_s_path_distributions_match_point_walks():
    # one walk per upper word and up-step cap gives every (X, S) target what
    # its own walk gives
    for ry in range(6):
        for y in level(ry):
            for max_S in range(6):
                walked = oracle.s_path_distributions(y, max_S)
                targets = {(X, S) for X in range(ry + 1) for S in range(max_S + 1)}
                assert set(walked) <= targets
                for X, S in targets:
                    assert walked.get((X, S), {}) == oracle.s_path_distribution(y, X, S), (y, X, S)


def test_trajectory_distributions_match_point_walks():
    # the trie walk gives each trajectory what a walk of its own over the
    # public neighbour lists gives, sorted or not: the order only decides
    # which prefixes are shared
    for ry in range(5):
        ts = sorted(
            (t for rx in range(ry + 1) for S in range(6) if ry - rx + 2 * S <= 8
             for t in enumerate_trajectories(rx, ry, S)),
            key=lambda t: t.values,
        )
        for y in level(ry):
            for order in (ts, ts[::-1]):
                walked = list(oracle.trajectory_distributions(y, order))
                assert [t for t, _ in walked] == order
                for t, front in walked:
                    assert front == trajectory_walk(y, t), (y, t)


def test_point_queries_keep_no_walk():
    # only descents are memoized: a trajectory or S-path query keeps none of
    # the fronts it walked once it has answered
    oracle.clear_caches()
    y = w("2121")
    assert brute_count_trajectory(w("1"), y, Trajectory((6, 7, 6, 5, 4, 3, 2, 1))) > 0
    assert brute_count_s(w("21"), y, 2) > 0
    memos = [name for name, value in vars(oracle).items() if hasattr(value, "cache_info")]
    assert memos == ["_down"]
    assert oracle._down.cache_info().currsize == 0


def test_trajectory_distributions_check_the_start():
    with pytest.raises(ValueError):
        list(oracle.trajectory_distributions(w("1"), [Trajectory((2, 1, 0))]))


def test_xi_no_up_steps():
    for Y in range(5):
        for X in range(Y + 1):
            for i in range(X + 1):
                assert brute_xi(X, Y, 0, i) == 1
    # the walk drops heights that cannot come back down to X in time, so
    # its front stays one height wide here
    assert brute_xi(0, 10_000, 0, 0) == 1


def test_xi_walk_matches_enumeration():
    # the reference multiplies out the up-values of every trajectory; one
    # enumeration serves every shift i
    for Y in range(9):
        for X in range(Y + 1):
            for S in range(6):
                ups = [t.up_values for t in enumerate_trajectories(X, Y, S)]
                for i in range(X + 1):
                    want = sum(prod(e - i for e in u) for u in ups)
                    assert brute_xi(X, Y, S, i) == want, (X, Y, S, i)


def test_xi_rejects_negative_arguments():
    with pytest.raises(ValueError):
        brute_xi(-1, 0, 1)
    with pytest.raises(ValueError):
        brute_xi(0, 0, -1)


def test_xi_small_values():
    assert brute_xi(0, 1, 1, 0) == 3  # up-values {1} and {2}
    for Y in range(4):
        for S in range(4):
            assert brute_xi(1, Y + 1, S, 0) == brute_xi(0, Y + 1, S, 0)
