from hypothesis import given, strategies as st
import pytest

from reference import (
    enumerate_good_sequences,
    good_sequence_violation,
    is_good_sequence,
    pseudo_trajectories,
    reverse,
    trajectory_from_sequence,
    up_multiset,
    up_values,
)
from yfpaths import trajectories
from yfpaths.trajectories import (
    EnumerationCapExceeded,
    Trajectory,
    enumerate_trajectories,
    parse_trajectory,
)

# the worked example: a walk from 3 to 1 with six up-steps
EXAMPLE = (3, 2, 1, 2, 1, 0, 1, 2, 1, 2, 3, 2, 1, 0, 1)


def test_worked_example_statistics():
    t = Trajectory(EXAMPLE)
    assert t.length == 14
    assert t.up_count == 6
    ups = (i for i in range(1, len(EXAMPLE)) if EXAMPLE[i] > EXAMPLE[i - 1])
    assert tuple(ups) == (3, 6, 7, 9, 10, 14)
    assert t.up_values == (2, 1, 2, 2, 3, 1)
    assert up_multiset(t) == (1, 1, 2, 2, 2, 3)


def test_length_zero_trajectory():
    t = Trajectory((3,))
    assert t.length == 0 and t.up_count == 0 and t.up_values == ()


def test_single_up_step():
    assert Trajectory((0, 1)).up_values == (1,)
    assert Trajectory((5, 4, 3, 2)).up_values == ()


def test_validation_errors():
    with pytest.raises(ValueError, match="step"):
        Trajectory((2, 0))
    with pytest.raises(ValueError, match="negative"):
        Trajectory((0, -1))
    with pytest.raises(ValueError):
        Trajectory(())


def test_parse_trajectory():
    assert parse_trajectory("3,2,1").values == (3, 2, 1)
    with pytest.raises(ValueError) as raised:
        parse_trajectory("3,a")
    # the error stands alone, not chained to int()'s
    assert raised.value.__suppress_context__


def test_reverse():
    t = Trajectory((1, 0, 1))
    assert reverse(t) == t
    t2 = Trajectory((2, 1, 2, 3, 2))
    assert reverse(reverse(t2)) == t2
    assert up_multiset(reverse(t2)) == up_multiset(t2)
    with pytest.raises(ValueError):
        reverse(Trajectory((2, 1)))


def test_reverse_preserves_up_multiset():
    for X in range(4):
        for S in range(4):
            for t in enumerate_trajectories(X, X, S):
                assert up_multiset(reverse(t)) == up_multiset(t)


def test_enumerate_pure_descent_is_unique():
    for X in range(4):
        for Y in range(X, 6):
            ts = enumerate_trajectories(X, Y, 0)
            assert len(ts) == 1
            assert ts[0].values == tuple(range(Y, X - 1, -1))


def test_enumerate_small():
    ts = enumerate_trajectories(0, 1, 1)
    assert [t.values for t in ts] == [(1, 0, 1, 0), (1, 2, 1, 0)]


def test_enumerate_shape():
    for X in range(3):
        for Y in range(X, 5):
            for S in range(4):
                for t in enumerate_trajectories(X, Y, S):
                    assert t.start == Y and t.end == X
                    assert t.up_count == S
                    assert t.length == Y - X + 2 * S


def test_enumerate_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        enumerate_trajectories(3, 1, 0)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(trajectories, "ENUMERATION_CAP", 10)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_trajectories(0, 2, 6)


def test_enumeration_does_not_recurse():
    # 1200 steps deep: one walk per level of a recursion would overflow the stack
    [t] = enumerate_trajectories(0, 1200, 0)
    assert t.values == tuple(range(1200, -1, -1))
    assert len(enumerate_trajectories(0, 1200, 1)) == 1201


def test_down_step_count():
    for t in enumerate_trajectories(1, 4, 2):
        downs = sum(b < a for a, b in zip(t.values, t.values[1:]))
        assert downs == t.start - t.end + t.up_count
        assert t.length == t.start - t.end + 2 * t.up_count


def test_good_sequences_small():
    assert enumerate_good_sequences(0, 1, 1) == [(1,), (2,)]
    assert enumerate_good_sequences(3, 1, 0) == [()]
    assert enumerate_good_sequences(2, 2, 1) == [(2,), (3,)]


def test_good_sequence_membership():
    assert is_good_sequence((2, 1, 2), 0, 1, 3)
    assert not is_good_sequence((2, 4), 0, 1, 2)  # jumps by more than one
    assert not is_good_sequence((1, 0), 0, 3, 2)  # below one
    assert not is_good_sequence((3, 2), 3, 3, 2)  # ends below X
    assert good_sequence_violation((5,), 0, 1, 1) == "first value 5 exceeds 2"


def test_sequences_match_trajectories():
    for Y in range(5):
        for X in range(Y + 1):
            for S in range(4):
                lams = enumerate_good_sequences(X, Y, S)
                trajs = enumerate_trajectories(X, Y, S)
                assert len(lams) == len(trajs)
                assert sorted(t.up_values for t in trajs) == sorted(lams)


def test_trajectory_from_sequence_round_trip():
    for Y in range(5):
        for X in range(Y + 1):
            for S in range(4):
                for lam in enumerate_good_sequences(X, Y, S):
                    t = trajectory_from_sequence(X, Y, S, lam)
                    assert t.start == Y and t.end == X and t.up_count == S
                    assert t.up_values == lam


def test_trajectory_from_sequence_pure_descent():
    assert trajectory_from_sequence(1, 3, 0, ()).values == (3, 2, 1)


def test_trajectory_from_sequence_rejects_bad():
    with pytest.raises(ValueError, match="exceeds"):
        trajectory_from_sequence(0, 1, 1, (5,))
    with pytest.raises(ValueError, match="length"):
        trajectory_from_sequence(0, 1, 2, (1,))


def test_pseudo_trajectories_extend_trajectories():
    # the pseudo-walks are built from their up-step positions, independently
    # of enumerate_trajectories: the nonnegative ones must be exactly its walks
    for Y in range(4):
        for X in range(Y + 1):
            for S in range(3):
                real = {t.values for t in enumerate_trajectories(X, Y, S)}
                pseudo = set(pseudo_trajectories(X, Y, S))
                assert real <= pseudo
                for values in pseudo - real:
                    assert min(values) < 0


def test_pseudo_trajectory_allows_negatives():
    assert up_values((1, 0, -1, 0)) == (0,)
    with pytest.raises(ValueError):
        Trajectory((1, 0, -1, 0))


def test_pseudo_sum_matches_trajectory_sum_inside_shift_range():
    # alternating products over pseudo-trajectories agree with the
    # restriction to true trajectories whenever 0 <= i <= X
    for Y in range(5):
        for X in range(Y + 1):
            for S in range(4):
                pseudo = [up_values(v) for v in pseudo_trajectories(X, Y, S)]
                real = [t.up_values for t in enumerate_trajectories(X, Y, S)]
                for i in range(X + 1):
                    def total(ups):
                        acc = 0
                        for es in ups:
                            prod = 1
                            for e in es:
                                prod *= e - i
                            acc += prod
                        return acc
                    assert total(pseudo) == total(real), (X, Y, S, i)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
def test_round_trip_random_sequence(X, extra, S, data):
    Y = X + extra
    lams = enumerate_good_sequences(X, Y, S)
    if not lams:
        return
    lam = data.draw(st.sampled_from(lams))
    assert trajectory_from_sequence(X, Y, S, lam).up_values == lam
