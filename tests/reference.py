"""Trajectory devices of the paper that the tests check the library against.

The paper proves its up-value sums through good up-value sequences, their
bijection with trajectories, reversal of a trajectory and pseudo-trajectories
(walks that may dip below zero).  The library computes no answer through any
of them, so they live here, beside the tests that use them, and are built
independently of ``yfpaths.trajectories`` where that makes a check stronger.
"""

from __future__ import annotations

from itertools import combinations

from yfpaths.trajectories import Trajectory
from yfpaths.words import Word

GoodSequence = tuple[int, ...]


def concat(x: Word, y: Word) -> Word:
    return Word(x.digits + y.digits)


def up_values(values: tuple[int, ...]) -> tuple[int, ...]:
    """Heights reached by the up-steps of a walk given by its values, in order."""
    return tuple(b for a, b in zip(values, values[1:]) if b > a)


def up_multiset(t: Trajectory) -> tuple[int, ...]:
    return tuple(sorted(t.up_values))


def reverse(t: Trajectory) -> Trajectory:
    """Value-reversed trajectory; defined only for equal endpoints."""
    if t.start != t.end:
        raise ValueError(f"reversal needs equal endpoints, got {t.start} and {t.end}")
    return Trajectory(tuple(reversed(t.values)))


def pseudo_trajectories(X: int, Y: int, S: int) -> list[tuple[int, ...]]:
    """Values of every unit-step walk from Y to X with S up-steps over all
    integers, negatives allowed: one walk per choice of up-step positions."""
    length = Y - X + 2 * S
    out = []
    for ups in combinations(range(length), S):
        values = [Y]
        for j in range(length):
            values.append(values[-1] + (1 if j in ups else -1))
        out.append(tuple(values))
    return out


def good_sequence_violation(lam: GoodSequence, X: int, Y: int, S: int) -> str | None:
    """First violated membership condition for Lambda(X, Y, S), or None."""
    if len(lam) != S:
        return f"length {len(lam)} != {S}"
    if S == 0:
        return None
    if lam[0] > Y + 1:
        return f"first value {lam[0]} exceeds {Y + 1}"
    for i in range(S - 1):
        if lam[i + 1] > lam[i] + 1:
            return f"value {lam[i + 1]} at position {i + 2} exceeds {lam[i]} + 1"
    if lam[-1] < X:
        return f"last value {lam[-1]} is below {X}"
    for i, v in enumerate(lam):
        if v < 1:
            return f"value {v} at position {i + 1} is below 1"
    return None


def is_good_sequence(lam: GoodSequence, X: int, Y: int, S: int) -> bool:
    return good_sequence_violation(lam, X, Y, S) is None


def enumerate_good_sequences(X: int, Y: int, S: int) -> list[GoodSequence]:
    """All good (X, Y, S)-sequences, lexicographically."""
    out: list[GoodSequence] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == S:
            if S == 0 or prefix[-1] >= X:
                out.append(prefix)
            return
        hi = Y + 1 if not prefix else prefix[-1] + 1
        for v in range(1, hi + 1):
            extend(prefix + (v,))

    extend(())
    return out


def trajectory_from_sequence(X: int, Y: int, S: int, lam: GoodSequence) -> Trajectory:
    """The unique trajectory in Omega(X, Y, S) whose up-values equal ``lam``.

    Built by inserting descent runs before, between and after the S up-steps;
    the four good-sequence conditions make each run length nonnegative.
    """
    violation = good_sequence_violation(tuple(lam), X, Y, S)
    if violation is not None:
        raise ValueError(f"not a good ({X},{Y},{S})-sequence: {violation}")
    values = [Y]
    cur = Y
    for e in lam:
        while cur >= e:
            cur -= 1
            values.append(cur)
        cur += 1
        values.append(cur)
    while cur > X:
        cur -= 1
        values.append(cur)
    return Trajectory(tuple(values))
