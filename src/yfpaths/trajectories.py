"""Rank trajectories: unit-step walks on the nonnegative integers.

A trajectory records the rank profile of a path in a graded graph.  The key
statistics are the number of up-steps and the *up-values* e(1), e(2), ...:
the heights reached by each up-step.  Up-value sequences are characterized
by four inequalities (:func:`is_good_sequence`) and are in bijection with
trajectories of fixed endpoints and up-step count
(:func:`trajectory_from_sequence`).

Pseudo-trajectories (walks allowed to dip below zero) exist only as an
oracle device for testing the alternating-sum identities.
"""

from __future__ import annotations

from dataclasses import dataclass

ENUMERATION_CAP = 10_000_000  # most walks one enumeration may return

GoodSequence = tuple[int, ...]


class EnumerationCapExceeded(RuntimeError):
    """An enumeration grew past the configured size cap."""


def _check_unit_steps(values: tuple[int, ...]) -> None:
    if not values:
        raise ValueError("a trajectory needs a starting value")
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) != 1:
            raise ValueError(
                f"step {i} is {values[i] - values[i - 1]}, must be +1 or -1"
            )


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Unit-step walk over the nonnegative integers; ``values[0]`` is the start."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_unit_steps(self.values)
        for i, v in enumerate(self.values):
            if v < 0:
                raise ValueError(f"value {v} at position {i} is negative")

    @property
    def length(self) -> int:
        return len(self.values) - 1

    @property
    def start(self) -> int:
        return self.values[0]

    @property
    def end(self) -> int:
        return self.values[-1]

    @property
    def steps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.values, self.values[1:]))

    @property
    def up_count(self) -> int:
        return self.steps.count(1)

    @property
    def up_positions(self) -> tuple[int, ...]:
        """1-based indices of the up-steps."""
        return tuple(i + 1 for i, s in enumerate(self.steps) if s == 1)

    @property
    def up_values(self) -> tuple[int, ...]:
        """Heights reached by the up-steps, in order."""
        return tuple(self.values[i] for i in self.up_positions)

    @property
    def up_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.up_values))

    def __str__(self) -> str:
        return ",".join(map(str, self.values))


@dataclass(frozen=True, slots=True)
class PseudoTrajectory:
    """Unit-step walk over all integers; negatives allowed."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_unit_steps(self.values)

    steps = Trajectory.steps
    up_positions = Trajectory.up_positions
    up_values = Trajectory.up_values
    up_count = Trajectory.up_count


def parse_trajectory(text: str) -> Trajectory:
    """Parse the CLI text form: comma-separated integers, e.g. "3,2,1,2"."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"invalid trajectory {text!r}: expected comma-separated integers")
    return Trajectory(values)


def reverse(t: Trajectory) -> Trajectory:
    """Value-reversed trajectory; defined only for equal endpoints."""
    if t.start != t.end:
        raise ValueError(f"reversal needs equal endpoints, got {t.start} and {t.end}")
    return Trajectory(tuple(reversed(t.values)))


def _walks(start: int, end: int, ups: int, floor: int | None):
    """All unit-step walks start -> end with exactly `ups` up-steps, down first."""
    length = start - end + 2 * ups
    out = []
    stack = [((start,), ups)]  # walk so far, up-steps it still has to take
    while stack:
        values, ups_left = stack.pop()
        steps_left = length - (len(values) - 1)
        if steps_left == 0:
            out.append(values)
            if len(out) > ENUMERATION_CAP:
                raise EnumerationCapExceeded(
                    f"more than {ENUMERATION_CAP} walks from {start} to {end} "
                    f"with {ups} up-steps"
                )
            continue
        cur = values[-1]
        # the up-step is pushed first, so that the down-step is explored first
        if ups_left >= 1:
            stack.append((values + (cur + 1,), ups_left - 1))
        if steps_left - ups_left >= 1 and (floor is None or cur - 1 >= floor):
            stack.append((values + (cur - 1,), ups_left))
    return out


def enumerate_trajectories(X: int, Y: int, S: int) -> list[Trajectory]:
    """All trajectories from Y down to X with exactly S up-steps.

    Deterministic order: at every position a down-step is explored before an
    up-step.  Raises :class:`EnumerationCapExceeded` past ``ENUMERATION_CAP``
    results.
    """
    if Y < X:
        raise ValueError(f"need Y >= X, got X={X}, Y={Y}")
    if min(X, Y, S) < 0:
        raise ValueError("X, Y, S must be nonnegative")
    return [Trajectory(v) for v in _walks(Y, X, S, floor=0)]


def enumerate_pseudo_trajectories(X: int, Y: int, S: int) -> list[PseudoTrajectory]:
    """Like :func:`enumerate_trajectories` but values may go negative."""
    if Y < X:
        raise ValueError(f"need Y >= X, got X={X}, Y={Y}")
    return [PseudoTrajectory(v) for v in _walks(Y, X, S, floor=None)]


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
