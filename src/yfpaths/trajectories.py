"""Rank trajectories: unit-step walks on the nonnegative integers.

A trajectory records the rank profile of a path in a graded graph.  The key
statistics are the number of up-steps and the *up-values* e(1), e(2), ...:
the heights reached by each up-step; the trajectory-path count depends on
the trajectory only through them.  :func:`enumerate_trajectories` lists
every trajectory of given endpoints and up-step count, for the ``verify``
sweeps and the tests.  :class:`Trajectory`, like ``words.Word``, is a
hand-written ``__slots__`` class on ``words.FrozenValue``, so importing it
costs no ``inspect``.
"""

from __future__ import annotations

from itertools import compress
from operator import index, lt, sub

from .words import FrozenValue

ENUMERATION_CAP = 10_000_000  # most walks one enumeration may return


class EnumerationCapExceeded(RuntimeError):
    """An enumeration grew past the configured size cap."""


class Trajectory(FrozenValue):
    """Unit-step walk over the nonnegative integers; ``values[0]`` is the start.

    Immutable; trajectories compare and hash by their values, never equal to
    another type.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        try:
            values = tuple(map(index, values))  # a new tuple of plain ints (True as 1)
        except TypeError:  # a float, a str, or an int in place of the sequence
            raise ValueError(f"trajectory values must be integers, got {values!r}") from None
        if not values:
            raise ValueError("a trajectory needs a starting value")
        if not set(map(sub, values[1:], values)) <= {-1, 1}:
            i = next(i for i in range(1, len(values)) if abs(values[i] - values[i - 1]) != 1)
            raise ValueError(f"step {i} is {values[i] - values[i - 1]}, must be +1 or -1")
        if min(values) < 0:
            i = next(i for i, v in enumerate(values) if v < 0)
            raise ValueError(f"value {values[i]} at position {i} is negative")
        object.__setattr__(self, "values", values)

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
    def up_count(self) -> int:
        # up-steps minus down-steps is end - start, their sum the length
        return (self.length + self.end - self.start) // 2

    @property
    def up_values(self) -> tuple[int, ...]:
        """Heights reached by the up-steps, in order."""
        values = self.values
        later = values[1:]
        return tuple(compress(later, map(lt, values, later)))

    def __str__(self) -> str:
        return ",".join(map(str, self.values))

    def __repr__(self) -> str:
        return f"Trajectory(values={self.values!r})"


def parse_trajectory(text: str) -> Trajectory:
    """Parse comma-separated integers, e.g. "3,2,1,2", into a trajectory.  The
    CLI does not use it: it reads each value itself, against its cap."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid trajectory {text!r}: expected comma-separated integers"
        ) from None
    return Trajectory(values)


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
    length = Y - X + 2 * S
    out = []
    # one walk, cut back to each popped node's depth (steps taken); a node
    # also holds its height and the up-steps it still has to take
    path: list[int] = []
    stack = [(Y, S, 0)]
    while stack:
        h, ups_left, depth = stack.pop()
        del path[depth:]
        if not ups_left:  # only down-steps are left, straight to X
            out.append(Trajectory((*path, *range(h, X - 1, -1))))
            if len(out) > ENUMERATION_CAP:
                raise EnumerationCapExceeded(
                    f"more than {ENUMERATION_CAP} walks from {Y} to {X} with {S} up-steps"
                )
            continue
        path.append(h)
        # the up-step is pushed first, so that the down-step is explored first
        stack.append((h + 1, ups_left - 1, depth + 1))
        if length - depth - ups_left >= 1 and h >= 1:
            stack.append((h - 1, ups_left, depth + 1))
    return out
