"""Rank trajectories: unit-step walks on the nonnegative integers.

A trajectory records the rank profile of a path in a graded graph.  The key
statistics are the number of up-steps and the *up-values* e(1), e(2), ...:
the heights reached by each up-step; the trajectory-path count depends on
the trajectory only through them.  :func:`enumerate_trajectories` lists
every trajectory of given endpoints and up-step count, for the ``verify``
sweeps and the tests.  :class:`Trajectory`, like ``words.Word``, is a
hand-written ``__slots__`` class, so importing it costs no ``inspect``.
"""

from __future__ import annotations

from operator import sub

ENUMERATION_CAP = 10_000_000  # most walks one enumeration may return


class EnumerationCapExceeded(RuntimeError):
    """An enumeration grew past the configured size cap."""


class Trajectory:
    """Unit-step walk over the nonnegative integers; ``values[0]`` is the start.

    Immutable; trajectories compare and hash by their values, never equal to
    another type.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        values = tuple(values)  # a tuple is kept as it is, a list copied
        if not values:
            raise ValueError("a trajectory needs a starting value")
        for i in range(1, len(values)):
            if abs(values[i] - values[i - 1]) != 1:
                raise ValueError(
                    f"step {i} is {values[i] - values[i - 1]}, must be +1 or -1"
                )
        for i, v in enumerate(values):
            if v < 0:
                raise ValueError(f"value {v} at position {i} is negative")
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__; the default sets the slot
        # through __setattr__, which refuses
        return Trajectory, (self.values,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

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
        return tuple(map(sub, self.values[1:], self.values))

    @property
    def up_count(self) -> int:
        # up-steps minus down-steps is end - start, their sum the length
        return (self.length + self.end - self.start) // 2

    @property
    def up_values(self) -> tuple[int, ...]:
        """Heights reached by the up-steps, in order."""
        values = self.values
        return tuple(b for a, b in zip(values, values[1:]) if b > a)

    def __str__(self) -> str:
        return ",".join(map(str, self.values))

    def __repr__(self) -> str:
        return f"Trajectory(values={self.values!r})"


def parse_trajectory(text: str) -> Trajectory:
    """Parse the CLI text form: comma-separated integers, e.g. "3,2,1,2"."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"invalid trajectory {text!r}: expected comma-separated integers")
    return Trajectory(values)


def _walks(start: int, end: int, ups: int):
    """All walks start -> end over the nonnegative integers with exactly `ups`
    up-steps, down first."""
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
        if steps_left - ups_left >= 1 and cur >= 1:
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
    return [Trajectory(v) for v in _walks(Y, X, S)]
