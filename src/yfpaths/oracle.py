"""Brute-force path counters: the ground truth the formulas are checked against.

Everything here counts by walking directly: the graph, level by level, or
for the up-value sums the heights of a trajectory, step by step.  This
module deliberately imports only the word model and the trajectory model --
never the formula machinery -- so that agreement between the two is
meaningful evidence.

Each path shape has one walker.  S-paths are one layered walk
(:func:`_walk`) of steps that may go either way: it keeps one front per
number of up-steps taken, so the words of a front share one rank; a descent
is the walk with S = 0.  Trajectories are one trie walk
(:func:`trajectory_distributions`): it steps a stack of fronts along
trajectories sorted by their values, past only the prefix each shares with
the one before.  A walk's cost follows the shape of its fronts, not the rank
it starts from: 1^1000 has one word per level, 2^19 about 150,000 at its
widest.  So every walk meters its own work, each front at its own rank, and
raises :class:`EnumerationCapExceeded` past ``WORK_CAP``, at most ~1.3 s of
walking.  The fronts hold plain digit tuples, stepped by one loop
(:func:`_step`) over :func:`words.tuples_below`: a walk builds no word of
its own.

A point query takes the last front of its walk; only descents are memoized.
The ``verify`` sweeps walk each upper word once and read every target off
that walk: :func:`s_path_distributions` reads each (X, S) off the fronts of
one S-path walk as it passes rank X, and the trie walk takes every
trajectory of the word at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache

from .trajectories import EnumerationCapExceeded, Trajectory
from .words import Word, tuples_below

Digits = tuple[int, ...]  # a word's digits; the walks' fronts are keyed by them
Fronts = dict[int, dict[Digits, int]]  # one front per number of up-steps taken

# Descent walks kept.  ``verify --max-rank 8 --max-S 3`` comes back to 659
# descent fronts (one per word and lower rank); its trajectory and S-path
# sections walk each upper word once, past the memo.
_WALKS = 1 << 10

# Work one walk may do.  A walk over words charges each front the number of
# words in it times their rank plus _WORD_COST: the words of a front share one
# rank, which bounds their digit count.  The height walk of ``brute_xi``
# charges each front _HEIGHT_COST per entry plus one unit per _BITS_PER_UNIT
# bits of its values: every step adds or multiplies each value once, and the
# values gain bits at every up-step, so one entry of 20,000 bits costs ~4
# times one of a few bits.  On a 2-vCPU host a unit took 0.015-0.03 us in
# walks over words, thin (1^n) or dense (2^k), but 0.06-0.08 us where they
# step up from words of ~1000 digits, which each step copies, and 0.07-0.10 us
# in height walks; with _WORD_COST at 32 dense walks cost 2-5 times as much
# per unit as thin ones.  The cap stops ``down e 2^19 --verify`` after ~0.4 s,
# ``spaths e 1 20000 --verify`` after ~0.45 s, ``spaths e 1^1000 5 --verify``
# after 0.6-0.75 s (at a 17 MB peak) and ``xi 0 10000 20000 0 --verify`` after
# ~1.3 s, and admits every descent, or S-path walk with S = 0, from a word of
# rank 3000 or less with one word per level (``1^3000``: 4.9e6 units).
WORK_CAP = 8_000_000
_WORD_COST = 128
_HEIGHT_COST = 5
_BITS_PER_UNIT = 768


def _charge(work: int, units: int) -> int:
    """``work`` plus ``units``, one front's charge.  Past ``WORK_CAP`` the
    walk stops."""
    work += units
    if work > WORK_CAP:
        raise EnumerationCapExceeded(
            f"the oracle's walk needs more than {WORK_CAP} units of work"
        )
    return work


def _step(front: dict[Digits, int], up: int, into: dict[Digits, int]) -> None:
    """Add to ``into`` the words one step from each word of ``front``, with
    its multiplicity: up to the words covering it (those 2w covers, w its
    digits), or down to the words it covers."""
    for d, c in front.items():
        for v in tuples_below((2,) + d if up else d):
            into[v] = into.get(v, 0) + c


def _walk(y: Word, length: int, S: int) -> Iterator[Fronts]:
    """Propagate digits -> multiplicity fronts from ``y`` for ``length``
    steps, each either way, and yield the fronts before the first step and
    after each.  Front u holds the words reached by u up-steps, all of rank
    y.rank - j + 2u after j steps, and u never passes ``S``: with S = 0 the
    walk is a descent.  Each front is charged before it is stepped from; one
    whose S - u up-steps to come no longer fit in the steps left is dropped.
    The fronts yielded are never changed afterwards."""
    fronts = {0: {y.digits: 1}}
    yield fronts
    rank, work, low = y.rank, 0, S - length  # rank: that of front 0
    for _ in range(length):
        low += 1  # fewest up-steps a front may have taken after this step
        new: Fronts = {}
        for u, front in fronts.items():
            work = _charge(work, len(front) * (rank + 2 * u + _WORD_COST))
            for up in (0, 1):
                if low <= u + up <= S:
                    _step(front, up, new.setdefault(u + up, {}))
        fronts = new
        rank -= 1
        yield fronts


@lru_cache(maxsize=_WALKS)
def _down(y: Word, X: int) -> dict[Digits, int]:
    """Counts of descending paths from ``y`` to every word of rank ``X``,
    keyed by its digits.  The memo hands the same dict to every caller:
    read it, never change it."""
    return s_path_distribution(y, X, 0)


def brute_count_down(x: Word, y: Word) -> int:
    """Descending path count by a level-by-level walk down from y."""
    if y.rank < x.rank:
        raise ValueError(f"brute_count_down needs rank({y}) >= rank({x})")
    return _down(y, x.rank).get(x.digits, 0)


def trajectory_distributions(
    y: Word, trajectories: Iterable[Trajectory]
) -> Iterator[tuple[Trajectory, dict[Digits, int]]]:
    """(t, the path counts along t from ``y`` to every word at its final
    rank, keyed by its digits) for each of ``trajectories``, all walked as
    one: the fronts along the last trajectory stay on a stack, and each
    trajectory steps only past the values it shares with the one before.
    Sorted by their values, trajectories that share a prefix come together,
    and each step is one node of their trie.  Each front is charged as
    :func:`_walk` charges it, and the walk stops past ``WORK_CAP``.  The
    fronts yielded are never changed afterwards."""
    stack = [{y.digits: 1}]  # stack[k]: the front after k steps of ``last``
    last: tuple[int, ...] = (y.rank,)
    work = 0
    for t in trajectories:
        values = t.values
        if values[0] != y.rank:
            raise ValueError(f"trajectory starts at {values[0]}, word has rank {y.rank}")
        shared, most = 1, min(len(values), len(last))
        while shared < most and values[shared] == last[shared]:
            shared += 1
        del stack[shared:]
        for k in range(shared, len(values)):
            front, rank = stack[-1], values[k - 1]
            work = _charge(work, len(front) * (rank + _WORD_COST))
            into: dict[Digits, int] = {}
            _step(front, values[k] > rank, into)
            stack.append(into)
        last = values
        yield t, stack[-1]


def brute_count_trajectory(x: Word, y: Word, t: Trajectory) -> int:
    """Trajectory path count by the trie walk of ``t`` alone."""
    if t.start != y.rank or t.end != x.rank:
        raise ValueError(
            f"trajectory endpoints ({t.start}, {t.end}) do not match "
            f"ranks ({y.rank}, {x.rank})"
        )
    [(_, front)] = trajectory_distributions(y, (t,))
    return front.get(x.digits, 0)


def s_path_distribution(y: Word, X: int, S: int) -> dict[Digits, int]:
    """Counts of S-up-step paths from ``y`` to every word of rank ``X``,
    keyed by its digits: every step may go either way."""
    if y.rank < X:
        raise ValueError(f"s_path_distribution needs rank({y}) >= {X}")
    if S < 0 or X < 0:
        raise ValueError("X and S must be nonnegative")
    for fronts in _walk(y, y.rank - X + 2 * S, S):
        pass
    return fronts.get(S, {})


def s_path_distributions(y: Word, max_S: int) -> dict[tuple[int, int], dict[Digits, int]]:
    """s_path_distribution(y, X, S) at every X <= rank(y) and S <= max_S,
    keyed by (X, S), from one walk: rank(y) + 2 max_S steps either way with
    up to max_S up-steps.  Front S after j steps holds the words of rank
    rank(y) - j + 2S, so it is target (X, S) at j = rank(y) - X + 2S.  The
    walk drops only fronts of negative rank, which hold no word; a target
    that no front reaches has no path, and is left out."""
    if max_S < 0:
        raise ValueError("max_S must be nonnegative")
    out = {}
    for j, fronts in enumerate(_walk(y, y.rank + 2 * max_S, max_S)):
        for S, front in fronts.items():
            X = y.rank - j + 2 * S
            if 0 <= X <= y.rank:
                out[X, S] = front
    return out


def brute_count_s(x: Word, y: Word, S: int) -> int:
    """S-path count by the dynamic program."""
    if y.rank < x.rank:
        raise ValueError(f"brute_count_s needs rank({y}) >= rank({x})")
    return s_path_distribution(y, x.rank, S).get(x.digits, 0)


def brute_xi(X: int, Y: int, S: int, i: int = 0) -> int:
    """Sum over trajectories from Y down to X with S up-steps of
    prod_j (up-value_j - i), by a walk over heights.

    The front maps each height to the weighted number of walks that reach
    it; a down-step keeps the weight, an up-step to h + 1 multiplies it by
    h + 1 - i.  Any Y - X + 2S steps from Y that end at X take S up-steps,
    so the front need not count them; it drops the heights from which X is
    out of reach in the steps left.  Each front is charged its entries and
    their bits, which grow with every up-step.
    """
    if Y < X:
        raise ValueError(f"brute_xi needs Y >= X, got ({X}, {Y})")
    if X < 0 or S < 0:
        raise ValueError("X and S must be nonnegative")
    front: dict[int, int] = {Y: 1}
    work = 0
    for left in range(Y - X + 2 * S - 1, -1, -1):  # steps left after this one
        bits = sum(map(int.bit_length, front.values()))
        work = _charge(work, len(front) * _HEIGHT_COST + bits // _BITS_PER_UNIT)
        low, high = max(X - left, 0), X + left  # heights that can still reach X
        new: dict[int, int] = {}
        for h, c in front.items():
            if h > low:
                new[h - 1] = new.get(h - 1, 0) + c
            if h < high:
                new[h + 1] = new.get(h + 1, 0) + c * (h + 1 - i)
        front = new
    return front.get(X, 0)


def clear_caches() -> None:
    _down.cache_clear()
