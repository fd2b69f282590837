"""Brute-force path counters: the ground truth the formulas are checked against.

Everything here counts by walking the graph or enumerating trajectories
directly.  This module deliberately imports only the word model and the
trajectory model -- never the formula machinery -- so that agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

from functools import lru_cache

from .trajectories import Trajectory, enumerate_trajectories
from .words import Word, predecessors, successors

# Walks kept per memo.  ``verify --max-rank 8 --max-S 3`` comes back to 659
# descent fronts (one per word and lower rank); its trajectory and S-path
# sections come back only to the walks of the current upper word.
_WALKS = 1 << 10


@lru_cache(maxsize=1 << 14)
def _neighbours(w: Word, step: int) -> tuple[Word, ...]:
    """The successors (step 1) or predecessors (step -1) of w.  The walks
    below meet the same few low-rank words over and over."""
    return tuple(successors(w) if step == 1 else predecessors(w))


@lru_cache(maxsize=_WALKS)
def _down(y: Word, X: int) -> dict[Word, int]:
    """Counts of descending paths from ``y`` to every word of rank ``X``,
    walked down one level at a time.  The memo hands the same dict to every
    caller: read it, never change it."""
    front: dict[Word, int] = {y: 1}
    for _ in range(y.rank - X):
        new: dict[Word, int] = {}
        for w, c in front.items():
            for v in _neighbours(w, -1):
                new[v] = new.get(v, 0) + c
        front = new
    return front


def brute_count_down(x: Word, y: Word) -> int:
    """Descending path count by a level-by-level walk down from y."""
    if y.rank < x.rank:
        raise ValueError(f"brute_count_down needs rank({y}) >= rank({x})")
    return _down(y, x.rank).get(x, 0)


@lru_cache(maxsize=_WALKS)
def trajectory_distribution(y: Word, t: Trajectory) -> dict[Word, int]:
    """Propagate a word -> multiplicity table along ``t``; one walk yields the
    path count to every word at the final rank.  The memo hands the same
    dict to every caller: read it, never change it."""
    if t.start != y.rank:
        raise ValueError(f"trajectory starts at {t.start}, word has rank {y.rank}")
    front: dict[Word, int] = {y: 1}
    for step in t.steps:
        new: dict[Word, int] = {}
        for w, c in front.items():
            for v in _neighbours(w, step):
                new[v] = new.get(v, 0) + c
        front = new
    return front


def brute_count_trajectory(x: Word, y: Word, t: Trajectory) -> int:
    """Trajectory path count by the multiplicity walk."""
    if t.start != y.rank or t.end != x.rank:
        raise ValueError(
            f"trajectory endpoints ({t.start}, {t.end}) do not match "
            f"ranks ({y.rank}, {x.rank})"
        )
    return trajectory_distribution(y, t).get(x, 0)


@lru_cache(maxsize=_WALKS)
def s_path_distribution(y: Word, X: int, S: int) -> dict[Word, int]:
    """Counts of S-up-step paths from ``y`` to every word of rank ``X``,
    by dynamic programming over (word, up-steps used).  The memo hands the
    same dict to every caller: read it, never change it."""
    if y.rank < X:
        raise ValueError(f"s_path_distribution needs rank({y}) >= {X}")
    if S < 0 or X < 0:
        raise ValueError("X and S must be nonnegative")
    length = y.rank - X + 2 * S
    front: dict[tuple[Word, int], int] = {(y, 0): 1}
    for _ in range(length):
        new: dict[tuple[Word, int], int] = {}
        for (w, used), c in front.items():
            for v in _neighbours(w, -1):
                key = (v, used)
                new[key] = new.get(key, 0) + c
            if used < S:
                for v in _neighbours(w, 1):
                    key = (v, used + 1)
                    new[key] = new.get(key, 0) + c
        front = new
    return {w: c for (w, used), c in front.items() if used == S}


def brute_count_s(x: Word, y: Word, S: int) -> int:
    """S-path count by the dynamic program."""
    if y.rank < x.rank:
        raise ValueError(f"brute_count_s needs rank({y}) >= rank({x})")
    return s_path_distribution(y, x.rank, S).get(x, 0)


def brute_xi(X: int, Y: int, S: int, i: int = 0) -> int:
    """Sum over enumerated trajectories of prod_j (up-value_j - i)."""
    if Y < X:
        raise ValueError(f"brute_xi needs Y >= X, got ({X}, {Y})")
    total = 0
    for t in enumerate_trajectories(X, Y, S):
        product = 1
        for e in t.up_values:
            product *= e - i
        total += product
    return total


def clear_caches() -> None:
    for memo in (_neighbours, _down, trajectory_distribution, s_path_distribution):
        memo.cache_clear()
