"""Devices of the paper that the tests check the library against.

The paper proves its up-value sums through good up-value sequences, their
bijection with trajectories, reversal of a trajectory and pseudo-trajectories
(walks that may dip below zero).  It writes the closed form of f as a sum of
f_base over start words (``start1``, ``start2``), one ``Fraction`` summand
each (``f_explicit_terms``).  The library computes no answer through any of
them: ``functions.f_explicit`` sums the same summands as small-integer ratios
over the g values of x.  So they live here, beside the tests that use them,
and are built independently of the library where that makes a check stronger.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from yfpaths.functions import _validate_key, f_base, g_values
from yfpaths.trajectories import Trajectory
from yfpaths.words import EPSILON, Word, predecessors, successors, suffix_split

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


def trajectory_walk(y: Word, t: Trajectory) -> dict[tuple[int, ...], int]:
    """Path counts along ``t`` from ``y`` to every word at its final rank,
    keyed by its digits as the oracle keys them: one front of words per
    value of ``t``, stepped through the public neighbour lists."""
    if t.start != y.rank:
        raise ValueError(f"trajectory starts at {t.start}, word has rank {y.rank}")
    front = {y: 1}
    for a, b in zip(t.values, t.values[1:]):
        new: dict[Word, int] = {}
        for word, c in front.items():
            for v in successors(word) if b > a else predecessors(word):
                new[v] = new.get(v, 0) + c
        front = new
    return {word.digits: c for word, c in front.items()}


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


def suffix_sum(x: Word, a: int) -> int:
    """Sum of the last ``a`` digits."""
    if not 0 <= a <= x.digit_count:
        raise ValueError(f"suffix length {a} out of range for {x}")
    return sum(x.digits[x.digit_count - a:])


def start1(x: Word, a: int) -> Word:
    """First start function: the word roughly "left of digit-sum a from the right".

    With x = x'1x'' and digit-sum(x'') = a the value is x'1; with x = x'2x''
    it is x'11; when a is not a suffix digit-sum it splits a 2 (a-1 is one,
    followed by a 2) and the value is x'1.  At a = rank(x) the value is the
    empty word.  The cases are read off one :func:`suffix_split`, so exactly
    one applies.
    """
    if not 0 <= a <= x.rank:
        raise ValueError(f"start1 argument {a} out of range for {x}")
    digits = x.digits
    i, s = suffix_split(digits, a)
    if s > a:  # x = x'2x'' with the 2 straddling a
        return Word(digits[:i] + (1,))
    if i == 0:
        return EPSILON
    if digits[i - 1] == 1:
        return Word(digits[:i])
    return Word(digits[: i - 1] + (1, 1))


def start2(x: Word, a: int) -> Word | None:
    """Second start function: the prefix left of a suffix of digit-sum ``a``.

    Returns None when ``a`` is not a suffix digit-sum of ``x``.
    """
    if not 0 <= a <= x.rank:
        raise ValueError(f"start2 argument {a} out of range for {x}")
    i, s = suffix_split(x.digits, a)
    return Word(x.digits[:i]) if s == a else None


def f_explicit_terms(x: Word, y: int, z: int) -> list[Fraction]:
    """The materialized summands of the closed form for f(x, y, z).

    Let c = suffix_sum(x, z).  For c <= y - 1 the unrolling ends on a
    start2 term:

        sum_{i=0}^{c-1} f_base(start1(x, i), y - i) / D(i)
          + f_base(start2(x, c), y - c) / D'(c)

    where D(i) multiplies (g(x, j) - y) over all j with g(x, j) - 1 <= i and
    D'(c) over all j with g(x, j) - 1 < c.  So D is one running product, which
    takes in (i + 1 - y) at each i where i + 1 is a g value of x, and D'(c)
    is D(c - 1), the loop's last divisor (1 when c = 0).  For c >= y the
    second coordinate bottoms out first and the sum stops at i = y - 2 with
    no closing term.  There are at most 1 + min(c, y - 1) summands.
    """
    _validate_key(x, y, z)
    if y == 0:
        return [f_base(x, 0)]
    c = suffix_sum(x, z)
    gs = set(g_values(x))
    terms = []
    den = 1
    for i in range(min(c, y - 1)):
        if i + 1 in gs:
            den *= i + 1 - y  # i + 1 <= y - 1, so never 0
        terms.append(f_base(start1(x, i), y - i) / den)
    if c <= y - 1:
        prefix = start2(x, c)
        assert prefix is not None  # c is a suffix digit-sum by construction
        terms.append(f_base(prefix, y - c) / den)
    return terms
