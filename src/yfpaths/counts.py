"""Exact path counts in the Young-Fibonacci graph.

Three counting problems, each solved by a polynomial-size formula instead of
walking the (exponentially many) paths:

* ``count_down(x, y)`` -- descending paths from y to x;
* ``count_trajectory(x, y, t)`` -- paths whose rank profile is a given
  trajectory;
* ``count_s_paths(x, y, S)`` -- paths with exactly S up-steps.

Each is sum_{i=0}^{rank x} weight(x, y, i) * c_i, which each count sums
over its own integer row rank(x)! * weight (see :func:`weight_row`) and
divides by rank(x)! once.  c_i is 1 for ``count_down``; prod_e (e - i) over
the up-values for ``count_trajectory``, 0 at every shift that is an
up-value, where the row is left unbuilt; and xi at shift i for
``count_s_paths``.  ``count_trajectory`` is ``_trajectory_counts`` of one
trajectory: that counts any trajectories of one word pair from one row,
left unbuilt at the up-values they all share, each checked on its own, so
``verify`` builds one row per word pair, not one per trajectory.

The trajectory dependence enters only through alternating sums over
up-values, which collapse to the closed-form ``xi`` values built from
binomials and odd double factorials.  Successive terms of such a sum differ
by a ratio of a few small integers, so each ``xi`` is its k = 0 term,
C(Y + 2S, Y) * (2S - 1)!!, times one fraction of small-integer products.
Every term holds the odd double factorial (2(S - K) - 1)!! with
K = min(X // 2, S), which one evaluator picks and returns with the sum
taken over that double factorial: it starts from the head
C(Y + 2S, Y) * prod_{S - K < k <= S} (2k - 1), which one builder makes from
its own factors, so no (2S - 1)!! is built only to be divided away.
``_xi_shifts`` gives xi at every shift from one three-term recurrence along
the shift, started from the closed head of the last shift over the same
double factorial; the evaluator's sum at shift 0 checks where the
recurrence ends.  ``xi`` and ``count_s_paths`` each multiply the double
factorial back in once.  Every divide is checked to be exact, and every
result to be a nonnegative integer before it is returned.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Sequence
from functools import reduce
from math import comb, factorial, gcd, perm, prod
from operator import and_

from .functions import InconsistencyError, g_values, weight_row
from .trajectories import Trajectory
from .words import Word

__all__ = [
    "count_down",
    "count_down_from_top",
    "count_trajectory",
    "count_s_paths",
    "count_s_paths_from_top",
    "xi",
    "xi_zero",
    "odd_double_factorial",
]


# Each check below names what it checks by a format string and its arguments,
# formatted only when the check fails: a query's words can be long.


def _exact(total: int, divisor: int, what: str, *args: object) -> int:
    """total / divisor, checked to leave no remainder."""
    value, rest = divmod(total, divisor)
    if rest:
        raise InconsistencyError(f"{what.format(*args)} evaluated to a non-integer")
    return value


def _as_count(total: int, what: str, *args: object, scale: int = 1) -> int:
    """total / scale, checked to be a nonnegative integer."""
    value = _exact(total, scale, what, *args)
    if value < 0:
        raise InconsistencyError(f"{what.format(*args)} evaluated to negative {value}")
    return value


def _row(x: Word, y: Word, skip: Collection[int], what: str, *args: object) -> list[int]:
    """weight_row(x, y, skip), once the rank order of the query is checked,
    before any factor of it is built."""
    if y.rank < x.rank:
        raise ValueError(f"{what.format(*args)} needs rank({y}) >= rank({x})")
    return weight_row(x, y, skip)


def count_down(x: Word, y: Word) -> int:
    """Number of rank-decreasing paths from y down to x: the weight row's sum
    over rank(x)!."""
    what = "count_down({}, {})"
    return _as_count(sum(_row(x, y, (), what, x, y)), what, x, y, scale=factorial(x.rank))


def count_down_from_top(x: Word) -> int:
    """Number of descending paths from x to the empty word: prod_j g(x, j)."""
    return prod(g_values(x))


def count_trajectory(x: Word, y: Word, t: Trajectory) -> int:
    """Number of paths from y to x whose rank profile equals ``t``: the
    weight row summed against prod_e (e - i) over the up-values e of t."""
    return _trajectory_counts(x, y, (t,))[0]


def _trajectory_counts(x: Word, y: Word, ts: Sequence[Trajectory]) -> list[int]:
    """[count_trajectory(x, y, t) for t in ts], ts nonempty, from one weight
    row: it is left 0 at the up-values common to every t, where each t's
    factor is 0, and built everywhere else."""
    for t in ts:
        if t.start != y.rank or t.end != x.rank:
            raise ValueError(
                f"trajectory endpoints ({t.start}, {t.end}) do not match "
                f"ranks ({y.rank}, {x.rank})"
            )
    what = "count_trajectory({}, {}, {})"
    ups = [Counter(t.up_values) for t in ts]
    # the up-values every t shares: ups[0] itself for one t, with no copy
    row = _row(x, y, reduce(and_, ups), what, x, y, ts[0])
    shifts = [(i, w) for i, w in enumerate(row) if w]
    scale = factorial(x.rank)
    out = []
    for t, up in zip(ts, ups):
        # prod_e (e - i) over the up-values, as one power per multiplicity m
        # of the product of the up-values that occur m times; it is 0 at
        # every shift i that is an up-value
        by_count: dict[int, list[int]] = {}
        for e, m in up.items():
            by_count.setdefault(m, []).append(e)
        groups = by_count.items()
        total = 0
        for i, w in shifts:
            # plain loops: a generator per factor costs more than its product
            for m, es in groups:
                g = 1
                for e in es:
                    g *= e - i
                w *= g**m
            total += w
        out.append(_as_count(total, what, x, y, t, scale=scale))
    return out


def odd_double_factorial(n: int) -> int:
    """n!! for odd n, with (-1)!! = 1: (2S - 1)!! = (2S)! / (S! 2^S) for n = 2S - 1."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"odd double factorial undefined for {n}")
    return perm(n + 1, (n + 1) // 2) >> ((n + 1) // 2)


def xi_zero(Y: int, S: int) -> int:
    """Sum over all trajectories from Y to 0 with S up-steps of the product
    of their up-values: C(Y + 2S, Y) * (2S - 1)!!."""
    if Y < 0 or S < 0:
        raise ValueError("Y and S must be nonnegative")
    return comb(Y + 2 * S, Y) * odd_double_factorial(2 * S - 1)


def _head_odds(S: int, K: int) -> int:
    """(2S - 1)!! / (2(S - K) - 1)!! for 0 <= K <= S:
    prod_{S - K < k <= S} (2k - 1) = perm(2S, 2K) / (2^K perm(S, K))."""
    return _exact(perm(2 * S, 2 * K), perm(S, K) << K, "{}!! / {}!!", 2 * S - 1, 2 * (S - K) - 1)


def _xi_head(Y: int, S: int, odds: int) -> int:
    """xi_zero(Y, S) / (2(S - K) - 1)!!: C(Y + 2S, Y) times ``odds``, the
    ``_head_odds(S, K)`` that every head of one S and K shares."""
    return comb(Y + 2 * S, Y) * odds


def _xi_over(X: int, Y: int, S: int) -> tuple[int, int, int]:
    """(xi(X, Y, S, 0) / d, d, odds) for Y >= X >= 0, with
    d = (2(S - K) - 1)!! for K = min(X // 2, S), which divides every term of
    the sum, and odds = ``_head_odds(S, K)``, built once for every head over
    d.

    The sum is over k of (-1)^k C(X, 2k) (2k - 1)!! xi_zero(Y, S - k), and term
    k is term k - 1 times -(X - 2k + 2)(X - 2k + 1)(S - k + 1) /
    (k (N + Y + 1)(N + Y + 2)) with N = 2(S - k).  So the sum is the k = 0 term
    times 1 + r_1 (1 + r_2 (1 + ...)), evaluated from the last k as one
    fraction p / q of small-integer products; from one k to the next,
    N + Y + 1 and X - 2k + 1 step by 2.  That fraction is reduced by its gcd,
    and one exact divide of the head ``_xi_head(Y, S, odds)``, the k = 0 term
    over d, times it finishes it.
    """
    K = min(X // 2, S)
    odds = _head_odds(S, K)
    p = q = 1
    n = 2 * (S - K) + Y + 1
    a = X - 2 * K + 1
    for k in range(K, 0, -1):
        q *= k * n * (n + 1)
        p = q - a * (a + 1) * (S - k + 1) * p
        n += 2
        a += 2
    g = gcd(p, q)
    value = _exact(_xi_head(Y, S, odds) * (p // g), q // g, "xi({}, {}, {}, 0)", X, Y, S)
    return value, odd_double_factorial(2 * (S - K) - 1), odds


def xi(X: int, Y: int, S: int, i: int = 0) -> int:
    """Sum over trajectories from Y to X with S up-steps of prod_j (e_j - i).

    Valid for Y >= X >= i >= 0.  Shifts to (X - i, Y - i, S, 0) and expands
    as an alternating sum of K + 1 closed terms, each a multiple of the
    double factorial d that ``_xi_over`` takes the sum over and returns; d
    is multiplied back once.
    """
    if not Y >= X >= i >= 0:
        raise ValueError(f"xi needs Y >= X >= i >= 0, got ({X}, {Y}, {S}, {i})")
    if S < 0:
        raise ValueError("S must be nonnegative")
    value, d, _ = _xi_over(X - i, Y - i, S)
    return d * value


def _xi_shifts(X: int, Y: int, S: int) -> tuple[list[int], int]:
    """([T(a) / d for a in 0..X], d) for Y >= X >= 0, where
    T(a) = xi(a, a + u, S, 0) with u = Y - X is the xi of shift X - a, and
    d = (2(S - K) - 1)!! with K = min(X // 2, S), as ``_xi_over`` builds it.

    T obeys (a + u) T(a) = (2S + u + 1) T(a - 1) + (a - 1) T(a - 2) for a >= 1
    (xi is holonomic along the shift; see Petkovsek, Wilf and Zeilberger,
    A = B), so T(0) = xi_zero(u, S), a closed head, fixes every shift in one
    pass of exact divides.  Every term of every shift's sum holds
    (2(S - k) - 1)!! with k <= K, a multiple of d, so every T(a) is taken
    over d, and the pass starts from ``_xi_head(u, S, odds)``, on the odd
    product the term sum of ``_xi_over`` built.  It ends at T(X), shift 0,
    which is checked against that term sum.
    """
    check, d, odds = _xi_over(X, Y, S)
    u = Y - X
    c = 2 * S + u + 1
    t = [_xi_head(u, S, odds)]
    for a in range(1, X + 1):
        # at a = 1 the T(-1) term has coefficient 0
        prior = (a - 1) * t[a - 2] if a > 1 else 0
        value, rest = divmod(c * t[a - 1] + prior, a + u)  # _exact, inlined
        if rest:
            raise InconsistencyError(f"xi({a}, {a + u}, {S}, 0) evaluated to a non-integer")
        t.append(value)
    if t[X] != check:
        raise InconsistencyError(
            f"xi({X}, {Y}, {S}, 0) from the shift recurrence differs from its term sum"
        )
    return t, d


def count_s_paths(x: Word, y: Word, S: int) -> int:
    """Number of paths from y to x with exactly S up-steps.

    The factor of shift i is xi(X - i, Y - i, S, 0), X = rank(x) and
    Y = rank(y): ``_xi_shifts`` gives every shift's over one double
    factorial d, which multiplies the sum once.
    """
    if S < 0:
        raise ValueError("S must be nonnegative")
    what = "count_s_paths({}, {}, {})"
    row = _row(x, y, (), what, x, y, S)
    shifts, d = _xi_shifts(x.rank, y.rank, S)
    total = sum(w * xi_i for w, xi_i in zip(row, reversed(shifts)) if w)
    return _as_count(total * d, what, x, y, S, scale=factorial(x.rank))


def count_s_paths_from_top(x: Word, S: int) -> int:
    """Closed form for paths from x to the empty word with S up-steps."""
    if S < 0:
        raise ValueError("S must be nonnegative")
    return xi_zero(x.rank, S) * count_down_from_top(x)
