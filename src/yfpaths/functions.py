"""Exact rational weights attached to Young-Fibonacci words.

Two scalar functions drive all path counts:

* the *lower* function ``f(x, y, z)`` -- a rational defined by a product
  formula at z = 0 plus a recursion in z (``f_base``, ``f_rec``), together
  with an unrolled closed form with O(rank) summands (``f_explicit``);
* the *upper* function ``g(x, j)`` -- the j-th hook-like integer attached to
  the j-th 2 from the right (``g_values(x)[j - 1]``).

Their combination ``weight(x, y, i) = f(x, i, h) * prod_j (g(y, j) - i)``,
with h the common-suffix length, is the coefficient array of the counting
formulas.  Everything is exact: values are ``fractions.Fraction``, except
``weight_row``, which gives rank(x)! * weight(x, y, i) for every i as plain
integers for the counts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .words import Word, common_suffix_len, start1, start2, suffix_sum


class InconsistencyError(RuntimeError):
    """An exact identity that must hold internally failed to hold."""


def g_values(x: Word) -> tuple[int, ...]:
    """g(x, j) for j = 1..twos(x).

    Writing x as 1-runs separated by 2s, g(x, j) adds the lengths of the
    j rightmost 1-runs to 2j - 1.  The values are strictly increasing.
    """
    vals = []
    ones = 0
    twos = 0
    for d in reversed(x.digits):
        if d == 1:
            ones += 1
        else:
            twos += 1
            vals.append(ones + 2 * twos - 1)
    return tuple(vals)


def g_product(y: Word, i: int) -> int:
    """prod_j (g(y, j) - i); 1 when y has no 2s."""
    out = 1
    for g in g_values(y):
        out *= g - i
    return out


def _validate_key(x: Word, y: int, z: int) -> None:
    if not 0 <= y <= x.rank:
        raise ValueError(f"f argument y={y} out of range 0..{x.rank} for {x}")
    if not 0 <= z <= x.digit_count:
        raise ValueError(f"f argument z={z} out of range 0..{x.digit_count} for {x}")


def f_base(x: Word, y: int) -> Fraction:
    """f(x, y, 0): the two-sided partial-sum product around the digit-sum-y suffix.

    If no suffix of x has digit sum exactly y the value is 0.  Otherwise the
    word splits as prefix + suffix and the value is the reciprocal of

        prod over suffix of (-(partial sums left to right))
      * prod over prefix of (partial sums right to left),

    both products being 1 when empty.
    """
    if not 0 <= y <= x.rank:
        raise ValueError(f"f argument y={y} out of range 0..{x.rank} for {x}")
    digits = x.digits
    n = len(digits)
    split = n
    s = 0
    while split > 0 and s < y:
        split -= 1
        s += digits[split]
    if s != y:
        return Fraction(0)
    den = 1
    run = 0
    for k in range(split, n):
        run += digits[k]
        den *= -run
    run = 0
    for k in range(split - 1, -1, -1):
        run += digits[k]
        den *= run
    return Fraction(1, den)


def _chain(digits: tuple[int, ...], y: int, z: int, term: int) -> int:
    """The sum of the f_base terms that the recursion for f(digits, y, z) adds,
    each scaled by one common factor chosen so that the first one is ``term``.

    The recursion adds f_base at each state and strips a trailing 1 (y and z
    drop by one), or rewrites a trailing 2 as 11 with z one deeper and the
    result divided by (1 - y); it stops at z = 0 or y = 0, or gives 0 at a
    trailing 2 with y = 1.  Between consecutive states the scaled term
    changes by a small factor (the append-1 and append-2 identities of
    :mod:`yfpaths.invariants`): after a 1 it is multiplied by -y; a 2 first
    divides it by (1 - y)^2, then takes two 1-steps.  The caller's scale
    must make every term an integer; each divide checks that it is exact.
    """
    total = 0
    for d in reversed(digits[len(digits) - z:]):  # the last z digits, right to left
        if y == 0:
            break
        if d == 1:
            total += term
            term *= -y
            y -= 1
        elif y == 1:
            return total
        else:
            term, rest = divmod(term, (1 - y) ** 2)
            if rest:
                raise InconsistencyError(f"inexact chain step at a 2 with y={y}")
            total += term
            term *= -y
            total += term
            term *= 1 - y
            y -= 2
    return total + term


@lru_cache(maxsize=1 << 12)
def _f_start(digits: tuple[int, ...], y: int) -> tuple[int, int]:
    """(scale, scale * f_base(x, y)): how the chain of f(x, y, z) starts, for
    every z.  Shared by the keys of one (x, y), which differ only in z."""
    x = Word(digits)
    # at each 2 it reaches, with y' its current y, the chain divides by
    # (1 - y')^2 = (g - y)^2: one factor comes out of f_base's denominator,
    # the other out of this prod; a 2 with g = y ends the chain, so it is
    # left out
    scale = factorial(x.rank) * prod(g - y for g in g_values(x) if g != y)
    start = f_base(x, y) * scale
    if start.denominator != 1:
        raise InconsistencyError(f"f_base({x}, {y}) * {x.rank}! is not an integer")
    return scale, start.numerator


_ZERO = Fraction(0)


@lru_cache(maxsize=1 << 15)
def _f_rec(digits: tuple[int, ...], y: int, z: int) -> Fraction:
    scale, start = _f_start(digits, y)
    # from a zero start every term of the chain is zero
    return Fraction(_chain(digits, y, z, start), scale) if start else _ZERO


def f_rec(x: Word, y: int, z: int) -> Fraction:
    """f(x, y, z) by the defining recursion, unrolled into one iterative chain
    (bounded memo)."""
    _validate_key(x, y, z)
    return _f_rec(x.digits, y, z)


def f_explicit_terms(x: Word, y: int, z: int) -> list[Fraction]:
    """The materialized summands of the closed form for f(x, y, z).

    Let c = suffix_sum(x, z).  For c <= y - 1 the unrolling ends on a
    start2 term:

        sum_{i=0}^{c-1} f_base(start1(x, i), y - i) / D(i)
          + f_base(start2(x, c), y - c) / D'(c)

    where D(i) multiplies (g(x, j) - y) over all j with g(x, j) - 1 <= i and
    D'(c) over all j with g(x, j) - 1 < c.  For c >= y the second coordinate
    bottoms out first and the sum stops at i = y - 2 with no closing term.
    There are at most 1 + min(c, y - 1) summands.
    """
    _validate_key(x, y, z)
    if y == 0:
        return [f_base(x, 0)]
    c = suffix_sum(x, z)
    gs = g_values(x)

    def divisor(i: int, strict: bool = False) -> int:
        out = 1
        for g in gs:
            if (g - 1 < i) if strict else (g - 1 <= i):
                out *= g - y
        return out

    terms = []
    upper = c if c <= y - 1 else y - 1
    for i in range(upper):
        den = divisor(i)
        if den == 0:
            raise InconsistencyError(f"zero divisor in closed form at ({x}, {y}, {z}), i={i}")
        terms.append(f_base(start1(x, i), y - i) / den)
    if c <= y - 1:
        den = divisor(c, strict=True)
        if den == 0:
            raise InconsistencyError(f"zero divisor in closed form at ({x}, {y}, {z}), tail")
        prefix = start2(x, c)
        assert prefix is not None  # c is a suffix digit-sum by construction
        terms.append(f_base(prefix, y - c) / den)
    return terms


def f_explicit(x: Word, y: int, z: int) -> Fraction:
    """f(x, y, z) by the closed form; agrees exactly with :func:`f_rec`."""
    return sum(f_explicit_terms(x, y, z), Fraction(0))


def weight(x: Word, y: Word, i: int) -> Fraction:
    """f(x, i, h(x, y)) * prod_j (g(y, j) - i), for rank(y) >= rank(x)."""
    if y.rank < x.rank:
        raise ValueError(f"weight requires rank({y}) >= rank({x})")
    if not 0 <= i <= x.rank:
        raise ValueError(f"weight argument i={i} out of range 0..{x.rank}")
    return f_rec(x, i, common_suffix_len(x, y)) * g_product(y, i)


def _base_row(digits: tuple[int, ...]) -> dict[int, int]:
    """{i: rank! * f_base(x, i)} for the i where f_base(x, i) is nonzero.

    f_base is a Lagrange weight on the suffix digit sums s of x (0 and rank
    included): f_base(x, i) = 1 / prod_{s != i} (s - i) when i is one of them
    and 0 otherwise.  Scaled by rank! this is the integer
    (-1)^i C(rank, i) prod (m - i) over the m in 0..rank that are not suffix
    sums.  Hot path only: :func:`f_base` keeps the partial-sum product.
    """
    sums = [0]
    for d in reversed(digits):
        sums.append(sums[-1] + d)
    rank = sums[-1]
    missing = set(range(rank + 1)).difference(sums)
    return {
        i: (-1) ** i * comb(rank, i) * prod(m - i for m in missing) for i in sums
    }


def weight_row(x: Word, y: Word) -> list[int]:
    """[rank(x)! * weight(x, y, i) for i in 0..rank(x)], as exact integers.

    Each entry is one chain (see :func:`_chain`) started from
    rank! * f_base(x, i) * g_product(y, i).  The chain walks the common
    suffix, where g(y, j) = g(x, j), so each 2 it meets divides out one
    factor g - i of the product and one of the base's denominator.
    """
    if y.rank < x.rank:
        raise ValueError(f"weight_row requires rank({y}) >= rank({x})")
    gs = g_values(y)
    h = common_suffix_len(x, y)
    row = [0] * (x.rank + 1)
    for i, base in _base_row(x.digits).items():
        start = base * prod(g - i for g in gs)
        if start:
            row[i] = _chain(x.digits, i, h, start)
    return row


def clear_caches() -> None:
    """Drop memoized f values (results are unaffected, only timings)."""
    _f_rec.cache_clear()
    _f_start.cache_clear()
