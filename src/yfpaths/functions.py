"""Exact rational weights attached to Young-Fibonacci words.

Two scalar functions drive all path counts:

* the *lower* function ``f(x, y, z)`` -- a rational defined by a product
  formula at z = 0 plus a recursion in z (``f_base``, ``f_rec``), together
  with an unrolled closed form with O(rank) summands (``f_explicit``);
* the *upper* function ``g(x, j)`` -- the j-th hook-like integer attached to
  the j-th 2 from the right (``g_values(x)[j - 1]``).

Their combination ``weight(x, y, i) = f(x, i, h) * prod_j (g(y, j) - i)``,
with h the common-suffix length, is the coefficient array of the counting
formulas.  Everything is exact: values are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _f_rec(digits: tuple[int, ...], y: int, z: int) -> Fraction:
    x = Word(digits)
    if z == 0 or y == 0:
        return f_base(x, y)
    if digits[-1] == 1:
        return f_base(x, y) + _f_rec(digits[:-1], y - 1, z - 1)
    if y == 1:
        return Fraction(0)
    # trailing 2: rewrite as the word ending 11, one step deeper in z
    return _f_rec(digits[:-1] + (1, 1), y, z + 1) / (1 - y)


def f_rec(x: Word, y: int, z: int) -> Fraction:
    """f(x, y, z) by the defining recursion (memoized)."""
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


def clear_caches() -> None:
    """Drop memoized f values (results are unaffected, only timings)."""
    _f_rec.cache_clear()
