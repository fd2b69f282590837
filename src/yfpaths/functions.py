"""Exact rational weights attached to Young-Fibonacci words.

Two scalar functions drive all path counts:

* the *lower* function ``f(x, y, z)`` -- a rational defined by a product
  formula at z = 0 plus a recursion in z (``f_base``, ``f_rec``), together
  with the paper's unrolled closed form (``f_explicit``), one sum of
  small-integer ratios over the g values of x;
* the *upper* function ``g(x, j)`` -- the j-th hook-like integer attached to
  the j-th 2 from the right (``g_values(x)[j - 1]``).

Their combination ``weight(x, y, i) = f(x, i, h) * prod_j (g(y, j) - i)``,
with h the common-suffix length, is the coefficient array of the counting
formulas.  Everything is exact.  The public values are
``fractions.Fraction``; the rest are plain integers: ``weight_row`` gives
rank(x)! * weight(x, y, i) for every i to the counts, and the identity
suites of :mod:`yfpaths.invariants` read f as (num, den) pairs (``_f_pair``
one entry, ``f_rows`` every entry at every z) and f_base as the product it
is the reciprocal of (``_base_den``).
``fractions`` is imported by the first ``Fraction`` built (see
:func:`Fraction`), not with this module, so neither a count nor ``verify``
ever loads it.

``_f_pair``, behind ``f_rec``, and ``weight_row`` share one evaluation of
the recursion.  The g values of x are the m in 0..rank(x) that no suffix
digit sum of x hits, so rank(x)! * f_base(x, i) is
(-1)^i C(rank, i) prod_g (g - i) at a suffix sum i and 0 elsewhere.  The
recursion from there strips digits of x's suffix and divides by (g - i)^2
at each 2; one backward walk over those digits (``_walk``) sums it times
the factors it would divide by.  Both evaluators take that start and walk
from one helper (``_lagrange_walk``), so neither divides: ``_f_pair``
leaves the divisors in its den, which ``f_rec`` reduces into a memoized
``Fraction`` (the one memo here), and the row multiplies in only the
factors that remain.  ``f_rows`` takes the same start but walks each
suffix sum's chains the other way, one walk for all of them, reaching
neither ``_f_pair`` nor the walk helpers.

Each evaluator decides how many digits its chains strip by its own scan:
``_f_pair`` one chain from the suffix split of y
(:func:`yfpaths.words.suffix_split`, which ``f_base`` reads too),
``f_rows`` every chain of a column as its walk passes it, and
``weight_row`` each chain to the common suffix.  The tests compare the rows
with ``_f_pair`` entry by entry, and the closed form reads only ``f_base``
and the g values, so ``f --verify`` compares two evaluators written apart.
"""

from __future__ import annotations

from collections.abc import Collection
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, prod
from operator import mul

from .words import Word, common_suffix_len, suffix_split


def Fraction(*args):
    """``fractions.Fraction``, imported by the first f value built: a count
    or ``verify`` builds none, so neither imports ``fractions`` (nor the
    ``decimal`` that imports).  That first call rebinds this name to the
    class, so no later one pays for an import statement."""
    global Fraction
    from fractions import Fraction

    return Fraction(*args)


class InconsistencyError(RuntimeError):
    """An exact identity that must hold internally failed to hold."""


def g_values(x: Word) -> tuple[int, ...]:
    """g(x, j) for j = 1..twos(x).

    Writing x as 1-runs separated by 2s, g(x, j) adds the lengths of the
    j rightmost 1-runs to 2j - 1.  The values are strictly increasing.
    """
    return tuple(_g_less(x.digits, 0))


def _g_less(digits: tuple[int, ...], y: int) -> list[int]:
    """[g - y for each g value of the word with these digits], in order: g
    is the digit sum of the suffix that ends with its 2, less one."""
    out = []
    s = -1 - y
    for d in reversed(digits):
        s += d
        if d == 2:
            out.append(s)
    return out


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
    den = _base_den(x, y)
    return Fraction(1, den) if den else Fraction(0)


def _base_den(x: Word, y: int) -> int:
    """The product whose reciprocal is f_base(x, y), or 0 where f_base(x, y)
    is 0; y must lie in 0..rank(x)."""
    digits = x.digits
    split, s = suffix_split(digits, y)
    if s != y:
        return 0
    den = 1
    run = 0
    for k in range(split, len(digits)):
        run += digits[k]
        den *= -run
    run = 0
    for k in range(split - 1, -1, -1):
        run += digits[k]
        den *= run
    return den


def _walk(digits: tuple[int, ...], a: int) -> int:
    """The chain of the recursion over ``digits``, as an integer.

    The recursion for f(x, y, z) adds f_base at each state and strips a
    trailing 1 (y and z drop by one), or rewrites a trailing 2 as 11 with z
    one deeper and the result divided by (1 - y); it stops at z = 0 or y = 0.
    ``digits`` are the digits it strips, left to right, and ``a`` is y less
    their sum.  With y' the y at a digit (y less the stripped digits right
    of it), a 1 multiplies the next term by -y', and a 2 divides it by
    (1 - y')^2, then takes two 1-steps (the append-1 and append-2 identities
    of :mod:`yfpaths.invariants`).  The result is the sum of the terms over
    the first one, times the product of (1 - y')^2 over the stripped 2s.
    Summed from the last term back, from V = B = 1, each digit maps V to
    B - y' V, and a 2 then multiplies V by 1 - y' and B by (1 - y')^2, so
    nothing is divided.
    """
    v = b = 1
    for d in digits:
        a += d  # y' at this digit
        v = b - a * v
        if d == 2:
            u = 1 - a
            v *= u
            b *= u * u
    return v


def _lagrange_walk(digits: tuple[int, ...], rank: int, i: int, m: int, s: int) -> tuple[int, int]:
    """((-1)^i C(rank, i) V, t), where i is a suffix sum of ``digits`` and
    the chain strips their last m digits, of sum s: V walks those digits
    from i - s, the sum of the digits it leaves (see :func:`_walk`), and
    t = s - m counts the 2s among them."""
    v = _walk(digits[len(digits) - m:], i - s)
    return (-1) ** i * comb(rank, i) * v, s - m


def _f_pair(digits: tuple[int, ...], y: int, z: int) -> tuple[int, int]:
    """f(x, y, z) as (num, den), den nonzero, for the x with these digits;
    y must lie in 0..rank(x) and z in 0..digits(x).

    Where no suffix sums to y, y is itself a g value, one the chain never
    strips, so num keeps the factor g - y = 0: the pair is (0, 1), with no
    walk.  Otherwise the last k digits sum to y, and the chain of the
    recursion strips x's last m = min(k, z) digits.  rank! f_base(x, y) is
    (-1)^y C(rank, y) prod_g (g - y) (see weight_row), and each of the t 2s
    the chain strips divides it by one (g - y)^2, a g below y.
    """
    n = len(digits)
    split, s = suffix_split(digits, y)
    if s != y:  # y is a g value
        return 0, 1
    m = min(n - split, z)
    s = sum(digits[n - m:])  # the sum of the m digits the chain strips
    diffs = _g_less(digits, y)
    rank = sum(digits)
    lead, t = _lagrange_walk(digits, rank, y, m, s)
    if not t:  # the chain strips no 2, so there is no divisor to split off
        return lead * prod(diffs), factorial(rank)
    return lead * prod(diffs[t:]), factorial(rank) * prod(diffs[:t])


@lru_cache(maxsize=1 << 15)
def _f_rec(digits: tuple[int, ...], y: int, z: int) -> Fraction:
    return Fraction(*_f_pair(digits, y, z))


def f_rec(x: Word, y: int, z: int) -> Fraction:
    """f(x, y, z) by the defining recursion, unrolled into one division-free
    walk (bounded memo)."""
    _validate_key(x, y, z)
    return _f_rec(x.digits, y, z)


def f_rows(x: Word) -> list[list[tuple[int, int]]]:
    """[[f(x, y, z) as (num, den) for y in 0..rank(x)] for z in
    0..digits(x)], each entry (0, 1) where no suffix of x sums to y, from
    one walk per suffix sum, written apart from :func:`_f_pair`.

    For y the sum of the last k digits, the entry at z is the chain of
    m = min(k, z) stripped digits, so the column of y holds k + 1 chains.
    They multiply the same digit maps, the last digit's first (the transpose
    of :func:`_walk`), and differ only in how many they take: with y' = y
    less the digits right of a digit, a 1 maps the row vector (r0, r1) to
    (-y' r0, r0 + r1), and a 2, with u = 1 - y', to (-y' u r0,
    u (r0 + u r1)).  From r = (1, 0), the chain of m digits is r0 + r1 after
    m maps, so one right-to-left walk over the last k digits gives the whole
    column.  Where t of the m digits are 2s, the entry is
    ((-1)^y C(rank, y) (r0 + r1) prod_{g past the first t} (g - y),
    rank! prod_{the first t g} (g - y)), as in :func:`_f_pair`: the products
    over the last g values are built once per column, and the den gains one
    factor at each 2.
    """
    digits = x.digits
    n = len(digits)
    rank = x.rank
    scale = factorial(rank)
    gs = _g_less(digits, 0)
    columns = []  # (y, [the entry at m for m in 0..k]) for each k
    y = 0  # the sum of the last k digits
    for k in range(n + 1):
        if k:
            y += digits[-k]
        diffs = [g - y for g in gs]
        # tails[j]: the product of the last j diffs
        tails = list(accumulate(reversed(diffs), mul, initial=1))
        rest = len(diffs)  # the g values whose 2s the chain has not stripped
        lead = (-1) ** y * comb(rank, y)
        column = [(lead * tails[rest], scale)]
        r0, r1 = 1, 0
        a, den = y, scale  # a: y' at the next digit
        for d in reversed(digits[n - k:]):
            if d == 1:
                r0, r1 = -a * r0, r0 + r1
            else:
                u = 1 - a
                r0, r1 = -a * u * r0, u * (r0 + u * r1)
                den *= diffs[-rest]  # the g of this 2
                rest -= 1
            column.append((lead * (r0 + r1) * tails[rest], den))
            a -= d
        columns.append((y, column))
    # the row at z is the one at z - 1 with the columns of k >= z moved on
    row = [(0, 1)] * (rank + 1)
    rows = []
    for z in range(n + 1):
        row = row.copy()
        for y, column in columns[z:]:
            row[y] = column[z]
        rows.append(row)
    return rows


def f_explicit(x: Word, y: int, z: int) -> Fraction:
    """f(x, y, z) by the paper's closed form; agrees exactly with :func:`f_rec`.

    Each start word of the paper keeps x's prefix of digit sum rank(x) - y, so
    for y >= 1 and c the digit sum of x's last z digits, summand i (i below
    min(c, y - 1), and i = c if c < y) is f_base(x, y) (-1)^i y (y - 1) ...
    (y - i + 1) over prod (y - g)^2, g the g values of x up to min(i + 1, c).
    Each such g is below y, so no divisor is 0.
    """
    _validate_key(x, y, z)
    base = f_base(x, y)
    if y == 0 or not base:
        return base
    c = sum(x.digits[len(x.digits) - z:])
    gs = set(g_values(x))
    num, den, fall = 0, 1, 1  # fall = (-1)^i y (y - 1) ... (y - i + 1)
    for i in range(min(c, y - 1)):
        if i + 1 in gs:
            sq = (y - i - 1) ** 2
            num *= sq
            den *= sq
        num += fall
        fall *= i - y
    if c <= y - 1:
        num += fall
    return base * Fraction(num, den)


def weight(x: Word, y: Word, i: int) -> Fraction:
    """f(x, i, h(x, y)) * prod_j (g(y, j) - i), for rank(y) >= rank(x)."""
    if y.rank < x.rank:
        raise ValueError(f"weight requires rank({y}) >= rank({x})")
    if not 0 <= i <= x.rank:
        raise ValueError(f"weight argument i={i} out of range 0..{x.rank}")
    return f_rec(x, i, common_suffix_len(x, y)) * g_product(y, i)


def weight_row(x: Word, y: Word, skip: Collection[int] = ()) -> list[int]:
    """[rank(x)! * weight(x, y, i) for i in 0..rank(x)], as exact integers,
    but 0 at every i in ``skip``.

    f_base is a Lagrange weight on the suffix digit sums of x (0 and rank
    included), and the g values of x are exactly the m in 0..rank that are
    not such sums.  So rank! * f_base(x, i) is (-1)^i C(rank, i) prod_g
    (g - i) when i is a suffix sum, and 0 otherwise.  For i the sum of the
    last k digits, the chain of f(x, i, h) strips the last w = min(k, h)
    digits (see :func:`_walk`), dividing by (g - i)^2 at each of the t 2s
    among them.  Those 2s lie in the common suffix, where g(y, j) = g(x, j),
    so with c the 2s of the common suffix the entry is

        (-1)^i C(rank, i) * prod_{g in gx[t:c]} (g - i)^2
          * prod_{g in gx[c:] + gy[c:]} (g - i) * V,

    where t = c once k passes h, and no factor is multiplied in only to be
    divided out.  An entry known to be 0, or to be multiplied by 0, is left 0
    with no walk and no product: at an i in gx[c:] + gy[c:], a factor of the
    last product (only y's can be a suffix sum), and at an i in ``skip``,
    where the caller's factor is 0.
    """
    if y.rank < x.rank:
        raise ValueError(f"weight_row requires rank({y}) >= rank({x})")
    digits = x.digits
    rank = x.rank
    h = common_suffix_len(x, y)
    sums = list(accumulate(reversed(digits), initial=0))
    c = sums[h] - h  # the 2s of the common suffix
    gx = g_values(x)
    shared, rest = gx[:c], gx[c:] + g_values(y)[c:]
    zeros = set(rest).union(skip)
    row = [0] * (rank + 1)
    for k, i in enumerate(sums):
        if i in zeros:
            continue
        # the walk strips the last k digits, at most the h of the common suffix
        m, s = (k, i) if k <= h else (h, sums[h])
        lead, t = _lagrange_walk(digits, rank, i, m, s)
        row[i] = lead * prod([g - i for g in shared[t:]]) ** 2 * prod([g - i for g in rest])
    return row


def clear_caches() -> None:
    """Drop the memo of f values (results are unaffected, only timings)."""
    _f_rec.cache_clear()
