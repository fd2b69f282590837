"""Exact identities satisfied by the weight functions, run as bulk checks.

Each checker sweeps every word up to a digit-count bound, evaluates both
sides of one identity with exact arithmetic, and yields one outcome per
check: True, or a label describing the failure.  :func:`tally` counts them.
They back the `verify` command and the acceptance suite; an empty failure
list is the expected outcome on a correct build.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .functions import f_base, f_rec, g_product, g_values
from .words import EPSILON, Word, common_suffix_len

Outcomes = Iterator[bool | str]  # each check: True, or its failure label


def _products_equal(a: Fraction, m: int, b: Fraction, n: int) -> bool:
    """a * m == b * n, by cross-multiplying: exact, without the gcd that
    building either product as a Fraction costs."""
    return a.numerator * m * b.denominator == b.numerator * n * a.denominator


def words_up_to_digits(max_digits: int) -> Iterator[Word]:
    """Every word with at most ``max_digits`` digits, the empty word first."""
    yield EPSILON
    for n in range(1, max_digits + 1):
        for digits in product((1, 2), repeat=n):
            yield Word(digits)


def check_base_shift_identities(max_digits: int) -> Outcomes:
    """Appending or prepending a digit rescales the z = 0 values linearly."""
    for x in words_up_to_digits(max_digits):
        x1 = Word(x.digits + (1,))
        for y in range(1, x1.rank + 1):
            holds = _products_equal(f_base(x1, y), -y, f_base(x, y - 1), 1)
            yield holds or f"append-1 at ({x}, y={y})"
        x2 = Word(x.digits + (2,))
        x11 = Word(x.digits + (1, 1))
        for y in range(x2.rank + 1):
            holds = _products_equal(f_base(x11, y), 1 - y, f_base(x2, y), 1)
            yield holds or f"append-2 at ({x}, y={y})"
        for a0 in (1, 2):
            ax = Word((a0,) + x.digits)
            for y in range(x.rank + 1):
                holds = _products_equal(f_base(ax, y), ax.rank - y, f_base(x, y), 1)
                yield holds or f"prepend-{a0} at ({x}, y={y})"


def check_low_order_values(max_digits: int) -> Outcomes:
    """f(x, 0, z) does not depend on z; f(x, 1, z) = 0 for z >= 1; and
    f(x, 1, 0) = 0 when x ends in 2."""
    for x in words_up_to_digits(max_digits):
        base = f_rec(x, 0, 0)
        for z in range(x.digit_count + 1):
            yield f_rec(x, 0, z) == base or f"y=0 z-dependence at ({x}, z={z})"
            if x.rank >= 1 and z >= 1:
                yield f_rec(x, 1, z) == 0 or f"y=1 nonzero at ({x}, z={z})"
        if x.digits and x.digits[-1] == 2:
            yield f_rec(x, 1, 0) == 0 or f"trailing-2 y=1 nonzero at {x}"


def check_two_vs_one_one(max_digits: int) -> Outcomes:
    """A trailing 2 at z = 0 evaluates like a trailing 11 at z = 1."""
    for x in words_up_to_digits(max_digits):
        x2 = Word(x.digits + (2,))
        x11 = Word(x.digits + (1, 1))
        for i in range(x2.rank + 1):
            yield f_base(x2, i) == f_rec(x11, i, 1) or f"trailing 2 vs 11 at ({x}, i={i})"


def check_base_row_sum(max_digits: int) -> Outcomes:
    """The z = 0 values of a nonempty word sum to zero over y."""
    for x in words_up_to_digits(max_digits):
        if x == EPSILON:
            continue
        yield sum(f_base(x, i) for i in range(x.rank + 1)) == 0 or f"row sum nonzero at {x}"


def check_prefix_extension(max_digits: int) -> Outcomes:
    """Prepending a digit rescales f at every z, not just z = 0."""
    for x in words_up_to_digits(max_digits):
        extended = [(a0, Word((a0,) + x.digits)) for a0 in (1, 2)]
        rank = x.rank
        for y in range(rank + 1):
            for z in range(x.digit_count + 1):
                fx = f_rec(x, y, z)
                for a0, ax in extended:
                    # rank(ax) - y
                    holds = _products_equal(fx, 1, f_rec(ax, y, z), rank + a0 - y)
                    yield holds or f"prefix-{a0} at ({x}, y={y}, z={z})"


def check_top_value_vanishes(max_digits: int) -> Outcomes:
    """For a word starting with 2, f one below the top y vanishes for every z."""
    for x in words_up_to_digits(max_digits):
        w = Word((2,) + x.digits)
        for z in range(w.digit_count + 1):
            holds = f_rec(w, x.rank + 1, z) == 0
            yield holds or f"leading-2 near-top value at ({w}, z={z})"


def check_equal_rank_symmetry(max_digits: int) -> Outcomes:
    """For equal-rank x, y with z their common suffix length,
    f(x, i, z) * prod(g(y) - i) is symmetric in x and y."""
    by_rank: dict[int, list[Word]] = {}
    for w in words_up_to_digits(max_digits):
        by_rank.setdefault(w.rank, []).append(w)
    for rank, words in by_rank.items():
        # each word's f row at z and g products, evaluated once per rank
        # rather than once per pair
        g_rows = {w: [g_product(w, i) for i in range(rank + 1)] for w in words}
        f_rows: dict[tuple[Word, int], list[Fraction]] = {}
        for x in words:
            for y in words:
                z = common_suffix_len(x, y)
                for w in (x, y):
                    if (w, z) not in f_rows:
                        f_rows[w, z] = [f_rec(w, i, z) for i in range(rank + 1)]
                columns = zip(f_rows[x, z], f_rows[y, z], g_rows[x], g_rows[y])
                for i, (fx, fy, gx, gy) in enumerate(columns):
                    holds = _products_equal(fx, gy, fy, gx)
                    yield holds or f"equal-rank symmetry at ({x}, {y}, i={i})"


def check_hook_factorial(max_digits: int) -> Outcomes:
    """The product of the g values times the suffix partial-sum product is rank!."""
    for x in words_up_to_digits(max_digits):
        # f_base(x, 0) is the reciprocal of the right-to-left partial-sum product
        holds = prod(g_values(x)) == factorial(x.rank) * f_base(x, 0)
        yield holds or f"hook-factorial at {x}"


def tally(outcomes: Iterable[bool | str]) -> tuple[int, list[str]]:
    """(number of checks, failure labels) of one suite's outcomes."""
    checks = 0
    failures = []
    for outcome in outcomes:
        checks += 1
        if outcome is not True:
            failures.append(outcome)
    return checks, failures


INVARIANT_SUITES: list[tuple[str, Callable[[int], Outcomes]]] = [
    ("base-shift identities", check_base_shift_identities),
    ("low-order values", check_low_order_values),
    ("trailing 2 vs 11", check_two_vs_one_one),
    ("base row sum", check_base_row_sum),
    ("prefix extension", check_prefix_extension),
    ("top value vanishes", check_top_value_vanishes),
    ("equal-rank symmetry", check_equal_rank_symmetry),
    ("hook factorial", check_hook_factorial),
]


def run_invariant_suites(
    max_digits: int, suites: list[tuple[str, Callable[[int], Outcomes]]] = INVARIANT_SUITES
) -> list[tuple[str, int, list[str]]]:
    """(name, checks, failures) of each suite, by default all of them."""
    return [(name, *tally(fn(max_digits))) for name, fn in suites]
