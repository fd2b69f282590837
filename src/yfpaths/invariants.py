"""Exact identities satisfied by the weight functions, run as bulk checks.

Each checker sweeps every word up to a digit-count bound, evaluates both
sides of one identity with exact arithmetic, and yields one outcome per
check: True, or a label describing the failure.  :func:`tally` counts them.
f is read as integer (num, den) pairs: every entry at every z
(``f_rows``, one walk per suffix sum) where a suite reads a word's whole
table, one entry (``_f_pair``, the evaluator behind ``f_rec``) where it
reads one, and f_base as the product it is the reciprocal of
(``_base_den``).  So each check is integer arithmetic, mostly one
cross-multiplication, and no ``Fraction`` is built.  A suite that reads a
word's values in more than one role evaluates them once.  The two f
evaluators are written apart, but the suites that read ``f_rows`` (prefix
extension, equal-rank symmetry) compare it only with itself, over chains
that strip the same digits, so a fault of its walk that every word shares
passes them; the tests compare the rows with ``_f_pair``.
They back the `verify` command and the acceptance suite; an empty failure
list is the expected outcome on a correct build.
"""

from __future__ import annotations

from itertools import product
from math import factorial, prod
from typing import Callable, Iterable, Iterator

from .functions import _base_den, _f_pair, f_rows, g_product, g_values
from .words import EPSILON, Word, common_suffix_len

Outcomes = Iterator[bool | str]  # each check: True, or its failure label
Pair = tuple[int, int]  # a rational as (num, den), den nonzero


def _products_equal(a: Pair, m: int, b: Pair, n: int) -> bool:
    """a * m == b * n, by cross-multiplying: exact, with no Fraction built."""
    return a[0] * m * b[1] == b[0] * n * a[1]


def _base_row(x: Word) -> list[Pair]:
    """[f_base(x, y) as a pair for y in 0..rank(x)]."""
    dens = [_base_den(x, y) for y in range(x.rank + 1)]
    return [(1, den) if den else (0, 1) for den in dens]


def words_up_to_digits(max_digits: int) -> Iterator[Word]:
    """Every word with at most ``max_digits`` digits, the empty word first."""
    yield EPSILON
    for n in range(1, max_digits + 1):
        for digits in product((1, 2), repeat=n):
            yield Word(digits)


def check_base_shift_identities(max_digits: int) -> Outcomes:
    """Appending or prepending a digit rescales the z = 0 values linearly."""
    rows: dict[tuple[int, ...], list[Pair]] = {}

    def row(digits: tuple[int, ...]) -> list[Pair]:
        # a word is read as x, as x + 1, as x + 2 and as a + x
        if digits not in rows:
            rows[digits] = _base_row(Word(digits))
        return rows[digits]

    for x in words_up_to_digits(max_digits):
        fx, f1 = row(x.digits), row(x.digits + (1,))
        for y in range(1, x.rank + 2):
            holds = _products_equal(f1[y], -y, fx[y - 1], 1)
            yield holds or f"append-1 at ({x}, y={y})"
        f2, f11 = row(x.digits + (2,)), row(x.digits + (1, 1))
        for y in range(x.rank + 3):
            holds = _products_equal(f11[y], 1 - y, f2[y], 1)
            yield holds or f"append-2 at ({x}, y={y})"
        for a0 in (1, 2):
            fa = row((a0,) + x.digits)
            for y in range(x.rank + 1):
                # rank(ax) - y
                holds = _products_equal(fa[y], x.rank + a0 - y, fx[y], 1)
                yield holds or f"prepend-{a0} at ({x}, y={y})"


def check_low_order_values(max_digits: int) -> Outcomes:
    """f(x, 0, z) does not depend on z: it is f_base(x, 0) at every z;
    f(x, 1, z) = 0 for z >= 1; and f(x, 1, 0) = 0 when x ends in 2."""
    for x in words_up_to_digits(max_digits):
        digits = x.digits
        base = (1, _base_den(x, 0))  # f_base(x, 0) is never 0
        for z in range(x.digit_count + 1):
            holds = _products_equal(_f_pair(digits, 0, z), 1, base, 1)
            yield holds or f"y=0 z-dependence at ({x}, z={z})"
            if x.rank >= 1 and z >= 1:
                yield _f_pair(digits, 1, z)[0] == 0 or f"y=1 nonzero at ({x}, z={z})"
        if digits and digits[-1] == 2:
            yield _f_pair(digits, 1, 0)[0] == 0 or f"trailing-2 y=1 nonzero at {x}"


def check_two_vs_one_one(max_digits: int) -> Outcomes:
    """A trailing 2 at z = 0 evaluates like a trailing 11 at z = 1."""
    for x in words_up_to_digits(max_digits):
        x11 = x.digits + (1, 1)
        for i, f2 in enumerate(_base_row(Word(x.digits + (2,)))):
            holds = _products_equal(f2, 1, _f_pair(x11, i, 1), 1)
            yield holds or f"trailing 2 vs 11 at ({x}, i={i})"


def check_base_row_sum(max_digits: int) -> Outcomes:
    """The z = 0 values of a nonempty word sum to zero over y: rank! times
    each is an integer, so the check sums rank!/den, each divide exact."""
    for x in words_up_to_digits(max_digits):
        if x == EPSILON:
            continue
        scale = factorial(x.rank)
        total, exact = 0, True
        for i in range(x.rank + 1):
            den = _base_den(x, i)
            if den:
                q, r = divmod(scale, den)
                total += q
                exact = exact and not r
        yield (exact and total == 0) or f"row sum nonzero at {x}"


def check_prefix_extension(max_digits: int) -> Outcomes:
    """Prepending a digit rescales f at every z, not just z = 0."""
    rows: dict[tuple[int, ...], list[list[Pair]]] = {}

    def rows_of(digits: tuple[int, ...]) -> list[list[Pair]]:
        # a word is read both as x and as the extension of its own suffix
        if digits not in rows:
            rows[digits] = f_rows(Word(digits))
        return rows[digits]

    for x in words_up_to_digits(max_digits):
        x_rows = rows_of(x.digits)
        extended = [(a0, rows_of((a0,) + x.digits)) for a0 in (1, 2)]
        rank = x.rank
        for y in range(rank + 1):
            for z in range(x.digit_count + 1):
                fx = x_rows[z][y]
                for a0, ax_rows in extended:
                    # rank(ax) - y
                    holds = _products_equal(fx, 1, ax_rows[z][y], rank + a0 - y)
                    yield holds or f"prefix-{a0} at ({x}, y={y}, z={z})"


def check_top_value_vanishes(max_digits: int) -> Outcomes:
    """For a word starting with 2, f one below the top y vanishes for every z."""
    for x in words_up_to_digits(max_digits):
        w = Word((2,) + x.digits)
        for z in range(w.digit_count + 1):
            holds = _f_pair(w.digits, x.rank + 1, z)[0] == 0
            yield holds or f"leading-2 near-top value at ({w}, z={z})"


def check_equal_rank_symmetry(max_digits: int) -> Outcomes:
    """For equal-rank x, y with z their common suffix length,
    f(x, i, z) * prod(g(y) - i) is symmetric in x and y."""
    by_rank: dict[int, list[Word]] = {}
    for w in words_up_to_digits(max_digits):
        by_rank.setdefault(w.rank, []).append(w)
    for rank, words in by_rank.items():
        # each word's f rows and g products, evaluated once per rank rather
        # than once per pair
        rows = [(w, f_rows(w), [g_product(w, i) for i in range(rank + 1)]) for w in words]
        for x, x_rows, gx_row in rows:
            for y, y_rows, gy_row in rows:
                z = common_suffix_len(x, y)
                columns = zip(x_rows[z], y_rows[z], gx_row, gy_row)
                for i, (fx, fy, gx, gy) in enumerate(columns):
                    holds = _products_equal(fx, gy, fy, gx)
                    yield holds or f"equal-rank symmetry at ({x}, {y}, i={i})"


def check_hook_factorial(max_digits: int) -> Outcomes:
    """The product of the g values times the suffix partial-sum product is rank!."""
    for x in words_up_to_digits(max_digits):
        # f_base(x, 0) is the reciprocal of the right-to-left partial-sum product
        holds = prod(g_values(x)) * _base_den(x, 0) == factorial(x.rank)
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
