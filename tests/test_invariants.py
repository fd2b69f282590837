from fractions import Fraction

import pytest

import yfpaths.invariants as invariants
from yfpaths.invariants import (
    _products_equal,
    check_base_row_sum,
    check_base_shift_identities,
    check_equal_rank_symmetry,
    check_hook_factorial,
    check_low_order_values,
    check_prefix_extension,
    check_top_value_vanishes,
    check_two_vs_one_one,
    tally,
)
from yfpaths.words import parse_word

F = Fraction


def test_products_equal_matches_fraction_arithmetic():
    values = [F(0), F(1), F(-1), F(3, 4), F(-5, 6), F(7, 120)]
    # each value as its lowest terms and as an unreduced pair with a
    # negative denominator: only the ratio may matter
    pairs = [p for v in values for p in ((v.numerator, v.denominator),
                                         (-3 * v.numerator, -3 * v.denominator))]
    for a in pairs:
        for b in pairs:
            for m in (-3, 0, 1, 2):
                for n in (-2, 0, 1, 5):
                    assert _products_equal(a, m, b, n) == (F(*a) * m == F(*b) * n)


@pytest.mark.parametrize(
    "suite, expected",
    [
        (
            check_prefix_extension,
            {
                "prefix-1 at (21, y=2, z=1)",
                "prefix-1 at (121, y=2, z=1)",
                "prefix-2 at (121, y=2, z=1)",
            },
        ),
        (
            check_equal_rank_symmetry,
            {"equal-rank symmetry at (121, 211, i=2)", "equal-rank symmetry at (211, 121, i=2)"},
        ),
    ],
)
def test_suites_flag_one_wrong_f_value(suite, expected):
    # f(121, 2, 1) is read by both suites: as x and as 1 + 21 in the prefix
    # suite, and against 211, which shares its last digit, in the symmetry one
    original = invariants.f_rows

    def f_rows(x):
        rows = original(x)
        if str(x) == "121":
            num, den = rows[1][2]
            rows[1][2] = (num + den, den)
        return rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "f_rows", f_rows)
        _, failures = tally(suite(3))
    assert set(failures) == expected


def _wrong_pair(digits, y, zs):
    # _f_pair, one too large at the word with these digits, y and each z in zs
    original = invariants._f_pair

    def _f_pair(d, y_, z):
        num, den = original(d, y_, z)
        return (num + den, den) if (d, y_) == (digits, y) and z in zs else (num, den)

    return _f_pair


def _wrong_base(bad):
    # _base_den, f_base halved at the (word, y) ``bad``
    original = invariants._base_den

    def _base_den(x, y):
        den = original(x, y)
        return 2 * den if (str(x), y) == bad else den

    return _base_den


@pytest.mark.parametrize(
    "suite, name, fault, expected",
    [
        # y = 1 has no suffix of 12, so f(12, 1, z) is 0 at every z, each
        # read once
        (check_low_order_values, "_f_pair", _wrong_pair((1, 2), 1, range(3)),
         {"y=1 nonzero at (12, z=1)", "y=1 nonzero at (12, z=2)", "trailing-2 y=1 nonzero at 12"}),
        # the chain of f(21, 0, z) strips nothing at any z, and each z is
        # checked against f_base(21, 0)
        (check_low_order_values, "_f_pair", _wrong_pair((2, 1), 0, range(3)),
         {"y=0 z-dependence at (21, z=0)", "y=0 z-dependence at (21, z=1)",
          "y=0 z-dependence at (21, z=2)"}),
        # the chain of f(221, 4, z) stops short of the leading 2: at z >= 2
        # it strips 21
        (check_top_value_vanishes, "_f_pair", _wrong_pair((2, 2, 1), 4, (2, 3)),
         {"leading-2 near-top value at (221, z=2)", "leading-2 near-top value at (221, z=3)"}),
        (check_two_vs_one_one, "_f_pair", _wrong_pair((2, 1, 1), 2, (1,)),
         {"trailing 2 vs 11 at (2, i=2)"}),
        (check_two_vs_one_one, "_base_den", _wrong_base(("12", 0)),
         {"trailing 2 vs 11 at (1, i=0)"}),
        # f_base(21, 0) is read as x, at y - 1 = 0 and at y = 0, and as 2
        # prepended to 1
        (check_base_shift_identities, "_base_den", _wrong_base(("21", 0)),
         {"append-1 at (21, y=1)", "prepend-1 at (21, y=0)", "prepend-2 at (21, y=0)",
          "prepend-2 at (1, y=0)"}),
        (check_base_row_sum, "_base_den", _wrong_base(("21", 0)), {"row sum nonzero at 21"}),
        (check_hook_factorial, "_base_den", _wrong_base(("21", 0)), {"hook-factorial at 21"}),
    ],
    ids=["low-order", "low-order-y0", "top-value", "trailing-row", "trailing-base", "base-shift", "row-sum",
         "hook"],
)
def test_suites_flag_one_wrong_entry(suite, name, fault, expected):
    # one wrong entry of the evaluator a suite reads fails exactly the checks
    # that read it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, name, fault)
        _, failures = tally(suite(3))
    assert set(failures) == expected
