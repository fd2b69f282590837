from fractions import Fraction

import pytest

import yfpaths.invariants as invariants
from yfpaths.invariants import (
    _products_equal,
    check_equal_rank_symmetry,
    check_prefix_extension,
    tally,
)
from yfpaths.words import parse_word

F = Fraction


def test_products_equal_matches_fraction_arithmetic():
    values = [F(0), F(1), F(-1), F(3, 4), F(-5, 6), F(7, 120)]
    for a in values:
        for b in values:
            for m in (-3, 0, 1, 2):
                for n in (-2, 0, 1, 5):
                    assert _products_equal(a, m, b, n) == (a * m == b * n)


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
    bad = (parse_word("121"), 2, 1)
    original = invariants.f_rec

    def f_rec(x, y, z):
        value = original(x, y, z)
        return value + 1 if (x, y, z) == bad else value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "f_rec", f_rec)
        _, failures = tally(suite(3))
    assert set(failures) == expected
