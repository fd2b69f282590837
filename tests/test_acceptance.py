"""Acceptance suite: every formula is checked exactly, at the stated scale.

Each criterion prints one pass/fail line (visible with ``pytest -s`` or in
the per-test output) and enforces its wall-clock budget.  All comparisons
are exact equalities of integers or rationals; there are no tolerances.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, prod

import pytest

from reference import (
    concat,
    enumerate_good_sequences,
    f_explicit_terms,
    reverse,
    suffix_sum,
    trajectory_from_sequence,
    up_multiset,
)
from yfpaths.counts import (
    count_down,
    count_down_from_top,
    count_s_paths,
    count_s_paths_from_top,
    count_trajectory,
    odd_double_factorial,
    xi,
    xi_zero,
)
from yfpaths.functions import InconsistencyError, f_base, f_explicit, f_rec, g_values
from yfpaths.invariants import run_invariant_suites, words_up_to_digits
from yfpaths.oracle import (
    brute_count_down,
    brute_xi,
    s_path_distribution,
    trajectory_distributions,
)
from yfpaths.trajectories import enumerate_trajectories
from yfpaths.words import (
    EPSILON,
    level,
    parse_word,
    predecessors,
    successors,
)

from test_functions import BASE_21221, TABLES


@contextmanager
def criterion(number, name, budget):
    """Print exactly one PASS/FAIL line and enforce the wall-clock budget."""
    started = time.perf_counter()
    tally = {"checks": 0}
    try:
        yield tally
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({name}): PASS ({tally['checks']} checks, {elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_f_table_reproduction():
    with criterion(1, "f-table reproduction", budget=1.0) as tally:
        for text, table in TABLES.items():
            x = parse_word(text)
            for z, row in enumerate(table):
                for y, expected in enumerate(row):
                    assert f_rec(x, y, z) == expected, f"f({text}, {y}, {z})"
                    tally["checks"] += 1
        x = parse_word("21221")
        for y, expected in BASE_21221.items():
            assert f_rec(x, y, 0) == expected, f"f(21221, {y}, 0)"
            tally["checks"] += 1
        assert f_rec(x, 5, 0) == Fraction(-1, 120)


def test_criterion_02_explicit_formula_equivalence():
    with criterion(2, "explicit = recursive", budget=10.0) as tally:
        for x in words_up_to_digits(8):
            gs = g_values(x)
            for y in range(x.rank + 1):
                for z in range(x.digit_count + 1):
                    terms = f_explicit_terms(x, y, z)
                    total = sum(terms, Fraction(0))
                    assert total == f_rec(x, y, z) == f_explicit(x, y, z), f"mismatch at ({x}, {y}, {z})"
                    tally["checks"] += 1
                    if y >= 1:
                        p = suffix_sum(x, z)
                        # closed-form size: the 1 + min(p, y-2) bound holds
                        # off the boundary; at p = y - 1 one extra closing
                        # summand is required for exactness (see below)
                        assert len(terms) <= 1 + min(p, y - 1)
                        if p != y - 1:
                            assert len(terms) <= 1 + min(p, y - 2)
                        # f_explicit's identity, summand by summand: summand
                        # i is f_base(x, y) (-1)^i y (y-1) ... (y-i+1) over
                        # the (y - g)^2 of the g values up to min(i + 1, p)
                        base, fall = f_base(x, y), 1
                        for i, term in enumerate(terms):
                            den = prod((y - g) ** 2 for g in gs if g <= min(i + 1, p))
                            assert term == base * fall / den, f"summand {i} at ({x}, {y}, {z})"
                            fall *= i - y


def test_criterion_02b_boundary_term_is_load_bearing():
    # at p(x, z) = y - 1 the closing summand cannot be dropped
    x = parse_word("11")
    terms = f_explicit_terms(x, 2, 1)
    assert len(terms) == 2
    assert sum(terms) == f_rec(x, 2, 1) == Fraction(-1, 2)
    assert terms[0] != f_rec(x, 2, 1)


def test_criterion_03_down_paths_vs_oracle():
    with criterion(3, "down-paths vs oracle", budget=60.0) as tally:
        levels = [level(n) for n in range(10)]
        for ry in range(10):
            for y in levels[ry]:
                for rx in range(ry + 1):
                    for x in levels[rx]:
                        assert count_down(x, y) == brute_count_down(x, y), f"({x}, {y})"
                        tally["checks"] += 1


def test_criterion_04_down_closed_form():
    with criterion(4, "down-path closed form", budget=5.0) as tally:
        for n in range(13):
            for x in level(n):
                assert count_down(EPSILON, x) == count_down_from_top(x), f"({x})"
                tally["checks"] += 1


def test_criterion_05_trajectory_paths_vs_oracle():
    with criterion(5, "trajectory paths vs oracle", budget=60.0) as tally:
        for ry in range(6):
            for y in level(ry):
                for S in range(5):
                    for rx in range(ry + 1):
                        if ry - rx + 2 * S > 8:
                            continue
                        ts = enumerate_trajectories(rx, ry, S)
                        for t, dist in trajectory_distributions(y, ts):
                            for x in level(rx):
                                assert count_trajectory(x, y, t) == dist.get(x.digits, 0), (
                                    f"({x}, {y}, {t})"
                                )
                                tally["checks"] += 1


def test_criterion_06_xi_chain():
    with criterion(6, "alternating up-value sums", budget=10.0) as tally:
        # closed chain vs direct enumeration; i covers the full shift range,
        # which adjudicates the cutoff min(floor(X/2), S) including even X
        for Y in range(7):
            for X in range(Y + 1):
                for S in range(5):
                    for i in range(X + 1):
                        assert xi(X, Y, S, i) == brute_xi(X, Y, S, i), (X, Y, S, i)
                        tally["checks"] += 1
        for Y in range(11):
            for S in range(7):
                assert xi_zero(Y, S) == comb(Y + 2 * S, Y) * odd_double_factorial(
                    2 * S - 1
                )
                tally["checks"] += 1
        for Y in range(7):
            for X in range(2, Y + 1):
                for S in range(1, 5):
                    assert xi(X, Y, S) == xi(X - 1, Y, S) - (X - 1) * xi(
                        X - 2, Y, S - 1
                    )
                    tally["checks"] += 1
        for Y in range(1, 7):
            for S in range(1, 5):
                assert xi_zero(Y, S) == xi_zero(Y - 1, S) + (Y + 1) * xi_zero(
                    Y + 1, S - 1
                )
                tally["checks"] += 1
        for S in range(1, 5):
            assert xi_zero(0, S) == xi_zero(1, S - 1)
            tally["checks"] += 1


def test_criterion_07_s_paths_vs_oracle():
    with criterion(7, "s-paths vs oracle", budget=120.0) as tally:
        for ry in range(6):
            for y in level(ry):
                for rx in range(ry + 1):
                    for S in range(4):
                        dist = s_path_distribution(y, rx, S)
                        for x in level(rx):
                            assert count_s_paths(x, y, S) == dist.get(x.digits, 0), (x, y, S)
                            tally["checks"] += 1
        for n in range(7):
            for x in level(n):
                for S in range(5):
                    closed = (
                        comb(x.rank + 2 * S, x.rank)
                        * odd_double_factorial(2 * S - 1)
                        * count_down_from_top(x)
                    )
                    assert count_s_paths_from_top(x, S) == closed
                    assert count_s_paths(EPSILON, x, S) == closed, (x, S)
                    tally["checks"] += 2


def test_criterion_08_identity_suite():
    with criterion(8, "identity suite", budget=30.0) as tally:
        results = run_invariant_suites(7)
        tally["checks"] = sum(c for _, c, _ in results)
        for name, _, failures in results:
            assert not failures, f"{name}: {failures[:5]}"


def test_criterion_09_structural_suite():
    with criterion(9, "structural suite", budget=30.0) as tally:
        fib = [0, 1]
        while len(fib) < 23:
            fib.append(fib[-1] + fib[-2])
        for n in range(21):
            assert len(level(n)) == fib[n + 1]
            tally["checks"] += 1
        two = parse_word("2")
        for n in range(11):
            for w in level(n):
                assert len(successors(w)) == len(predecessors(w)) + 1
                assert successors(w) == predecessors(concat(two, w))
                tally["checks"] += 2
        for Y in range(6):
            for X in range(Y + 1):
                for S in range(5):
                    lams = enumerate_good_sequences(X, Y, S)
                    trajs = enumerate_trajectories(X, Y, S)
                    assert len(lams) == len(trajs)
                    assert sorted(t.up_values for t in trajs) == sorted(lams)
                    for lam in lams:
                        assert trajectory_from_sequence(X, Y, S, lam).up_values == lam
                        tally["checks"] += 1
                    tally["checks"] += 1
        for X in range(6):
            for S in range(6):
                if 2 * S > 10:
                    continue
                for t in enumerate_trajectories(X, X, S):
                    assert up_multiset(reverse(t)) == up_multiset(t)
                    tally["checks"] += 1


def test_criterion_10_integrality_guards():
    with criterion(10, "integrality guards", budget=5.0) as tally:
        # the guards sit inside every count operation (criteria 3-7 went
        # through them); here the mechanism itself is exercised
        from yfpaths.counts import _as_count

        with pytest.raises(InconsistencyError):
            _as_count(Fraction(1, 3), "probe")
        with pytest.raises(InconsistencyError):
            _as_count(Fraction(-2), "probe")
        for value in (0, 1, 45):
            assert _as_count(Fraction(value), "probe") == value
        for expr in (
            count_down(EPSILON, parse_word("2221")),
            count_trajectory(
                EPSILON, EPSILON, trajectory_from_sequence(0, 0, 2, (1, 1))
            ),
            count_s_paths(parse_word("11"), parse_word("212"), 2),
        ):
            assert isinstance(expr, int) and expr >= 0
        tally["checks"] = 8
