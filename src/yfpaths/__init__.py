"""Exact path counting in the Young-Fibonacci graph.

The graph's vertices are words over {1, 2} graded by digit sum; edges go one
rank up or down.  This package evaluates closed and recursive formulas for
three path-counting problems (descending paths, fixed rank profile, fixed
number of up-steps) in exact arithmetic, and ships an independent
brute-force oracle so every formula can be checked against direct
enumeration.
"""

from .counts import count_down, count_s_paths, count_trajectory, xi, xi_zero
from .functions import InconsistencyError, f_explicit, f_rec, g_values
from .trajectories import Trajectory, parse_trajectory
from .words import EPSILON, Word, level, parse_word, predecessors, successors

# The documented surface, in the order the README lists it; the rest of the
# package is reached through its submodules.
__all__ = [
    "Word",
    "EPSILON",
    "parse_word",
    "level",
    "predecessors",
    "successors",
    "Trajectory",
    "parse_trajectory",
    "f_rec",
    "f_explicit",
    "g_values",
    "InconsistencyError",
    "count_down",
    "count_trajectory",
    "count_s_paths",
    "xi",
    "xi_zero",
]
