import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ugt.lp import check_solution, solve_feasibility

F = Fraction


def test_trivial_empty_system():
    assert solve_feasibility(3) == [0, 0, 0]


def test_simple_equality():
    x = solve_feasibility(2, a_eq=[[F(1), F(1)]], b_eq=[F(1)])
    assert x is not None
    assert x[0] + x[1] == 1


def test_distribution_with_dominance_cut():
    # w over 2 columns, w0 - w1 <= -1/2 forces w1 >= 3/4
    x = solve_feasibility(2,
                          a_eq=[[F(1), F(1)]], b_eq=[F(1)],
                          a_ub=[[F(1), F(-1)]], b_ub=[F(-1, 2)])
    assert x is not None
    assert x[1] >= F(3, 4)
    assert check_solution(x, 2, a_eq=[[F(1), F(1)]], b_eq=[F(1)],
                          a_ub=[[F(1), F(-1)]], b_ub=[F(-1, 2)])


def test_infeasible_equalities():
    assert solve_feasibility(1, a_eq=[[F(1)], [F(1)]], b_eq=[F(1), F(2)]) is None


def test_infeasible_by_sign():
    # x >= 0 and x <= -1
    assert solve_feasibility(1, a_ub=[[F(1)]], b_ub=[F(-1)]) is None


def test_strict_mixture_dominance_is_infeasible():
    # belief w over 3 opposing columns cannot make an action optimal when a
    # half-half mixture of two others beats it pointwise: payoff diffs all < 0
    diffs = [[F(-1), F(-2), F(-1)]]
    # require diff . w >= 0  <=>  -diff . w <= 0
    x = solve_feasibility(3,
                          a_eq=[[F(1)] * 3], b_eq=[F(1)],
                          a_ub=[[-d for d in diffs[0]]], b_ub=[F(0)])
    assert x is None


def test_degenerate_redundant_rows():
    x = solve_feasibility(2,
                          a_eq=[[F(1), F(1)], [F(2), F(2)]],
                          b_eq=[F(1), F(2)])
    assert x is not None
    assert x[0] + x[1] == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_systems_match_witness_check(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a_eq = [[F(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 2))]
    b_eq = [F(rng.randint(-3, 3)) for _ in a_eq]
    a_ub = [[F(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(rng.randint(0, 3))]
    b_ub = [F(rng.randint(-3, 3)) for _ in a_ub]
    x = solve_feasibility(n, a_eq, b_eq, a_ub, b_ub)
    # the same system with rows the presolve drops appended: repeats of its
    # inequality rows, and rows with no positive coefficient and b >= 0
    repeats = [k for k in range(len(a_ub)) if rng.random() < 0.5]
    more_a = a_ub + [a_ub[k] for k in repeats]
    more_b = b_ub + [b_ub[k] for k in repeats]
    for _ in range(rng.randint(1, 3)):
        more_a.append([F(-rng.randint(0, 3)) for _ in range(n)])
        more_b.append(F(rng.randint(0, 3)))
    y = solve_feasibility(n, a_eq, b_eq, more_a, more_b)
    assert (y is None) == (x is None)
    if y is not None:
        assert check_solution(y, n, a_eq, b_eq, more_a, more_b)
    if x is not None:
        assert check_solution(x, n, a_eq, b_eq, a_ub, b_ub)
    else:
        # cross-check on a coarse grid of nonnegative rational points
        grid = [F(k, 2) for k in range(0, 9)]
        def ok(point):
            return check_solution(point, n, a_eq, b_eq, a_ub, b_ub)
        if n <= 2:
            pts = [[a] for a in grid] if n == 1 else \
                  [[a, b] for a in grid for b in grid]
            assert not any(ok(p) for p in pts)
