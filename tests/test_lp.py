import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ugt import lp
from ugt.lp import check_solution, find_belief, solve_feasibility

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


def test_entries_must_be_int_or_fraction():
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            solve_feasibility(2, a_eq=[[F(1), bad]], b_eq=[F(1)])
        with pytest.raises(TypeError):
            solve_feasibility(1, a_eq=[[F(1)]], b_eq=[bad])
        # also in an inequality row that the presolve would drop
        with pytest.raises(TypeError):
            solve_feasibility(1, a_ub=[[bad]], b_ub=[F(0)])
    assert solve_feasibility(2, a_eq=[[1, F(1, 2)]], b_eq=[1]) is not None
    # a row whose length is not the variable count
    with pytest.raises(ValueError):
        solve_feasibility(2, a_eq=[[F(1)]], b_eq=[F(1)])
    with pytest.raises(ValueError):
        solve_feasibility(1, a_ub=[[F(1), F(1)]], b_ub=[F(0)])


def _entry(rng):
    d = rng.choice((1, 1, 2, 3, 7, 10 ** 30))
    if d == 1 and rng.random() < 0.5:
        return rng.randint(-3, 3)
    return F(rng.randint(-3 * d, 3 * d), d)


def _random_system(rng):
    """A small system of int and Fraction entries, some with denominator
    10**30: random right-hand sides, or those of a nonnegative point (often
    degenerate), with redundant equalities appended."""
    n = rng.randint(1, 5)
    a_eq = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        a_eq.insert(0, [1] * n)
    a_ub = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        x0 = [rng.choice((0, 0, F(1, 2), 1, _entry(rng) ** 2))
              for _ in range(n)]
        b_eq = [sum(a * v for a, v in zip(row, x0)) for row in a_eq]
        b_ub = [sum(a * v for a, v in zip(row, x0))
                + rng.choice((0, 0, F(1, 3))) for row in a_ub]
    else:
        b_eq = [_entry(rng) for _ in a_eq]
        b_ub = [_entry(rng) for _ in a_ub]
    for _ in range(rng.randint(0, 2) if a_eq else 0):
        k = rng.randrange(len(a_eq))
        t = rng.choice((F(-2, 3), 2, F(1, 10 ** 30)))
        a_eq.append([t * v for v in a_eq[k]])
        b_eq.append(t * b_eq[k])
    return n, a_eq, b_eq, a_ub, b_ub


def test_witnesses_are_pinned():
    # the witnesses of the Fraction-tableau simplex that the integer one
    # replaced; any change of pivot shows as a change of some witness
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(500):
        x = solve_feasibility(*_random_system(rng))
        h.update(b"-;" if x is None else (",".join(
            "%d/%d" % (v.numerator, v.denominator) for v in x) + ";").encode())
    assert h.hexdigest() == ("0c569b3391c235fba7886785bd3dc1cf"
                             "427a6aa7c72376b9c90b044b3fc46d84")
    # ties in the ratio test rarely move the witness; in these two the
    # leaving row of smallest basis index decides it
    assert solve_feasibility(2, a_ub=[[2, -1], [-1, -1], [-1, 1]],
                             b_ub=[-1, -1, 2]) == [0, 2]
    assert solve_feasibility(3, [[1, 1, 1], [1, 0, 1]], [1, 1],
                             [[-1, 1, 0]], [2]) == [1, 0, 0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_systems_match_witness_check(seed):
    rng = random.Random(seed)
    n, a_eq, b_eq, a_ub, b_ub = _random_system(rng)
    x = solve_feasibility(n, a_eq, b_eq, a_ub, b_ub)
    # the same system with rows the presolve drops appended: repeats of its
    # inequality rows, and rows with no positive coefficient and b >= 0
    repeats = [k for k in range(len(a_ub)) if rng.random() < 0.5]
    more_a = a_ub + [a_ub[k] for k in repeats]
    more_b = b_ub + [b_ub[k] for k in repeats]
    for _ in range(rng.randint(1, 3)):
        more_a.append([-abs(_entry(rng)) for _ in range(n)])
        more_b.append(abs(_entry(rng)))
    y = solve_feasibility(n, a_eq, b_eq, more_a, more_b)
    assert y == x
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


def _belief_by_simplex(rows, n):
    return solve_feasibility(n, [[1] * n], [1], rows, [0] * len(rows))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6))))
def test_find_belief_matches_the_simplex(case):
    n, rows = case
    x = find_belief(rows, n)
    assert x == _belief_by_simplex(rows, n)
    if x is not None:
        assert all(type(v) is F for v in x)
        assert check_solution(x, n, [[1] * n], [1], rows, [0] * len(rows))


def test_find_belief_pure_cases(monkeypatch):
    def simplex(*system):
        pytest.fail("a pure test decides %r" % (system,))

    monkeypatch.setattr(lp, "solve_feasibility", simplex)
    # one column: the point belief, unless a row is positive there
    assert find_belief([], 1) == [1]
    assert find_belief([[0], [-2]], 1) == [1]
    assert find_belief([[2]], 1) is None
    # a row positive at every column rules out every belief
    assert find_belief([[-1, 0, 0], [1, 2, 3]], 3) is None
    monkeypatch.undo()
    # no pure belief solves these, but mixed beliefs on the first two
    # columns do; the first row is nonnegative at every column and positive
    # at one only, so a weak (>=) dominance test would answer None
    rows = [[0, 0, 5], [1, -2, 0], [-2, 1, 0]]
    x = find_belief(rows, 3)
    assert x == _belief_by_simplex(rows, 3) and x[2] == 0 < x[0] < 1
    assert not any(check_solution(p, 3, [[1] * 3], [1], rows, [0] * 3)
                   for p in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
