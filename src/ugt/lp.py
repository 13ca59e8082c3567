"""Exact rational linear feasibility via phase-1 simplex.

Decides whether {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} is nonempty and
returns a witness.  Entries are int or Fraction; anything else (a float, a
string) raises TypeError.  Bland's rule guarantees termination, and the
problems here are tiny, so the tableau is dense.  It holds integers only
(integer-preserving elimination, Edmonds 1967, Bareiss 1968): all rows are
scaled by the lcm of the entries' denominators, slack and artificial columns
get coefficient 1, and the rational tableau is the integer one over d, the
current basis determinant in absolute value.  A pivot on p maps each other
row, the objective's too, to (p*row - row[c]*pivot_row) // d, which divides
exactly, then sets d to p.  One scale for all rows keeps the phase-1
objective a positive multiple of the rational one, and every sign and ratio
is the rational tableau's, so pivots and witnesses match a Fraction simplex.

``find_belief`` decides the belief problem of EFR and the SCE checks by
pure tests first (a row positive at every column, the pure half of Pearce's
dominance lemma, 1984; then a single column) and by the simplex only after.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Row = Sequence[Fraction]
ZERO = Fraction(0)


def solve_feasibility(n: int,
                      a_eq: Sequence[Row] = (), b_eq: Sequence = (),
                      a_ub: Sequence[Row] = (), b_ub: Sequence = ()
                      ) -> Optional[list[Fraction]]:
    """A nonnegative solution of the system, or None when infeasible;
    ValueError for a row whose length is not n, TypeError for an entry not
    of type int or Fraction.  Inequality rows that every x >= 0 satisfies
    (no positive coefficient, b >= 0) and repeated ones are dropped first;
    this is exact, as a witness of the remaining rows satisfies them.
    """
    eqs = list(zip(a_eq, b_eq))
    ubs = list(zip(a_ub, b_ub))
    for k, (row, _) in enumerate(eqs + ubs):
        if len(row) != n:
            raise ValueError("row %d has length %d, expected %d"
                             % (k, len(row), n))
    flat = [v for row, b in eqs + ubs for v in (*row, b)]
    if not {type(v) for v in flat} <= {int, Fraction}:
        raise TypeError("entries must be of type int or Fraction")
    # every row and its right-hand side as integers over one denominator
    den = lcm(*(v.denominator for v in flat))
    ints = [v.numerator * (den // v.denominator) for v in flat]
    rows = [ints[k:k + n + 1] for k in range(0, len(ints), n + 1)]
    # inequalities insertion-ordered and duplicate-free
    kept = dict.fromkeys(map(tuple, rows[len(eqs):]))
    ineqs = [r for r in kept if r[-1] < 0 or any(v > 0 for v in r[:-1])]
    system = rows[:len(eqs)] + ineqs
    m = len(system)
    if m == 0:
        return [ZERO] * n
    cols = n + len(ineqs)  # then the artificials, then the right-hand side
    total = cols + m
    tableau = []
    for k, r in enumerate(system):
        sign = -1 if r[-1] < 0 else 1
        full = [sign * v for v in r[:-1]] + [0] * (total - n) + [sign * r[-1]]
        if k >= len(eqs):
            full[n + k - len(eqs)] = sign
        full[cols + k] = 1
        tableau.append(full)
    # phase-1 objective: minimize the sum of artificials; the canonical
    # reduced-cost row, kept last, is minus the sum of the constraint rows
    # on non-artificial columns
    obj = [-sum(col) for col in zip(*tableau)]
    tableau.append(obj[:cols] + [0] * m + obj[total:])
    basis = list(range(cols, total))
    d = 1

    def pivot(r: int, c: int) -> None:
        nonlocal d
        p, prow = tableau[r][c], tableau[r]
        for i, row in enumerate(tableau):
            f = row[c]
            if i != r and (f or p != d):
                tableau[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        d = abs(p)
        if p < 0:  # a drive-out pivot; keep d positive
            tableau[:] = [[-v for v in row] for row in tableau]
        basis[r] = c

    while True:
        entering = next((j for j in range(total) if tableau[m][j] < 0), None)
        if entering is None:
            break
        # ratio test by cross-multiplication, ties to the smallest basis index
        best = None
        for r in range(m):
            a = tableau[r][entering]
            if a <= 0:
                continue
            if best is not None:
                s = tableau[r][-1] * best_a - tableau[best][-1] * a
                if s > 0 or s == 0 and basis[r] > basis[best]:
                    continue
            best, best_a = r, a
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        pivot(best, entering)

    if tableau[m][-1] != 0:  # minimal artificial mass
        return None
    # drive any residual artificial out of the basis (degenerate rows)
    for r in range(m):
        if basis[r] >= cols:
            c = next((j for j in range(cols) if tableau[r][j] != 0), None)
            if c is not None:
                pivot(r, c)
    at = {b: r for r, b in enumerate(basis)}
    return [Fraction(tableau[at[j]][-1], d) if j in at else ZERO
            for j in range(n)]


def find_belief(rows: Sequence[Row], n: int) -> Optional[list[Fraction]]:
    """A distribution x over n columns with r.x <= 0 for every row r, or
    None when there is none: None when some row is positive at every
    column, [1] when n == 1 and no row is, else ``solve_feasibility``'s
    witness."""
    if any(all(v > 0 for v in r) for r in rows):
        return None
    if n == 1:
        return [Fraction(1)]
    return solve_feasibility(n, [[1] * n], [1], rows, [0] * len(rows))


def check_solution(x: Sequence[Fraction], n: int,
                   a_eq: Sequence[Row] = (), b_eq: Sequence = (),
                   a_ub: Sequence[Row] = (), b_ub: Sequence = ()) -> bool:
    if len(x) != n or any(v < 0 for v in x):
        return False
    for row, b in zip(a_eq, b_eq):
        if sum(c * v for c, v in zip(row, x)) != b:
            return False
    for row, b in zip(a_ub, b_ub):
        if sum(c * v for c, v in zip(row, x)) > b:
            return False
    return True
