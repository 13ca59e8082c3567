"""Exact rational linear feasibility via phase-1 simplex.

Decides whether {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} is nonempty and
returns a witness.  Everything runs over Fraction; Bland's rule guarantees
termination.  Problem sizes in this package are tiny (tens of variables), so
a dense tableau is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Row = Sequence[Fraction]
ZERO = Fraction(0)
ONE = Fraction(1)


def solve_feasibility(n: int,
                      a_eq: Sequence[Row] = (), b_eq: Sequence = (),
                      a_ub: Sequence[Row] = (), b_ub: Sequence = ()
                      ) -> Optional[list[Fraction]]:
    """A nonnegative solution of the system, or None when infeasible.

    Inequality rows that every x >= 0 satisfies (no positive coefficient,
    b >= 0) and repeated ones are dropped first; this is exact, as a witness
    of the remaining rows satisfies them too.
    """
    eqs = list(zip(a_eq, b_eq))
    ubs = list(zip(a_ub, b_ub))
    for k, (row, _) in enumerate(eqs + ubs):
        if len(row) != n:
            raise ValueError("row %d has length %d, expected %d"
                             % (k, len(row), n))
    # insertion-ordered and duplicate-free
    kept = dict.fromkeys(
        (tuple(Fraction(v) for v in row), Fraction(b)) for row, b in ubs)
    ineqs = [(row, b) for row, b in kept if b < 0 or any(v > 0 for v in row)]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_slack = len(ineqs)
    for k, (row, b) in enumerate(eqs + ineqs):
        full = [Fraction(v) for v in row] + [ZERO] * n_slack
        if k >= len(eqs):
            full[n + (k - len(eqs))] = ONE
        b = Fraction(b)
        if b < 0:
            full = [-v for v in full]
            b = -b
        rows.append(full)
        rhs.append(b)

    m = len(rows)
    if m == 0:
        return [ZERO] * n
    total = n + n_slack + m  # artificials at the end
    tableau = []
    basis = []
    for k, row in enumerate(rows):
        art = [ZERO] * m
        art[k] = ONE
        tableau.append(row + art + [rhs[k]])
        basis.append(n + n_slack + k)
    # phase-1 objective: minimize the sum of artificials; the canonical
    # reduced-cost row is minus the sum of the constraint rows on
    # non-artificial columns
    obj = [ZERO] * (total + 1)
    for row in tableau:
        for j in range(total + 1):
            obj[j] -= row[j]
    for k in range(m):
        obj[n + n_slack + k] = ZERO

    def pivot(r: int, c: int) -> None:
        piv = tableau[r][c]
        tableau[r] = [v / piv for v in tableau[r]]
        for idx in range(m):
            if idx != r and tableau[idx][c] != 0:
                f = tableau[idx][c]
                tableau[idx] = [v - f * w for v, w in zip(tableau[idx], tableau[r])]
        if obj[c] != 0:
            f = obj[c]
            for j in range(total + 1):
                obj[j] -= f * tableau[r][j]
        basis[r] = c

    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        # ratio test, ties broken by smallest basis index (Bland)
        best = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        pivot(best[1], entering)

    if -obj[-1] != 0:  # minimal artificial mass
        return None
    # drive any residual artificial out of the basis (degenerate rows)
    for r in range(m):
        if basis[r] >= n + n_slack:
            c = next((j for j in range(n + n_slack) if tableau[r][j] != 0), None)
            if c is not None:
                pivot(r, c)
    x = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][-1]
    return x


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
