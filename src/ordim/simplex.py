"""Exact fraction-free simplex for small covering programs.

The covering LP is  min 1.f  s.t.  A f >= 1, f >= 0  with columns indexed by
reversal patterns. It is solved through its dual  max 1.y  s.t.  A^T y <= 1,
y >= 0  whose slack basis is immediately feasible, so no phase-1 is needed.
Bland's rule guarantees termination; scale stays tiny because columns are
generated lazily by the callers.

The tableau is kept in integers with one common denominator D (the
integer-preserving elimination of Edmonds and Bareiss): the rational tableau
is T / D, every pivot updates T[i][j] <- (T[i][j]*p - T[i][e]*T[l][j]) // D
with exact division and then sets D <- p. The reduced-cost row is carried as
one more row. Pivots, and so the optimum, duals and primal weights, are
exactly those of the rational tableau; Fractions appear only in the result.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

ZERO = Fraction(0)


def solve_covering(columns: Sequence[int], nrows: int) -> Tuple[Fraction, list, list]:
    """Solve the covering LP over bitmask columns.

    columns[i] has bit j set when column i covers row j. Returns
    (optimum, y, f): y are the optimal duals per row, f the optimal primal
    weights per column, both exact. Raises ValueError when some row is
    covered by no column.
    """
    if nrows == 0:
        return ZERO, [], [ZERO] * len(columns)
    covered = 0
    for c in columns:
        covered |= c
    if covered != (1 << nrows) - 1:
        raise ValueError("some row is uncovered by every column")
    m = len(columns)
    ncols = nrows + m
    # dual tableau rows: one constraint per pattern; columns y_0..y_{t-1},
    # slacks, right-hand side; the last row holds the reduced costs
    T = []
    for i, pat in enumerate(columns):
        row = [(pat >> j) & 1 for j in range(nrows)] + [0] * m + [1]
        row[nrows + i] = 1
        T.append(row)
    T.append([-1] * nrows + [0] * (m + 1))
    cost_row = T[m]
    basis = list(range(nrows, ncols))
    D = 1

    while True:
        enter = -1
        for j in range(ncols):
            if cost_row[j] < 0:
                enter = j   # Bland: lowest index wins
                break
        if enter < 0:
            break
        # ratio test T[i][-1] / T[i][enter] by cross-multiplication (D > 0)
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = T[i][-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("dual LP unbounded; covering LP infeasible")
        prow = T[leave]
        p = prow[enter]
        # every other row is rescaled by p / D, also where its entering
        # entry is 0 (a no-op only when p == D)
        for i in range(m + 1):
            if i != leave:
                row = T[i]
                factor = row[enter]
                if factor:
                    T[i] = [(v * p - factor * w) // D for v, w in zip(row, prow)]
                elif p != D:
                    T[i] = [v * p // D for v in row]
        cost_row = T[m]
        basis[leave] = enter
        D = p

    # strong duality and primal feasibility are cheap, check them always, in
    # integers over D: y_j = T[i][-1] / D for the row i where y_j is basic,
    # f_i = cost_row[nrows + i] / D (cost_row[-1] holds the objective)
    y = [ZERO] * nrows
    dual_sum = 0
    for i in range(m):
        if basis[i] < nrows:
            y[basis[i]] = Fraction(T[i][-1], D)
            dual_sum += T[i][-1]
    weights = cost_row[nrows:-1]
    if sum(weights) != dual_sum:
        raise ArithmeticError("primal/dual objective mismatch")
    for j in range(nrows):
        if sum(w for w, c in zip(weights, columns) if (c >> j) & 1) < D:
            raise ArithmeticError(f"extracted primal leaves row {j} uncovered")
    return Fraction(dual_sum, D), y, [Fraction(w, D) for w in weights]
