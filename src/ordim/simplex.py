"""Exact fraction-free simplex for small covering programs.

The covering LP is  min 1.f  s.t.  A f >= 1, f >= 0  with columns indexed by
reversal patterns. It is solved through its dual  max 1.y  s.t.  A^T y <= 1,
y >= 0  whose slack basis is immediately feasible, so no phase-1 is needed.

The tableau is kept in integers with one common denominator D (the
integer-preserving elimination of Edmonds and Bareiss): the rational tableau
is T / D, every pivot updates T[i][j] <- (T[i][j]*p - T[i][e]*T[l][j]) // D
with exact division and then sets D <- p. The reduced-cost row is carried as
one more row. Pivots, and so the optimum, duals and primal weights, are
exactly those of the rational tableau; Fractions appear only in the result.

The tableau is condensed, as in the integer pivoting of lrs (Avis and
Fukuda): a basic variable's column is D in its own row and 0 elsewhere, so
each row keeps only the t nonbasic columns plus the right-hand side. The
variables carry labels: 0..t-1 are y_0..y_{t-1} and t + i is the slack of
LP column i; `basis[i]` labels the variable basic in row i and
`nonbasic[k]` the variable stored in column k. A pivot entering column e at
row l leaves the Bareiss update of the other entries unchanged and reuses
column e for the leaving variable, whose column was D at row l: it becomes
s*D at row l (D before the pivot) and -s*T[i][e] at every other row i, with
s = -1 after a dual pivot's row negation and s = 1 otherwise; then the two
labels swap.

A `CoveringLP` keeps its tableau for column generation. The cold solve is
the primal simplex from the slack basis with Bland's rule, which compares
labels, not positions: the lowest label with a negative reduced cost
enters, and ratio ties leave at the lowest basic label. A column added
later is one more dual row  a.y + s = 1: over the nonbasic labels it is D*a
minus the rows of the basic y_j it contains, and its slack is basic at D,
so no other row changes. The reduced costs do not change either, so the
basis stays dual feasible and only the new row's right-hand side can be
negative; dual-simplex pivots with Bland's rule (leave: the lowest basic
label among negative right-hand sides; enter: the least ratio
cost[j] / -T[l][j] over T[l][j] < 0, the lowest label among ties) restore
optimality, Chvatal's cut-and-reoptimise step. A dual pivot entry is
negative, so its row is negated first: the pivot, the next D, is then
positive, and every sign test reads the rational tableau's signs. Primal
pivots are positive by their ratio test. After every solve the duals and
primal weights are checked as a certificate of optimality; the weights are
the reduced costs of the nonbasic slacks, so the cover check sums over that
support alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

ZERO = Fraction(0)


class CoveringLP:
    """The covering LP over bitmask columns, kept optimal as columns arrive.

    columns[i] has bit j set when column i covers row j; nrows >= 1. Raises
    ValueError when some row is covered by no column. `duals()` are integers
    over the positive common denominator `D`; `pivots` counts every pivot.
    """

    def __init__(self, columns: Sequence[int], nrows: int):
        covered = 0
        for c in columns:
            covered |= c
        if covered != (1 << nrows) - 1:
            raise ValueError("some row is uncovered by every column")
        m = len(columns)
        self.nrows = nrows
        self.columns = list(columns)
        # dual tableau rows: one constraint per pattern over the nonbasic
        # y_0..y_{t-1} and the right-hand side; the last row holds the
        # reduced costs
        T = [[(pat >> j) & 1 for j in range(nrows)] + [1] for pat in columns]
        T.append([-1] * nrows + [0])
        self.T = T
        self.basis = list(range(nrows, nrows + m))
        self.nonbasic = list(range(nrows))
        self.D = 1
        self.pivots = 0
        self._primal()
        self._check()

    def _pivot(self, leave: int, enter: int, s: int) -> None:
        # every other row is rescaled by p / D, also where its entering
        # entry is 0 (a no-op only when p == D); column `enter` then holds
        # the leaving variable
        T, D = self.T, self.D
        prow = T[leave]
        p = prow[enter]
        if p <= 0:
            raise ArithmeticError("pivot entry is not positive")
        for i, row in enumerate(T):
            if i != leave:
                factor = row[enter]
                if factor:
                    row = [(v * p - factor * w) // D for v, w in zip(row, prow)]
                    row[enter] = -s * factor
                    T[i] = row
                elif p != D:
                    T[i] = [v * p // D for v in row]
        prow[enter] = s * D
        self.basis[leave], self.nonbasic[enter] = (self.nonbasic[enter],
                                                   self.basis[leave])
        self.D = p
        self.pivots += 1

    def _primal(self) -> None:
        T, basis, nonbasic = self.T, self.basis, self.nonbasic
        m = len(basis)
        while True:
            cost_row = T[m]
            enter = -1
            for j in range(self.nrows):
                if cost_row[j] < 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                    enter = j   # Bland: lowest label wins
            if enter < 0:
                return
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
            self._pivot(leave, enter, 1)

    def _dual(self) -> None:
        T, basis, nonbasic = self.T, self.basis, self.nonbasic
        m = len(basis)
        while True:
            leave = -1
            for i in range(m):
                if T[i][-1] < 0 and (leave < 0 or basis[i] < basis[leave]):
                    leave = i   # Bland: lowest basic label wins
            if leave < 0:
                return
            # ratio test cost[j] / -row[j] by cross-multiplication, ties kept
            # at the lower label
            row, cost_row = T[leave], T[m]
            enter = -1
            for j in range(self.nrows):
                a = row[j]
                if a < 0:
                    if enter < 0:
                        enter = j
                        continue
                    lhs = cost_row[j] * row[enter]
                    rhs = cost_row[enter] * a
                    if lhs > rhs or (lhs == rhs and nonbasic[j] < nonbasic[enter]):
                        enter = j
            if enter < 0:
                raise ArithmeticError("dual LP infeasible, though y = 0 is feasible")
            T[leave] = [-v for v in row]
            self._pivot(leave, enter, -1)

    def add(self, column: int) -> None:
        """Add one column and re-optimise from the current basis."""
        T, basis, D, t = self.T, self.basis, self.D, self.nrows
        m = len(basis)
        new = [D * ((column >> j) & 1) if j < t else 0 for j in self.nonbasic]
        new.append(D)
        for i in range(m):
            j = basis[i]
            if j < t and (column >> j) & 1:
                new = [v - w for v, w in zip(new, T[i])]
        T.insert(m, new)
        basis.append(t + m)
        self.columns.append(column)
        self._dual()
        self._check()

    def duals(self) -> list:
        """y_j * D for every row j."""
        y = [0] * self.nrows
        for row, b in zip(self.T, self.basis):
            if b < self.nrows:
                y[b] = row[-1]
        return y

    def _weights(self) -> list:
        # f_i * D: the reduced cost of slack i, 0 while it is basic
        t = self.nrows
        f = [0] * len(self.columns)
        for k, label in enumerate(self.nonbasic):
            if label >= t:
                f[label - t] = self.T[-1][k]
        return f

    def _check(self) -> None:
        # the duals and weights certify each other, in integers over D:
        # y >= 0 (basic right-hand sides), f >= 0 (slack reduced costs),
        # equal sums, and f covers every row; the cover sums run over the
        # columns of nonzero weight alone
        T, D, t = self.T, self.D, self.nrows
        weights = self._weights()
        if any(row[-1] < 0 for row in T[:-1]) or any(w < 0 for w in weights):
            raise ArithmeticError("basis is not both primal and dual feasible")
        if sum(weights) != sum(self.duals()):
            raise ArithmeticError("primal/dual objective mismatch")
        cover = [0] * t
        for w, c in zip(weights, self.columns):
            if w:
                for j in range(t):
                    if (c >> j) & 1:
                        cover[j] += w
        for j in range(t):
            if cover[j] < D:
                raise ArithmeticError(f"extracted primal leaves row {j} uncovered")

    def solution(self) -> Tuple[Fraction, list, list]:
        """(optimum, y, f) as exact Fractions, y per row, f per column."""
        D = self.D
        y = self.duals()
        return (Fraction(sum(y), D), [Fraction(v, D) for v in y],
                [Fraction(w, D) for w in self._weights()])


def solve_covering(columns: Sequence[int], nrows: int) -> Tuple[Fraction, list, list]:
    """Solve the covering LP over bitmask columns.

    columns[i] has bit j set when column i covers row j. Returns
    (optimum, y, f): y are the optimal duals per row, f the optimal primal
    weights per column, both exact. Raises ValueError when some row is
    covered by no column.
    """
    if nrows == 0:
        return ZERO, [], [ZERO] * len(columns)
    return CoveringLP(columns, nrows).solution()
