"""Exact covering LP solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordim import dimensions, fractional_dimension, pkn
from ordim.simplex import CoveringLP, solve_covering


def test_identity_columns():
    # three rows, three singleton columns: optimum 3
    opt, y, f = solve_covering([0b001, 0b010, 0b100], 3)
    assert opt == 3
    assert f == [1, 1, 1]
    assert sum(y) == 3


def test_one_big_column():
    opt, y, f = solve_covering([0b111, 0b001], 3)
    assert opt == 1
    assert f[0] == 1 and f[1] == 0


def test_five_cycle_fractional_cover():
    # vertices 0..4, columns = maximal independent sets of C5 (all 5 edges)
    cols = [0b00101, 0b01010, 0b10100, 0b01001, 0b10010]
    opt, y, f = solve_covering(cols, 5)
    assert opt == Fraction(5, 2)
    assert all(w == Fraction(1, 2) for w in f)


def test_uncoverable_row():
    with pytest.raises(ValueError):
        solve_covering([0b01], 2)


def test_empty_rows():
    opt, y, f = solve_covering([0b1], 0)
    assert opt == 0


def test_duality_gap_zero_random():
    rng = random.Random(1)
    for _ in range(30):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 12)
        cols = []
        for _ in range(ncols):
            cols.append(rng.getrandbits(nrows))
        cols.append((1 << nrows) - 1)  # keep feasible
        opt, y, f = solve_covering(cols, nrows)
        assert sum(y) == opt == sum(f)
        # dual feasibility: every column constraint holds
        for c in cols:
            s = sum(y[j] for j in range(nrows) if (c >> j) & 1)
            assert s <= 1
        # primal feasibility rechecked by the solver itself


def test_check_rejects_a_broken_certificate():
    # each of the four conditions on its own: y >= 0, f >= 0, equal sums,
    # and every row covered by the weighted columns
    cols = [0b00101, 0b01010, 0b10100, 0b01001, 0b10010]

    def broken(edit):
        lp = CoveringLP(cols, 5)
        edit(lp)
        with pytest.raises(ArithmeticError) as info:
            lp._check()
        return str(info.value)

    optimal = CoveringLP(cols, 5)
    slacks = [k for k, label in enumerate(optimal.nonbasic) if label >= 5]
    y_rows = [i for i, b in enumerate(optimal.basis) if b < 5]
    assert slacks and y_rows

    def negative_y(lp):
        lp.T[y_rows[0]][-1] = -1

    def negative_f(lp):
        lp.T[-1][slacks[0]] = -lp.D

    def unequal_sums(lp):
        lp.T[y_rows[0]][-1] += 1

    def nothing_covered(lp):
        for k in slacks:
            lp.T[-1][k] = 0
        for i in y_rows:
            lp.T[i][-1] = 0

    assert "feasible" in broken(negative_y)
    assert "feasible" in broken(negative_f)
    assert "mismatch" in broken(unequal_sums)
    assert "uncovered" in broken(nothing_covered)


# --- reference oracle: the same Bland pivots on a dense Fraction tableau ----

def _reference_solve_covering(columns, nrows, added=()):
    """Dense Fraction tableau, Bland's rule, reduced costs recomputed. Each
    column of `added` then joins as one more dual row, and dual-simplex
    pivots with Bland's rule (leave at the lowest basic index among negative
    right-hand sides, enter at the least ratio, lowest index among ties)
    re-optimise it."""
    if nrows == 0:
        return Fraction(0), [], [Fraction(0)] * (len(columns) + len(added))
    m = len(columns)
    ncols = nrows + m
    A = []
    for i, pat in enumerate(columns):
        row = [Fraction((pat >> j) & 1) for j in range(nrows)]
        row.extend(Fraction(int(s == i)) for s in range(m))
        row.append(Fraction(1))
        A.append(row)
    cost = [1] * nrows + [0] * m
    basis = list(range(nrows, ncols))

    def reduced_cost(j):
        z = sum((cost[basis[i]] * A[i][j] for i in range(len(A))), Fraction(0))
        return z - cost[j]

    def pivot(leave, enter):
        piv = A[leave][enter]
        A[leave] = [v / piv for v in A[leave]]
        for i in range(len(A)):
            if i != leave and A[i][enter]:
                factor = A[i][enter]
                A[i] = [v - factor * w for v, w in zip(A[i], A[leave])]
        basis[leave] = enter

    while True:
        enter = next((j for j in range(ncols) if reduced_cost(j) < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = A[i][enter]
            if a > 0:
                r = A[i][-1] / a
                if best is None or r < best or (r == best and basis[i] < basis[leave]):
                    best, leave = r, i
        pivot(leave, enter)
    for pat in added:
        for row in A:
            row.insert(-1, Fraction(0))
        row = [Fraction((pat >> j) & 1) for j in range(nrows)]
        row += [Fraction(0)] * len(A) + [Fraction(1), Fraction(1)]
        for i, b in enumerate(basis):
            if b < nrows and (pat >> b) & 1:
                row = [v - w for v, w in zip(row, A[i])]
        basis.append(nrows + len(A))
        cost.append(0)
        A.append(row)
        while True:
            negative = [i for i in range(len(A)) if A[i][-1] < 0]
            if not negative:
                break
            leave = min(negative, key=lambda i: basis[i])
            enter, best = -1, None
            for j in range(len(A[leave]) - 1):
                a = A[leave][j]
                if a < 0 and (best is None or reduced_cost(j) / -a < best):
                    best, enter = reduced_cost(j) / -a, j
            pivot(leave, enter)
    y = [Fraction(0)] * nrows
    for i in range(len(A)):
        if basis[i] < nrows:
            y[basis[i]] = A[i][-1]
    f = [reduced_cost(nrows + i) for i in range(len(A))]
    return sum(y, Fraction(0)), y, f


def _random_covering_lp(rng):
    """Columns of one random size (so optima are often fractional), a few
    duplicates, sometimes the all-ones column, singletons for bare rows."""
    nrows = rng.randint(1, 12)
    size = rng.randint(1, nrows)
    cols = [sum(1 << j for j in rng.sample(range(nrows), size))
            for _ in range(rng.randint(1, 14))]
    cols += [rng.choice(cols) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.25:
        cols.insert(rng.randint(0, len(cols)), (1 << nrows) - 1)
    covered = 0
    for c in cols:
        covered |= c
    cols += [1 << j for j in range(nrows) if not (covered >> j) & 1]
    return cols, nrows


def test_matches_reference_on_random_lps():
    rng = random.Random(20261018)
    fractional = 0
    for _ in range(1200):
        cols, nrows = _random_covering_lp(rng)
        got = solve_covering(cols, nrows)
        assert got == _reference_solve_covering(cols, nrows), (cols, nrows)
        fractional += got[0].denominator > 1
    # non-unit pivots are what the common denominator is for
    assert fractional >= 200


def _assert_optimal(cols, nrows, got):
    """got = (opt, y, f) is a certified optimum of the covering LP on cols:
    the cold reference reaches the same value, y and f are feasible, and
    their sums meet. Only the value is compared with the cold reference,
    since a warm start may end at another optimal vertex."""
    opt, y, f = got
    assert opt == _reference_solve_covering(cols, nrows)[0], (cols, nrows)
    assert len(y) == nrows and len(f) == len(cols)
    assert all(v >= 0 for v in y) and all(w >= 0 for w in f)
    for c in cols:
        assert sum(y[j] for j in range(nrows) if (c >> j) & 1) <= 1
    for j in range(nrows):
        assert sum(w for w, c in zip(f, cols) if (c >> j) & 1) >= 1
    assert sum(f) == sum(y) == opt


@st.composite
def warm_covering_lps(draw):
    """A feasible start and columns to add one at a time; columns of one
    size, repeats and the empty column make ties and degenerate pivots."""
    nrows = draw(st.integers(1, 9))
    size = draw(st.integers(1, nrows))
    column = st.lists(st.integers(0, nrows - 1), min_size=size, max_size=size,
                      unique=True).map(lambda js: sum(1 << j for j in js))
    start = draw(st.lists(column, min_size=1, max_size=6))
    covered = 0
    for c in start:
        covered |= c
    start += [1 << j for j in range(nrows) if not (covered >> j) & 1]
    added = draw(st.lists(column | st.sampled_from(start) | st.just(0),
                          min_size=1, max_size=12))
    return nrows, start, added


@settings(derandomize=True, max_examples=300, deadline=None)
@given(warm_covering_lps())
def test_warm_start_matches_reference_after_every_add(case):
    nrows, start, added = case
    lp = CoveringLP(start, nrows)
    cols = list(start)
    assert lp.solution() == _reference_solve_covering(cols, nrows)
    for k, c in enumerate(added, 1):
        lp.add(c)
        cols.append(c)
        got = lp.solution()
        _assert_optimal(cols, nrows, got)
        # the same dual pivots in Fractions reach the same vertex
        assert got == _reference_solve_covering(start, nrows, added[:k])


def test_matches_reference_on_recorded_fdim_lps(monkeypatch):
    rounds = []

    class Recording(CoveringLP):
        def __init__(self, columns, nrows):
            super().__init__(columns, nrows)
            self.start = list(columns)
            rounds.append((self.start, [], nrows, self.solution()))

        def add(self, column):
            super().add(column)
            rounds.append((self.start, self.columns[len(self.start):],
                           self.nrows, self.solution()))

    monkeypatch.setattr(dimensions, "CoveringLP", Recording)
    for n in (5, 6):
        fractional_dimension(pkn(1, n).poset)
    monkeypatch.undo()
    # the rounds column generation takes under the branch-and-bound pricing
    assert len(rounds) == 39
    for start, added, nrows, got in rounds:
        _assert_optimal(start + added, nrows, got)
        assert got == _reference_solve_covering(start, nrows, added)
