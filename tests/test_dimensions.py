"""Solvers: order dimension, convex dimension, fractional dimension,
distinguishing machinery, Boolean dimension, and the aggregate report."""

import math
import random
from fractions import Fraction

import pytest

from ordim import (BudgetExceeded, InvalidRealizer, MaxTriesExceeded,
                   NotDistinguishing, ParamRange, Realizer, analyze,
                   binary_distinguishing, boolean_algebra,
                   boolean_dimension_exact, convex_dimension,
                   distinguishing_to_realizer, dm_dimension,
                   fractional_dimension, incomparable_pairs, linear_extensions,
                   linear_geometry, pkn, pkn_fractional_certificate,
                   poset_from_relation, qn_pn, randomized_distinguishing,
                   realizer_to_distinguishing, set_to_mask,
                   standard_example_number, verify_distinguishing,
                   verify_fractional_realizer, verify_realizer)
from ordim.dimensions import DimensionReport, DistinguishingSequence
from ordim.serialize import report_to_json
from ordim.simplex import solve_covering


def std_example(t):
    pairs = [(i, t + j) for i in range(t) for j in range(t) if i != j]
    return poset_from_relation(2 * t, pairs)


def chain(n):
    return poset_from_relation(n, [(i, i + 1) for i in range(n - 1)])


def random_poset(rng, n):
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.append((i, j))
    return poset_from_relation(n, pairs)


# ---------------------------------------------------------------------------
# order dimension

def test_dim_standard_examples():
    for t in (2, 3, 4, 5):
        res = dm_dimension(std_example(t))
        assert res.dim == t
        assert verify_realizer(std_example(t), res.realizer)


def test_dim_chain():
    res = dm_dimension(chain(4))
    assert res.dim == 1 and verify_realizer(chain(4), res.realizer)


def test_dim_p1n_formula():
    for n in range(3, 8):
        res = dm_dimension(pkn(1, n).poset)
        assert res.dim == 1 + int(math.floor(math.log2(n)))


def test_dim_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        dm_dimension(pkn(1, 8).poset, budget=5)


def test_dim_realizer_always_verifies():
    rng = random.Random(31)
    for _ in range(25):
        P = random_poset(rng, 7)
        res = dm_dimension(P)
        assert verify_realizer(P, res.realizer)
        assert len(res.realizer.extensions) <= res.dim or res.dim == 1


def test_dim_minimality_against_bruteforce():
    # brute force: try all covers of critical pairs by k reversible sets
    from itertools import product
    from ordim import critical_pairs, is_reversible
    rng = random.Random(37)
    for _ in range(12):
        P = random_poset(rng, 6)
        res = dm_dimension(P)
        crit = critical_pairs(P)
        if not crit:
            assert res.dim == 1
            continue
        k = res.dim - 1
        if k < 2:
            assert res.dim == 2
            continue
        found = False
        for assign in product(range(k), repeat=len(crit)):
            classes = [[crit[i] for i in range(len(crit)) if assign[i] == c]
                       for c in range(k)]
            if all(not cls or is_reversible(P, cls)[0] for cls in classes):
                found = True
                break
        assert not found, "solver overshot the dimension"


# ---------------------------------------------------------------------------
# convex dimension

def test_cdim_formula_pkn():
    for (k, n) in [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]:
        res = convex_dimension(pkn(k, n))
        assert res.cdim == math.comb(n - 1, k)
        assert res.verified and res.realizer is not None


def test_cdim_linear():
    res = convex_dimension(linear_geometry((1, 2, 3)))
    assert res.cdim == 1 and res.verified


def test_cdim_pn():
    for n in (3, 4):
        res = convex_dimension(qn_pn(n)[1])
        assert res.cdim == n + 1 and res.verified


def test_cdim_realizer_verifies_for_random_joins():
    from ordim import random_geometry, verify_convex_realizer
    for seed in range(8):
        G = random_geometry(5, 3, seed)
        res = convex_dimension(G)
        assert res.verified
        assert verify_convex_realizer(G, res.realizer.perms)
        assert len(res.realizer.perms) == res.cdim


def test_cdim_long_augmenting_paths_do_not_recurse():
    # the matcher's augmenting paths here are longer than the default
    # recursion limit, so a recursive depth-first search would fail
    from ordim import verify_convex_realizer
    G = pkn(2, 27)
    res = convex_dimension(G)
    assert res.cdim == math.comb(26, 2) == 325
    assert res.verified
    assert verify_convex_realizer(G, res.realizer.perms)


# ---------------------------------------------------------------------------
# fractional dimension

def fdim_bruteforce(P):
    """Oracle: enumerate ALL extensions as columns, ALL incomparable pairs as
    rows, one exact LP."""
    inc = incomparable_pairs(P)
    if not inc:
        return Fraction(1)
    row_index = {pair: i for i, pair in enumerate(inc)}
    columns = []
    for ext in linear_extensions(P, limit=100_000):
        pos = {x: i for i, x in enumerate(ext)}
        pat = 0
        for (a, b), i in row_index.items():
            if pos[a] > pos[b]:
                pat |= 1 << i
        columns.append(pat)
    opt, _, _ = solve_covering(sorted(set(columns)), len(inc))
    return opt


def test_fdim_standard_examples():
    for t in (2, 3):
        res = fractional_dimension(std_example(t))
        assert res.fdim == t
        ok, total = verify_fractional_realizer(std_example(t), res.realizer)
        assert ok and total == t


def test_fdim_chain():
    assert fractional_dimension(chain(3)).fdim == 1


def test_fdim_matches_bruteforce_small():
    rng = random.Random(41)
    posets = [std_example(2), chain(4), pkn(1, 4).poset]
    posets += [random_poset(rng, 6) for _ in range(10)]
    for P in posets:
        res = fractional_dimension(P)
        assert res.fdim == fdim_bruteforce(P)
        ok, total = verify_fractional_realizer(P, res.realizer)
        assert ok and total == res.fdim


def test_fdim_crit_rows_equal_full_inc_rows():
    # the LP over critical pairs has the same optimum as over all of Inc
    from ordim import critical_pairs
    rng = random.Random(43)
    for _ in range(10):
        P = random_poset(rng, 7)
        res = fractional_dimension(P)
        full = fdim_bruteforce(P)
        assert res.fdim == full


def test_fdim_p14_value():
    # exact optimum is 5/2, certified by the dual and reproduced by brute force
    P = pkn(1, 4).poset
    res = fractional_dimension(P)
    assert res.fdim == Fraction(5, 2)
    assert fdim_bruteforce(P) == Fraction(5, 2)


# Five ordered incomparable pairs (y, x) of pkn(1,5), read "y before x".
# Weight 1/2 on each is a feasible dual of the fractional-dimension LP
# exactly when no linear extension puts y before x for more than two of them.
P15_DUAL_WITNESS = [({1, 3}, {2}), ({1, 2, 4}, {1, 3}), ({1, 2, 5}, {1, 3}),
                    ({1, 2, 3, 5}, {1, 4}), ({1, 2, 3, 4}, {1, 2, 5})]


def test_fdim_p15_value_proof():
    # fdim(pkn(1,5)) = 5/2, proved without trusting the LP solver: the lower
    # bound from the dual witness above checked against every linear
    # extension, the upper bound from the solver's realizer checked by the
    # verifier.
    G = pkn(1, 5)
    P = G.poset
    pairs = [(G.member_index(set_to_mask(y)), G.member_index(set_to_mask(x)))
             for y, x in P15_DUAL_WITNESS]
    assert all(P.incomparable(y, x) for y, x in pairs)
    count = 0
    most = 0
    for ext in linear_extensions(P):
        pos = [0] * P.n
        for i, e in enumerate(ext):
            pos[e] = i
        most = max(most, sum(pos[y] < pos[x] for y, x in pairs))
        count += 1
    assert count == 344_256
    assert most <= 2        # so fdim >= 5 * (1/2)
    ok, total = verify_fractional_realizer(P, fractional_dimension(P).realizer)
    assert ok and total == Fraction(5, 2)   # so fdim <= 5/2


def test_fdim_boolean_algebra():
    for n in (2, 3, 4):
        assert fractional_dimension(boolean_algebra(n).poset).fdim == n


# ---------------------------------------------------------------------------
# the explicit fractional certificate for pkn

def test_pkn_certificate_values():
    for (k, n) in [(1, 4), (2, 5)]:
        G = pkn(k, n)
        cert = pkn_fractional_certificate(k, n, G=G)
        ok, total = verify_fractional_realizer(G.poset, cert)
        assert ok
        assert total == Fraction(2 ** (k + 1) * (2 ** n - 1), 2 ** n)
        assert total < 2 ** (k + 1)


def test_pkn_certificate_pair_coverage_floor():
    # each critical pair is reversed by at least 2^(n-k-1) extensions
    k, n = 1, 4
    G = pkn(k, n)
    cert = pkn_fractional_certificate(k, n, G=G)
    from ordim import geometry_critical_pairs
    for a, b in geometry_critical_pairs(G):
        count = 0
        for ext, _ in cert.weighted:
            pos = {x: i for i, x in enumerate(ext)}
            if pos[a] > pos[b]:
                count += 1
        assert count >= 2 ** (n - k - 1)


# ---------------------------------------------------------------------------
# distinguishing sequences

def test_binary_distinguishing_sizes():
    for n in range(3, 10):
        seq = binary_distinguishing(n)
        assert seq.t == 1 + int(math.floor(math.log2(n)))
        ok, _ = verify_distinguishing(1, n, seq)
        assert ok


def test_all_empty_sequence_fails():
    seq = DistinguishingSequence(1, 4, 2, (0, 0, 0, 0))
    ok, witness = verify_distinguishing(1, 4, seq)
    assert not ok and witness is not None


def test_equal_sets_fail():
    # Y_1 = Y_2 breaks the member {2} at k=1
    seq = DistinguishingSequence(1, 4, 3, (0b11, 0b11, 0b1, 0b1))
    ok, witness = verify_distinguishing(1, 4, seq)
    assert not ok


def test_distinguishing_roundtrip():
    for (k, n) in [(1, 4), (1, 6), (2, 6)]:
        G = pkn(k, n)
        if k == 1:
            seq = binary_distinguishing(n)
        else:
            seq, _ = randomized_distinguishing(k, n, seed=1)
        R = distinguishing_to_realizer(k, n, seq, G=G)
        assert len(R.extensions) == seq.t
        assert verify_realizer(G.poset, R)
        back = realizer_to_distinguishing(k, n, R, G=G)
        assert back.t == seq.t
        ok, _ = verify_distinguishing(k, n, back)
        assert ok


def test_distinguishing_to_realizer_rejects_bad_sequence():
    with pytest.raises(NotDistinguishing):
        distinguishing_to_realizer(
            1, 4, DistinguishingSequence(1, 4, 2, (0, 0, 0, 0)))


def test_realizer_to_distinguishing_rejects_bad_realizer():
    G = pkn(1, 4)
    ext = tuple(range(len(G.family)))
    with pytest.raises(InvalidRealizer):
        realizer_to_distinguishing(1, 4, Realizer((ext,)), G=G)


def test_realizer_to_distinguishing_minimal_case():
    # at (1,3) the optimum is t=2 (brute force over all 2-mark sequences)
    G = pkn(1, 3)
    found = None
    for sets in [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]:
        seq = DistinguishingSequence(1, 3, 2, sets)
        if verify_distinguishing(1, 3, seq)[0]:
            found = seq
            break
    assert found is not None            # dim(P(1,3)) = 2
    R = distinguishing_to_realizer(1, 3, found, G=G)
    assert dm_dimension(G.poset).dim == 2 == len(R.extensions)


def test_randomized_distinguishing():
    seq, tries = randomized_distinguishing(2, 8, seed=5)
    assert seq.t == int(math.floor(3 * 16 * math.log(8)))
    assert seq.t == 99
    assert tries <= 100
    # the verified realizer of size t is itself the upper-bound certificate
    R = distinguishing_to_realizer(2, 8, seq)
    assert len(R.extensions) == seq.t
    # k=1 randomized size exceeds the binary construction size
    seq1, _ = randomized_distinguishing(1, 8, seed=5)
    assert seq1.t > binary_distinguishing(8).t


# ---------------------------------------------------------------------------
# Boolean dimension

def test_bdim_standard_examples():
    bd, cert = boolean_dimension_exact(std_example(2))
    assert bd == 2
    bd, cert = boolean_dimension_exact(std_example(3))
    assert bd == 3


def test_bdim_chain():
    bd, cert = boolean_dimension_exact(chain(4))
    assert bd == 1 and cert.tau == frozenset({"1"})


def test_bdim_at_most_dim_for_square():
    bd, _ = boolean_dimension_exact(
        poset_from_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    assert bd <= 2


def test_bdim_guard():
    with pytest.raises(ParamRange):
        boolean_dimension_exact(chain(7))


# ---------------------------------------------------------------------------
# aggregate report

def test_analyze_p15():
    rep = analyze(pkn(1, 5))
    assert (rep.dim, rep.cdim, rep.maxdd, rep.se) == (3, 4, 2, 2)
    assert rep.fdim == Fraction(5, 2)
    rep.check_chain()


def test_analyze_boolean_3():
    rep = analyze(boolean_algebra(3))
    assert (rep.dim, rep.cdim, rep.maxdd, rep.se) == (3, 3, 3, 3)
    assert rep.fdim == 3


def test_analyze_linear():
    rep = analyze(linear_geometry((1, 2, 3, 4)))
    assert (rep.dim, rep.cdim, rep.maxdd, rep.se) == (1, 1, 1, 1)
    assert rep.fdim == 1


def test_analyze_budget_marks_partial():
    rep = analyze(pkn(1, 8), params=("dim", "cdim", "maxdd", "se"), budget=5)
    assert rep.dim is None
    assert any("budget" in w for w in rep.warnings)


def test_analyze_poset_matches_separate_solvers():
    # analyze on a bare poset writes the report that running its solvers
    # one by one gives: dim with its realizer, se, fdim with its realizer
    rng = random.Random(13)
    posets = [std_example(2), std_example(3), chain(3)]
    posets += [random_poset(rng, rng.randint(4, 7)) for _ in range(6)]
    for P in posets:
        dim, fdim = dm_dimension(P), fractional_dimension(P)
        expected = DimensionReport(dim=dim.dim, se=standard_example_number(P),
                                   fdim=fdim.fdim, realizer=dim.realizer,
                                   fractional_realizer=fdim.realizer)
        assert report_to_json(analyze(P)) == report_to_json(expected)
    assert analyze(std_example(2), params=["se"]).se == 2
    with pytest.raises(ParamRange, match="cdim"):
        analyze(std_example(2), params=["dim", "cdim"])


def test_check_chain_raises_under_optimize(fresh_python):
    code = ("from ordim.dimensions import DimensionReport\n"
            "DimensionReport(dim=3, cdim=2).check_chain()")
    out = fresh_python(code, "-O")
    assert out.returncode != 0
    assert "AssertionError: cdim 2 < dim 3" in out.stderr
