"""Core poset machinery: relations, pairs, reversibility, width, extensions."""

import random
from itertools import combinations, permutations

import pytest

from ordim import (CountExceeded, CycleError, Poset, count_linear_extensions,
                   critical_pairs, down_degree, find_standard_example,
                   incomparable_pairs, is_reversible,
                   linear_extensions, max_down_degree, max_up_degree,
                   poset_from_relation, standard_example_number,
                   strict_alternating_cycles, up_degree, width)
from ordim.order import _clique, extend_reversing


def std_example(t):
    """S_t: minимal a_0..a_{t-1}, maximal b via a_i < b_j iff i != j."""
    pairs = [(i, t + j) for i in range(t) for j in range(t) if i != j]
    return poset_from_relation(2 * t, pairs)


def chain(n):
    return poset_from_relation(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return poset_from_relation(n, [])


def random_poset(rng, n):
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.append((i, j))
    return poset_from_relation(n, pairs)


# ---------------------------------------------------------------------------
# construction

def test_empty_relation_is_antichain():
    P = antichain(2)
    assert not P.leq(0, 1) and not P.leq(1, 0)
    assert P.leq(0, 0) and P.leq(1, 1)


def test_closure_forces_transitivity():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    assert P.leq(0, 2)


def test_cycle_raises():
    with pytest.raises(CycleError):
        poset_from_relation(2, [(0, 1), (1, 0)])


def test_validate_accepts_built_posets():
    rng = random.Random(7)
    for _ in range(20):
        random_poset(rng, 7).validate()


# ---------------------------------------------------------------------------
# covers and degrees

def brute_covers(P):
    out = []
    for x in range(P.n):
        for y in range(P.n):
            if P.lt(x, y) and not any(
                    P.lt(x, z) and P.lt(z, y) for z in range(P.n)):
                out.append((x, y))
    return out


def test_hasse_chain_and_antichain():
    assert list(chain(3).covers) == [(0, 1), (1, 2)]
    assert list(antichain(2).covers) == []


def test_hasse_square():
    # inclusion order of all subsets of a 2-set
    P = poset_from_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert sorted(P.covers) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_hasse_matches_betweenness_oracle():
    rng = random.Random(11)
    for _ in range(25):
        P = random_poset(rng, 7)
        assert sorted(P.covers) == sorted(brute_covers(P))


def test_degrees():
    P = chain(4)
    assert max_down_degree(P) == 1 and max_up_degree(P) == 1
    assert down_degree(P, 0) == 0 and up_degree(P, 3) == 0
    # diamond: 0 < 1,2 < 3
    D = poset_from_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert down_degree(D, 3) == 2 and up_degree(D, 0) == 2
    assert max_down_degree(D) == 2


# ---------------------------------------------------------------------------
# incomparable and critical pairs

def test_incomparable_pairs():
    assert incomparable_pairs(chain(4)) == []
    assert sorted(incomparable_pairs(antichain(2))) == [(0, 1), (1, 0)]
    # direct enumeration oracle on the 6x6 relation of S_3
    P = std_example(3)
    inc = incomparable_pairs(P)
    brute = [(a, b) for a in range(6) for b in range(6)
             if a != b and not P.leq(a, b) and not P.leq(b, a)]
    assert sorted(inc) == sorted(brute)
    assert len(inc) == 18  # 6 among minimals, 6 among maximals, 6 matched legs


def test_critical_pairs_standard_example():
    for t in (2, 3, 4):
        P = std_example(t)
        assert sorted(critical_pairs(P)) == [(i, t + i) for i in range(t)]


def test_critical_pairs_antichain_both_orientations():
    assert sorted(critical_pairs(antichain(2))) == [(0, 1), (1, 0)]


def test_critical_pairs_chain_empty():
    assert critical_pairs(chain(5)) == []


# ---------------------------------------------------------------------------
# reversibility

def test_single_pair_always_reversible():
    P = std_example(2)
    ok, ext, cyc = is_reversible(P, [(0, 2)])
    assert ok and cyc is None
    pos = {x: i for i, x in enumerate(ext)}
    assert pos[0] > pos[2]


def test_s2_both_critical_pairs_not_reversible():
    P = std_example(2)
    ok, ext, cyc = is_reversible(P, [(0, 2), (1, 3)])
    assert not ok and ext is None
    assert sorted(cyc) == [(0, 2), (1, 3)]


def test_full_critical_set_of_nonchain_never_reversible():
    # chain 0<1<2 plus an isolated point 3: crit = {(0,3),(3,2)}
    P = poset_from_relation(4, [(0, 1), (1, 2)])
    crit = critical_pairs(P)
    assert sorted(crit) == [(0, 3), (3, 2)]
    ok, _, cyc = is_reversible(P, crit)
    assert not ok and len(cyc) == 2
    # every proper subset is reversible
    for pair in crit:
        assert is_reversible(P, [pair])[0]


def brute_reversible(P, S):
    for ext in linear_extensions(P):
        pos = {x: i for i, x in enumerate(ext)}
        if all(pos[a] > pos[b] for a, b in S):
            return True
    return False


def is_strict_witness(P, S, cyc):
    """cyc is a strict alternating cycle of pairs drawn from S."""
    k = len(cyc)
    return all(c in S for c in cyc) and all(
        P.leq(cyc[i][0], cyc[j][1]) == (j == (i + 1) % k)
        for i in range(k) for j in range(k))


def test_reversibility_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(120):
        P = random_poset(rng, rng.randint(4, 8))
        inc = incomparable_pairs(P)
        if not inc:
            continue
        S = rng.sample(inc, min(len(inc), rng.randint(1, 5)))
        ok, ext, cyc = is_reversible(P, S)
        assert ok == brute_reversible(P, S)
        if ok:
            pos = {x: i for i, x in enumerate(ext)}
            assert all(pos[a] > pos[b] for a, b in S)
        else:
            assert is_strict_witness(P, S, cyc)


def test_reversibility_witnesses_are_strict_cycles_of_every_length():
    # larger pair sets than above, so the witness cycles are not all 2-cycles
    rng = random.Random(29)
    lengths = set()
    for _ in range(300):
        P = random_poset(rng, rng.randint(5, 10))
        inc = incomparable_pairs(P)
        if not inc:
            continue
        S = rng.sample(inc, min(len(inc), rng.randint(1, 12)))
        ok, ext, cyc = is_reversible(P, S)
        assert ok == (cyc is None) == (ext is not None)
        if ok:
            pos = {x: i for i, x in enumerate(ext)}
            assert all(pos[a] > pos[b] for a, b in S)
        else:
            assert is_strict_witness(P, S, cyc)
            lengths.add(len(cyc))
    assert 2 in lengths and max(lengths) >= 3


def test_strict_alternating_cycles():
    P = std_example(2)
    crit = critical_pairs(P)
    cycles = strict_alternating_cycles(P, crit, max_size=2)
    assert len(cycles) == 1 and len(cycles[0]) == 2
    assert strict_alternating_cycles(P, [crit[0]], max_size=4) == []


def test_longer_strict_cycle_found():
    # 6-cycle-ish: three pairs forming one strict alternating cycle of size 3
    # a_i <= b_{i+1} only: build height-2 poset with exactly those relations
    rel = [(0, 4), (1, 5), (2, 3)]  # a0<b1, a1<b2, a2<b0 with b_i = 3+i
    P = poset_from_relation(6, rel)
    pairs = [(0, 3), (1, 4), (2, 5)]
    assert all(P.incomparable(a, b) for a, b in pairs)
    cycles = strict_alternating_cycles(P, pairs, max_size=3)
    assert any(len(c) == 3 for c in cycles)
    assert not is_reversible(P, pairs)[0]


# ---------------------------------------------------------------------------
# width

def test_width_extremes():
    res = width(antichain(5))
    assert res.width == 5 and len(res.chains) == 5 and len(res.antichain) == 5
    res = width(chain(5))
    assert res.width == 1 and len(res.chains) == 1


def test_width_self_certifying():
    rng = random.Random(5)
    for _ in range(40):
        P = random_poset(rng, 8)
        res = width(P)
        assert len(res.antichain) == res.width == len(res.chains)
        covered = sorted(x for c in res.chains for x in c)
        assert covered == list(range(P.n))
        for c in res.chains:
            for u, v in zip(c, c[1:]):
                assert P.lt(u, v)
        for a in res.antichain:
            for b in res.antichain:
                assert a == b or P.incomparable(a, b)


def test_width_subposet():
    P = std_example(3)
    assert width(P, elements=[0, 1, 2]).width == 3
    # a_0 and b_0 are incomparable, so width 2
    assert width(P, elements=[0, 3]).width == 2
    # a_0 < b_1: a chain
    assert width(P, elements=[0, 4]).width == 1


# ---------------------------------------------------------------------------
# linear extensions

def test_linear_extension_counts():
    assert list(linear_extensions(chain(4))) == [(0, 1, 2, 3)]
    assert len(list(linear_extensions(antichain(2)))) == 2
    # brute-force permutation filter oracle on S_2
    P = std_example(2)
    brute = [p for p in permutations(range(4))
             if all(p.index(x) < p.index(y)
                    for x in range(4) for y in range(4) if P.lt(x, y))]
    exts = list(linear_extensions(P))
    assert sorted(exts) == sorted(brute)
    assert count_linear_extensions(P) == len(brute)


def test_linear_extensions_limit():
    with pytest.raises(CountExceeded):
        list(linear_extensions(antichain(5), limit=10))


def test_count_matches_enumeration():
    rng = random.Random(13)
    for _ in range(20):
        P = random_poset(rng, 6)
        assert count_linear_extensions(P) == len(list(linear_extensions(P)))


def test_extend_reversing_respects_order():
    rng = random.Random(17)
    for _ in range(20):
        P = random_poset(rng, 7)
        ext = extend_reversing(P, [])
        pos = {x: i for i, x in enumerate(ext)}
        for x in range(P.n):
            for y in range(P.n):
                if P.lt(x, y):
                    assert pos[x] < pos[y]


# ---------------------------------------------------------------------------
# standard examples

def test_standard_example_contains_itself():
    for t in (2, 3, 4):
        P = std_example(t)
        assert standard_example_number(P) == t
        emb = find_standard_example(P, t)
        assert emb is not None
        mins, maxs = emb
        for i in range(t):
            for j in range(t):
                assert P.lt(mins[i], maxs[j]) == (i != j)


def test_chain_has_no_standard_example():
    assert standard_example_number(chain(4)) == 1
    assert find_standard_example(chain(4), 2) is None


def brute_cliques(rows, k):
    """Every clique of the graph, sorted by size and then lexicographically."""
    return [c for size in range(k + 1) for c in combinations(range(k), size)
            if all((rows[u] >> v) & 1 for u, v in combinations(c, 2))]


def test_clique_matches_bruteforce():
    rng = random.Random(41)
    for _ in range(150):
        k = rng.randint(0, 12)
        density = rng.choice([0.2, 0.5, 0.8])
        rows = [0] * k
        for u, v in combinations(range(k), 2):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        cliques = brute_cliques(rows, k)
        largest = len(cliques[-1])
        assert _clique(rows, k) == list(min(c for c in cliques if len(c) == largest))
        for size in range(largest + 1):
            first = min(c for c in cliques if len(c) == size)
            assert _clique(rows, k, size) == list(first)
        assert _clique(rows, k, largest + 1) is None
