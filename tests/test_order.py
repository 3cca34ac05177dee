"""Core poset machinery: relations, pairs, reversibility, width, extensions."""

import heapq
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ordim import (CycleError, critical_pairs, downset_lattice,
                   enumerate_geometries, find_standard_example, max_down_degree,
                   poset_from_relation, standard_example_number, width)
from ordim.order import (_bits, _clique, _heaviest_reversible, extend_reversing,
                         max_weight_reversal, pair_digraph, pair_relations)

from oracles import (CountExceeded, check_order, covers_by_definition,
                     incomparable_pairs, is_reversible, linear_extensions,
                     strict_alternating_cycles)
from posets import antichain, chain, random_poset, std_example


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
    # the cycle is named as listed pairs from its least element, not as a
    # mutually reachable pair
    for n, pairs, cycle in ((2, [(0, 1), (1, 0)], [0, 1]),
                            (2, [(1, 0), (0, 1)], [0, 1]),
                            (3, [(2, 0), (0, 1), (1, 2)], [0, 1, 2])):
        with pytest.raises(CycleError) as exc:
            poset_from_relation(n, pairs)
        assert exc.value.cycle == cycle


@st.composite
def relations(draw):
    """(n, pairs) on at most 12 elements, in any order, with self-pairs and
    repeats; half the draws orient every pair along a hidden linear order,
    so that acyclic relations are as common as cyclic ones."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=30))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        pairs = [(x, y) if rank[x] <= rank[y] else (y, x) for x, y in pairs]
    return n, pairs


def reachable(n, pairs):
    """reach[x]: the elements a breadth-first search from x reaches over the
    listed pairs, x included."""
    succ = [set() for _ in range(n)]
    for x, y in pairs:
        succ[x].add(y)
    reach = []
    for x in range(n):
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [z for y in frontier for z in succ[y] if z not in seen]
            seen.update(frontier)
        reach.append(seen)
    return reach


@settings(derandomize=True, max_examples=400, deadline=None)
@given(relations())
def test_relation_closure_matches_reachability(rel):
    n, pairs = rel
    reach = reachable(n, pairs)
    cyclic = any(x in reach[y] for x in range(n) for y in reach[x] if y != x)
    if cyclic:
        with pytest.raises(CycleError) as exc:
            poset_from_relation(n, pairs)
        cycle = exc.value.cycle
        assert len(set(cycle)) == len(cycle) >= 2
        assert cycle[0] == min(cycle)
        listed = set(pairs)
        assert all((x, y) in listed for x, y in zip(cycle, cycle[1:] + cycle[:1]))
        return
    P = poset_from_relation(n, pairs)
    assert P.up == tuple(sum(1 << y for y in reach[x]) for x in range(n))
    assert P.down == tuple(sum(1 << x for x in range(n) if (P.up[x] >> y) & 1)
                           for y in range(n))
    assert P.covers == covers_by_definition(P)


def test_validate_accepts_built_posets():
    rng = random.Random(7)
    for _ in range(20):
        check_order(random_poset(rng, 7))


# ---------------------------------------------------------------------------
# covers and degrees

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
        assert P.covers == covers_by_definition(P)


def test_degrees():
    P = chain(4)
    assert max_down_degree(P) == 1
    assert P.cover_indeg == (0, 1, 1, 1)
    assert P.cover_succ == ((1,), (2,), (3,), ())
    # diamond: 0 < 1,2 < 3
    D = poset_from_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert D.cover_indeg == (0, 1, 1, 2) and D.cover_succ[0] == (1, 2)
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


def critical_pairs_by_definition(P):
    """Oracle: scan every incomparable (a, b) and test the definition on the
    full ideal of a and filter of b."""
    out = []
    for a in range(P.n):
        strict_down = P.down[a] & ~(1 << a)
        comp = P.up[a] | P.down[a]
        for b in _bits(~comp & ((1 << P.n) - 1)):
            if strict_down & ~P.down[b]:
                continue
            if P.up[b] & ~(1 << b) & ~P.up[a]:
                continue
            out.append((a, b))
    return out


@st.composite
def relabelled_posets(draw):
    """A poset on at most 12 elements, its relation drawn on a random
    labelling so that covers do not follow the index order."""
    n = draw(st.integers(0, 12))
    edges = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    perm = draw(st.permutations(range(n)))
    return poset_from_relation(
        n, [(perm[x], perm[y]) for (x, y), on in zip(edges, keep) if on])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(relabelled_posets())
def test_critical_pairs_match_definition(P):
    assert critical_pairs(P) == critical_pairs_by_definition(P)
    assert P.pair_data[0] == tuple(critical_pairs_by_definition(P))


def test_critical_pairs_match_definition_on_enumerated_geometries():
    for G in enumerate_geometries(4):
        assert critical_pairs(G.poset) == critical_pairs_by_definition(G.poset)


def pair_rows_by_definition(P, pairs, rel):
    """Oracle: first[p] holds q iff rel(a_p, b_q), second[p] iff
    rel(a_q, b_p), by a scan over all pairs of pairs."""
    t = len(pairs)
    first, second = [0] * t, [0] * t
    for p, (ap, bp) in enumerate(pairs):
        for q, (aq, bq) in enumerate(pairs):
            if rel(ap, bq):
                first[p] |= 1 << q
            if rel(aq, bp):
                second[p] |= 1 << q
    return first, second


def pair_relations_by_definition(P, pairs):
    """Oracle: the arcs, mutual arcs and standard-example legs among the
    pairs, each by its own scan over all pairs of pairs."""
    t = len(pairs)
    arcs = [0] * t
    for p, (ap, bp) in enumerate(pairs):
        for q, (aq, bq) in enumerate(pairs):
            if p != q and (P.up[ap] >> bq) & 1:
                arcs[p] |= 1 << q
    mutual = [0] * t
    for p in range(t):
        for q in _bits(arcs[p]):
            if (arcs[q] >> p) & 1:
                mutual[p] |= 1 << q
    legs = [0] * t
    for p in range(t):
        ap, bp = pairs[p]
        for q in range(p + 1, t):
            aq, bq = pairs[q]
            if len({ap, bp, aq, bq}) < 4:
                continue
            if ((P.up[ap] >> bq) & 1 and (P.up[aq] >> bp) & 1
                    and P.incomparable(ap, aq) and P.incomparable(bp, bq)):
                legs[p] |= 1 << q
                legs[q] |= 1 << p
    return arcs, mutual, legs


@settings(derandomize=True, max_examples=150, deadline=None)
@given(relabelled_posets(), st.data())
def test_pair_relations_match_definition(P, data):
    crit = critical_pairs(P)
    inc = incomparable_pairs(P)
    repeated = data.draw(st.permutations(inc + inc[::2]))
    for pairs in (crit, inc, repeated):
        arcs, mutual, legs = pair_relations_by_definition(P, pairs)
        rows = pair_relations(P, pairs)
        assert rows == (*pair_rows_by_definition(P, pairs, P.leq),
                        *pair_rows_by_definition(P, pairs, P.lt))
        first, below, sarcs, sbelow = rows
        assert first == arcs and pair_digraph(P, pairs) == arcs
        assert [x & y for x, y in zip(first, below)] == mutual
        assert [x & y for x, y in zip(sarcs, sbelow)] == legs
        # pairs with the same element share its row object
        assert all(len(set(map(id, row))) <= P.n for row in rows)
    want = map(tuple, pair_relations(P, crit))
    assert P.pair_data == (tuple(crit), *want)
    assert all(len(set(map(id, row))) <= P.n for row in P.pair_data[1:])


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
# heaviest reversible pair set, the fdim pricing step

@st.composite
def weighted_critical_pairs(draw):
    """A poset on at most 8 elements and non-negative rational weights on its
    critical pairs, zeros and ties included."""
    n = draw(st.integers(1, 8))
    edges = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    P = poset_from_relation(n, [e for e, on in zip(edges, keep) if on])
    pairs = critical_pairs(P)
    weight = (st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
              | st.fractions(min_value=0, max_value=3, max_denominator=6))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return P, pairs, weights


def reversed_weight(pairs, weights, ext):
    pos = {x: i for i, x in enumerate(ext)}
    return sum((w for (a, b), w in zip(pairs, weights) if pos[a] > pos[b]),
               Fraction(0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(weighted_critical_pairs())
def test_heaviest_reversible_matches_dp_and_bruteforce(case):
    P, pairs, weights = case
    scale = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (scale // w.denominator) for w in weights]
    M, below, _, _ = pair_relations(P, pairs)
    value, members, nodes = _heaviest_reversible(M, below, ints)
    best = Fraction(value, scale)
    dp, _ = max_weight_reversal(P, pairs, weights, downset_lattice(P))
    brute = max(reversed_weight(pairs, weights, ext) for ext in linear_extensions(P))
    assert best == dp == brute
    chosen = [pairs[q] for q in _bits(members)]
    assert sum(weights[q] for q in _bits(members)) == best
    ok, ext, _ = is_reversible(P, chosen)
    assert ok
    assert reversed_weight(pairs, weights, ext) >= best
    # a search cut short bounds the optimum from above
    for limit in ({0, nodes // 2, nodes - 1} if nodes else ()):
        bound, cut, used = _heaviest_reversible(M, below, ints, limit)
        assert cut is None and used == limit and bound >= value


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


def test_linear_extensions_limit():
    with pytest.raises(CountExceeded):
        list(linear_extensions(antichain(5), limit=10))


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


def extend_reversing_bitmask(P, pairs):
    """Reference Kahn walk on successor and predecessor bitmasks, where a
    repeated arc sets the same bit twice."""
    n = P.n
    succ, pred = [0] * n, [0] * n
    for x, y in P.covers:
        succ[x] |= 1 << y
        pred[y] |= 1 << x
    for a, b in pairs:
        succ[b] |= 1 << a
        pred[a] |= 1 << b
    indeg = [pred[y].bit_count() for y in range(n)]
    heap = [x for x in range(n) if indeg[x] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for y in _bits(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    return tuple(out) if len(out) == n else None


def shuffled_poset(rng, n):
    """random_poset with its elements relabelled, so that index order is
    not a linear extension."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    return poset_from_relation(n, pairs)


def test_extend_reversing_matches_bitmask_walk():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(300):
        P = shuffled_poset(rng, rng.randint(1, 9))
        inc = incomparable_pairs(P)
        comp = [(x, y) for x in range(P.n) for y in range(P.n) if P.lt(x, y)]
        # (y, x) for a cover x < y puts x before y: the cover arc again
        cover_arcs = [(y, x) for x, y in P.covers]
        picks = rng.sample(inc, rng.randint(0, min(4, len(inc))))
        cases = [[], picks, picks + picks[:2], picks + cover_arcs,
                 rng.sample(cover_arcs, min(3, len(cover_arcs))) * 2]
        if comp:
            cases.append(picks + [rng.choice(comp)])
        for pairs in cases:
            want = extend_reversing_bitmask(P, pairs)
            assert extend_reversing(P, pairs) == want, (P, pairs)
            outcomes.add(want is None)
            if comp and pairs and pairs[-1] in comp:
                assert want is None
    assert outcomes == {True, False}


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
        # the adjacency is the AND of two rows, each with extra bits the
        # other lacks
        odd = sum(1 << v for v in range(1, k, 2))
        even = (1 << k) - 1 & ~odd
        first = [row | odd for row in rows]
        second = [row | even for row in rows]
        cliques = brute_cliques(rows, k)
        largest = len(cliques[-1])
        assert (_clique(first, second, k)
                == list(min(c for c in cliques if len(c) == largest)))
        for size in range(largest + 1):
            want = min(c for c in cliques if len(c) == size)
            assert _clique(first, second, k, size) == list(want)
        assert _clique(first, second, k, largest + 1) is None


def test_standard_example_deeper_than_recursion_limit(fresh_python):
    # the clique search and the dimension search go one level deeper per
    # leg of S_n
    code = """
import sys
from ordim.dimensions import dm_dimension
from ordim.order import (find_standard_example, poset_from_relation,
                         standard_example_number)
sys.setrecursionlimit(200)
n = 300
P = poset_from_relation(2 * n, [(i, n + j) for i in range(n) for j in range(n)
                                if i != j])
assert standard_example_number(P) == n
assert find_standard_example(P, n) == (tuple(range(n)), tuple(range(n, 2 * n)))
assert dm_dimension(P).dim == n
print("ok")
"""
    out = fresh_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
