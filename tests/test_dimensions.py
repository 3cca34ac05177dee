"""Solvers: order dimension, convex dimension, fractional dimension,
distinguishing machinery, Boolean dimension, and the aggregate report."""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ordim import (BudgetExceeded, InvalidRealizer, MalformedCertificate,
                   MaxTriesExceeded, NotDistinguishing, ParamRange, Realizer,
                   analyze, binary_distinguishing, boolean_algebra,
                   boolean_dimension_exact, convex_dimension, critical_pairs,
                   distinguishing_to_realizer, dm_dimension,
                   find_standard_example, fractional_dimension, linear_geometry, pkn,
                   pkn_fractional_certificate, poset_from_relation, qn_pn,
                   randomized_distinguishing,
                   realizer_to_distinguishing, set_to_mask,
                   standard_example_number, verify_convex_realizer,
                   verify_boolean_realizer, verify_distinguishing,
                   verify_fractional_realizer, verify_realizer)
from ordim import dimensions
from ordim.constructions import jkn
from ordim.dimensions import DimensionReport, DistinguishingSequence
from ordim.order import extend_reversing
from ordim.serialize import certificate_to_json, dumps, report_to_json

from oracles import (bdim_bruteforce, dm_dimension_unpruned, fdim_bruteforce,
                     is_reversible, linear_extensions, se_bruteforce)
from posets import antichain, chain, random_poset, std_example


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


@st.composite
def small_posets(draw, most=7):
    """A poset on at most 7 elements. Half the draws relate each i < j or
    not, on at most `most` elements; so that dimension 3 comes up, the other
    half take the standard example S_3, maybe a seventh element above some
    of its elements, and a random relabelling."""
    if draw(st.booleans()):
        n = draw(st.integers(1, most))
        edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
        return poset_from_relation(n, edges)
    n = draw(st.integers(6, 7))
    edges = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
    edges += [(x, 6) for x in range(6) if n == 7 and draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return poset_from_relation(n, [(perm[x], perm[y]) for x, y in edges])


def dim_by_extensions(P):
    """Brute force: the fewest linear extensions reversing every critical
    pair. k of them do iff, for some k - 1 reversal patterns, the pairs
    they leave unreversed form a reversible set."""
    crit = critical_pairs(P)
    if not crit:
        return 1
    patterns = set()
    for ext in linear_extensions(P):
        pos = {x: i for i, x in enumerate(ext)}
        patterns.add(sum(1 << i for i, (a, b) in enumerate(crit) if pos[a] > pos[b]))

    def coverable(k, left):
        if k == 1:
            return is_reversible(P, [crit[i] for i in range(len(crit))
                                     if (left >> i) & 1])[0]
        return any(coverable(k - 1, left & ~pat) for pat in patterns)

    k = 2
    while not coverable(k, (1 << len(crit)) - 1):
        k += 1
    return k


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_posets())
def test_dim_matches_bruteforce_and_unpruned_search(P):
    res = dm_dimension(P)
    assert res.dim == dim_by_extensions(P)
    assert verify_realizer(P, res.realizer)
    # the mutual-arc pruning cuts only subtrees without a cover, so the
    # first cover, and the realizer built from it, stay the same
    dim, realizer, nodes = dm_dimension_unpruned(P)
    assert (res.dim, res.realizer) == (dim, realizer)
    assert res.nodes <= nodes


# the whole dim search tree, pinned: nodes visited and the sha256 of the
# realizer's extensions as JSON. A change to the node loop that keeps the
# branch order, the cycle tests and the pruning keeps both. Without forward
# checking on the mutual-arc rows, pkn(1,12) took 484,656 nodes and
# pkn(1,13) more than 2 M.
DIM_SEARCH_TREE = {
    "pkn(1,8)": (4, 308, "481bb600c4aa91f700c9a11d6412712a06643ca1fc9a734362e980f19485a812"),
    "pkn(1,9)": (4, 563, "77434243461a8a0ed47e4af3d7f85b841a404a09c86a5d82b425142adfd19ffe"),
    "pkn(1,10)": (4, 1082, "b0d1fea05cb81895e138f7192a5f40a5406c8b96b20a7608917f6b7b36fd4fba"),
    "pkn(1,11)": (4, 2221, "e2a3f723f9175438074e9cffbbae4a2edb9abaf06895a73182956a3531469870"),
    "pkn(1,12)": (4, 7656, "2f28f19ec8f41b2648deb518d95161269b1e3c52413084b5155e948415cbf177"),
    "pkn(1,13)": (4, 17494, "01b6a2f0a284d0cf431bd6f40c969d4ac6ab18f9c9805ac75b8f119d4d1a1017"),
    "pkn(2,6)": (5, 69, "2e0a03459f8f8db72259b65963cdec4e094fdfac46797fc6a90eeac51d3927d2"),
    "pkn(2,7)": (5, 68, "1e330aeb86c0dcb906bd0d66d4d8fea4da95e57fb3cd38d60801fffbe5bb8581"),
    "pn(4)": (3, 19, "73282f528d5dad8b63f47ccd71ded98cf5cad2d87d45992c75519dec40352606"),
    "pn(5)": (3, 23, "7f55230b1f104cf086f11482c0e41429a685af4cddab26e2e7a6e88ec6b823a4"),
    "pn(6)": (3, 27, "c202faf6de9477a2d074f152097487ba6f25f73a01ee0d9dd554642b4a16ee81"),
}


@pytest.mark.parametrize("name", list(DIM_SEARCH_TREE))
def test_dim_search_tree_pinned(name):
    kind, args = name[:-1].split("(")
    ints = [int(v) for v in args.split(",")]
    G = pkn(*ints) if kind == "pkn" else qn_pn(*ints)[1]
    res = dm_dimension(G.poset)
    digest = hashlib.sha256(json.dumps(res.realizer.extensions).encode()).hexdigest()
    assert (res.dim, res.nodes, digest) == DIM_SEARCH_TREE[name]
    assert verify_realizer(G.poset, res.realizer)


# ---------------------------------------------------------------------------
# convex dimension

def test_cdim_formula_pkn():
    for (k, n) in [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]:
        G = pkn(k, n)
        res = convex_dimension(G)
        assert res.cdim == math.comb(n - 1, k)
        assert verify_convex_realizer(G, res.realizer.perms)


def test_cdim_linear():
    G = linear_geometry((1, 2, 3))
    res = convex_dimension(G)
    assert res.cdim == 1 and verify_convex_realizer(G, res.realizer.perms)


def test_cdim_pn():
    for n in (3, 4):
        G = qn_pn(n)[1]
        res = convex_dimension(G)
        assert res.cdim == n + 1 and verify_convex_realizer(G, res.realizer.perms)


def test_cdim_realizer_verifies_for_random_joins():
    from ordim import random_geometry
    for seed in range(8):
        G = random_geometry(5, 3, seed)
        res = convex_dimension(G)
        assert verify_convex_realizer(G, res.realizer.perms)
        assert len(res.realizer.perms) == res.cdim


def test_cdim_long_augmenting_paths_do_not_recurse():
    # the matcher's augmenting paths here are longer than the default
    # recursion limit, so a recursive depth-first search would fail
    G = pkn(2, 27)
    res = convex_dimension(G)
    assert res.cdim == math.comb(26, 2) == 325
    assert verify_convex_realizer(G, res.realizer.perms)


# ---------------------------------------------------------------------------
# fractional dimension

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


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_posets(most=6))
def test_fdim_matches_bruteforce_property(P):
    res = fractional_dimension(P)
    assert res.fdim == fdim_bruteforce(P)
    assert verify_fractional_realizer(P, res.realizer) == (True, res.fdim)
    # the duals certify the optimum: LP duality with equal objectives. A
    # chain has no critical pairs, so no rows and no duals, and fdim 1.
    assert sum(res.duals) == (res.fdim if res.rows else 0)


def test_fdim_crit_rows_equal_full_inc_rows():
    # the LP over critical pairs has the same optimum as over all of Inc
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


@pytest.mark.parametrize("G, value", [
    (pkn(1, 6), Fraction(8, 3)), (pkn(1, 7), Fraction(11, 4)),
    (pkn(2, 6), Fraction(23, 6)), (qn_pn(4)[1], 3), (qn_pn(5)[1], 3),
    (qn_pn(6)[1], 3),
], ids=["pkn(1,6)", "pkn(1,7)", "pkn(2,6)", "pn(4)", "pn(5)", "pn(6)"])
def test_fdim_pinned_values(G, value):
    res = fractional_dimension(G.poset)
    assert res.fdim == value
    assert verify_fractional_realizer(G.poset, res.realizer) == (True, value)


@pytest.mark.parametrize("n, value, most", [
    (8, Fraction(37, 13), 1000), (10, Fraction(92, 31), 4500),
])
def test_fdim_warm_start_pivots(n, value, most):
    # one tableau across all rounds: each new column costs a few dual
    # pivots, not a re-solve from the slack basis
    P = pkn(1, n).poset
    res = fractional_dimension(P)
    assert res.fdim == value
    assert res.pivots <= most
    assert verify_fractional_realizer(P, res.realizer) == (True, value)


def test_fdim_pricing_nodes():
    # a pair with a mutual arc into the pricing set is excluded unsearched
    # and its weight leaves the bound: 922,400 nodes before that
    P = pkn(1, 10).poset
    res = fractional_dimension(P)
    assert res.fdim == Fraction(92, 31)
    assert res.nodes <= 80_000


def test_fdim_seeds_skip_pairs_already_reversed(monkeypatch):
    # a seed grows one greedy reversible set from a pair no earlier seed
    # reverses; the antichain's 19 * 18 critical pairs need 19 seeds
    calls = [0]
    adds_cycle = dimensions._adds_cycle

    def counted(M, members, p):
        calls[0] += 1
        return adds_cycle(M, members, p)

    monkeypatch.setattr(dimensions, "_adds_cycle", counted)
    P = antichain(19)
    t = len(P.pair_data[0])
    assert t == 342
    res = fractional_dimension(P)
    assert res.fdim == 2
    assert verify_fractional_realizer(P, res.realizer) == (True, 2)
    assert calls[0] <= 19 * t


# fdim column generation pinned: (fdim, rounds, pricing nodes, pivots,
# sha256 of the fractional certificate's JSON text). A faster LP or pricing
# search that keeps its pivot rules and search order leaves all five as
# they are.
FDIM_COLUMN_GENERATION = {
    "pkn(1,5)": (Fraction(5, 2), 13, 97, 23, "f4207ba785a48e0de3e4f0e02311cca1a75003dc713e71a137fc442370d8fc33"),
    "pkn(1,6)": (Fraction(8, 3), 26, 422, 89, "0c58b2e1576011d50e59925de41091eceea867fb00e94aba739bb5e51fd53669"),
    "pkn(1,7)": (Fraction(11, 4), 47, 1460, 249, "94f8d724ab3c47ea9e51c2242fada9098636cecb541f6343de89dce7bcffd158"),
    "pkn(1,8)": (Fraction(37, 13), 61, 4243, 596, "a2ac2058db8130d9dc4a58a6dec6540b32b627a0fdc47f4aa6b00363fdbc8b37"),
    "pkn(1,10)": (Fraction(92, 31), 97, 31013, 1878, "e0d8bdd13a187c799449366c3d8668873d87cc048de6d4296ccaf1efc7e481d2"),
    "pkn(2,6)": (Fraction(23, 6), 22, 284, 42, "b24337d1ea4d7885b10cff5c9a205ae7346f752deb272220c3148fbb5ef675f6"),
    "pn(4)": (3, 1, 3, 4, "6b6de8cf7098159c56d8a0fe4b7a666f805194f1eb62e8212a1288d5f81fb416"),
    "pn(5)": (3, 1, 3, 4, "8fe29c070d134b1a1009af80daa263267f56e206cd2a40c33cdd5691ddb0de73"),
    "antichain(19)": (2, 2, 21, 21, "54b405ab4c81212f15c2bb9bb53813e9098101f8e33bf3e3812c543a43759f48"),
}


@pytest.mark.parametrize("name", list(FDIM_COLUMN_GENERATION))
def test_fdim_column_generation_pinned(name):
    kind, args = name[:-1].split("(")
    ints = [int(v) for v in args.split(",")]
    if kind == "antichain":
        P = antichain(*ints)
    else:
        P = (pkn(*ints) if kind == "pkn" else qn_pn(*ints)[1]).poset
    res = fractional_dimension(P)
    digest = hashlib.sha256(
        dumps(certificate_to_json(res.realizer)).encode()).hexdigest()
    assert (res.fdim, res.iterations, res.nodes, res.pivots,
            digest) == FDIM_COLUMN_GENERATION[name]


def test_fdim_budget_gives_sound_interval():
    # pricing nodes count against the budget over all rounds: exactly the
    # nodes a full solve takes are enough, and any fewer give proved bounds
    P = pkn(1, 7).poset
    full = fractional_dimension(P)
    assert full.fdim == Fraction(11, 4)
    assert fractional_dimension(P, budget=full.nodes).fdim == full.fdim
    # the exact intervals: the best Farley bound so far, and the restricted
    # LP's optimum
    intervals = {0: (1, 6), 146: (Fraction(21, 10), Fraction(7, 2)),
                 730: (Fraction(1931, 804), Fraction(85, 29)),
                 1459: (Fraction(5, 2), Fraction(11, 4))}
    assert sorted(intervals) == [0, full.nodes // 10, full.nodes // 2,
                                 full.nodes - 1]
    for budget, interval in intervals.items():
        with pytest.raises(BudgetExceeded) as info:
            fractional_dimension(P, budget=budget)
        exc = info.value
        assert 1 <= exc.lower <= full.fdim <= exc.upper
        assert (exc.lower, exc.upper) == interval
        # the restricted LP's primal is a fractional realizer of weight upper
        assert verify_fractional_realizer(P, exc.partial) == (True, exc.upper)


# ---------------------------------------------------------------------------
# standard example number

@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_posets())
def test_standard_example_matches_bruteforce_property(P):
    se = standard_example_number(P)
    assert se == se_bruteforce(P)
    if se >= 2:
        mins, maxs = find_standard_example(P, se)
        for i in range(se):
            assert P.incomparable(mins[i], maxs[i])
            for j in range(se):
                if i != j:
                    assert P.lt(mins[i], maxs[j])
    assert find_standard_example(P, se + 1) is None


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


@pytest.mark.parametrize("k, n", [(1, 4), (2, 5), (2, 6), (3, 6)])
def test_pkn_certificate_pair_coverage_floor(k, n):
    # one extension per nonempty subset of the ground set, each critical
    # pair reversed by at least 2^(n-k-1) of them
    G = pkn(k, n)
    cert = pkn_fractional_certificate(k, n, G=G)
    assert verify_fractional_realizer(G.poset, cert) == (
        True, Fraction(2 ** (k + 1) * (2 ** n - 1), 2 ** n))
    assert len(cert.weighted) == 2 ** n - 1
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


def test_marks_above_t_are_malformed():
    # binary_distinguishing(5) uses marks 1..3; a sequence claiming fewer
    # marks than its sets carry is malformed, not distinguishing
    seq = binary_distinguishing(5)
    assert verify_distinguishing(1, 5, seq) == (True, None)
    for t in (0, 1, 2):
        with pytest.raises(MalformedCertificate):
            verify_distinguishing(1, 5, DistinguishingSequence(1, 5, t, seq.sets))
    negative = DistinguishingSequence(1, 5, 3, seq.sets[:4] + (-1,))
    with pytest.raises(MalformedCertificate):
        verify_distinguishing(1, 5, negative)
    # a negative t is refused before the marks test shifts each set by t
    with pytest.raises(MalformedCertificate):
        verify_distinguishing(1, 5, DistinguishingSequence(1, 5, -1, (0,) * 5))


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


def realizer_by_class_rule(k, n, seq, G):
    """Mark alpha reverses the critical pair ({i}, prefix+B) of every member
    with alpha in Y_i and in no Y_j for j in B; one extension per mark."""
    P = G.poset
    members = []
    for mask in jkn(k, n).masks:
        i = 1
        while (mask >> (i - 1)) & 1:
            i += 1
        members.append((i, [j for j in range(i + 1, n + 1) if (mask >> (j - 1)) & 1],
                        mask))
    exts = []
    for alpha in range(1, seq.t + 1):
        cls = [(G.member_index(1 << (i - 1)), G.member_index(mask))
               for i, b_elems, mask in members
               if alpha in seq.set_of(i)
               and all(alpha not in seq.set_of(j) for j in b_elems)]
        exts.append(extend_reversing(P, cls))
    return Realizer(tuple(exts))


def test_distinguishing_to_realizer_matches_class_rule():
    cases = [(1, n, binary_distinguishing(n)) for n in (3, 5, 8)]
    for k, n, seed in [(1, 4, 0), (1, 6, 1), (1, 9, 2), (2, 5, 3), (2, 6, 4),
                       (2, 8, 5)]:
        cases.append((k, n, randomized_distinguishing(k, n, seed=seed)[0]))
    for k, n, seq in cases:
        G = pkn(k, n)
        assert distinguishing_to_realizer(k, n, seq, G=G) == \
            realizer_by_class_rule(k, n, seq, G)
    # emptying Y_1 leaves every member without 1 with no mark of its own
    k, n, seq = cases[-1]
    bad = DistinguishingSequence(k, n, seq.t, (0,) + seq.sets[1:])
    assert not verify_distinguishing(k, n, bad)[0]
    with pytest.raises(NotDistinguishing):
        distinguishing_to_realizer(k, n, bad, G=pkn(k, n))


@pytest.mark.parametrize("G", [pkn(2, 5), boolean_algebra(5), qn_pn(3)[1]],
                         ids=["pkn(2,5)", "boolean(5)", "pn(3)"])
def test_pkn_certificate_builders_refuse_another_geometry(G):
    seq = binary_distinguishing(5)
    R = distinguishing_to_realizer(1, 5, seq)
    with pytest.raises(ParamRange):
        distinguishing_to_realizer(1, 5, seq, G=G)
    with pytest.raises(ParamRange):
        realizer_to_distinguishing(1, 5, R, G=G)
    with pytest.raises(ParamRange):
        pkn_fractional_certificate(1, 5, G=G)


def test_randomized_distinguishing_gives_up_after_max_tries(monkeypatch):
    calls = []

    def never(k, n, seq):
        calls.append(seq)
        return False, ()

    monkeypatch.setattr(dimensions, "verify_distinguishing", never)
    with pytest.raises(MaxTriesExceeded):
        randomized_distinguishing(1, 5, seed=0)
    assert len(calls) == dimensions.MAX_TRIES == 100


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


@pytest.mark.parametrize("P", [antichain(1), antichain(2), antichain(5)],
                         ids=["one-element", "antichain-2", "antichain-5"])
def test_bdim_antichain_has_one_order(P):
    # no comparable pair: one order with the empty accepting set is feasible
    bd, cert = boolean_dimension_exact(P)
    assert bd == 1 and len(cert.orders) == 1 and cert.tau == frozenset()
    assert verify_boolean_realizer(P, cert)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_posets(most=5).filter(lambda P: P.n <= 5))
def test_bdim_matches_bruteforce(P):
    bd, cert = boolean_dimension_exact(P)
    assert bd == bdim_bruteforce(P)
    assert len(cert.orders) == bd
    assert verify_boolean_realizer(P, cert)


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


def test_analyze_warns_once_per_cut_solver():
    rep = analyze(pkn(1, 7), params=("dim", "fdim"), budget=1)
    assert rep.dim is None and rep.fdim is None
    assert len(rep.warnings) == 2
    assert rep.warnings[0].startswith("dimension search out of budget")
    assert rep.warnings[1].startswith("fractional dimension out of budget (proved ")


def test_analyze_computes_pair_data_once(monkeypatch):
    # dim, se and fdim share the poset's cached pairs and pair relations
    import ordim.order
    calls = {}

    def counting(name):
        original = getattr(ordim.order, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(ordim.order, name, wrapper)

    counting("critical_pairs")
    counting("pair_relations")
    assert analyze(pkn(1, 5)).dim == 3
    assert calls == {"critical_pairs": 1, "pair_relations": 1}


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
