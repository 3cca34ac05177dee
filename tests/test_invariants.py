"""Cross-cutting structural invariants tied together across modules."""

import random
from itertools import combinations

from ordim import (Realizer, boolean_algebra, critical_pairs,
                   enumerate_geometries, find_standard_example,
                   geometry_critical_pairs, jkn, max_down_degree, pkn,
                   random_geometry, vc_dimension_shattering, verify_realizer)
from ordim.certificates import is_linear_extension

from oracles import (covers_by_definition, linear_extensions,
                     strict_alternating_cycles)
from posets import random_poset


def test_realizer_verdict_equals_critical_pair_coverage():
    # a tuple of permutations realizes the order iff each is a linear
    # extension and every critical pair is reversed somewhere; brute force
    # over random tuples of linear extensions, left as drawn, with two
    # adjacent entries of one swapped, or with one replaced by an arbitrary
    # permutation
    rng = random.Random(71)
    seen = set()
    for _ in range(180):
        P = random_poset(rng, rng.randint(4, 7))
        exts = list(linear_extensions(P, limit=50_000))
        crit = critical_pairs(P)
        pick = [list(exts[rng.randrange(len(exts))])
                for _ in range(rng.randint(1, 6))]
        seq = pick[rng.randrange(len(pick))]
        kind = rng.randrange(3)
        if kind == 1:
            i = rng.randrange(P.n - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        elif kind == 2:
            rng.shuffle(seq)
        pick = [tuple(e) for e in pick]
        linear = all(is_linear_extension(P, e) for e in pick)
        covered = all(any(e.index(a) > e.index(b) for e in pick)
                      for a, b in crit)
        assert verify_realizer(P, Realizer(tuple(pick))) == (linear and covered)
        seen.add((linear, covered))
    # accepted, uncovered and covered-but-not-linear tuples all occur
    assert {(True, True), (True, False), (False, True)} <= seen, seen


def test_two_cycle_iff_standard_example_on_distinct_elements():
    # among critical pairs, a strict alternating cycle of size 2 on four
    # distinct elements is the same thing as an induced standard example S_2
    for n in (2, 3, 4):
        for G in enumerate_geometries(n):
            P = G.poset
            crit = geometry_critical_pairs(G)
            cyc2 = set()
            for c in strict_alternating_cycles(P, crit, max_size=2):
                cyc2.add(frozenset(c))
            for p, q in combinations(crit, 2):
                ap, bp = p
                aq, bq = q
                distinct = len({ap, bp, aq, bq}) == 4
                is_cycle = frozenset((p, q)) in cyc2
                induces_s2 = (distinct
                              and P.lt(ap, bq) and P.lt(aq, bp)
                              and P.incomparable(ap, aq)
                              and P.incomparable(bp, bq))
                if distinct:
                    assert is_cycle == induces_s2
                elif is_cycle:
                    # degenerate cycles share an element (both orientations
                    # of a two-element antichain), no S_2 there
                    assert ap == bq or aq == bp


def test_bijection_exhaustive_ground_4():
    for G in enumerate_geometries(4):
        assert geometry_critical_pairs(G) == sorted(critical_pairs(G.poset))


def test_jkn_equals_meet_irreducibles_full_grid():
    for n in range(3, 10):
        for k in range(1, n - 1):
            G = pkn(k, n)
            assert tuple(G.masks[i] for i in G.meet_irr) == \
                jkn(k, n).masks


def test_vc_equals_maxdd_randomized_ground_5_6():
    for seed in range(30):
        G = random_geometry(5 + seed % 2, 2 + seed % 3, 500 + seed)
        assert vc_dimension_shattering(G.family) == max_down_degree(G.poset)


def test_se_one_geometry_has_no_standard_example():
    # a 6-member witness with maxdd 2 but no induced S_2
    from ordim import standard_example_number
    found = None
    for G in enumerate_geometries(3):
        if (len(G.family) == 6 and max_down_degree(G.poset) == 2
                and standard_example_number(G.poset) == 1):
            found = G
            break
    assert found is not None
    assert find_standard_example(found.poset, 2) is None


def test_boolean_algebra_contains_standard_example_via_layers():
    # singletons and co-singletons of the cube induce S_n
    for n in (3, 4):
        G = boolean_algebra(n)
        emb = find_standard_example(G.poset, n)
        assert emb is not None
        mins, maxs = emb
        assert all(bin(G.masks[i]).count("1") == 1 for i in mins)
        assert all(bin(G.masks[i]).count("1") == n - 1 for i in maxs)


def test_graded_cover_shortcut_matches_generic_definition():
    # geometry posets get their covers from one-element extensions; they must
    # agree with the betweenness definition computed from the order
    samples = list(enumerate_geometries(3)) + [pkn(1, 5), pkn(2, 5),
                                               boolean_algebra(3)]
    for G in samples:
        assert G.poset.covers == covers_by_definition(G.poset)
