"""Builders: named families, random joins, exhaustive enumeration."""

import pytest

from ordim import (ParamRange, Realizer, SetFamily, boolean_algebra,
                   enumerate_geometries, linear_geometry, max_down_degree, pkn,
                   qn_pn, random_geometry, set_to_mask, standard_example_number,
                   validate_convex_geometry, verify_realizer, width)
from ordim.constructions import is_pkn, jkn, jkn_members, pkn_member, pkn_size
from ordim.geometry import mask_to_set

from oracles import is_chain, qn_grid_realizer


def test_linear_geometry_shape():
    G = linear_geometry((1, 2, 3))
    assert [mask_to_set(m) for m in G.masks] == [(), (1,), (1, 2), (1, 2, 3)]
    assert len(G.family) == 4
    assert standard_example_number(G.poset) == 1
    assert max_down_degree(G.poset) == 1


def test_boolean_algebra_counts():
    assert len(boolean_algebra(1).family) == 2
    assert len(boolean_algebra(3).family) == 8
    assert standard_example_number(boolean_algebra(2).poset) == 1


def test_pkn_membership_rule_examples():
    k = 3
    assert pkn_member(set_to_mask([1, 2, 3, 6, 11]), k)
    assert pkn_member(set_to_mask([1, 2, 6, 10, 11]), k)
    assert not pkn_member(set_to_mask([1, 3, 6, 10, 11]), k)


def test_pkn_small_sets_always_members():
    from itertools import combinations
    k, n = 2, 6
    G = pkn(k, n)
    for size in range(k + 1):
        for c in combinations(range(1, n + 1), size):
            assert set_to_mask(c) in G.family


def test_pkn_family_sizes():
    assert len(pkn(1, 5).family) == 16
    # combinatorial generation matches the membership-rule filter
    for (k, n) in [(1, 4), (2, 5), (2, 6)]:
        G = pkn(k, n)
        brute = [m for m in range(1 << n) if pkn_member(m, k)]
        assert set(G.masks) == set(brute)


def test_pkn_param_range():
    with pytest.raises(ParamRange):
        pkn(0, 4)
    with pytest.raises(ParamRange):
        pkn(3, 4)


def test_jkn_explicit_j13():
    assert [mask_to_set(m) for m in jkn(1, 3).masks] == [
        (2,), (3,), (1, 2), (1, 3)]


def test_jkn_member_sizes_and_k_sets():
    for (k, n) in [(1, 5), (2, 6), (3, 7)]:
        J = jkn(k, n)
        for m in J.masks:
            assert bin(m).count("1") >= k
        k_sets = [m for m in J.masks if bin(m).count("1") == k]
        # k-element members are exactly the k-subsets avoiding element 1
        assert all(not m & 1 for m in k_sets)
        from math import comb
        assert len(k_sets) == comb(n - 1, k)


def test_jkn_members_table():
    for (k, n) in [(1, 3), (1, 5), (2, 6), (3, 7), (4, 9)]:
        members = jkn_members(k, n)
        for i, b in members:
            assert not (b >> (i - 1)) & 1               # i not in B
            assert not b & ((1 << i) - 1)               # B above i
            assert b.bit_count() == min(k, n - i)
        # the table lists jkn's members, in jkn's order
        assert [(1 << (i - 1)) - 1 | b for i, b in members] == list(jkn(k, n).masks)


def test_pkn_size_and_is_pkn_match_the_builder():
    for k in range(1, 5):
        for n in range(k + 2, 12):
            G = pkn(k, n)
            assert len(G.family) == pkn_size(k, n)
            assert is_pkn(G.family, k, n)
            assert not is_pkn(G.family, k, n + 1)
            if k > 1:
                assert not is_pkn(G.family, k - 1, n)
            if k + 1 <= n - 2:
                assert not is_pkn(G.family, k + 1, n)


def test_is_pkn_checks_every_member():
    G = pkn(2, 6)
    # trade a member the rule allows for one it forbids: same ground, same size
    masks = set(G.masks) - {set_to_mask([1, 2, 3])} | {set_to_mask([2, 3, 4])}
    assert not is_pkn(SetFamily.from_masks(6, masks), 2, 6)
    with pytest.raises(ParamRange):
        is_pkn(G.family, 5, 6)


def test_qn_pn_basic_shape():
    qg, pg = qn_pn(3)
    full = (1 << pg.ground_n) - 1
    assert 0 in pg.family and full in pg.family
    assert max_down_degree(pg.poset) == 3
    assert set(pg.masks) <= set(qg.masks)


def test_pn_meet_irreducible_antichain():
    for n in (3, 4, 5):
        _, pg = qn_pn(n)
        res = width(pg.poset, pg.meet_irr)
        assert res.width == n + 1


def test_qn_three_lexicographic_extensions_realize():
    for n in (3, 4):
        qg, _ = qn_pn(n)
        exts = qn_grid_realizer(n)
        assert verify_realizer(qg.poset, Realizer(tuple(exts)))


def test_pn_param_range():
    with pytest.raises(ParamRange):
        qn_pn(2)


def test_random_geometry_deterministic():
    a = random_geometry(5, 3, 42)
    b = random_geometry(5, 3, 42)
    assert a.masks == b.masks
    c = random_geometry(5, 3, 43)
    assert isinstance(c.masks, tuple)


def test_random_geometry_t1_is_linear():
    G = random_geometry(6, 1, 7)
    assert len(G.family) == 7
    assert is_chain(G.poset)


def test_random_geometry_saturates_to_power_set():
    # with many joined orders on 3 elements the family is almost surely 2^3
    hits = sum(len(random_geometry(3, 50, seed).family) == 8
               for seed in range(20))
    assert hits >= 15


def test_enumerate_counts():
    assert len(list(enumerate_geometries(1))) == 1
    fams = [tuple(g.masks) for g in enumerate_geometries(2)]
    assert sorted(fams) == sorted([(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)])
    assert len(list(enumerate_geometries(3))) == 22
    assert len(list(enumerate_geometries(4))) == 485


def test_enumerate_guard():
    with pytest.raises(ParamRange):
        list(enumerate_geometries(0))
    with pytest.raises(ParamRange):
        list(enumerate_geometries(6))
