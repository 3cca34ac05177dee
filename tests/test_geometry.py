"""Axioms, lattice structure, irreducibles, VC dimension, joins, chains."""

import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from ordim import (AxiomViolation, ConvexGeometry, GroundMismatch, SetFamily,
                   boolean_algebra, check_boolean_property, convex_dimension,
                   critical_pairs, enumerate_geometries, geometry_critical_pairs,
                   join_geometries, linear_geometry, mask_to_set, pkn,
                   poset_from_relation, qn_pn, random_geometry, set_to_mask,
                   validate_convex_geometry, vc_dimension_shattering,
                   verify_convex_realizer)
from ordim.constructions import jkn
from ordim.geometry import set_label

from oracles import (convex_realizer_by_join, covers_by_definition, is_chain,
                     maximal_chains)


def family(n, *sets):
    return SetFamily.from_sets(n, sets)


def brute_force_geometries(n):
    """All convex geometries on {1..n} by filtering every subset family."""
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    out = []
    for picks in product((0, 1), repeat=len(middles)):
        fam = {0, full} | {m for m, p in zip(middles, picks) if p}
        if not all((a & b) in fam for a in fam for b in fam):
            continue
        if not all(a == full or any(
                not (a >> e) & 1 and (a | (1 << e)) in fam for e in range(n))
                for a in fam):
            continue
        out.append(tuple(sorted(fam, key=lambda m: (bin(m).count('1'), m))))
    return sorted(out)


# ---------------------------------------------------------------------------
# validation

def test_power_set_validates():
    G = validate_convex_geometry(family(2, [], [1], [2], [1, 2]))
    assert len(G.family) == 4


def test_sparse_family_validates():
    G = validate_convex_geometry(family(2, [], [1], [1, 2]))
    assert is_chain(G.poset)


def test_extension_violation_witness_empty_set():
    with pytest.raises(AxiomViolation) as exc:
        validate_convex_geometry(family(2, [], [1, 2]))
    assert exc.value.axiom == "extension"
    assert exc.value.witness == ()


def test_base_violation():
    with pytest.raises(AxiomViolation) as exc:
        validate_convex_geometry(SetFamily.from_masks(2, [1, 3]))
    assert exc.value.axiom == "base"


def test_intersection_violation():
    with pytest.raises(AxiomViolation) as exc:
        validate_convex_geometry(family(3, [], [1, 2], [2, 3], [1, 2, 3]))
    assert exc.value.axiom == "intersection"


def first_violation(n, masks):
    """(axiom, witness) of the first axiom the family breaks, or None, read
    off the definitions: base first, then the first pair (B, A) with B
    before A in canonical order, A scanned first, whose intersection is
    missing, then the first member with no one-element extension."""
    fam = set(masks)
    full = (1 << n) - 1
    if 0 not in fam:
        return "base", ()
    if full not in fam:
        return "base", mask_to_set(full)
    order = sorted(fam, key=lambda m: (bin(m).count("1"), m))
    for i, a in enumerate(order):
        for b in order[:i]:
            if a & b not in fam:
                return "intersection", (mask_to_set(b), mask_to_set(a))
    for a in order:
        if a != full and not any((a | (1 << e)) in fam
                                 for e in range(n) if not (a >> e) & 1):
            return "extension", mask_to_set(a)
    return None


def validation_outcome(n, masks):
    try:
        validate_convex_geometry(SetFamily.from_masks(n, masks))
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def test_validation_matches_axiom_oracle_on_every_small_family():
    accepted = []
    for n in (1, 2, 3, 4):
        count = 0
        for pick in range(1 << (1 << n)):
            masks = [m for m in range(1 << n) if (pick >> m) & 1]
            want = first_violation(n, masks)
            assert validation_outcome(n, masks) == want, (n, masks)
            count += want is None
        accepted.append(count)
    assert accepted == [1, 3, 22, 485]


def test_validation_matches_axiom_oracle_on_perturbed_geometries():
    seen = set()
    for n in (5, 6, 7):
        for seed in range(10):
            members = set(random_geometry(n, 3, seed).masks)
            variants = [members - {a} for a in members]
            variants += [members | {a} for a in range(1 << n) if a not in members]
            for masks in variants:
                want = first_violation(n, masks)
                assert validation_outcome(n, masks) == want, (n, sorted(masks))
                seen.add(want[0] if want else None)
    assert seen == {None, "base", "intersection", "extension"}


def inclusion_rows(G):
    """Filter and ideal rows straight from inclusion: B lies above A iff it
    holds every element of A, and below A iff it misses every element
    outside A."""
    masks, n = G.masks, G.ground_n
    every = (1 << len(masks)) - 1
    holds = [sum(1 << j for j, b in enumerate(masks) if (b >> e) & 1)
             for e in range(n)]
    up, down = [], []
    for a in masks:
        u = d = every
        for e in range(n):
            if (a >> e) & 1:
                u &= holds[e]
            else:
                d &= ~holds[e]
        up.append(u)
        down.append(d)
    return tuple(up), tuple(down)


def set_bits(row):
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def test_poset_rows_and_covers_match_inclusion_scan():
    samples = list(enumerate_geometries(4))
    samples += [pkn(1, n) for n in range(5, 13)]
    samples += [pkn(2, n) for n in range(6, 13)] + [pkn(2, 32)]
    samples += [qn_pn(n)[1] for n in range(3, 7)]
    samples += [random_geometry(7, 3, s) for s in range(10)]
    for G in samples:
        up, down = inclusion_rows(G)
        assert G.poset.up == up and G.poset.down == down
        m = len(G.masks)
        # y covers x iff the interval [x, y] holds nothing else
        covers = tuple((x, y) for x in range(m) for y in set_bits(up[x])
                       if (up[x] & down[y]).bit_count() == 2)
        assert G.poset.covers == covers
        above = Counter(x for x, _ in covers)
        below = Counter(y for _, y in covers)
        assert G.meet_irr == tuple(x for x in range(m) if above[x] == 1)
        assert G.join_irr == tuple(y for y in range(m) if below[y] == 1)
        # every cover form agrees with the scanned pairs
        succ, pred = [[] for _ in range(m)], [[] for _ in range(m)]
        for x, y in covers:
            succ[x].append(y)
            pred[y].append(x)
        assert G.poset.cover_succ == tuple(map(tuple, succ))
        assert G.poset.cover_pred == tuple(map(tuple, pred))
        assert G.poset.cover_indeg == tuple(below[y] for y in range(m))
        # the relation builder closes the same covers to the same poset
        P = poset_from_relation(m, G.poset.covers)
        assert (P.up, P.down, P.cover_succ) == (up, down, G.poset.cover_succ)


def test_validated_covers_match_generic_scan():
    # geometry posets get their covers from one-element extensions, and
    # is_linear_extension checks only these pairs, so they must be exactly
    # the covers of the order by definition
    for seed in range(40):
        n, t = 4 + seed % 7, 1 + seed % 4
        G = validate_convex_geometry(random_geometry(n, t, seed).family)
        assert G.poset.covers == covers_by_definition(G.poset)


def test_import_leaves_numpy_unloaded(fresh_python):
    out = fresh_python("import sys, ordim; print('numpy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_ground_zero_rejected():
    from ordim import ParamRange
    with pytest.raises(ParamRange):
        SetFamily.from_masks(0, [0])


# ---------------------------------------------------------------------------
# lattice operations

def test_meet_is_intersection_everywhere():
    G = pkn(1, 4)
    for a in G.masks:
        for b in G.masks:
            assert (a & b) in G.family


# ---------------------------------------------------------------------------
# irreducibles and the critical pair correspondence

def test_irreducibles_of_pkn():
    for (k, n) in [(1, 3), (1, 5), (2, 5), (2, 6), (3, 6)]:
        G = pkn(k, n)
        mi_masks = tuple(G.masks[i] for i in G.meet_irr)
        assert mi_masks == jkn(k, n).masks
        ji_masks = [G.masks[i] for i in G.join_irr]
        assert sorted(ji_masks) == [1 << e for e in range(n)]


def test_chain_geometry_meet_irreducibles():
    G = linear_geometry((1, 2, 3))
    # every member except the top has exactly one cover
    assert G.meet_irr == tuple(range(len(G.family) - 1))


def test_geometry_critical_pairs_boolean_and_chain():
    # each 2-set of boolean(3) is meet-irreducible and pairs with the
    # singleton of the element outside it
    G = boolean_algebra(3)
    idx = lambda *s: G.member_index(set_to_mask(s))
    assert geometry_critical_pairs(G) == sorted(
        [(idx(3), idx(1, 2)), (idx(2), idx(1, 3)), (idx(1), idx(2, 3))])
    # on a chain every attached pair is comparable, so none is critical
    assert geometry_critical_pairs(linear_geometry((1, 2, 3))) == []


def test_chain_correspondence_degenerates():
    # every member of a chain below the top is meet-irreducible, and no
    # two members are incomparable
    G = linear_geometry((1, 2, 3))
    assert len(G.meet_irr) == 3 and critical_pairs(G.poset) == []
    assert geometry_critical_pairs(G) == []


def test_bijection_matches_generic_critical_pairs():
    # exhaustive over every labeled geometry with ground <= 3 plus samples
    from ordim import enumerate_geometries
    for n in (1, 2, 3):
        for G in enumerate_geometries(n):
            assert geometry_critical_pairs(G) == sorted(critical_pairs(G.poset))
    for G in (pkn(1, 5), pkn(2, 5), boolean_algebra(3)):
        assert geometry_critical_pairs(G) == sorted(critical_pairs(G.poset))


def test_pkn_critical_pairs_shape():
    # every critical pair is (singleton {i}, prefix-plus-tail member)
    G = pkn(1, 4)
    for a, b in geometry_critical_pairs(G):
        assert bin(G.masks[a]).count("1") == 1


# ---------------------------------------------------------------------------
# VC dimension

def test_vc_power_set():
    for n in (1, 2, 3, 4):
        assert vc_dimension_shattering(boolean_algebra(n).family) == n


def test_vc_linear():
    assert vc_dimension_shattering(linear_geometry((1, 2, 3, 4)).family) == 1


def test_vc_pkn():
    for (k, n) in [(1, 4), (1, 6), (2, 5), (2, 6)]:
        G = pkn(k, n)
        assert vc_dimension_shattering(G.family) == k + 1


def test_vc_degenerate_zero():
    fam = SetFamily.from_masks(2, [0b01, 0b01])
    assert vc_dimension_shattering(fam) == 0


def vc_oracle(fam):
    """Largest C with every S ⊆ C a trace m & C of some member, by scanning
    every subset C of the ground set (0 for the empty family)."""
    best = 0
    for c in range(1 << fam.ground_n):
        traces = {m & c for m in fam.masks}
        if all(s in traces for s in range(c + 1) if s & ~c == 0):
            best = max(best, c.bit_count())
    return best


def test_vc_matches_definition_on_random_families():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 6)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 24))]
        fam = SetFamily.from_masks(n, masks)
        assert vc_dimension_shattering(fam) == vc_oracle(fam), (n, fam.masks)
    for G in [random_geometry(6, 3, seed) for seed in range(40)]:
        assert vc_dimension_shattering(G.family) == vc_oracle(G.family)


# ---------------------------------------------------------------------------
# Boolean interval property

def test_boolean_property_on_geometries():
    for G in (boolean_algebra(3), pkn(1, 5), pkn(2, 5),
              linear_geometry((1, 2, 3))):
        ok, witness = check_boolean_property(G.poset)
        assert ok, witness


def test_boolean_property_rejects_n5():
    # pentagon lattice as an inclusion model: 0 < a < c < 1, 0 < b < 1
    fam = [[], [1], [2], [1, 3], [1, 2, 3]]
    masks = [set_to_mask(s) for s in fam]
    P = poset_from_relation(5, [(i, j) for i, a in enumerate(masks)
                                for j, b in enumerate(masks) if a & ~b == 0])
    ok, witness = check_boolean_property(P)
    assert not ok
    assert witness == 4    # the top: meet of its two covers is the bottom


def test_boolean_property_rejects_m3():
    # diamond with three atoms: not meet-distributive either
    fam = [[], [1], [2], [3], [1, 2, 3]]
    masks = [set_to_mask(s) for s in fam]
    P = poset_from_relation(5, [(i, j) for i, a in enumerate(masks)
                                for j, b in enumerate(masks) if a & ~b == 0])
    ok, witness = check_boolean_property(P)
    assert not ok


def boolean_property_pairwise(P):
    """check_boolean_property with the order of [X, y] checked on all pairs:
    z <= w iff the lower covers of y above w are among those above z."""
    lower = [[] for _ in range(P.n)]
    for x, y in P.covers:
        lower[y].append(x)
    for y in range(P.n):
        covs = lower[y]
        m = len(covs)
        if m == 0:
            continue
        common = P.down[covs[0]]
        for c in covs[1:]:
            common &= P.down[c]
        maximal = [z for z in range(P.n) if (common >> z) & 1
                   and not (P.up[z] & common & ~(1 << z))]
        if len(maximal) != 1:
            return False, y
        x = maximal[0]
        interval = [z for z in range(P.n) if P.leq(x, z) and P.leq(z, y)]
        if len(interval) != 1 << m:
            return False, y
        sig = {z: sum(1 << i for i, c in enumerate(covs) if P.leq(z, c))
               for z in interval}
        if len(set(sig.values())) != 1 << m:
            return False, y
        for z in interval:
            for w in interval:
                if ((sig[z] | sig[w]) == sig[z]) != P.leq(z, w):
                    return False, y
    return True, None


def test_boolean_property_matches_pairwise_check():
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(3000):
        n = rng.randint(1, 9)
        p = rng.random() * 0.6
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        P = poset_from_relation(n, pairs)
        got = check_boolean_property(P)
        assert got == boolean_property_pairwise(P), (n, pairs)
        verdicts[got[0]] += 1
    assert verdicts[True] and verdicts[False]
    # below 16 elements the signature count alone decides; the one-cover
    # steps show on the 4-cube (members are signatures, ordered by reverse
    # inclusion, top labelled 0) with the relation {0,1,2} <= {0,1} dropped
    pairs = [(z, w) for z in range(16) for w in range(16)
             if z != w and z | w == z and (z, w) != (7, 3)]
    P = poset_from_relation(16, pairs)
    assert check_boolean_property(P) == boolean_property_pairwise(P) == (False, 0)
    for G in enumerate_geometries(4):
        assert check_boolean_property(G.poset) == boolean_property_pairwise(G.poset)


# ---------------------------------------------------------------------------
# joins of geometries

def test_join_single_is_identity():
    G = linear_geometry((2, 1, 3))
    assert join_geometries([G]).masks == G.masks


def test_join_of_order_and_reverse_is_interval_family():
    n = 5
    G1 = linear_geometry(tuple(range(1, n + 1)))
    G2 = linear_geometry(tuple(range(n, 0, -1)))
    J = join_geometries([G1, G2])
    # members are exactly the intervals {i..j}
    expected = {0}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            expected.add(set_to_mask(range(i, j + 1)))
    assert set(J.masks) == expected
    from ordim import max_down_degree
    assert max_down_degree(J.poset) == 2
    assert max(map(len, J.poset.cover_succ)) == n


def test_join_of_all_maximal_chain_orders_recovers_geometry():
    for G in (pkn(1, 4), boolean_algebra(3)):
        orders = maximal_chains(G)
        parts = [linear_geometry(p) for p in orders]
        assert join_geometries(parts).masks == G.masks


def test_join_ground_mismatch():
    with pytest.raises(GroundMismatch):
        join_geometries([boolean_algebra(2), boolean_algebra(3)])


def test_join_output_validates():
    rng = random.Random(23)
    for _ in range(10):
        perms = []
        for _ in range(3):
            p = list(range(1, 5))
            rng.shuffle(p)
            perms.append(tuple(p))
        J = join_geometries([linear_geometry(p) for p in perms])
        assert isinstance(J, ConvexGeometry)


# ---------------------------------------------------------------------------
# convex realizers and maximal chains

def test_maximal_chain_orders_verify():
    G = pkn(1, 4)
    orders = maximal_chains(G)
    assert verify_convex_realizer(G, orders)


def test_single_order_fails_for_nonchain():
    G = boolean_algebra(2)
    assert not verify_convex_realizer(G, [(1, 2)])


def test_convex_realizer_rejects_non_int_entries():
    # 1.0 and True equal 1, so a sorted comparison alone would let them in
    G = linear_geometry((1, 2, 3))
    assert verify_convex_realizer(G, [(1, 2, 3)])
    assert not verify_convex_realizer(G, [(1.0, 2, 3)])
    assert not verify_convex_realizer(G, [(True, 2, 3)])


def test_convex_verifier_matches_join_oracle_on_small_domain():
    # bounded-exhaustive: every geometry on 3 points with every sequence of
    # 1-3 permutations, every geometry on 4 points with 1-2, plus each
    # 4-point geometry's own realizer, since random sequences almost always
    # reject
    accepts = 0
    for n, most in ((3, 3), (4, 2)):
        orders = list(permutations(range(1, n + 1)))
        sequences = [seq for k in range(1, most + 1)
                     for seq in product(orders, repeat=k)]
        for G in enumerate_geometries(n):
            own = [convex_dimension(G).realizer.perms] if n == 4 else []
            for perms in sequences + own:
                verdict = verify_convex_realizer(G, perms)
                assert verdict == convex_realizer_by_join(G, perms), (G.masks, perms)
                accepts += verdict
    # accepting cases: 258 on 3 points, 1,085 on 4 (485 own realizers)
    assert accepts == 258 + 1085


def test_maximal_chain_counts():
    assert len(maximal_chains(boolean_algebra(3))) == 6
    assert len(maximal_chains(linear_geometry((3, 1, 2)))) == 1
    # independent recursive oracle on the inclusion order of pkn(1,4)
    G = pkn(1, 4)

    def count_from(mask):
        if mask == (1 << G.ground_n) - 1:
            return 1
        total = 0
        for e in range(G.ground_n):
            nxt = mask | (1 << e)
            if nxt != mask and nxt in G.family:
                total += count_from(nxt)
        return total

    assert len(maximal_chains(G)) == count_from(0)


# ---------------------------------------------------------------------------
# gradedness and labels

def test_graded_family_size_matches_chain_length():
    for G in (boolean_algebra(3), pkn(1, 5), pkn(2, 6)):
        for order in maximal_chains(G)[:5]:
            assert len(order) == G.ground_n


def test_set_labels():
    assert set_label(0) == "∅"
    assert set_label(set_to_mask([1, 3, 4])) == "134"


def test_enumerate_matches_bruteforce_filter():
    from ordim import enumerate_geometries
    for n in (1, 2, 3):
        enum = sorted(tuple(G.masks) for G in enumerate_geometries(n))
        assert enum == brute_force_geometries(n)
