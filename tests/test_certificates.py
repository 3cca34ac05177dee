"""Certificate verifiers checked straight against the definitions."""

import math
import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from ordim import (BooleanRealizer, FractionalRealizer, LocalRealizer,
                   MalformedCertificate, Realizer, poset_from_relation,
                   verify_boolean_realizer, verify_fractional_realizer,
                   verify_local_realizer, verify_realizer)
from ordim.certificates import (is_linear_extension,
                                realizer_from_reversible_classes)

from oracles import linear_extensions
from posets import std_example


def s2_realizer():
    # reverses (a_0,b_0) in the first extension and (a_1,b_1) in the second
    return Realizer(((1, 2, 0, 3), (0, 3, 1, 2)))


def test_realizer_accepts_and_rejects():
    P = std_example(2)
    assert verify_realizer(P, s2_realizer())
    # dropping an extension leaves an incomparable pair uncovered
    assert not verify_realizer(P, Realizer(((1, 2, 0, 3),)))


def test_realizer_rejects_non_extension():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    assert not verify_realizer(P, Realizer(((2, 1, 0), (0, 1, 2))))


def test_realizer_malformed():
    P = std_example(2)
    with pytest.raises(MalformedCertificate):
        verify_realizer(P, Realizer(((0, 1, 2),)))
    # a malformed extension is refused even after one that is not linear
    # (3 before 0 although 0 < 3)
    with pytest.raises(MalformedCertificate):
        verify_realizer(P, Realizer(((3, 2, 1, 0), (0, 1, 2))))


def test_realizer_from_reversible_classes_certifies():
    P = std_example(2)
    assert realizer_from_reversible_classes(P, [[(0, 2)], [(1, 3)]]).extensions
    # reversing both critical pairs at once closes the cycle a0 < b1 < a1 < b0
    with pytest.raises(AssertionError, match="non-reversible"):
        realizer_from_reversible_classes(P, [[(0, 2), (1, 3)]])
    # one reversible class leaves (a1, b1) unreversed: no realizer of S_2
    with pytest.raises(AssertionError, match="non-verifying"):
        realizer_from_reversible_classes(P, [[(0, 2)]])


def test_realizer_as_boolean_realizer():
    # any realizer becomes a Boolean realizer with the all-ones string
    P = std_example(2)
    R = s2_realizer()
    BR = BooleanRealizer(R.extensions, frozenset({"11"}))
    assert verify_boolean_realizer(P, BR)


def test_boolean_realizer_chain_single_order():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    BR = BooleanRealizer(((0, 1, 2),), frozenset({"1"}))
    assert verify_boolean_realizer(P, BR)


def test_boolean_realizer_rejects_wrong_tau():
    P = std_example(2)
    BR = BooleanRealizer(s2_realizer().extensions, frozenset({"10"}))
    assert not verify_boolean_realizer(P, BR)


def test_boolean_realizer_malformed_tau():
    P = std_example(2)
    with pytest.raises(MalformedCertificate):
        verify_boolean_realizer(
            P, BooleanRealizer(s2_realizer().extensions, frozenset({"1"})))


def test_local_realizer_full_extensions():
    P = std_example(2)
    LR = LocalRealizer(s2_realizer().extensions)
    ok, r = verify_local_realizer(P, LR)
    assert ok and r == 2


def test_local_realizer_partial():
    # chain 0<1<2 with isolated 3: one full extension plus one short ple
    P = poset_from_relation(4, [(0, 1), (1, 2)])
    LR = LocalRealizer(((0, 1, 2, 3), (3, 0), (3, 1), (3, 2)))
    ok, r = verify_local_realizer(P, LR)
    assert ok and r == 4     # element 3 appears four times
    # dropping the (3,2) ple leaves the pair (2,3) unreversed
    ok, _ = verify_local_realizer(P, LocalRealizer(((0, 1, 2, 3), (3, 0), (3, 1))))
    assert not ok


def test_local_realizer_rejects_order_violation():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    ok, _ = verify_local_realizer(P, LocalRealizer(((1, 0), (0, 1, 2))))
    assert not ok


def test_fractional_realizer_antichain():
    P = poset_from_relation(2, [])
    one = Fraction(1)
    FR = FractionalRealizer((((0, 1), one), ((1, 0), one)))
    ok, total = verify_fractional_realizer(P, FR)
    assert ok and total == 2
    half = Fraction(1, 2)
    FR = FractionalRealizer((((0, 1), half), ((1, 0), half)))
    ok, total = verify_fractional_realizer(P, FR)
    assert not ok and total == 1


def test_fractional_realizer_malformed_weight():
    P = poset_from_relation(2, [])
    with pytest.raises(MalformedCertificate):
        verify_fractional_realizer(
            P, FractionalRealizer((((0, 1), Fraction(-1)),)))


def test_fractional_realizer_fractional_optimum():
    # S_2 with weights 1/2 on enough extensions is infeasible; weight 1 works
    P = std_example(2)
    exts = s2_realizer().extensions
    FR = FractionalRealizer(tuple((e, Fraction(1)) for e in exts))
    ok, total = verify_fractional_realizer(P, FR)
    assert ok and total == 2


def pair_covers(P, weighted):
    """{(a, b): weight of the extensions putting b before a} over the
    ordered incomparable pairs."""
    positions = [{x: i for i, x in enumerate(ext)} for ext, _ in weighted]
    return {(a, b): sum((w for (_, w), pos in zip(weighted, positions)
                         if pos[b] < pos[a]), Fraction(0))
            for a in range(P.n) for b in range(P.n)
            if a != b and P.incomparable(a, b)}


def fractional_verdict_by_fractions(P, cert):
    """Reference for verify_fractional_realizer, summing in Fractions."""
    total = sum((w for _, w in cert.weighted), Fraction(0))
    if not all(is_linear_extension(P, ext) for ext, _ in cert.weighted):
        return False, total
    return all(c >= 1 for c in pair_covers(P, cert.weighted).values()), total


def extension_by_priority(P, perm):
    """The linear extension that places, at each step, the element earliest
    in perm among those whose smaller elements are all placed."""
    rank = {x: i for i, x in enumerate(perm)}
    placed, out = 0, []
    while len(out) < P.n:
        x = min((x for x in range(P.n) if not (placed >> x) & 1
                 and not P.down[x] & ~(placed | 1 << x)), key=rank.get)
        out.append(x)
        placed |= 1 << x
    return tuple(out)


@st.composite
def fractional_certificates(draw):
    """A poset on 1..7 elements and weighted sequences: linear extensions and
    now and then a permutation that need not be one, with weights 0, ints
    and fractions of unrelated denominators. Some get an extension for each
    unreversed pair and are rescaled so that the least covered incomparable
    pair collects exactly 1, and some of those then lose 1/D from that pair,
    D the lcm of the rescaled weight denominators."""
    n = draw(st.integers(1, 7))
    edges = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    P = poset_from_relation(n, [e for e, on in zip(edges, keep) if on])
    weight = (st.sampled_from([0, 1, 2, Fraction(0), Fraction(1, 2)])
              | st.fractions(min_value=0, max_value=2, max_denominator=12))
    weighted = []
    for _ in range(draw(st.integers(0, 6))):
        perm = draw(st.permutations(range(n)))
        seq = perm if draw(st.integers(0, 9)) == 0 else extension_by_priority(P, perm)
        weighted.append((tuple(seq), draw(weight)))
    mode = draw(st.sampled_from(["as drawn", "exactly 1", "1 - 1/D"]))
    if mode != "as drawn":
        # give every unreversed pair (a, b) an extension placing b before a
        for (a, b), cover in pair_covers(P, weighted).items():
            if not cover:
                rest = [x for x in range(n) if x not in (a, b)]
                weighted.append((extension_by_priority(P, [b, *rest, a]),
                                 draw(weight.filter(bool))))
    covers = pair_covers(P, weighted)
    if mode != "as drawn" and covers:
        (a, b), low = min(covers.items(), key=lambda item: item[1])
        weighted = [(ext, w / low) for ext, w in weighted]
        if mode == "1 - 1/D":
            D = math.lcm(*(w.denominator for _, w in weighted))
            i = next(i for i, (ext, w) in enumerate(weighted)
                     if w and ext.index(b) < ext.index(a))
            weighted[i] = (weighted[i][0], weighted[i][1] - Fraction(1, D))
    return P, FractionalRealizer(tuple(weighted))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fractional_certificates())
def test_fractional_realizer_matches_fraction_sums(case):
    P, cert = case
    ok, total = verify_fractional_realizer(P, cert)
    assert (ok, total) == fractional_verdict_by_fractions(P, cert)
    assert type(total) is Fraction


def extension_by_definition(P, seq):
    """Every pair x < y of P appears in seq with x first."""
    pos = {x: i for i, x in enumerate(seq)}
    return all(pos[x] < pos[y] for x in range(P.n) for y in range(P.n)
               if P.lt(x, y))


# on the chain 0 < 1 < 2: 0.0 == 0 and True == 1, so these pass a set
# comparison with range(3) and then fail, or are misread, as indices
NON_INT_SEQUENCES = [(0.0, 1, 2), (True, 0, 2)]
NON_INT_CHECKS = {
    "realizer": lambda P, seq: verify_realizer(P, Realizer((seq,))),
    "linear-extension": is_linear_extension,
    "boolean": lambda P, seq: verify_boolean_realizer(
        P, BooleanRealizer((seq,), frozenset({"1"}))),
    "fractional": lambda P, seq: verify_fractional_realizer(
        P, FractionalRealizer(((seq, Fraction(1)),))),
    "local": lambda P, seq: verify_local_realizer(P, LocalRealizer((seq,))),
}


@pytest.mark.parametrize("check", sorted(NON_INT_CHECKS))
@pytest.mark.parametrize("seq", NON_INT_SEQUENCES, ids=["float", "bool"])
def test_verifiers_reject_non_int_entries(check, seq):
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    # the same sequence in ints is accepted (fractional and local return
    # (True, 1): total weight and largest multiplicity)
    assert NON_INT_CHECKS[check](P, (0, 1, 2)) in (True, (True, 1))
    with pytest.raises(MalformedCertificate):
        NON_INT_CHECKS[check](P, seq)


def test_fractional_realizer_rejects_bool_weights():
    # True == 1: read as weights, two Trues would cover the antichain
    P = poset_from_relation(2, [])
    ints = FractionalRealizer((((0, 1), 1), ((1, 0), 1)))
    assert verify_fractional_realizer(P, ints) == (True, 2)
    with pytest.raises(MalformedCertificate):
        verify_fractional_realizer(
            P, FractionalRealizer((((0, 1), True), ((1, 0), True))))


def test_is_linear_extension_matches_all_pairs_definition():
    rng = random.Random(71)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        P = poset_from_relation(n, [(perm[i], perm[j]) for i in range(n)
                                    for j in range(i + 1, n)
                                    if rng.random() < 0.3])
        seqs = [rng.sample(range(n), n) for _ in range(5)]
        seqs += [list(ext) for ext in islice(linear_extensions(P), 5)]
        for seq in seqs:
            want = extension_by_definition(P, seq)
            assert is_linear_extension(P, seq) == want, (P, seq)
            verdicts.add(want)
        for bad in (seqs[0][:-1], seqs[0] + [0], [n] + seqs[0][1:],
                    [seqs[0][0]] * n if n > 1 else [1]):
            with pytest.raises(MalformedCertificate):
                is_linear_extension(P, bad)
    assert verdicts == {True, False}
